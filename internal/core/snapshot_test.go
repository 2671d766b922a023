package core

import (
	"fmt"
	"testing"

	"topkmon/internal/geom"
	"topkmon/internal/stream"
	"topkmon/internal/window"
)

// snapshotCase is one query flavor whose snapshot is proven behavior-
// preserving: after exporting from one engine and importing into another
// engine fed the identical stream, the remaining cycles must produce
// byte-identical updates and results.
type snapshotCase struct {
	name string
	mode StreamMode
	win  window.Spec
	spec func() QuerySpec
}

func snapshotCases() []snapshotCase {
	region := geom.Rect{Lo: geom.Vector{0.2, 0.1}, Hi: geom.Vector{0.9, 0.8}}
	thr := 1.1
	return []snapshotCase{
		{"tma-count", AppendOnly, window.Count(400),
			func() QuerySpec { return QuerySpec{F: geom.NewLinear(1, 2), K: 7, Policy: TMA} }},
		{"sma-count", AppendOnly, window.Count(400),
			func() QuerySpec { return QuerySpec{F: geom.NewLinear(2, 1), K: 5, Policy: SMA} }},
		{"sma-time", AppendOnly, window.Time(4),
			func() QuerySpec { return QuerySpec{F: geom.NewLinear(1, 1), K: 9, Policy: SMA} }},
		{"tma-constrained", AppendOnly, window.Count(400),
			func() QuerySpec { return QuerySpec{F: geom.NewLinear(1, 2), K: 4, Policy: TMA, Constraint: &region} }},
		{"threshold", AppendOnly, window.Count(400),
			func() QuerySpec { return QuerySpec{F: geom.NewLinear(1, 1), Threshold: &thr} }},
		{"tma-update-stream", UpdateStream, window.Spec{},
			func() QuerySpec { return QuerySpec{F: geom.NewLinear(1, 2), K: 6, Policy: TMA} }},
	}
}

// stepBoth advances every engine with the same shared batch (snapshots
// carry tuples by pointer, so the engines must share them) and returns
// the per-engine updates.
func stepBoth(t *testing.T, mode StreamMode, engines []*Engine, ts int64, arrivals []*stream.Tuple, deletions []uint64) [][]Update {
	t.Helper()
	out := make([][]Update, len(engines))
	for i, e := range engines {
		var err error
		if mode == UpdateStream {
			out[i], err = e.StepUpdate(ts, arrivals, deletions)
		} else {
			out[i], err = e.Step(ts, arrivals)
		}
		if err != nil {
			t.Fatalf("engine %d cycle %d: %v", i, ts, err)
		}
	}
	return out
}

func renderUpdates(updates []Update) string {
	s := ""
	for _, u := range updates {
		s += fmt.Sprintf("+%v", u.Added)
		s += fmt.Sprintf("-%v", u.Removed)
	}
	return s
}

// TestSnapshotRoundTrip: a query exported mid-run and imported into a
// second engine that indexed the same stream behaves byte-identically to
// the query that never moved, for every query flavor: same updates every
// remaining cycle, same final result, same influence-list invariant, and
// the attributed cost carries over.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, tc := range snapshotCases() {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{Dims: 2, Mode: tc.mode, Window: tc.win, TargetCells: 64}
			src, err := NewEngine(opts)
			if err != nil {
				t.Fatal(err)
			}
			dst, err := NewEngine(opts)
			if err != nil {
				t.Fatal(err)
			}
			engines := []*Engine{src, dst}

			gen := stream.NewGenerator(stream.IND, 2, 3)
			var live []uint64
			batch := gen.Batch(300, 0)
			for _, tu := range batch {
				live = append(live, tu.ID)
			}
			stepBoth(t, tc.mode, engines, 0, batch, nil)

			id, err := src.Register(tc.spec())
			if err != nil {
				t.Fatal(err)
			}

			// Let the query accumulate real state: partially rotated window,
			// non-trivial skyband / top list / threshold result.
			for ts := int64(1); ts <= 6; ts++ {
				var del []uint64
				if tc.mode == UpdateStream {
					del, live = live[:20], live[20:]
				}
				batch := gen.Batch(80, ts)
				for _, tu := range batch {
					live = append(live, tu.ID)
				}
				stepBoth(t, tc.mode, engines, ts, batch, del)
			}

			snap, err := src.ExportQuery(id)
			if err != nil {
				t.Fatal(err)
			}
			if snap.Cost <= 0 {
				t.Fatalf("exported query has no attributed cost: %+v", snap.Cost)
			}
			const imported = QueryID(5)
			if err := dst.ImportQueryAt(snap, imported); err != nil {
				t.Fatal(err)
			}
			if err := dst.CheckInfluence(); err != nil {
				t.Fatalf("influence invariant violated after import: %v", err)
			}
			if info, err := dst.QueryInfoFor(imported); err != nil || info.Cost != snap.Cost {
				t.Fatalf("imported cost = %v (err %v), want %d", info.Cost, err, snap.Cost)
			}

			// Both engines keep running the same stream; the imported query
			// must shadow the original exactly.
			for ts := int64(7); ts <= 16; ts++ {
				var del []uint64
				if tc.mode == UpdateStream {
					del, live = live[:25], live[25:]
				}
				batch := gen.Batch(90, ts)
				for _, tu := range batch {
					live = append(live, tu.ID)
				}
				updates := stepBoth(t, tc.mode, engines, ts, batch, del)
				if a, b := renderUpdates(updates[0]), renderUpdates(updates[1]); a != b {
					t.Fatalf("cycle %d: updates diverged\nsrc: %s\ndst: %s", ts, a, b)
				}
				if err := dst.CheckInfluence(); err != nil {
					t.Fatalf("cycle %d: influence invariant: %v", ts, err)
				}
			}
			srcRes, err := src.Result(id)
			if err != nil {
				t.Fatal(err)
			}
			dstRes, err := dst.Result(imported)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(srcRes) != fmt.Sprint(dstRes) {
				t.Fatalf("final results diverged\nsrc: %v\ndst: %v", srcRes, dstRes)
			}
		})
	}
}

// TestSnapshotValidation: exports of unknown queries and imports under
// mismatched geometry or stream mode are rejected.
func TestSnapshotValidation(t *testing.T) {
	opts := Options{Dims: 2, Window: window.Count(100), TargetCells: 64}
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExportQuery(42); err == nil {
		t.Fatal("export of unknown query should fail")
	}
	id, err := e.Register(QuerySpec{F: geom.NewLinear(1, 1), K: 3, Policy: TMA})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := e.ExportQuery(id)
	if err != nil {
		t.Fatal(err)
	}

	for name, mut := range map[string]func(Options) Options{
		"dims":  func(o Options) Options { o.Dims = 3; return o },
		"cells": func(o Options) Options { o.TargetCells = 4096; return o },
		"mode": func(o Options) Options {
			o.Mode = UpdateStream
			o.Window = window.Spec{}
			return o
		},
	} {
		other, err := NewEngine(mut(opts))
		if err != nil {
			t.Fatal(err)
		}
		if err := other.ImportQueryAt(snap, 0); err == nil {
			t.Fatalf("%s-mismatched import should fail", name)
		}
	}

	// A malformed snapshot (stale influence cell from a bigger grid) is
	// rejected before touching engine state.
	bad := snap
	bad.InfluenceCells = append([]int(nil), snap.InfluenceCells...)
	bad.InfluenceCells[0] = 1 << 30
	same, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := same.ImportQueryAt(bad, 0); err == nil {
		t.Fatal("out-of-grid influence cell should be rejected")
	}

	// The reporting baseline is merged against the result, not hashed: a
	// top-k snapshot whose reported list is out of order is rejected...
	gen := stream.NewGenerator(stream.IND, 2, 5)
	if _, err := e.Step(0, gen.Batch(50, 0)); err != nil {
		t.Fatal(err)
	}
	thr := 1.0
	tid, err := e.Register(QuerySpec{F: geom.NewLinear(1, 1), Threshold: &thr})
	if err != nil {
		t.Fatal(err)
	}
	if snap, err = e.ExportQuery(id); err != nil || len(snap.LastReported) != 3 {
		t.Fatalf("export: %v, %d reported entries", err, len(snap.LastReported))
	}
	bad = snap
	bad.LastReported = []Entry{snap.LastReported[2], snap.LastReported[0], snap.LastReported[1]}
	if err := e.ImportQueryAt(bad, 2); err == nil {
		t.Fatal("out-of-order reported list should be rejected")
	}
	if err := e.ImportQueryAt(snap, id); err == nil {
		t.Fatal("import over a registered id should be rejected")
	}
	if n := e.NumQueries(); n != 2 {
		t.Fatalf("rejected imports left %d queries registered, want 2", n)
	}

	// A threshold query exports no result lists. A snapshot that still
	// carries one (the older format held the result set there) imports
	// with the list ignored: the result is the window's to say.
	tsnap, err := e.ExportQuery(tid)
	if err != nil || tsnap.LastReported != nil || tsnap.Top != nil || tsnap.Skyband != nil {
		t.Fatalf("threshold export: %v, lists %v / %v / %v", err, tsnap.LastReported, tsnap.Top, tsnap.Skyband)
	}
	want, err := e.Result(tid)
	if err != nil || len(want) < 2 {
		t.Fatalf("threshold result: %v, %d entries", err, len(want))
	}
	old := tsnap
	old.LastReported = append([]Entry{{T: &stream.Tuple{ID: 1 << 40, Seq: 1 << 40}, Score: 9}}, want[1:]...)
	const imported = QueryID(2)
	if err := e.ImportQueryAt(old, imported); err != nil {
		t.Fatalf("threshold snapshot with a reported list: %v", err)
	}
	if got, err := e.Result(imported); err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("imported threshold result %v (err %v), want %v", got, err, want)
	}
}
