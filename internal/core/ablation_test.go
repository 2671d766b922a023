package core

import (
	"testing"

	"topkmon/internal/geom"
	"topkmon/internal/stream"
	"topkmon/internal/validate"
	"topkmon/internal/window"
)

// TestDeletionsFirstStillCorrect: inverting the processing order must not
// change any result — only the recomputation frequency.
func TestDeletionsFirstStillCorrect(t *testing.T) {
	for _, policy := range []Policy{TMA, SMA} {
		e := mustEngine(t, Options{
			Dims: 2, Window: window.Count(100), TargetCells: 100, DeletionsFirst: true,
		})
		f := geom.NewLinear(1, 2)
		id, err := e.Register(QuerySpec{F: f, K: 6, Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		gen := stream.NewGenerator(stream.IND, 2, 81)
		var valid []*stream.Tuple
		for ts := 0; ts < 50; ts++ {
			batch := gen.Batch(10, int64(ts))
			if _, err := e.Step(int64(ts), batch); err != nil {
				t.Fatal(err)
			}
			valid = append(valid, batch...)
			if len(valid) > 100 {
				valid = valid[len(valid)-100:]
			}
			got, _ := e.Result(id)
			want := validate.TopK(valid, f, 6, nil)
			if len(got) != len(want) {
				t.Fatalf("%v ts=%d: %d results want %d", policy, ts, len(got), len(want))
			}
			for j := range want {
				if got[j].T.ID != want[j].T.ID {
					t.Fatalf("%v ts=%d rank %d: p%d want p%d", policy, ts, j, got[j].T.ID, want[j].T.ID)
				}
			}
		}
	}
}

// TestDeletionsFirstRecomputesMore reproduces the Figure 8 argument: with
// Pdel handled before Pins, an arrival can no longer absorb a result
// expiration, so TMA recomputes from scratch more often.
func TestDeletionsFirstRecomputesMore(t *testing.T) {
	run := func(deletionsFirst bool) int64 {
		e := mustEngine(t, Options{
			Dims: 2, Window: window.Count(200), TargetCells: 144, DeletionsFirst: deletionsFirst,
		})
		if _, err := e.Register(QuerySpec{F: geom.NewLinear(1, 1), K: 10, Policy: TMA}); err != nil {
			t.Fatal(err)
		}
		gen := stream.NewGenerator(stream.IND, 2, 82)
		for ts := 0; ts < 100; ts++ {
			if _, err := e.Step(int64(ts), gen.Batch(20, int64(ts))); err != nil {
				t.Fatal(err)
			}
		}
		return e.Stats().Recomputes
	}
	paperOrder := run(false)
	inverted := run(true)
	if inverted < paperOrder {
		t.Fatalf("inverted order recomputed less: %d vs %d", inverted, paperOrder)
	}
	if inverted == paperOrder {
		t.Logf("warning: orders tied at %d recomputes (streams may avoid the absorbing case)", paperOrder)
	}
}

// TestDeletionsFirstSameCycleExpiry: r > N makes tuples arrive and expire
// within one cycle; the ablation path must not leak them into the grid.
func TestDeletionsFirstSameCycleExpiry(t *testing.T) {
	e := mustEngine(t, Options{
		Dims: 2, Window: window.Count(10), TargetCells: 16, DeletionsFirst: true,
	})
	f := geom.NewLinear(1, 1)
	id, _ := e.Register(QuerySpec{F: f, K: 3, Policy: TMA})
	gen := stream.NewGenerator(stream.IND, 2, 83)
	var valid []*stream.Tuple
	for ts := 0; ts < 10; ts++ {
		batch := gen.Batch(25, int64(ts)) // r=25 > N=10
		if _, err := e.Step(int64(ts), batch); err != nil {
			t.Fatal(err)
		}
		valid = append(valid[:0], batch[len(batch)-10:]...)
		if e.NumPoints() != 10 {
			t.Fatalf("ts=%d: grid holds %d points want 10", ts, e.NumPoints())
		}
		got, _ := e.Result(id)
		want := validate.TopK(valid, f, 3, nil)
		for j := range want {
			if got[j].T.ID != want[j].T.ID {
				t.Fatalf("ts=%d rank %d: p%d want p%d", ts, j, got[j].T.ID, want[j].T.ID)
			}
		}
	}
}

// TestDeletionsFirstExternalExpiry: an engine fed its expirations by the
// caller (the data-sharded layout) handles the inverted order exactly as an
// engine with its own window does, including batches larger than the window
// (whose overflow must never be indexed) and batches of which it receives
// nothing.
func TestDeletionsFirstExternalExpiry(t *testing.T) {
	opts := Options{Dims: 2, Window: window.Count(12), TargetCells: 16, DeletionsFirst: true}
	own := mustEngine(t, opts)
	opts.ExternalExpiry = true
	ext := mustEngine(t, opts)
	win := window.New(window.Count(12))
	thr := 0.8
	for _, spec := range []QuerySpec{
		{F: geom.NewLinear(1, 1), K: 3, Policy: TMA},
		{F: geom.NewLinear(1, 2), K: 4, Policy: SMA},
		{F: geom.NewLinear(2, 1), Threshold: &thr},
	} {
		for _, e := range []*Engine{own, ext} {
			if _, err := e.Register(spec); err != nil {
				t.Fatal(err)
			}
		}
	}
	gen := stream.NewGenerator(stream.IND, 2, 84)
	for ts, r := range []int{5, 30, 0, 13, 2, 40, 12, 1} {
		batch := gen.Batch(r, int64(ts))
		for _, tu := range batch {
			win.Push(tu)
		}
		want, err := own.Step(int64(ts), batch)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ext.StepExternal(int64(ts), batch, win.Expire(int64(ts)))
		if err != nil {
			t.Fatal(err)
		}
		if a, b := renderUpdates(got), renderUpdates(want); a != b {
			t.Fatalf("cycle %d (r=%d): external expiry reported %s, own window %s", ts, r, a, b)
		}
		if ext.NumPoints() != own.NumPoints() || ext.Stats().Arrivals != own.Stats().Arrivals {
			t.Fatalf("cycle %d (r=%d): external expiry indexes %d points after %d arrivals, own window %d after %d",
				ts, r, ext.NumPoints(), ext.Stats().Arrivals, own.NumPoints(), own.Stats().Arrivals)
		}
	}
}
