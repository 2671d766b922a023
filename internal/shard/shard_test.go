package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"topkmon/internal/core"
	"topkmon/internal/geom"
	"topkmon/internal/stream"
	"topkmon/internal/window"
)

// entryKey is the comparable projection of a result entry: tuple identity
// plus score. Tuple pointers differ between monitors fed separate (but
// identical) streams, so comparisons go through this.
type entryKey struct {
	id    uint64
	seq   uint64
	score float64
}

func keysOf(entries []core.Entry) []entryKey {
	out := make([]entryKey, len(entries))
	for i, e := range entries {
		out[i] = entryKey{id: e.T.ID, seq: e.T.Seq, score: e.Score}
	}
	return out
}

func sameKeys(a, b []entryKey) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// diffUpdates fails the test unless the two update batches are identical.
func diffUpdates(t *testing.T, cycle int64, ref, got []core.Update) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("cycle %d: reference emitted %d updates, sharded %d", cycle, len(ref), len(got))
	}
	for i := range ref {
		if ref[i].Query != got[i].Query {
			t.Fatalf("cycle %d update %d: query %d vs %d", cycle, i, ref[i].Query, got[i].Query)
		}
		if !sameKeys(keysOf(ref[i].Added), keysOf(got[i].Added)) {
			t.Fatalf("cycle %d query %d: Added diverged\nref: %v\ngot: %v",
				cycle, ref[i].Query, keysOf(ref[i].Added), keysOf(got[i].Added))
		}
		if !sameKeys(keysOf(ref[i].Removed), keysOf(got[i].Removed)) {
			t.Fatalf("cycle %d query %d: Removed diverged\nref: %v\ngot: %v",
				cycle, ref[i].Query, keysOf(ref[i].Removed), keysOf(got[i].Removed))
		}
	}
}

// registerMixedQueries installs the same query mix on both monitors: TMA,
// SMA (append-only mode only), constrained, and threshold queries.
func registerMixedQueries(t *testing.T, mon core.StreamMonitor, mode core.StreamMode, qg *stream.QueryGenerator, n int) []core.QueryID {
	t.Helper()
	var ids []core.QueryID
	region := geom.Rect{
		Lo: geom.Vector{0.2, 0.1, 0, 0},
		Hi: geom.Vector{0.9, 0.8, 1, 1},
	}
	for i := 0; i < n; i++ {
		spec := core.QuerySpec{F: qg.Next(), K: 3 + i%7}
		switch i % 4 {
		case 0:
			spec.Policy = core.TMA
		case 1:
			if mode == core.UpdateStream {
				spec.Policy = core.TMA
			} else {
				spec.Policy = core.SMA
			}
		case 2:
			spec.Policy = core.TMA
			spec.Constraint = &region
		case 3:
			thr := 1.0 + float64(i%5)*0.1
			spec.Threshold = &thr
		}
		id, err := mon.Register(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	return ids
}

// runDifferential drives a single engine and a data-sharded monitor
// (built by build) through an identical stream and asserts equal ids,
// updates, results and the client-visible counters. Each shard sees only
// a slice of the stream, so influence events, recomputations and processed
// cells legitimately differ from the single engine's and are not compared.
// With coldStart the queries are registered on the empty monitors and the
// 1000-tuple prefill is their first cycle; otherwise they are registered
// after it, over a populated window.
func runDifferential(t *testing.T, build func(core.Options) (core.StreamMonitor, error), coldStart bool, mode core.StreamMode, spec window.Spec) {
	t.Helper()
	const (
		dims    = 4
		queries = 24
		cycles  = 30
		rate    = 150
	)
	opts := core.Options{Dims: dims, Window: spec, Mode: mode, TargetCells: 256}

	ref, err := core.NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := build(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()

	// Two generator instances with the same seed produce identical streams
	// of distinct tuple instances, so accidental cross-monitor aliasing
	// cannot mask a divergence.
	genRef := stream.NewGenerator(stream.IND, dims, 11)
	genSh := stream.NewGenerator(stream.IND, dims, 11)

	// The prefill: before registration, so initial computations see data,
	// or after it on a cold start.
	preFill := func(mon core.StreamMonitor, gen *stream.Generator) []core.Update {
		var upd []core.Update
		var err error
		if mode == core.UpdateStream {
			upd, err = mon.StepUpdate(0, gen.Batch(1000, 0), nil)
		} else {
			upd, err = mon.Step(0, gen.Batch(1000, 0))
		}
		if err != nil {
			t.Fatal(err)
		}
		return upd
	}
	if !coldStart {
		diffUpdates(t, 0, preFill(ref, genRef), preFill(sh, genSh))
	}

	refIDs := registerMixedQueries(t, ref, mode, stream.NewQueryGenerator(stream.FuncLinear, dims, 7), queries)
	shIDs := registerMixedQueries(t, sh, mode, stream.NewQueryGenerator(stream.FuncLinear, dims, 7), queries)
	for i := range refIDs {
		if refIDs[i] != shIDs[i] {
			t.Fatalf("query id divergence at %d: %d vs %d", i, refIDs[i], shIDs[i])
		}
	}
	if coldStart {
		diffUpdates(t, 0, preFill(ref, genRef), preFill(sh, genSh))
	}

	// Mid-stream churn below exercises unregistration and late registration
	// on both monitors identically.
	churn := func(mon core.StreamMonitor, ids []core.QueryID, qg *stream.QueryGenerator) []core.QueryID {
		if err := mon.Unregister(ids[3]); err != nil {
			t.Fatal(err)
		}
		if err := mon.Unregister(ids[10]); err != nil {
			t.Fatal(err)
		}
		id, err := mon.Register(core.QuerySpec{F: qg.Next(), K: 5, Policy: core.TMA})
		if err != nil {
			t.Fatal(err)
		}
		return append(append([]core.QueryID{}, ids...), id)
	}

	rngRef := rand.New(rand.NewSource(23))
	rngSh := rand.New(rand.NewSource(23))
	var liveRef, liveSh []uint64
	if mode == core.UpdateStream {
		for i := uint64(0); i < 1000; i++ {
			liveRef = append(liveRef, i)
			liveSh = append(liveSh, i)
		}
	}
	pickDeletions := func(rng *rand.Rand, live *[]uint64, n int) []uint64 {
		del := make([]uint64, 0, n)
		for i := 0; i < n && len(*live) > 0; i++ {
			j := rng.Intn(len(*live))
			del = append(del, (*live)[j])
			(*live)[j] = (*live)[len(*live)-1]
			*live = (*live)[:len(*live)-1]
		}
		return del
	}

	for ts := int64(1); ts <= cycles; ts++ {
		if ts == cycles/2 {
			qgRef := stream.NewQueryGenerator(stream.FuncLinear, dims, 99)
			qgSh := stream.NewQueryGenerator(stream.FuncLinear, dims, 99)
			refIDs = churn(ref, refIDs, qgRef)
			shIDs = churn(sh, shIDs, qgSh)
			if refIDs[len(refIDs)-1] != shIDs[len(shIDs)-1] {
				t.Fatalf("late registration id divergence: %d vs %d",
					refIDs[len(refIDs)-1], shIDs[len(shIDs)-1])
			}
		}
		var refUpd, shUpd []core.Update
		var errRef, errSh error
		if mode == core.UpdateStream {
			arrRef := genRef.Batch(rate, ts)
			arrSh := genSh.Batch(rate, ts)
			for _, a := range arrRef {
				liveRef = append(liveRef, a.ID)
			}
			for _, a := range arrSh {
				liveSh = append(liveSh, a.ID)
			}
			refUpd, errRef = ref.StepUpdate(ts, arrRef, pickDeletions(rngRef, &liveRef, rate))
			shUpd, errSh = sh.StepUpdate(ts, arrSh, pickDeletions(rngSh, &liveSh, rate))
		} else {
			refUpd, errRef = ref.Step(ts, genRef.Batch(rate, ts))
			shUpd, errSh = sh.Step(ts, genSh.Batch(rate, ts))
		}
		if errRef != nil || errSh != nil {
			t.Fatalf("cycle %d: ref err %v, sharded err %v", ts, errRef, errSh)
		}
		diffUpdates(t, ts, refUpd, shUpd)
	}

	// Final per-query results must match entry for entry.
	for _, id := range refIDs {
		refRes, errRef := ref.Result(id)
		shRes, errSh := sh.Result(id)
		if (errRef == nil) != (errSh == nil) {
			t.Fatalf("query %d: result errors diverge: %v vs %v", id, errRef, errSh)
		}
		if errRef != nil {
			continue // both unregistered
		}
		if !sameKeys(keysOf(refRes), keysOf(shRes)) {
			t.Fatalf("query %d: final result diverged\nref: %v\ngot: %v",
				id, keysOf(refRes), keysOf(shRes))
		}
	}

	if ref.NumPoints() != sh.NumPoints() {
		t.Fatalf("NumPoints: %d vs %d", ref.NumPoints(), sh.NumPoints())
	}
	if ref.NumQueries() != sh.NumQueries() {
		t.Fatalf("NumQueries: %d vs %d", ref.NumQueries(), sh.NumQueries())
	}

	// Stream-level counters and the client-visible update count must equal
	// the single engine's.
	rs, ss := ref.Stats(), sh.Stats()
	if rs.Arrivals != ss.Arrivals || rs.Expirations != ss.Expirations {
		t.Fatalf("stream counters diverged: ref %+v sharded %+v", rs, ss)
	}
	if rs.ResultUpdates != ss.ResultUpdates {
		t.Fatalf("ResultUpdates diverged: ref %d sharded %d", rs.ResultUpdates, ss.ResultUpdates)
	}
}

// TestDifferentialCountWindow is the cold-start differential over a
// count-based window: queries registered on empty shards, whose first
// cycle fills them, must report exactly what the single engine reports.
func TestDifferentialCountWindow(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			runDifferential(t, dataBuild(shards), true, core.AppendOnly, window.Count(2000))
		})
	}
}

// TestDifferentialTimeWindow repeats the cold-start differential over a
// time-based window, where expirations are driven by timestamps.
func TestDifferentialTimeWindow(t *testing.T) {
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			runDifferential(t, dataBuild(shards), true, core.AppendOnly, window.Time(8))
		})
	}
}

// TestDifferentialUpdateStream repeats the cold-start differential under
// the explicit-deletion stream model of Section 7.
func TestDifferentialUpdateStream(t *testing.T) {
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			runDifferential(t, dataBuild(shards), true, core.UpdateStream, window.Spec{})
		})
	}
}

// TestCloseSemantics: after Close every mutating operation reports
// ErrStopped through errors.Is, and the counter reads keep working on the
// quiescent engines.
func TestCloseSemantics(t *testing.T) {
	for _, mode := range []core.StreamMode{core.AppendOnly, core.UpdateStream} {
		opts := core.Options{Dims: 2, Window: window.Count(100), Mode: mode, TargetCells: 16}
		if mode == core.UpdateStream {
			opts.Window = window.Spec{}
		}
		d, err := NewData(opts, 3)
		if err != nil {
			t.Fatal(err)
		}
		gen := stream.NewGenerator(stream.IND, 2, 1)
		if mode == core.UpdateStream {
			_, err = d.StepUpdate(0, gen.Batch(50, 0), nil)
		} else {
			_, err = d.Step(0, gen.Batch(50, 0))
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Register(core.QuerySpec{F: geom.NewLinear(1, 1), K: 3}); err != nil {
			t.Fatal(err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		ops := map[string]func() error{
			"Register":   func() error { _, err := d.Register(core.QuerySpec{F: geom.NewLinear(1, 1), K: 3}); return err },
			"Unregister": func() error { return d.Unregister(0) },
			"Result":     func() error { _, err := d.Result(0); return err },
			"Barrier":    func() error { return d.Barrier(func(int, *core.Engine) error { return nil }) },
			"RestoreRouterQueries": func() error {
				return d.RestoreRouterQueries([]RouterQuery{{ID: 9, Spec: core.QuerySpec{F: geom.NewLinear(1, 1), K: 3}}})
			},
		}
		if mode == core.AppendOnly {
			ops["Step"] = func() error { _, err := d.Step(1, gen.Batch(10, 1)); return err }
		} else {
			ops["StepUpdate"] = func() error { _, err := d.StepUpdate(1, gen.Batch(10, 1), nil); return err }
		}
		for name, op := range ops {
			if err := op(); !errors.Is(err, ErrStopped) {
				t.Fatalf("%v: %s after Close: got %v, want ErrStopped", mode, name, err)
			}
		}
		if got := d.NumPoints(); got != 50 {
			t.Fatalf("%v: NumPoints after Close = %d, want 50", mode, got)
		}
		if got := d.NumQueries(); got != 1 {
			t.Fatalf("%v: NumQueries after Close = %d, want 1", mode, got)
		}
		if got := len(d.ShardLoads()); got != 3 {
			t.Fatalf("%v: ShardLoads after Close has %d shards, want 3", mode, got)
		}
		if d.MemoryBytes() <= 0 {
			t.Fatalf("%v: MemoryBytes after Close is not positive", mode)
		}
	}
}

// TestRegisterValidationRollback: a rejected spec leaves no query behind
// on any shard engine and burns no id, so id assignment stays aligned
// with the single engine after the rejection.
func TestRegisterValidationRollback(t *testing.T) {
	d, err := NewData(core.Options{Dims: 2, Window: window.Count(100), TargetCells: 16}, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Register(core.QuerySpec{F: geom.NewLinear(1, 1), K: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Register(core.QuerySpec{F: geom.NewLinear(1, 1), K: 0}); err == nil {
		t.Fatal("K=0 should be rejected")
	}
	perShard := make([]int, d.NumShards())
	d.broadcast(func(i int, e *core.Engine) { perShard[i] = e.NumQueries() })
	for i, n := range perShard {
		if n != 1 {
			t.Fatalf("shard %d holds %d queries after a rejected registration, want 1", i, n)
		}
	}
	id, err := d.Register(core.QuerySpec{F: geom.NewLinear(1, 1), K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Fatalf("registration after the rejection got id %d, want 1", id)
	}
}

// TestShardDistribution checks that tuple routing reaches every shard at
// every shard count up to 16, through the TupleBuckets bucket space, with
// no shard holding more than twice its share of sequential ids.
func TestShardDistribution(t *testing.T) {
	for n := 1; n <= 16; n++ {
		counts := make([]int, n)
		for id := uint64(0); id < 4096; id++ {
			counts[shardOfTuple(id, n)]++
		}
		for i, c := range counts {
			if c == 0 || c > 2*4096/n {
				t.Fatalf("n=%d: shard %d received %d of 4096 tuples (%v)", n, i, c, counts)
			}
		}
	}
}
