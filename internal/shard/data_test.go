package shard

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"topkmon/internal/core"
	"topkmon/internal/geom"
	"topkmon/internal/stream"
	"topkmon/internal/window"
)

// dataBuild constructs a data-partitioned monitor for runDifferential.
func dataBuild(shards int) func(core.Options) (core.StreamMonitor, error) {
	return func(opts core.Options) (core.StreamMonitor, error) { return NewData(opts, shards) }
}

// TestDataDifferentialCountWindow proves the data-partitioned monitor
// emits byte-identical update streams and results to the single engine
// over a count-based window, for TMA, SMA, constrained and threshold
// queries, at every shard count up to 16.
func TestDataDifferentialCountWindow(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 4, 8, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			runDifferential(t, dataBuild(shards), false, core.AppendOnly, window.Count(2000))
		})
	}
}

// TestDataDifferentialTimeWindow repeats the data-partitioned
// differential over a time-based window: expirations are driven by
// timestamps, and the router's global window must hand each shard exactly
// its slice of every expiration run.
func TestDataDifferentialTimeWindow(t *testing.T) {
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			runDifferential(t, dataBuild(shards), false, core.AppendOnly, window.Time(8))
		})
	}
}

// TestDataDifferentialUpdateStream repeats the data-partitioned
// differential under the explicit-deletion model: deletions are routed by
// tuple id to the one shard that indexed the tuple.
func TestDataDifferentialUpdateStream(t *testing.T) {
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			runDifferential(t, dataBuild(shards), false, core.UpdateStream, window.Spec{})
		})
	}
}

// TestDataTupleDistribution checks that hash partitioning spreads
// sequential tuple ids over all shards rather than clumping.
func TestDataTupleDistribution(t *testing.T) {
	const n = 8
	counts := make([]int, n)
	for id := uint64(0); id < 4096; id++ {
		counts[shardOfTuple(id, n)]++
	}
	for i, c := range counts {
		if c < 4096/n/2 || c > 4096/n*2 {
			t.Fatalf("shard %d received %d of 4096 tuples (poor spread: %v)", i, c, counts)
		}
	}
}

// TestDataPerShardMemoryScaling: with tuples partitioned, each shard's
// index must hold roughly N/shards tuples — the whole point of the layout.
func TestDataPerShardMemoryScaling(t *testing.T) {
	const (
		dims   = 4
		n      = 20000
		shards = 4
	)
	opts := core.Options{Dims: dims, Window: window.Count(n), TargetCells: 64}

	single, err := core.NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	data, err := NewData(opts, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer data.Close()

	for _, mon := range []core.StreamMonitor{single, data} {
		gen := stream.NewGenerator(stream.IND, dims, 42)
		if _, err := mon.Step(0, gen.Batch(n, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if got := data.NumPoints(); got != n {
		t.Fatalf("data NumPoints = %d, want %d", got, n)
	}

	singleMem := single.MemoryBytes()
	maxData := int64(0)
	for _, b := range data.ShardMemoryBytes() {
		if b > maxData {
			maxData = b
		}
	}
	// The largest shard holds ~N/shards tuples, so its footprint must be
	// well under half the single engine's.
	if maxData*2 >= singleMem {
		t.Fatalf("data-partitioned shard memory %d not O(N/shards) of single %d", maxData, singleMem)
	}
}

// TestDataMemoryBytesCountsRouterBuffers: the buffers the router keeps from
// cycle to cycle — every query's reported and spare merge lists and the
// per-shard cycle scratch — are in MemoryBytes at their capacity, as the
// grid counts its pooled blocks, because the governor's memory watermark
// reads MemoryBytes.
func TestDataMemoryBytesCountsRouterBuffers(t *testing.T) {
	const dims, shards = 3, 2
	d, err := NewData(core.Options{Dims: dims, Window: window.Count(600), TargetCells: 27}, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 8; i++ {
		if _, err := d.Register(core.QuerySpec{F: geom.NewLinear(1, float64(i+1), 1), K: 10}); err != nil {
			t.Fatal(err)
		}
	}
	gen := stream.NewGenerator(stream.IND, dims, 7)
	for ts := int64(0); ts < 20; ts++ {
		if _, err := d.Step(ts, gen.Batch(100, ts)); err != nil {
			t.Fatal(err)
		}
	}

	var lists, scratch int64
	for _, st := range d.queries {
		lists += int64(cap(st.reported)+cap(st.spare)) * 16
	}
	sc := &d.sc
	scratch = int64(cap(sc.run))*8 + int64(cap(sc.dirty))*4
	for i := 0; i < shards; i++ {
		scratch += int64(cap(sc.arrivals[i])+cap(sc.expired[i])+cap(sc.deleted[i])+cap(sc.snaps[i].ends)) * 8
		scratch += int64(cap(sc.snaps[i].entries)) * 16
	}
	if lists == 0 || scratch == 0 {
		t.Fatalf("router retains lists %d B, scratch %d B; the test exercises nothing", lists, scratch)
	}
	router := d.MemoryBytes() - d.win.MemoryBytes()
	for _, b := range d.ShardMemoryBytes() {
		router -= b
	}
	if router < lists+scratch {
		t.Fatalf("MemoryBytes counts %d B of router state, its merge lists and scratch retain %d B", router, lists+scratch)
	}
}

// TestDataCloseSemantics: operations after Close fail cleanly, double
// Close is a no-op, counter reads keep working.
func TestDataCloseSemantics(t *testing.T) {
	d, err := NewData(core.Options{Dims: 2, Window: window.Count(100), TargetCells: 16}, 3)
	if err != nil {
		t.Fatal(err)
	}
	gen := stream.NewGenerator(stream.IND, 2, 1)
	if _, err := d.Step(0, gen.Batch(50, 0)); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Step(1, gen.Batch(10, 1)); err == nil {
		t.Fatal("Step after Close should fail")
	}
	if _, err := d.Register(core.QuerySpec{F: geom.NewLinear(1, 1), K: 3}); err == nil {
		t.Fatal("Register after Close should fail")
	}
	if got := d.NumPoints(); got != 50 {
		t.Fatalf("NumPoints after Close = %d, want 50", got)
	}
	if got := d.Stats().Arrivals; got != 50 {
		t.Fatalf("Stats().Arrivals after Close = %d, want 50", got)
	}
}

// TestDataRegisterRollback: a rejected spec must not burn a query id —
// registration probes shard 0 first, so a failure touches no engine state.
func TestDataRegisterRollback(t *testing.T) {
	d, err := NewData(core.Options{Dims: 2, Window: window.Count(100), TargetCells: 16}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Register(core.QuerySpec{F: geom.NewLinear(1, 1), K: 0}); err == nil {
		t.Fatal("K=0 should be rejected")
	}
	id, err := d.Register(core.QuerySpec{F: geom.NewLinear(1, 1), K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if id != 0 {
		t.Fatalf("first successful registration got id %d, want 0", id)
	}
}

// TestDataConcurrentChurnStress drives data-partitioned cycles while
// churners register, read and unregister queries — under -race this is
// the memory-safety proof for the router's serialization of cross-shard
// query operations against cycles.
func TestDataConcurrentChurnStress(t *testing.T) {
	const (
		dims     = 3
		shards   = 4
		cycles   = 40
		rate     = 80
		churners = 3
	)
	d, err := NewData(core.Options{Dims: dims, Window: window.Count(1500), TargetCells: 64}, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	gen := stream.NewGenerator(stream.IND, dims, 5)
	if _, err := d.Step(0, gen.Batch(1500, 0)); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, churners+1)

	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			qg := stream.NewQueryGenerator(stream.FuncLinear, dims, seed)
			rng := rand.New(rand.NewSource(seed))
			var owned []core.QueryID
			for !stop.Load() {
				switch {
				case len(owned) < 6:
					id, err := d.Register(core.QuerySpec{F: qg.Next(), K: 1 + rng.Intn(10), Policy: core.SMA})
					if err != nil {
						errc <- err
						return
					}
					owned = append(owned, id)
				case rng.Intn(2) == 0:
					id := owned[rng.Intn(len(owned))]
					if _, err := d.Result(id); err != nil {
						errc <- err
						return
					}
					d.Stats()
					d.MemoryBytes() // races with Step's window unless serialized
				default:
					j := rng.Intn(len(owned))
					if err := d.Unregister(owned[j]); err != nil {
						errc <- err
						return
					}
					owned = append(owned[:j], owned[j+1:]...)
				}
			}
			for _, id := range owned {
				if err := d.Unregister(id); err != nil {
					errc <- err
					return
				}
			}
		}(int64(200 + c))
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for ts := int64(1); ts <= cycles; ts++ {
			if _, err := d.Step(ts, gen.Batch(rate, ts)); err != nil {
				errc <- err
				return
			}
			// Influence-list invariants are verified continuously — after
			// every cycle, with the churners still racing — not only at
			// end-of-run. Each engine's check runs atomically on its worker
			// goroutine, so the per-engine invariant must hold at every
			// job boundary.
			if err := d.CheckInfluence(); err != nil {
				errc <- fmt.Errorf("cycle %d: %w", ts, err)
				return
			}
		}
	}()

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	if n := d.NumQueries(); n != 0 {
		t.Fatalf("expected all churned queries unregistered, %d left", n)
	}
	if got, want := d.NumPoints(), 1500; got != want {
		t.Fatalf("NumPoints = %d, want %d", got, want)
	}
}

// TestDataRejectedUpdateLeavesNoState: an update cycle whose deletion
// names an unknown id is rejected whole, as by the single engine. The
// arrivals routed to the other shard must not be applied either, so the
// point count, the result and the tail are unchanged, and the corrected
// cycle then yields the single engine's transcript.
func TestDataRejectedUpdateLeavesNoState(t *testing.T) {
	opts := core.Options{Dims: 2, Mode: core.UpdateStream, TargetCells: 64}
	single, err := core.NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	data, err := NewData(opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer data.Close()
	spec := core.QuerySpec{F: geom.NewLinear(1, 1), K: 3, Policy: core.TMA}
	mons := []core.StreamMonitor{single, data}
	seq := uint64(0)
	batch := func(ts int64, ids ...uint64) []*stream.Tuple {
		out := make([]*stream.Tuple, len(ids))
		for i, id := range ids {
			seq++
			x := float64(id%97) / 97
			out[i] = &stream.Tuple{ID: id, Seq: seq, TS: ts, Vec: geom.Vector{x, 1 - x/2}}
		}
		return out
	}
	seed := batch(1, 1, 2)
	var fresh []uint64
	for id := uint64(3); id < 19; id++ {
		fresh = append(fresh, id)
	}
	arrivals := batch(2, fresh...)
	for _, mon := range mons {
		if _, err := mon.Register(spec); err != nil {
			t.Fatal(err)
		}
		if _, err := mon.StepUpdate(1, seed, nil); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := data.Result(0)
	tail := data.GlobalTail()

	const want = "core: deletion of unknown tuple 999"
	for i, mon := range mons {
		if _, err := mon.StepUpdate(2, arrivals, []uint64{999}); err == nil || err.Error() != want {
			t.Fatalf("monitor %d: rejected cycle returned %v, want %q", i, err, want)
		}
		if mon.NumPoints() != 2 {
			t.Fatalf("monitor %d: a rejected cycle left %d points, want 2", i, mon.NumPoints())
		}
	}
	if after, _ := data.Result(0); !sameKeys(keysOf(before), keysOf(after)) {
		t.Fatalf("a rejected cycle moved the result: %v -> %v", keysOf(before), keysOf(after))
	}
	if got := data.GlobalTail(); len(got) != len(tail) || got[0] != tail[0] || got[1] != tail[1] {
		t.Fatalf("a rejected cycle moved the tail: %d tuples, want %d", len(got), len(tail))
	}

	ref, err := single.StepUpdate(2, arrivals, []uint64{2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := data.StepUpdate(2, arrivals, []uint64{2})
	if err != nil {
		t.Fatalf("the corrected cycle was rejected: %v", err)
	}
	diffUpdates(t, 2, ref, got)
	r1, _ := single.Result(0)
	r2, _ := data.Result(0)
	if !sameKeys(keysOf(r1), keysOf(r2)) || data.NumPoints() != single.NumPoints() {
		t.Fatalf("after the corrected cycle: %v (%d points) vs single %v (%d points)",
			keysOf(r2), data.NumPoints(), keysOf(r1), single.NumPoints())
	}
}

// TestRejectedStepRetries pins the validate-then-commit contract of the
// append-only Step on the single engine and the sharded monitor: a cycle
// rejected for one bad arrival must leave the clock and the sequence
// watermark where they were, so its corrected retry, carrying the same
// valid arrivals, is accepted and produces the same results everywhere.
func TestRejectedStepRetries(t *testing.T) {
	opts := core.Options{Dims: 2, Window: window.Count(8), TargetCells: 16}
	single, err := core.NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	data, err := NewData(opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer data.Close()
	tuple := func(id uint64, ts int64) *stream.Tuple {
		x := float64(id%13) / 13
		return &stream.Tuple{ID: id, Seq: id, TS: ts, Vec: geom.Vector{x, 1 - x/2}}
	}
	spec := core.QuerySpec{F: geom.NewLinear(1, 1), K: 3, Policy: core.TMA}
	for i, mon := range []core.StreamMonitor{single, data} {
		if _, err := mon.Register(spec); err != nil {
			t.Fatal(err)
		}
		if _, err := mon.Step(1, []*stream.Tuple{tuple(1, 1), tuple(2, 1)}); err != nil {
			t.Fatal(err)
		}
		// A valid prefix, then an arrival stamped with the wrong cycle.
		bad := []*stream.Tuple{tuple(3, 2), tuple(4, 2), tuple(5, 9)}
		if _, err := mon.Step(2, bad); err == nil {
			t.Fatalf("monitor %d: a mis-stamped arrival was accepted", i)
		}
		// A valid prefix, then a repeated sequence number.
		if _, err := mon.Step(2, []*stream.Tuple{tuple(3, 2), tuple(4, 2), tuple(4, 2)}); err == nil {
			t.Fatalf("monitor %d: a repeated sequence number was accepted", i)
		}
		// A time regression after the rejected cycles is still one.
		if _, err := mon.Step(0, nil); err == nil {
			t.Fatalf("monitor %d: time went backwards without an error", i)
		}
		if _, err := mon.Step(2, []*stream.Tuple{tuple(3, 2), tuple(4, 2), tuple(5, 2)}); err != nil {
			t.Fatalf("monitor %d: the corrected retry was rejected: %v", i, err)
		}
		if mon.NumPoints() != 5 {
			t.Fatalf("monitor %d: %d points after the retry, want 5", i, mon.NumPoints())
		}
		res, err := mon.Result(0)
		if err != nil {
			t.Fatal(err)
		}
		var ids []uint64
		for _, en := range res {
			ids = append(ids, en.T.ID)
		}
		if got := fmt.Sprint(ids); got != "[5 4 3]" {
			t.Fatalf("monitor %d: result %s after the retry, want [5 4 3]", i, got)
		}
	}
}
