//go:build !race

// Allocation pins count exact allocations, which the race detector's
// instrumentation changes; they run in normal builds only.

package shard

import (
	"math/rand"
	"testing"

	"topkmon/internal/core"
	"topkmon/internal/geom"
	"topkmon/internal/stream"
	"topkmon/internal/window"
)

// maxCleanCycleAllocs is the budget of a data-sharded cycle in which no
// query's result changes: the router stages, fans out and collects the
// cycle in reused scratch, so what remains is the engines' own steady
// state, which allocates nothing either.
const maxCleanCycleAllocs = 0

// TestDataStepCleanCycleAllocs pins the router's reused per-cycle scratch:
// once warmed up, a Step that leaves every result unchanged (a threshold
// query no tuple can reach, so the query index is still probed) allocates
// at most maxCleanCycleAllocs. Each shard's grid holds about 2.4 points per
// cell, the paper's sizing split across two shards, so cells drain and
// recycle their blocks as they would in production.
func TestDataStepCleanCycleAllocs(t *testing.T) {
	const (
		dims, n, r = 2, 4000, 200
		warm, runs = 300, 50
	)
	d, err := NewData(core.Options{Dims: dims, Window: window.Count(n), TargetCells: 841}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	thr := 3.0 // a linear score over [0,1]^2 never exceeds 2
	if _, err := d.Register(core.QuerySpec{F: geom.NewLinear(1, 1), Threshold: &thr}); err != nil {
		t.Fatal(err)
	}
	// Pre-generate every batch: AllocsPerRun counts the test's own
	// allocations too.
	rng := rand.New(rand.NewSource(1))
	cycles := warm + runs + 1
	batches := make([][]*stream.Tuple, cycles)
	seq := uint64(0)
	for c := range batches {
		batches[c] = make([]*stream.Tuple, r)
		for j := range batches[c] {
			seq++
			batches[c][j] = &stream.Tuple{ID: seq, Seq: seq, TS: int64(c + 1), Vec: geom.Vector{rng.Float64(), rng.Float64()}}
		}
	}
	next := 0
	step := func() {
		updates, err := d.Step(int64(next+1), batches[next])
		if err != nil || len(updates) != 0 {
			t.Fatalf("cycle %d: %d updates, err %v", next, len(updates), err)
		}
		next++
	}
	for next < warm {
		step()
	}
	if got := testing.AllocsPerRun(runs, step); got > maxCleanCycleAllocs {
		t.Fatalf("clean data-sharded cycle allocates %v, budget %d", got, maxCleanCycleAllocs)
	}
}
