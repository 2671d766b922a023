//go:build !race

// Allocation pins count exact allocations, which the race detector's
// instrumentation changes; they run in normal builds only.

package core

import (
	"math/rand"
	"testing"

	"topkmon/internal/geom"
	"topkmon/internal/stream"
)

// TestSteadyUpdateCycleAllocs pins the update-stream cycle: a 10k-live
// engine with no queries takes 500 arrivals and 500 random deletions per
// cycle. The tuple table and the two per-cycle id tables keep their
// storage, so the id path allocates nothing. What remains are the grid's
// block-pool misses (grid.takeBlock: random deletion drains cells in no
// particular order, and a miss allocates a block's five columns), pinned
// at the count this stream measures.
func TestSteadyUpdateCycleAllocs(t *testing.T) {
	const (
		dims, live, rate = 4, 10000, 500
		warm, runs       = 200, 50
		poolMissAllocs   = 1
	)
	e := mustEngine(t, Options{Dims: dims, Mode: UpdateStream, GridRes: 8})
	rng := rand.New(rand.NewSource(1))
	cycles := live/rate + warm + runs + 1
	batches := make([][]*stream.Tuple, cycles)
	deletions := make([][]uint64, cycles)
	var ids []uint64
	next := uint64(0)
	for c := range batches {
		// Deletions name tuples live before the cycle; ids holds them.
		for j := 0; j < rate && c >= live/rate; j++ {
			k := rng.Intn(len(ids))
			deletions[c] = append(deletions[c], ids[k])
			ids[k] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
		}
		for j := 0; j < rate; j++ {
			v := geom.Vector{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
			batches[c] = append(batches[c], &stream.Tuple{ID: next, Seq: next, TS: int64(c), Vec: v})
			ids = append(ids, next)
			next++
		}
	}
	c := 0
	step := func() {
		if _, err := e.StepUpdate(int64(c), batches[c], deletions[c]); err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
		c++
	}
	for c < live/rate+warm {
		step()
	}
	tables := e.batchIDs.MemoryBytes() + e.goneIDs.MemoryBytes()
	got := testing.AllocsPerRun(runs, step)
	if now := e.batchIDs.MemoryBytes() + e.goneIDs.MemoryBytes(); now != tables {
		t.Fatalf("the per-cycle id tables resized in steady state: %d -> %d bytes", tables, now)
	}
	if got > poolMissAllocs {
		t.Fatalf("a steady update cycle allocates %v, pool misses account for %d", got, poolMissAllocs)
	}
}
