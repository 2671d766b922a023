//go:build !race

// Allocation pins count exact allocations, which the race detector's
// instrumentation changes; they run in normal builds only.

package grid

import (
	"math/rand"
	"testing"

	"topkmon/internal/stream"
)

// TestSteadyFIFOChurnAllocatesNothing pins the recycled-block design:
// sliding-window churn at about 2.4 points per cell (the paper's grid
// sizing, split across two data shards) drains and refills cells every few
// cycles, and after warm-up a cycle of inserts and removals allocates
// nothing.
func TestSteadyFIFOChurnAllocatesNothing(t *testing.T) {
	const dims, res = 4, 8 // 4096 cells
	c := newChurnGrid(dims, res, 9830, 200, 1)
	for i := 0; i < 3*len(c.ring)/c.r; i++ {
		c.cycle(t)
	}
	if got := testing.AllocsPerRun(100, func() { c.cycle(t) }); got != 0 {
		t.Fatalf("steady FIFO churn allocates %v per cycle, want 0", got)
	}
}

// TestSteadyRandomChurnAllocs is the Random-mode case: the same sizing,
// with each cycle's removals drawn uniformly from the live tuples, so
// every removal resolves its victim through the tuple table and
// swap-deletes it. The table runs at a fixed count and allocates nothing.
// What allocates is the block pool: random removal drains cells in no
// particular order, so a cycle now and then needs more small blocks than
// the pool retains, and each takeBlock miss allocates the five columns of
// a new block. The pin is the count this stream measures.
func TestSteadyRandomChurnAllocs(t *testing.T) {
	const (
		dims, res, n, r = 4, 8, 9830, 200
		warm, runs      = 300, 100
		poolMissAllocs  = 4
	)
	g := New(dims, res, Random)
	rng := rand.New(rand.NewSource(1))
	cycles := n/r + warm + runs + 1
	tuples := make([]*stream.Tuple, cycles*r)
	for i := range tuples {
		v := make([]float64, dims)
		for d := range v {
			v[d] = rng.Float64()
		}
		tuples[i] = &stream.Tuple{ID: uint64(i), Seq: uint64(i), Vec: v}
	}
	// victims[c] are cycle c's removals, chosen up front from the tuples
	// live at that cycle.
	victims := make([][]*stream.Tuple, cycles)
	var live []*stream.Tuple
	for c := range victims {
		live = append(live, tuples[c*r:(c+1)*r]...)
		for len(live) > n {
			k := rng.Intn(len(live))
			victims[c] = append(victims[c], live[k])
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	c := 0
	cycle := func() {
		for _, tu := range tuples[c*r : (c+1)*r] {
			g.Insert(tu)
		}
		for _, tu := range victims[c] {
			if !g.Remove(tu) {
				t.Fatalf("cycle %d: tuple %d not found", c, tu.ID)
			}
		}
		c++
	}
	for c < n/r+warm {
		cycle()
	}
	slots := g.ids.MemoryBytes()
	got := testing.AllocsPerRun(runs, cycle)
	if g.ids.MemoryBytes() != slots {
		t.Fatalf("the tuple table resized at a fixed count: %d -> %d bytes", slots, g.ids.MemoryBytes())
	}
	if got > poolMissAllocs {
		t.Fatalf("steady Random churn allocates %v per cycle, pool misses account for %d", got, poolMissAllocs)
	}
}
