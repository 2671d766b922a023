//go:build !race

// Allocation pins count exact allocations, which the race detector's
// instrumentation changes; they run in normal builds only.

package grid

import "testing"

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
