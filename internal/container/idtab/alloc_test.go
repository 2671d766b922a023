//go:build !race

// Allocation pins count exact allocations, which the race detector's
// instrumentation changes; they run in normal builds only.

package idtab

import "testing"

// TestSteadyChurnAllocatesNothing: at a fixed count, inserting new keys,
// deleting old ones, looking keys up and resetting reuse the storage, on
// either hash.
func TestSteadyChurnAllocatesNothing(t *testing.T) {
	for _, keyed := range []bool{false, true} {
		var tab Table
		if keyed {
			tab.Rekey()
		}
		const live = 5000
		for k := uint64(0); k < live; k++ {
			tab.Put(k, k)
		}
		var batch Table
		next := uint64(live)
		cycle := func() {
			batch.Reset()
			for j := 0; j < 100; j++ {
				tab.Put(next, next)
				batch.Put(next, 0)
				tab.Get(next - live/2)
				tab.Delete(next - live)
				next++
			}
		}
		cycle()
		if got := testing.AllocsPerRun(100, cycle); got != 0 {
			t.Fatalf("keyed=%v: steady churn allocates %v per cycle, want 0", keyed, got)
		}
	}
}
