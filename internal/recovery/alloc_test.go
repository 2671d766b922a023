//go:build !race

// Allocation pins count exact allocations, which the race detector's
// instrumentation changes; they run in normal builds only.

package recovery

import "testing"

// TestAppendAllocatesNothing pins the reused frame buffer: once the first
// append has sized it, appending a 1000-tuple batch allocates nothing.
func TestAppendAllocatesNothing(t *testing.T) {
	w, _, _ := openFaulty(t, SyncNone)
	defer w.Close()
	rec := batchRecord(1, 1000)
	if err := w.Append(rec); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(50, func() {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Fatalf("WAL.Append of a 1000-tuple batch allocates %v per call, want 0", got)
	}
}
