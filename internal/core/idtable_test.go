package core

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"topkmon/internal/geom"
	"topkmon/internal/stream"
)

// TestKeyedTablesChangeNothing: which hash the tuple tables use is
// invisible. Two engines are fed one update stream, one with every table
// switched to keyed hashing up front, as an adversarial id stream would
// leave it. They report identical transcripts, MemoryBytes and WindowTail,
// and reject the same invalid batches with the same errors; a rejected
// batch leaves the clock, the points and the tail as they were.
func TestKeyedTablesChangeNothing(t *testing.T) {
	opts := Options{Dims: 2, Mode: UpdateStream, TargetCells: 100}
	fib, keyed := mustEngine(t, opts), mustEngine(t, opts)
	keyed.RekeyTables()
	engines := []*Engine{fib, keyed}
	thr := 1.2
	specs := []QuerySpec{
		{F: geom.NewLinear(1, 1), K: 5, Policy: TMA},
		{F: geom.NewLinear(2, 0.5), K: 3, Policy: TMA},
		{F: geom.NewLinear(1, 1), Threshold: &thr},
	}
	for _, e := range engines {
		for _, s := range specs {
			if _, err := e.Register(s); err != nil {
				t.Fatal(err)
			}
		}
	}
	gen := stream.NewGenerator(stream.IND, 2, 5)
	rng := rand.New(rand.NewSource(5))
	var live []uint64
	for ts := int64(0); ts < 120; ts++ {
		arrivals := gen.Batch(12, ts)
		var deletions []uint64
		for i := 0; i < 10 && len(live) > 0; i++ {
			j := rng.Intn(len(live))
			deletions = append(deletions, live[j])
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		// A tuple may arrive and leave in the same cycle.
		deletions = append(deletions, arrivals[0].ID)
		if ts%8 == 7 {
			// Invalid variants first: a duplicate arrival, a deletion of
			// an unknown id, a repeated deletion.
			bad := []struct {
				arrivals  []*stream.Tuple
				deletions []uint64
				err       string
			}{
				{append(slices.Clone(arrivals), arrivals[3]), deletions, "core: duplicate tuple id"},
				{arrivals, append(slices.Clone(deletions), 1<<40), "core: deletion of unknown tuple"},
				{arrivals, append(slices.Clone(deletions), deletions[0]), "core: deletion of unknown tuple"},
			}
			for _, b := range bad {
				for i, e := range engines {
					now, points, tail := e.Now(), e.NumPoints(), e.WindowTail()
					_, err := e.StepUpdate(ts, b.arrivals, b.deletions)
					if err == nil || !strings.HasPrefix(err.Error(), b.err) {
						t.Fatalf("ts=%d engine %d: invalid batch returned %v, want %q", ts, i, err, b.err)
					}
					if e.Now() != now || e.NumPoints() != points || !slices.Equal(e.WindowTail(), tail) {
						t.Fatalf("ts=%d engine %d: a rejected batch changed the engine", ts, i)
					}
				}
			}
		}
		var got [2][]Update
		for i, e := range engines {
			u, err := e.StepUpdate(ts, arrivals, deletions)
			if err != nil {
				t.Fatalf("ts=%d engine %d: %v", ts, i, err)
			}
			got[i] = u
		}
		if !reflect.DeepEqual(got[0], got[1]) {
			t.Fatalf("ts=%d: transcripts differ:\n%v\n%v", ts, got[0], got[1])
		}
		if a, b := fib.MemoryBytes(), keyed.MemoryBytes(); a != b {
			t.Fatalf("ts=%d: MemoryBytes %d vs keyed %d", ts, a, b)
		}
		for _, tu := range arrivals[1:] {
			live = append(live, tu.ID)
		}
	}
	if a, b := fib.WindowTail(), keyed.WindowTail(); len(a) != len(live) || !slices.Equal(a, b) {
		t.Fatalf("tails differ: %d vs %d tuples, %d live", len(a), len(b), len(live))
	}
}
