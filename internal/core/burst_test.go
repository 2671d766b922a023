package core

import (
	"math/rand"
	"testing"

	"topkmon/internal/stream"
)

// churnBursts replays a scaled copy of the benchmark's churn-update
// workload on one engine: an update stream of 10,000 live tuples (d = 4,
// IND, the benchmark's tuples per cell) with 50 arrivals and 50 deletions of random live tuples per cycle,
// 64 TMA top-20 queries, 300 cycles from a fixed seed. It returns the
// recomputations of each cycle.
func churnBursts(t *testing.T) []int64 {
	t.Helper()
	const (
		live, rate, queries, k, cycles = 10000, 50, 64, 20, 300
	)
	e := mustEngine(t, Options{Dims: 4, Mode: UpdateStream, TargetCells: live * DefaultTargetCells / 100000})
	gen := stream.NewGenerator(stream.IND, 4, 61)
	prefill := gen.Batch(live, 0)
	if _, err := e.StepUpdate(0, prefill, nil); err != nil {
		t.Fatal(err)
	}
	ids := make([]uint64, 0, live+rate)
	for _, tu := range prefill {
		ids = append(ids, tu.ID)
	}
	qg := stream.NewQueryGenerator(stream.FuncLinear, 4, 62)
	for i := 0; i < queries; i++ {
		if _, err := e.Register(QuerySpec{F: qg.Next(), K: k, Policy: TMA}); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(63))
	out := make([]int64, 0, cycles)
	deletions := make([]uint64, rate)
	for ts := int64(1); ts <= cycles; ts++ {
		for i := range deletions {
			j := rng.Intn(len(ids))
			deletions[i] = ids[j]
			ids[j] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
		}
		arrivals := gen.Batch(rate, ts)
		for _, tu := range arrivals {
			ids = append(ids, tu.ID)
		}
		before := e.Stats().Recomputes
		if _, err := e.StepUpdate(ts, arrivals, deletions); err != nil {
			t.Fatal(err)
		}
		out = append(out, e.Stats().Recomputes-before)
	}
	return out
}

// TestChurnRecomputeBursts pins, in exact counts, what the TMA view does
// to the recompute bursts of an update stream (see query.top). With top
// lists of exactly k entries, one deletion of a tuple that sits in many
// queries' results recomputes them all in one cycle; on this scaled
// churn-update that was 5.80 recomputes per cycle, with 38 of the 300
// cycles at 16 or more. A view of DefaultKMax(k) entries absorbs
// deletions until fewer than k are left. The bounds are a fifth of those
// figures.
func TestChurnRecomputeBursts(t *testing.T) {
	perCycle := churnBursts(t)
	var total int64
	bursts := 0
	for _, n := range perCycle {
		total += n
		if n >= 16 {
			bursts++
		}
	}
	mean := float64(total) / float64(len(perCycle))
	t.Logf("recomputes per cycle %.3f, cycles with >= 16: %d of %d", mean, bursts, len(perCycle))
	const meanBound, burstBound = 5.80 / 5, 38 / 5
	if mean > meanBound {
		t.Errorf("recomputes per cycle %.3f, bound %.3f", mean, meanBound)
	}
	if bursts > burstBound {
		t.Errorf("%d cycles with >= 16 recomputes, bound %d", bursts, burstBound)
	}
}
