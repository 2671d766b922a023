package work

import (
	"math/rand"
	"time"

	"topkmon/bench/load"
	"topkmon/pkg/topkmon"
)

// Spec is one standing query: a top-K query, or with Threshold set a
// threshold subscription.
type Spec struct {
	F         topkmon.ScoringFunction
	Threshold *float64
}

// QuerySpec returns the registration the facade's RegisterTopK or
// RegisterThreshold would make for the spec under the given policy.
func (s Spec) QuerySpec(policy topkmon.Policy) topkmon.QuerySpec {
	if s.Threshold != nil {
		return topkmon.QuerySpec{F: s.F, Threshold: s.Threshold}
	}
	return topkmon.QuerySpec{F: s.F, K: K, Policy: policy}
}

// Cycle is the input of one processing cycle.
type Cycle struct {
	TS       int64
	Arrivals []*topkmon.Tuple
	// Churn only. Deletions names uniformly random live tuples, never one
	// of this cycle's arrivals. After the cycle the Fresh queries replace
	// the oldest registered ones, and then the results of the queries at
	// positions Reads (oldest first) are read.
	Deletions []uint64
	Fresh     []Spec
	Reads     []int
}

// Tuples is the number of stream events the cycle applies.
func (c Cycle) Tuples() int { return len(c.Arrivals) + len(c.Deletions) }

// Stream is a workload's whole input, made from the benchmark seed alone:
// the prefill batches, the query set, and cycle after cycle of the
// measured span. Two streams of one workload and seed are identical, which
// is how the reference pass and the per-layer rungs replay a span. The
// stream also keeps the benchmark's own copy of the live tuple set.
type Stream struct {
	// Prefill fills the window, one Rate-sized batch per cycle from
	// timestamp 0; Specs is the initial query set.
	Prefill [][]*topkmon.Tuple
	Specs   []Spec
	// GenTime is the time spent generating the span's batches, Batches
	// how many Next has generated.
	GenTime time.Duration
	Batches int

	w     Workload
	gen   *load.Gen
	live  *model
	pick  *rand.Rand
	fresh [][]float64
	ts    int64
	dels  []uint64
	reads []int
}

// NewStream returns the workload's stream for a seed; cycles is the length
// of the measured span, which the warm-up precedes.
func NewStream(w Workload, seed int64, cycles int) *Stream {
	s := &Stream{
		w:    w,
		gen:  load.NewGen(seed),
		live: newModel(w.Window, w.Kind != Churn),
		pick: rand.New(rand.NewSource(seed + 2)),
	}
	for ; int(s.ts)*w.Rate < w.Window; s.ts++ {
		batch := s.gen.Batch(min(w.Rate, w.Window-int(s.ts)*w.Rate), s.ts)
		s.Prefill = append(s.Prefill, batch)
		s.live.arrive(batch)
	}
	switch w.Kind {
	case PubSub:
		// Matches is per Cycles: a shorter span gets as many fewer, so
		// that matches are as dense in a traced third as end to end.
		span := w.Window + (w.Warmup()+cycles)*w.Rate
		matches := max(w.Matches*cycles/w.Cycles, 1)
		weights, thresholds := load.PubSub(load.QuerySeed, seed, w.Queries, w.Bases, matches, span)
		for i, wt := range weights {
			s.Specs = append(s.Specs, Spec{F: topkmon.Linear(wt...), Threshold: &thresholds[i]})
		}
	default:
		for _, wt := range load.TopKWeights(load.QuerySeed, w.Queries) {
			s.Specs = append(s.Specs, Spec{F: topkmon.Linear(wt...)})
		}
		if w.Kind == Churn {
			// The warm-up replaces queries too: a span whose last cycles
			// found none left cost half as much there.
			need := ChurnReplace * (w.Warmup() + cycles)
			s.fresh = load.TopKWeightBlocks(load.QuerySeed+3, (need+w.Queries-1)/w.Queries, w.Queries)
		}
	}
	return s
}

// Next generates the next cycle of the span. The slices of the returned
// Cycle other than Arrivals are reused by the following call.
func (s *Stream) Next() Cycle {
	t0 := time.Now()
	c := Cycle{TS: s.ts, Arrivals: s.gen.Batch(s.w.Rate, s.ts)}
	s.GenTime += time.Since(t0)
	s.Batches++
	s.ts++
	if s.w.Kind == Churn {
		// Drawn before the arrivals join the live set, so a deletion never
		// names one of this cycle's arrivals.
		s.dels = s.live.removeRandom(s.pick, s.w.Rate, s.dels[:0])
		c.Deletions = s.dels
		for i := 0; i < ChurnReplace && len(s.fresh) > 0; i++ {
			c.Fresh = append(c.Fresh, Spec{F: topkmon.Linear(s.fresh[0]...)})
			s.fresh = s.fresh[1:]
		}
		s.reads = s.reads[:0]
		for i := 0; i < ChurnReads; i++ {
			s.reads = append(s.reads, s.pick.Intn(s.w.Queries))
		}
		c.Reads = s.reads
	}
	s.live.arrive(c.Arrivals)
	return c
}

// Policy is the maintenance policy the workload registers top-k queries
// under.
func (w Workload) Policy() topkmon.Policy {
	if w.Kind == Churn {
		return topkmon.TMA
	}
	return topkmon.SMA
}
