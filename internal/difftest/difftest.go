// Package difftest is the systematic correctness harness for the
// monitoring system: a seeded randomized workload generator, a naive
// O(N·k) reference scorer, and a replay driver that runs the identical
// scenario through every execution mode — the single engine, the
// data-partitioned sharded monitor, and the pipelined wrapper over each —
// and asserts byte-identical update streams and final results.
//
// With two exactness-equivalent execution modes (and their pipelined
// fronts) in-tree, hand-written scenario tests cannot cover the
// interaction space: query mix (TMA/SMA/threshold/constrained), window
// kind (count/time), stream model (append-only/update-stream), query
// churn, deletion patterns and shard counts all multiply. A scenario here
// is a pure value derived deterministically from one int64 seed, so any
// failure is replayable from its seed alone — which is also what makes
// the FuzzDifferential target (difftest_test.go) effective: the fuzzer
// explores seeds, not byte soups.
package difftest

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"topkmon/internal/core"
	"topkmon/internal/geom"
	"topkmon/internal/stream"
	"topkmon/internal/window"
)

// CycleOps is one processing cycle of a scenario: query churn applied
// before the step, then the step's batch shape.
type CycleOps struct {
	// Unregister lists query ids removed before this cycle's step.
	Unregister []core.QueryID
	// Register lists specs installed before this cycle's step (after the
	// unregistrations).
	Register []core.QuerySpec
	// Arrivals is the number of tuples arriving in this cycle.
	Arrivals int
	// Deletions lists tuple ids deleted in this cycle (UpdateStream mode).
	Deletions []uint64
}

// Scenario is a complete deterministic workload: every monitor replaying
// it sees the identical stream, query set and churn schedule.
type Scenario struct {
	Seed        int64
	Dims        int
	Mode        core.StreamMode
	Window      window.Spec
	TargetCells int
	Dist        stream.Distribution
	// Prefill is the size of the ts=0 batch applied before the initial
	// query registrations.
	Prefill int
	// NearDup marks a pub/sub-style scenario: every query is a jittered
	// copy of one of a handful of base preference vectors, so the query
	// index collapses the set into few clusters — the workload its
	// whole-cluster skips and multi-query kernels exist for.
	NearDup bool
	// Lattice, when positive, snaps every generated coordinate to a
	// multiple of 1/Lattice: many tuples then share a point and tie
	// exactly on score, and points fall on grid cell boundaries.
	Lattice int
	// Initial is the query set registered after the prefill.
	Initial []core.QuerySpec
	// Cycles are the processing cycles at ts=1,2,...
	Cycles []CycleOps
}

// String summarizes the scenario shape for failure messages.
func (s Scenario) String() string {
	shape := ""
	if s.NearDup {
		shape = " near-dup"
	}
	if s.Lattice > 0 {
		shape += fmt.Sprintf(" lattice=1/%d", s.Lattice)
	}
	return fmt.Sprintf("seed=%d d=%d mode=%v win=%v cells=%d prefill=%d q0=%d cycles=%d%s",
		s.Seed, s.Dims, s.Mode, s.Window, s.TargetCells, s.Prefill, len(s.Initial), len(s.Cycles), shape)
}

// randSpec draws one query spec: TMA, SMA (append-only only), constrained
// or threshold, with Zipf-distributed k and scoring function. The Zipf k
// (most queries tiny, a heavy tail up to 64) plus the occasional
// low-threshold query below give scenarios genuinely skewed per-query
// costs: tiny and deep result lists side by side in one scenario.
func randSpec(rng *rand.Rand, zipf *rand.Zipf, qg *stream.QueryGenerator, dims int, mode core.StreamMode) core.QuerySpec {
	spec := core.QuerySpec{F: qg.Next(), K: 1 + int(zipf.Uint64())}
	switch rng.Intn(4) {
	case 0:
		spec.Policy = core.TMA
	case 1:
		if mode == core.UpdateStream {
			spec.Policy = core.TMA
		} else {
			spec.Policy = core.SMA
		}
	case 2:
		spec.Policy = core.Policy(rng.Intn(2))
		if mode == core.UpdateStream {
			spec.Policy = core.TMA
		}
		lo := make(geom.Vector, dims)
		hi := make(geom.Vector, dims)
		for d := 0; d < dims; d++ {
			a, b := rng.Float64(), rng.Float64()
			if a > b {
				a, b = b, a
			}
			lo[d], hi[d] = a, b
		}
		r, err := geom.NewRect(lo, hi)
		if err != nil {
			panic(err) // lo <= hi by construction
		}
		spec.Constraint = &r
	case 3:
		thr := 0.4 + rng.Float64()*float64(dims)*0.4
		if rng.Intn(4) == 0 {
			// Influence-volume skew: a near-zero threshold covers most of
			// the workspace, making this one query's maintenance cost dwarf
			// the others' — the hot-shard scenario.
			thr = 0.02 + rng.Float64()*0.2
		}
		spec.Threshold = &thr
	}
	return spec
}

// nearDupGen draws queries for a NearDup scenario: jittered copies (±2%
// per weight) of a few base linear preference vectors, mostly threshold
// queries with jittered thresholds plus some jittered-k top-k queries.
// The jitter keeps every spec distinct while the quantized cluster keys
// still coincide, which is what makes the scenario exercise shared-cluster
// member skips, swap-deletes of clustered members, and bound churn within
// one cluster.
type nearDupGen struct {
	rng   *rand.Rand
	dims  int
	bases [][]float64
}

func newNearDupGen(rng *rand.Rand, dims int) *nearDupGen {
	g := &nearDupGen{rng: rng, dims: dims}
	for i, n := 0, 2+rng.Intn(2); i < n; i++ {
		w := make([]float64, dims)
		for d := range w {
			w[d] = 0.2 + rng.Float64()*0.8
		}
		g.bases = append(g.bases, w)
	}
	return g
}

func (g *nearDupGen) next(mode core.StreamMode) core.QuerySpec {
	base := g.bases[g.rng.Intn(len(g.bases))]
	w := make([]float64, g.dims)
	var sum float64
	for d, b := range base {
		w[d] = b * (1 + 0.02*(g.rng.Float64()*2-1))
		sum += w[d]
	}
	spec := core.QuerySpec{F: geom.NewLinear(w...)}
	if g.rng.Intn(4) != 0 {
		// High thresholds relative to the weight mass: small influence
		// regions, the pub/sub matching regime.
		thr := sum * (0.75 + g.rng.Float64()*0.2)
		spec.Threshold = &thr
		return spec
	}
	spec.K = 1 + g.rng.Intn(8)
	if mode != core.UpdateStream && g.rng.Intn(2) == 0 {
		spec.Policy = core.SMA
	}
	return spec
}

// GenScenario derives a random scenario from a seed. The bounds keep one
// replay in the low milliseconds so thousands of seeds (and the fuzzer)
// stay cheap, while still crossing every feature: both stream modes, both
// window kinds, windows small enough that a cycle can overflow them
// (arrivals > N, the same-cycle arrive-and-expire path), query churn and
// random deletions.
func GenScenario(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	s := Scenario{
		Seed:        seed,
		Dims:        2 + rng.Intn(3),
		Dist:        stream.Distribution(rng.Intn(2)),
		TargetCells: 16 << rng.Intn(3),
	}
	if rng.Intn(4) == 0 {
		s.Mode = core.UpdateStream
	} else if rng.Intn(2) == 0 {
		s.Window = window.Count(50 + rng.Intn(450))
	} else {
		s.Window = window.Time(2 + int64(rng.Intn(7)))
	}
	s.Prefill = 50 + rng.Intn(250)
	s.NearDup = rng.Intn(4) == 0
	qg := stream.NewQueryGenerator(stream.FunctionKind(rng.Intn(4)), s.Dims, seed+1)
	// k ~ 1 + Zipf(1.4) capped at 64: mostly small, a heavy tail of
	// expensive queries.
	zipf := rand.NewZipf(rng, 1.4, 1, 63)
	ndg := newNearDupGen(rng, s.Dims)
	draw := func() core.QuerySpec {
		if s.NearDup {
			return ndg.next(s.Mode)
		}
		return randSpec(rng, zipf, qg, s.Dims, s.Mode)
	}
	nq := 3 + rng.Intn(8)
	if s.NearDup {
		// More queries than the general mix: cluster sharing only shows up
		// with enough members per cluster.
		nq = 12 + rng.Intn(20)
	}
	for i := 0; i < nq; i++ {
		s.Initial = append(s.Initial, draw())
	}

	// Precompute the churn and deletion schedules by simulating the
	// deterministic id assignment: query ids are sequential over successful
	// registrations, tuple ids are sequential over generated tuples.
	nextQ := core.QueryID(len(s.Initial))
	var liveQ []core.QueryID
	for i := range s.Initial {
		liveQ = append(liveQ, core.QueryID(i))
	}
	var liveT []uint64
	nextT := uint64(0)
	for i := 0; i < s.Prefill; i++ {
		liveT = append(liveT, nextT)
		nextT++
	}

	cycles := 6 + rng.Intn(18)
	for c := 0; c < cycles; c++ {
		var ops CycleOps
		if len(liveQ) > 1 && rng.Intn(5) == 0 {
			j := rng.Intn(len(liveQ))
			ops.Unregister = append(ops.Unregister, liveQ[j])
			liveQ = append(liveQ[:j], liveQ[j+1:]...)
		}
		if rng.Intn(4) == 0 {
			ops.Register = append(ops.Register, draw())
			liveQ = append(liveQ, nextQ)
			nextQ++
		}
		ops.Arrivals = 5 + rng.Intn(75)
		for i := 0; i < ops.Arrivals; i++ {
			liveT = append(liveT, nextT)
			nextT++
		}
		if s.Mode == core.UpdateStream && len(liveT) > 0 {
			for i, n := 0, rng.Intn(40); i < n && len(liveT) > 0; i++ {
				j := rng.Intn(len(liveT))
				ops.Deletions = append(ops.Deletions, liveT[j])
				liveT[j] = liveT[len(liveT)-1]
				liveT = liveT[:len(liveT)-1]
			}
		}
		s.Cycles = append(s.Cycles, ops)
	}
	return s
}

// Options configures the engine family for a scenario.
func (s Scenario) Options() core.Options {
	return core.Options{Dims: s.Dims, Window: s.Window, Mode: s.Mode, TargetCells: s.TargetCells}
}

// Transcript is the canonical observable behavior of one replay: the
// flattened stream of rendered update records, the final result of every
// live query, and the closing counters. Two monitors are equivalent on a
// scenario iff their transcripts are identical strings.
type Transcript struct {
	Updates    []string
	Finals     []string
	NumPoints  int
	NumQueries int
}

// Diff returns a description of the first divergence from ref, or "" when
// the transcripts are identical.
func (tr Transcript) Diff(ref Transcript) string {
	for i := 0; i < len(ref.Updates) || i < len(tr.Updates); i++ {
		var a, b string
		if i < len(ref.Updates) {
			a = ref.Updates[i]
		}
		if i < len(tr.Updates) {
			b = tr.Updates[i]
		}
		if a != b {
			return fmt.Sprintf("update record %d:\n  ref: %s\n  got: %s", i, a, b)
		}
	}
	for i := 0; i < len(ref.Finals) || i < len(tr.Finals); i++ {
		var a, b string
		if i < len(ref.Finals) {
			a = ref.Finals[i]
		}
		if i < len(tr.Finals) {
			b = tr.Finals[i]
		}
		if a != b {
			return fmt.Sprintf("final result %d:\n  ref: %s\n  got: %s", i, a, b)
		}
	}
	if tr.NumPoints != ref.NumPoints {
		return fmt.Sprintf("NumPoints: ref %d, got %d", ref.NumPoints, tr.NumPoints)
	}
	if tr.NumQueries != ref.NumQueries {
		return fmt.Sprintf("NumQueries: ref %d, got %d", ref.NumQueries, tr.NumQueries)
	}
	return ""
}

// renderEntries renders result entries compactly: tuple id, sequence and
// score carry the full identity (scores are exact float64s produced by
// the same scoring functions, so %g round-trips equality).
func renderEntries(entries []core.Entry) string {
	var b strings.Builder
	for i, en := range entries {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "p%d/%d=%g", en.T.ID, en.T.Seq, en.Score)
	}
	return b.String()
}

func renderUpdate(u core.Update) string {
	return fmt.Sprintf("q%d +[%s] -[%s]", u.Query, renderEntries(u.Added), renderEntries(u.Removed))
}

// ReplayConfig tunes how Replay drives a monitor.
type ReplayConfig struct {
	// Pipelined drives the monitor through pipeline ingestion (the monitor
	// must be a *pipeline.Pipeline-compatible Ingester); nil updates are
	// collected from the Updates channel by a consumer goroutine.
	Ingester Ingester
	// CheckInvariants runs the influence-list invariant checker after
	// every cycle when the monitor exposes one.
	CheckInvariants bool
	// PostCycle, when non-nil, runs after every processing cycle (before
	// the invariant check) with the cycle index and the ids of the live
	// queries (read-only). The engine mode uses it to round-trip live
	// queries through their snapshot mid-run — a snapshot must never
	// change a transcript, and this is where that promise is exercised.
	PostCycle func(cycle int, live []core.QueryID) error
	// Swap, when non-nil, runs after every cycle's PostCycle and invariant
	// check, and may return a replacement monitor that the rest of the
	// replay drives instead. The crash-recovery differential mode uses it
	// to kill the current monitor at a chosen cycle and hand back one
	// restored from its checkpoint directory — the remaining transcript
	// must not diverge anywhere. Returning (nil, nil) keeps the current
	// monitor. Synchronous replays only (incompatible with Ingester).
	Swap func(cycle int, mon core.StreamMonitor) (core.StreamMonitor, error)
}

// Ingester is the pipelined ingestion surface of internal/pipeline,
// declared structurally to keep difftest importable from pipeline tests
// without a cycle.
type Ingester interface {
	Ingest(now int64, arrivals []*stream.Tuple) error
	IngestUpdate(now int64, arrivals []*stream.Tuple, deletions []uint64) error
	Updates() <-chan []core.Update
	Flush() error
}

// Replay drives mon through the scenario and returns its transcript. The
// monitor must be freshly constructed from s.Options(); each replay uses
// its own tuple generator (same seed, distinct tuple instances) so
// cross-monitor aliasing cannot mask a divergence. When cfg.Ingester is
// non-nil, cycles are ingested asynchronously through it and updates
// gathered from the delivery channel; churn and reads ride the pipeline's
// barrier semantics unchanged.
func Replay(mon core.StreamMonitor, s Scenario, cfg ReplayConfig) (Transcript, error) {
	var tr Transcript
	if cfg.Swap != nil && cfg.Ingester != nil {
		return tr, fmt.Errorf("difftest: Swap requires a synchronous replay")
	}
	gen := stream.NewGenerator(s.Dist, s.Dims, s.Seed+2)
	batch := func(n int, ts int64) []*stream.Tuple {
		out := gen.Batch(n, ts)
		if s.Lattice > 0 {
			l := float64(s.Lattice)
			for _, t := range out {
				for d, x := range t.Vec {
					t.Vec[d] = math.Round(x*l) / l
				}
			}
		}
		return out
	}

	// Pipelined replays gather delivered batches concurrently; collected is
	// read only after Flush, which orders it after every delivery.
	var collected [][]core.Update
	var consumerDone chan struct{}
	if cfg.Ingester != nil {
		consumerDone = make(chan struct{})
		go func() {
			defer close(consumerDone)
			for batch := range cfg.Ingester.Updates() {
				collected = append(collected, batch)
			}
		}()
	}

	step := func(now int64, arrivals []*stream.Tuple, deletions []uint64) ([]core.Update, error) {
		if cfg.Ingester != nil {
			if s.Mode == core.UpdateStream {
				return nil, cfg.Ingester.IngestUpdate(now, arrivals, deletions)
			}
			return nil, cfg.Ingester.Ingest(now, arrivals)
		}
		if s.Mode == core.UpdateStream {
			return mon.StepUpdate(now, arrivals, deletions)
		}
		return mon.Step(now, arrivals)
	}
	record := func(updates []core.Update) {
		for _, u := range updates {
			tr.Updates = append(tr.Updates, renderUpdate(u))
		}
	}

	if _, err := step(0, batch(s.Prefill, 0), nil); err != nil {
		return tr, fmt.Errorf("prefill: %w", err)
	}
	var live []core.QueryID
	for i, spec := range s.Initial {
		id, err := mon.Register(spec)
		if err != nil {
			return tr, fmt.Errorf("initial register %d: %w", i, err)
		}
		if id != core.QueryID(i) {
			return tr, fmt.Errorf("initial register %d: got id %d", i, id)
		}
		live = append(live, id)
	}
	nextID := core.QueryID(len(s.Initial))

	for c, ops := range s.Cycles {
		now := int64(c + 1)
		for _, id := range ops.Unregister {
			if err := mon.Unregister(id); err != nil {
				return tr, fmt.Errorf("cycle %d unregister q%d: %w", c, id, err)
			}
			for i, q := range live {
				if q == id {
					live = append(live[:i], live[i+1:]...)
					break
				}
			}
		}
		for _, spec := range ops.Register {
			id, err := mon.Register(spec)
			if err != nil {
				return tr, fmt.Errorf("cycle %d register: %w", c, err)
			}
			if id != nextID {
				return tr, fmt.Errorf("cycle %d register: got id %d, want %d", c, id, nextID)
			}
			live = append(live, id)
			nextID++
		}
		updates, err := step(now, batch(ops.Arrivals, now), ops.Deletions)
		if err != nil {
			return tr, fmt.Errorf("cycle %d: %w", c, err)
		}
		record(updates)
		if cfg.PostCycle != nil {
			if err := cfg.PostCycle(c, live); err != nil {
				return tr, fmt.Errorf("cycle %d post-cycle: %w", c, err)
			}
		}
		if cfg.CheckInvariants {
			if chk, ok := mon.(interface{ CheckInfluence() error }); ok {
				if err := chk.CheckInfluence(); err != nil {
					return tr, fmt.Errorf("cycle %d invariant: %w", c, err)
				}
			}
		}
		if cfg.Swap != nil {
			repl, err := cfg.Swap(c, mon)
			if err != nil {
				return tr, fmt.Errorf("cycle %d swap: %w", c, err)
			}
			if repl != nil {
				mon = repl
			}
		}
	}

	if cfg.Ingester != nil {
		if err := cfg.Ingester.Flush(); err != nil {
			return tr, fmt.Errorf("flush: %w", err)
		}
	}

	// Final results and counters are barrier reads on a pipelined monitor,
	// so they reflect every ingested batch either way.
	sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })
	for _, id := range live {
		res, err := mon.Result(id)
		if err != nil {
			return tr, fmt.Errorf("final result q%d: %w", id, err)
		}
		tr.Finals = append(tr.Finals, fmt.Sprintf("q%d [%s]", id, renderEntries(res)))
	}
	tr.NumPoints = mon.NumPoints()
	tr.NumQueries = mon.NumQueries()

	if cfg.Ingester != nil {
		// A pipelined replay consumes the monitor: Close drains the final
		// deliveries, closes the Updates channel (ending the consumer), and
		// the consumerDone join publishes `collected` to this goroutine.
		if err := mon.Close(); err != nil {
			return tr, fmt.Errorf("close: %w", err)
		}
		<-consumerDone
		for _, batch := range collected {
			record(batch)
		}
	}
	return tr, nil
}
