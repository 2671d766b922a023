package difftest

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"topkmon/internal/core"
	"topkmon/internal/pipeline"
	"topkmon/internal/shard"
	"topkmon/internal/simd"
)

// execMode is one execution mode under differential test: a constructor
// producing a fresh monitor (and, for pipelined modes, its ingestion
// surface) for a scenario. forceMigrate additionally drives a live query
// migration after every cycle — the monitor must support MigrateQuery.
type execMode struct {
	name         string
	build        func(opts core.Options) (core.StreamMonitor, Ingester, error)
	forceMigrate bool
}

// diffShards is the shard count of every sharded differential mode.
const diffShards = 3

// migrator is the live-migration surface shared by shard.Sharded and the
// pipelined wrapper.
type migrator interface {
	MigrateQuery(id core.QueryID, target int) error
}

// forceMigrations rotates one live query to a new shard after every cycle,
// so every scenario exercises export → import → route-swap on whatever
// query state the cycle just produced (mid-window top-k lists, partially
// drained skybands, threshold sets).
func forceMigrations(m migrator) func(cycle int, live []core.QueryID) error {
	return func(cycle int, live []core.QueryID) error {
		if len(live) == 0 {
			return nil
		}
		id := live[cycle%len(live)]
		return m.MigrateQuery(id, (cycle+int(id))%diffShards)
	}
}

// wrapPipe wraps a monitor constructor in a pipeline with a small depth
// (so the queue actually fills and cycles genuinely overlap ingestion).
func wrapPipe(build func(opts core.Options) (core.StreamMonitor, error), policy pipeline.Policy) func(core.Options) (core.StreamMonitor, Ingester, error) {
	return func(opts core.Options) (core.StreamMonitor, Ingester, error) {
		mon, err := build(opts)
		if err != nil {
			return nil, nil, err
		}
		p := pipeline.New(mon, pipeline.Options{Depth: 2, Policy: policy})
		return p, p, nil
	}
}

func sync(build func(opts core.Options) (core.StreamMonitor, error)) func(core.Options) (core.StreamMonitor, Ingester, error) {
	return func(opts core.Options) (core.StreamMonitor, Ingester, error) {
		mon, err := build(opts)
		return mon, nil, err
	}
}

func engineBuild(opts core.Options) (core.StreamMonitor, error) { return core.NewEngine(opts) }

func shardedBuild(n int) func(core.Options) (core.StreamMonitor, error) {
	return func(opts core.Options) (core.StreamMonitor, error) { return shard.New(opts, n) }
}
func dataShardedBuild(n int) func(core.Options) (core.StreamMonitor, error) {
	return func(opts core.Options) (core.StreamMonitor, error) { return shard.NewData(opts, n) }
}

// rebalancedBuild runs the query-partitioned monitor with least-loaded
// placement and an aggressive auto-rebalancer (every 2 cycles, threshold
// barely above balanced), so the cost-attribution, trigger and greedy-move
// machinery all run on real scenarios — on top of the forced per-cycle
// migrations the mode adds.
func rebalancedBuild(n int) func(core.Options) (core.StreamMonitor, error) {
	return func(opts core.Options) (core.StreamMonitor, error) {
		return shard.NewWithConfig(opts, n, shard.Config{
			Placement: shard.LeastLoadedPlacement{},
			Rebalance: shard.RebalanceConfig{Interval: 2, Threshold: 1.05, MaxMoves: 8},
		})
	}
}

// allModes is the full differential matrix: every synchronous execution
// mode and the pipelined wrapper over each. The pipelined modes must
// deliver the exact per-query Update sequence of their synchronous
// counterparts, which in turn must match the naive reference.
func allModes() []execMode {
	return []execMode{
		{name: "engine", build: sync(engineBuild)},
		{name: "query-sharded-3", build: sync(shardedBuild(diffShards))},
		{name: "data-sharded-3", build: sync(dataShardedBuild(diffShards))},
		{name: "rebalanced-query-sharded-3", build: sync(rebalancedBuild(diffShards)), forceMigrate: true},
		{name: "pipelined-engine", build: wrapPipe(engineBuild, pipeline.Block)},
		{name: "pipelined-query-sharded-3", build: wrapPipe(shardedBuild(diffShards), pipeline.Block)},
		{name: "pipelined-data-sharded-3", build: wrapPipe(dataShardedBuild(diffShards), pipeline.Block)},
		{name: "pipelined-rebalanced-query-sharded-3", build: wrapPipe(rebalancedBuild(diffShards), pipeline.Block), forceMigrate: true},
	}
}

// runDifferential replays the scenario derived from seed through the
// naive reference and every execution mode, asserting byte-identical
// transcripts. checkInvariants additionally runs the delivery-structure
// checker (CheckInfluence) after every cycle of the synchronous grid modes.
func runDifferential(t *testing.T, seed int64, checkInvariants bool) {
	t.Helper()
	s := GenScenario(seed)
	naive, err := NewNaive(s.Options())
	if err != nil {
		t.Fatalf("%v: naive: %v", s, err)
	}
	ref, err := Replay(naive, s, ReplayConfig{})
	if err != nil {
		t.Fatalf("%v: naive replay: %v", s, err)
	}

	for _, m := range allModes() {
		mon, ing, err := m.build(s.Options())
		if err != nil {
			t.Fatalf("%v: build %s: %v", s, m.name, err)
		}
		cfg := ReplayConfig{Ingester: ing, CheckInvariants: checkInvariants && ing == nil}
		if m.forceMigrate {
			cfg.PostCycle = forceMigrations(mon.(migrator))
		}
		got, err := Replay(mon, s, cfg)
		if cerr := mon.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatalf("%v: %s replay: %v", s, m.name, err)
		}
		if d := got.Diff(ref); d != "" {
			t.Fatalf("%v: %s diverged from naive reference:\n%s", s, m.name, d)
		}
	}
}

// TestDifferentialSeeds is the deterministic property test: a spread of
// fixed seeds crossing stream modes, window kinds, query mixes and churn
// schedules, each replayed through the full mode matrix.
func TestDifferentialSeeds(t *testing.T) {
	n := int64(20)
	if testing.Short() {
		n = 6
	}
	// The engine keeps top-k queries on influence lists and threshold
	// queries in the query index: the seed set must hold both kinds live in
	// one scenario, or neither structure is tested next to the other.
	mixed := false
	for seed := int64(1); seed <= n && !mixed; seed++ {
		var topk, thr bool
		for _, spec := range GenScenario(seed).Initial {
			if spec.Threshold != nil {
				thr = true
			} else {
				topk = true
			}
		}
		mixed = topk && thr
	}
	if !mixed {
		t.Fatalf("no scenario among seeds 1..%d registers top-k and threshold queries together", n)
	}
	for seed := int64(1); seed <= n; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runDifferential(t, seed, true)
		})
	}
}

// FuzzDifferential lets the fuzzer explore scenario seeds:
//
//	go test -fuzz=FuzzDifferential -fuzztime=30s ./internal/difftest
//
// Every interesting input is a single int64, so the corpus stays tiny and
// failures reproduce from the seed alone.
func FuzzDifferential(f *testing.F) {
	for _, seed := range []int64{1, 2, 7, 42, 1234, -99} {
		f.Add(seed)
	}
	// Seeds whose scenarios come out NearDup (pub/sub-style clustered
	// query sets), so the fuzzer starts with the query index's sharing
	// machinery already exercised.
	for seed := int64(1); seed <= 64; seed++ {
		if GenScenario(seed).NearDup {
			f.Add(seed)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		runDifferential(t, seed, false)
	})
}

// tolerantTokenDiff compares two rendered transcript lines token by
// token: tokens must match exactly except for trailing "=<score>" parts,
// whose floats may differ by rel relative error. It returns "" on match.
func tolerantTokenDiff(a, b string, rel float64) string {
	at, bt := strings.Fields(a), strings.Fields(b)
	if len(at) != len(bt) {
		return fmt.Sprintf("token count %d vs %d", len(at), len(bt))
	}
	for i := range at {
		if at[i] == bt[i] {
			continue
		}
		ai, bi := strings.LastIndexByte(at[i], '='), strings.LastIndexByte(bt[i], '=')
		if ai < 0 || bi < 0 || at[i][:ai] != bt[i][:bi] {
			return fmt.Sprintf("token %d: %q vs %q", i, at[i], bt[i])
		}
		av, errA := strconv.ParseFloat(strings.TrimRight(at[i][ai+1:], "]"), 64)
		bv, errB := strconv.ParseFloat(strings.TrimRight(bt[i][bi+1:], "]"), 64)
		if errA != nil || errB != nil {
			return fmt.Sprintf("token %d: unparseable scores %q vs %q", i, at[i], bt[i])
		}
		tol := rel * math.Max(math.Abs(av), math.Abs(bv))
		if d := math.Abs(av - bv); !(d <= tol) {
			return fmt.Sprintf("token %d: score %g vs %g differ by %g (tol %g)", i, av, bv, d, tol)
		}
	}
	return ""
}

// scoreTolerantDiff is Transcript.Diff with tolerantTokenDiff in place of
// string equality: the two replays must agree on every structural detail
// (queries, tuples, ordering, counts) while scores may differ within rel.
func scoreTolerantDiff(got, ref Transcript, rel float64) string {
	if len(got.Updates) != len(ref.Updates) {
		return fmt.Sprintf("update count %d vs %d", len(got.Updates), len(ref.Updates))
	}
	for i := range ref.Updates {
		if d := tolerantTokenDiff(got.Updates[i], ref.Updates[i], rel); d != "" {
			return fmt.Sprintf("update record %d: %s\n  ref: %s\n  got: %s", i, d, ref.Updates[i], got.Updates[i])
		}
	}
	if len(got.Finals) != len(ref.Finals) {
		return fmt.Sprintf("final count %d vs %d", len(got.Finals), len(ref.Finals))
	}
	for i := range ref.Finals {
		if d := tolerantTokenDiff(got.Finals[i], ref.Finals[i], rel); d != "" {
			return fmt.Sprintf("final result %d: %s\n  ref: %s\n  got: %s", i, d, ref.Finals[i], got.Finals[i])
		}
	}
	if got.NumPoints != ref.NumPoints || got.NumQueries != ref.NumQueries {
		return fmt.Sprintf("counters (%d,%d) vs (%d,%d)", got.NumPoints, got.NumQueries, ref.NumPoints, ref.NumQueries)
	}
	return ""
}

// TestDifferentialFMA is the opt-in FMA tier's lineage check. With
// default options the 20-seed differential (TestDifferentialSeeds) is
// byte-identical on every leg; this test replays the engine on the same
// seeds with the FMA tier enabled and requires the transcripts to stay
// structurally identical to the default run with scores inside a
// documented relative envelope — the reason WithFMAKernels is excluded
// from checkpoint/difftest lineages by default is exactly that this is
// the strongest guarantee the fused kernels can make.
func TestDifferentialFMA(t *testing.T) {
	if !simd.FMASupported() {
		t.Skip("no FMA tier on this host")
	}
	n := int64(20)
	if testing.Short() {
		n = 6
	}
	origLeg := simd.ActiveLeg()
	defer func() {
		if err := simd.SetLeg(origLeg); err != nil {
			t.Fatalf("restoring leg %s: %v", origLeg, err)
		}
	}()
	hw, _ := simd.HardwareLeg()
	for seed := int64(1); seed <= n; seed++ {
		s := GenScenario(seed)

		if err := simd.SetLeg(hw); err != nil {
			t.Fatalf("SetLeg(%s): %v", hw, err)
		}
		mon, err := core.NewEngine(s.Options())
		if err != nil {
			t.Fatalf("%v: engine: %v", s, err)
		}
		ref, err := Replay(mon, s, ReplayConfig{})
		if cerr := mon.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatalf("%v: default replay: %v", s, err)
		}

		if err := simd.SetFMA(true); err != nil {
			t.Fatalf("SetFMA(true): %v", err)
		}
		mon, err = core.NewEngine(s.Options())
		if err != nil {
			t.Fatalf("%v: fma engine: %v", s, err)
		}
		got, err := Replay(mon, s, ReplayConfig{})
		if cerr := mon.Close(); err == nil {
			err = cerr
		}
		if err := simd.SetFMA(false); err != nil {
			t.Fatalf("SetFMA(false): %v", err)
		}
		if err != nil {
			t.Fatalf("%v: fma replay: %v", s, err)
		}
		if d := scoreTolerantDiff(got, ref, 1e-12); d != "" {
			t.Fatalf("%v: fma run diverged beyond tolerance:\n%s", s, d)
		}
	}
}
