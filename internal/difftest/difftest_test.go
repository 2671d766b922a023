package difftest

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"

	"topkmon/internal/core"
	"topkmon/internal/geom"
	"topkmon/internal/stack"
	"topkmon/internal/stream"
)

// execMode is one execution mode under differential test: the stack a
// scenario's monitor is assembled as, run synchronously or, under a
// pipeline, through its ingestion front. postCycle, when non-nil, builds
// a hook that runs against the monitor after every cycle of the
// synchronous replay.
type execMode struct {
	name      string
	cfg       stack.Config
	postCycle func(mon core.StreamMonitor) func(cycle int, live []core.QueryID) error
}

// build assembles the mode's stack for scenario s.
func (m execMode) build(s Scenario) (*stack.Stack, error) {
	cfg := m.cfg
	cfg.Engine = s.Options()
	return stack.Build(cfg, nil)
}

// diffShards is the shard count of every sharded differential mode.
const diffShards = 3

// snapshotRoundTrip is the engine mode's post-cycle hook: after every
// cycle one live top-k query (influence lists) and one live threshold
// query (query index), rotating through the live set, go through
// ExportQuery → Unregister → ImportQueryAt at their own ids — the codec
// every checkpoint uses — so each scenario pushes whatever state the
// cycle just left (mid-window top-k lists, partially drained skybands,
// reporting baselines) through a snapshot, and the transcript must not
// notice.
func snapshotRoundTrip(mon core.StreamMonitor) func(cycle int, live []core.QueryID) error {
	eng := mon.(*core.Engine)
	return func(cycle int, live []core.QueryID) error {
		var done [2]bool // top-k, threshold
		for i := range live {
			id := live[(cycle+i)%len(live)]
			snap, err := eng.ExportQuery(id)
			if err != nil {
				return err
			}
			kind := 0
			if snap.Spec.Threshold != nil {
				kind = 1
			}
			if done[kind] {
				continue
			}
			done[kind] = true
			if err := eng.Unregister(id); err != nil {
				return err
			}
			if err := eng.ImportQueryAt(snap, id); err != nil {
				return fmt.Errorf("re-import q%d: %w", id, err)
			}
		}
		return nil
	}
}

// allModes is the full differential matrix: every synchronous execution
// mode and the pipelined front over each. The pipelined modes must
// deliver the exact per-query Update sequence of their synchronous
// counterparts, which in turn must match the naive reference.
func allModes() []execMode {
	modes := []execMode{
		{name: "engine", postCycle: snapshotRoundTrip},
		{name: "data-sharded-3", cfg: stack.Config{Shards: diffShards}},
	}
	for _, m := range modes[:2] {
		// A small depth, so the queue actually fills and cycles
		// genuinely overlap ingestion.
		m.cfg.PipeDepth = 2
		modes = append(modes, execMode{name: "pipelined-" + m.name, cfg: m.cfg})
	}
	return modes
}

// runDifferential replays the scenario derived from seed through the
// naive reference and every execution mode, asserting byte-identical
// transcripts. checkInvariants additionally runs the delivery-structure
// checker (CheckInfluence) after every cycle of the synchronous grid modes.
func runDifferential(t *testing.T, seed int64, checkInvariants bool) {
	t.Helper()
	runScenario(t, GenScenario(seed), allModes(), checkInvariants, nil)
}

// runScenario replays s through the naive reference and the given modes,
// asserting byte-identical transcripts; refHook, when non-nil, runs after
// every cycle of the reference replay.
func runScenario(t *testing.T, s Scenario, modes []execMode, checkInvariants bool, refHook func(naive *Naive) func(cycle int, live []core.QueryID) error) {
	t.Helper()
	naive, err := NewNaive(s.Options())
	if err != nil {
		t.Fatalf("%v: naive: %v", s, err)
	}
	var refCfg ReplayConfig
	if refHook != nil {
		refCfg.PostCycle = refHook(naive)
	}
	ref, err := Replay(naive, s, refCfg)
	if err != nil {
		t.Fatalf("%v: naive replay: %v", s, err)
	}

	for _, m := range modes {
		st, err := m.build(s)
		if err != nil {
			t.Fatalf("%v: build %s: %v", s, m.name, err)
		}
		cfg := ReplayConfig{CheckInvariants: checkInvariants && st.Pipe == nil}
		if st.Pipe != nil {
			cfg.Ingester = st.Pipe
		}
		if m.postCycle != nil {
			cfg.PostCycle = m.postCycle(st.Mon)
		}
		got, err := Replay(st.Mon, s, cfg)
		if cerr := st.Mon.Close(); err == nil {
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

// doubledTokenDiff compares two rendered transcript lines token by
// token: tokens must match exactly except for trailing "=<score>" parts,
// where got's score must be exactly twice ref's, bit for bit. %g renders
// the shortest representation that round-trips, so parsing recovers the
// exact float64. It returns "" on match.
func doubledTokenDiff(got, ref string) string {
	gt, rt := strings.Fields(got), strings.Fields(ref)
	if len(gt) != len(rt) {
		return fmt.Sprintf("token count %d vs %d", len(gt), len(rt))
	}
	for i := range rt {
		gi, ri := strings.LastIndexByte(gt[i], '='), strings.LastIndexByte(rt[i], '=')
		if gi < 0 || ri < 0 {
			if gt[i] != rt[i] {
				return fmt.Sprintf("token %d: %q vs %q", i, gt[i], rt[i])
			}
			continue
		}
		if gt[i][:gi] != rt[i][:ri] {
			return fmt.Sprintf("token %d: %q vs %q", i, gt[i], rt[i])
		}
		gv, errG := strconv.ParseFloat(strings.TrimRight(gt[i][gi+1:], "]"), 64)
		rv, errR := strconv.ParseFloat(strings.TrimRight(rt[i][ri+1:], "]"), 64)
		if errG != nil || errR != nil {
			return fmt.Sprintf("token %d: unparseable scores %q vs %q", i, gt[i], rt[i])
		}
		if math.Float64bits(gv) != math.Float64bits(2*rv) {
			return fmt.Sprintf("token %d: score %v is not exactly 2 × %v", i, gv, rv)
		}
	}
	return ""
}

// doubledDiff is Transcript.Diff with doubledTokenDiff in place of string
// equality: the two replays must agree on every structural detail
// (queries, tuples, ordering, counts) while every score in got is exactly
// twice the one in ref.
func doubledDiff(got, ref Transcript) string {
	if len(got.Updates) != len(ref.Updates) {
		return fmt.Sprintf("update count %d vs %d", len(got.Updates), len(ref.Updates))
	}
	for i := range ref.Updates {
		if d := doubledTokenDiff(got.Updates[i], ref.Updates[i]); d != "" {
			return fmt.Sprintf("update record %d: %s\n  ref: %s\n  got: %s", i, d, ref.Updates[i], got.Updates[i])
		}
	}
	if len(got.Finals) != len(ref.Finals) {
		return fmt.Sprintf("final count %d vs %d", len(got.Finals), len(ref.Finals))
	}
	for i := range ref.Finals {
		if d := doubledTokenDiff(got.Finals[i], ref.Finals[i]); d != "" {
			return fmt.Sprintf("final result %d: %s\n  ref: %s\n  got: %s", i, d, ref.Finals[i], got.Finals[i])
		}
	}
	if got.NumPoints != ref.NumPoints || got.NumQueries != ref.NumQueries {
		return fmt.Sprintf("counters (%d,%d) vs (%d,%d)", got.NumPoints, got.NumQueries, ref.NumPoints, ref.NumQueries)
	}
	return ""
}

// doubleSpec returns spec with every linear or quadratic weight and the
// threshold θ multiplied by 2, reporting false for a function family
// whose scores do not scale with its parameters (the product form).
func doubleSpec(spec core.QuerySpec) (core.QuerySpec, bool) {
	twice := func(w []float64) []float64 {
		for i := range w {
			w[i] *= 2
		}
		return w
	}
	switch f := spec.F.(type) {
	case *geom.Linear:
		spec.F = geom.NewLinear(twice(f.Weights())...)
	case *geom.Quadratic:
		spec.F = geom.NewQuadratic(twice(f.Weights())...)
	default:
		return spec, false
	}
	if spec.Threshold != nil {
		thr := 2 * *spec.Threshold
		spec.Threshold = &thr
	}
	return spec, true
}

// doubleScenario applies doubleSpec to every query s registers.
func doubleScenario(s Scenario) (Scenario, bool) {
	out := s
	out.Initial = make([]core.QuerySpec, len(s.Initial))
	for i, spec := range s.Initial {
		var ok bool
		if out.Initial[i], ok = doubleSpec(spec); !ok {
			return s, false
		}
	}
	out.Cycles = make([]CycleOps, len(s.Cycles))
	for c, ops := range s.Cycles {
		ops.Register = append([]core.QuerySpec(nil), ops.Register...)
		for i, spec := range ops.Register {
			var ok bool
			if ops.Register[i], ok = doubleSpec(spec); !ok {
				return s, false
			}
		}
		out.Cycles[c] = ops
	}
	return out, true
}

// TestMetamorphicDoubledWeights checks the engine against an oracle that
// shares none of its code: doubling every weight and every threshold is
// exact in floating point, so it doubles every score bit for bit and
// preserves every comparison the engine makes. Each query's transcript
// must therefore keep the same tuple ids in the same order, with every
// score exactly doubled. Scenarios holding a product-form query (whose
// score does not scale with its offsets) are skipped.
func TestMetamorphicDoubledWeights(t *testing.T) {
	want := 20
	if testing.Short() {
		want = 6
	}
	ran, topk, thr := 0, false, false
	for seed := int64(1); ran < want && seed <= 200; seed++ {
		s := GenScenario(seed)
		d, ok := doubleScenario(s)
		if !ok {
			continue
		}
		ran++
		for _, spec := range s.Initial {
			topk = topk || spec.Threshold == nil
			thr = thr || spec.Threshold != nil
		}
		replay := func(sc Scenario) Transcript {
			mon, err := core.NewEngine(sc.Options())
			if err != nil {
				t.Fatalf("%v: engine: %v", sc, err)
			}
			tr, err := Replay(mon, sc, ReplayConfig{})
			if cerr := mon.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				t.Fatalf("%v: replay: %v", sc, err)
			}
			return tr
		}
		if diff := doubledDiff(replay(d), replay(s)); diff != "" {
			t.Fatalf("%v: doubled weights did not double every score:\n%s", s, diff)
		}
	}
	if ran < want || !topk || !thr {
		t.Fatalf("ran %d scalable scenarios (want %d), top-k %v, threshold %v", ran, want, topk, thr)
	}
}

// TestUpdateStreamLatticeTies replays update-stream scenarios whose
// coordinates are snapped to multiples of 1/4 and 1/8, so exact score ties
// fall on the result boundary k and on the view boundary kmax a TMA query
// searches to (core.DefaultKMax), through the engine (with its snapshot
// round trip) and data-sharded-3, against the naive reference. The
// reference's hook counts the ties at both boundaries, so the test fails
// if the lattice stops producing them.
func TestUpdateStreamLatticeTies(t *testing.T) {
	modes := allModes()[:2]
	var kTies, kmaxTies int
	countTies := func(naive *Naive) func(int, []core.QueryID) error {
		return func(int, []core.QueryID) error {
			for _, q := range naive.queries {
				if q.spec.Threshold != nil {
					continue
				}
				var scores []float64
				naive.eachLive(func(tu *stream.Tuple) {
					if q.spec.Constraint == nil || q.spec.Constraint.Contains(tu.Vec) {
						scores = append(scores, q.spec.F.Score(tu.Vec))
					}
				})
				sort.Sort(sort.Reverse(sort.Float64Slice(scores)))
				tied := func(rank int) bool { return rank < len(scores) && scores[rank-1] == scores[rank] }
				if tied(q.spec.K) {
					kTies++
				}
				if tied(core.DefaultKMax(q.spec.K)) {
					kmaxTies++
				}
			}
			return nil
		}
	}
	n := 16
	if testing.Short() {
		n = 6
	}
	for seed := int64(1); n > 0; seed++ {
		s := GenScenario(seed)
		if s.Mode != core.UpdateStream {
			continue
		}
		n--
		s.Lattice = 4 << (n % 2)
		runScenario(t, s, modes, true, countTies)
	}
	if kTies == 0 || kmaxTies == 0 {
		t.Fatalf("the lattice produced %d ties at rank k and %d at rank kmax; both must occur", kTies, kmaxTies)
	}
	t.Logf("ties at rank k: %d, at rank kmax: %d", kTies, kmaxTies)
}
