package core

import (
	"math"
	"math/rand"
	"testing"

	"topkmon/internal/geom"
	"topkmon/internal/simd"
	"topkmon/internal/stream"
	"topkmon/internal/validate"
	"topkmon/internal/window"
)

func mustEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return e
}

func smallOpts(dims int, n int) Options {
	return Options{Dims: dims, Window: window.Count(n), TargetCells: 256}
}

func TestNewEngineValidation(t *testing.T) {
	bad := []Options{
		{Dims: 0, Window: window.Count(10)},
		{Dims: 2, Window: window.Count(0)},
		{Dims: 2, Window: window.Count(10), GridRes: -1},
		{Dims: 2, Window: window.Count(10), TargetCells: -5},
	}
	for i, opts := range bad {
		if _, err := NewEngine(opts); err == nil {
			t.Errorf("case %d: options %+v should be rejected", i, opts)
		}
	}
	// UpdateStream mode ignores the window spec.
	if _, err := NewEngine(Options{Dims: 2, Mode: UpdateStream}); err != nil {
		t.Errorf("update-stream engine should not need a window: %v", err)
	}
}

func TestRegisterValidation(t *testing.T) {
	e := mustEngine(t, smallOpts(2, 100))
	cases := []QuerySpec{
		{F: nil, K: 5},
		{F: geom.NewLinear(1, 1, 1), K: 5},         // dims mismatch
		{F: geom.NewLinear(1, 1), K: 0},            // bad K
		{F: geom.NewLinear(1, 1), K: 5, Policy: 9}, // bad policy
		{F: geom.NewLinear(1, 1), K: 5, Constraint: &geom.Rect{Lo: geom.Vector{0}, Hi: geom.Vector{1}}},
	}
	for i, spec := range cases {
		if _, err := e.Register(spec); err == nil {
			t.Errorf("case %d: spec should be rejected", i)
		}
	}
	// SMA under update streams is rejected (Section 7).
	ue := mustEngine(t, Options{Dims: 2, Mode: UpdateStream, TargetCells: 64})
	if _, err := ue.Register(QuerySpec{F: geom.NewLinear(1, 1), K: 3, Policy: SMA}); err == nil {
		t.Errorf("SMA must be rejected under update streams")
	}
	if _, err := ue.Register(QuerySpec{F: geom.NewLinear(1, 1), K: 3, Policy: TMA}); err != nil {
		t.Errorf("TMA must work under update streams: %v", err)
	}
}

func TestStepErrors(t *testing.T) {
	e := mustEngine(t, smallOpts(2, 10))
	gen := stream.NewGenerator(stream.IND, 2, 1)
	if _, err := e.Step(5, gen.Batch(2, 5)); err != nil {
		t.Fatalf("step: %v", err)
	}
	if _, err := e.Step(3, nil); err == nil {
		t.Errorf("time regression must fail")
	}
	// Arrival stamped with the wrong cycle timestamp.
	tup := gen.Next(7)
	if _, err := e.Step(8, []*stream.Tuple{tup}); err == nil {
		t.Errorf("mis-stamped arrival must fail")
	}
	// Non-increasing sequence numbers.
	a := gen.Next(9)
	b := &stream.Tuple{ID: 999, Seq: a.Seq, TS: 9, Vec: geom.Vector{0.1, 0.1}}
	if _, err := e.Step(9, []*stream.Tuple{a, b}); err == nil {
		t.Errorf("duplicate sequence must fail")
	}
	// Wrong mode.
	if _, err := e.StepUpdate(10, nil, nil); err == nil {
		t.Errorf("StepUpdate on append-only engine must fail")
	}
	ue := mustEngine(t, Options{Dims: 2, Mode: UpdateStream, TargetCells: 64})
	if _, err := ue.Step(0, nil); err == nil {
		t.Errorf("Step on update-stream engine must fail")
	}
}

func TestResultUnknownQuery(t *testing.T) {
	e := mustEngine(t, smallOpts(2, 10))
	if _, err := e.Result(42); err == nil {
		t.Errorf("unknown query must fail")
	}
	if err := e.Unregister(42); err == nil {
		t.Errorf("unregistering unknown query must fail")
	}
}

// TestPaperFigure8 replays the worked maintenance example of Section 4.3
// (Figures 5 and 8): a top-1 query with f = x1 + 2*x2 over a count-based
// window. Processing arrivals before expirations lets the arrival of p3
// absorb the expiration of p1 without a from-scratch recomputation; the
// later expiration of p3 does force one.
func TestPaperFigure8(t *testing.T) {
	e := mustEngine(t, Options{Dims: 2, Window: window.Count(2), GridRes: 7})
	f := geom.NewLinear(1, 2)
	qid, err := e.Register(QuerySpec{F: f, K: 1, Policy: TMA})
	if err != nil {
		t.Fatal(err)
	}
	p1 := &stream.Tuple{ID: 1, Seq: 1, TS: 0, Vec: geom.Vector{0.36, 0.93}} // score 2.22
	p2 := &stream.Tuple{ID: 2, Seq: 2, TS: 0, Vec: geom.Vector{0.10, 0.90}} // score 1.90
	if _, err := e.Step(0, []*stream.Tuple{p1, p2}); err != nil {
		t.Fatal(err)
	}
	res, _ := e.Result(qid)
	if len(res) != 1 || res[0].T.ID != 1 {
		t.Fatalf("initial result %v want p1", res)
	}

	// Pins = {p3, p4}, Pdel = {p1, p2}: p3 scores above p1, so the result
	// changes without recomputation.
	p3 := &stream.Tuple{ID: 3, Seq: 3, TS: 1, Vec: geom.Vector{0.70, 0.80}} // score 2.30
	p4 := &stream.Tuple{ID: 4, Seq: 4, TS: 1, Vec: geom.Vector{0.60, 0.75}} // score 2.10
	updates, err := e.Step(1, []*stream.Tuple{p3, p4})
	if err != nil {
		t.Fatal(err)
	}
	res, _ = e.Result(qid)
	if len(res) != 1 || res[0].T.ID != 3 {
		t.Fatalf("result after cycle 1: %v want p3", res)
	}
	if got := e.Stats().Recomputes; got != 0 {
		t.Fatalf("cycle 1 must not recompute (Pins before Pdel), got %d", got)
	}
	if len(updates) != 1 || len(updates[0].Added) != 1 || updates[0].Added[0].T.ID != 3 ||
		len(updates[0].Removed) != 1 || updates[0].Removed[0].T.ID != 1 {
		t.Fatalf("cycle 1 delta wrong: %+v", updates)
	}

	// Pins = {p5}, Pdel = {p3}: the top-1 expires and the arrival scores
	// lower, so the result is recomputed from scratch and becomes p4.
	p5 := &stream.Tuple{ID: 5, Seq: 5, TS: 2, Vec: geom.Vector{0.20, 0.50}} // score 1.20
	if _, err := e.Step(2, []*stream.Tuple{p5}); err != nil {
		t.Fatal(err)
	}
	res, _ = e.Result(qid)
	if len(res) != 1 || res[0].T.ID != 4 {
		t.Fatalf("result after cycle 2: %v want p4", res)
	}
	if got := e.Stats().Recomputes; got != 1 {
		t.Fatalf("cycle 2 must recompute exactly once, got %d", got)
	}
	if err := e.CheckInfluence(); err != nil {
		t.Fatalf("influence invariant: %v", err)
	}
}

// differentialConfig drives an engine and the brute-force oracle side by
// side and compares every query's result after every cycle.
type differentialConfig struct {
	opts    Options
	specs   []QuerySpec
	dist    stream.Distribution
	cycles  int
	rate    int
	seed    int64
	checkIL bool
}

func runDifferential(t *testing.T, cfg differentialConfig) *Engine {
	t.Helper()
	e := mustEngine(t, cfg.opts)
	gen := stream.NewGenerator(cfg.dist, cfg.opts.Dims, cfg.seed)
	ids := make([]QueryID, len(cfg.specs))
	for i, spec := range cfg.specs {
		id, err := e.Register(spec)
		if err != nil {
			t.Fatalf("register %d: %v", i, err)
		}
		ids[i] = id
	}
	var valid []*stream.Tuple
	for ts := 0; ts < cfg.cycles; ts++ {
		batch := gen.Batch(cfg.rate, int64(ts))
		if _, err := e.Step(int64(ts), batch); err != nil {
			t.Fatalf("step %d: %v", ts, err)
		}
		valid = append(valid, batch...)
		switch cfg.opts.Window.Kind {
		case window.CountBased:
			if n := cfg.opts.Window.N; len(valid) > n {
				valid = valid[len(valid)-n:]
			}
		case window.TimeBased:
			for len(valid) > 0 && int64(ts)-valid[0].TS >= cfg.opts.Window.Span {
				valid = valid[1:]
			}
		}
		for i, id := range ids {
			spec := cfg.specs[i]
			got, err := e.Result(id)
			if err != nil {
				t.Fatalf("result: %v", err)
			}
			var want []validate.Entry
			if spec.Threshold != nil {
				want = validate.Threshold(valid, spec.F, *spec.Threshold, spec.Constraint)
			} else {
				want = validate.TopK(valid, spec.F, spec.K, spec.Constraint)
			}
			if len(got) != len(want) {
				t.Fatalf("ts=%d query %d (%v): %d results want %d", ts, id, spec.Policy, len(got), len(want))
			}
			for j := range want {
				if got[j].T.ID != want[j].T.ID {
					t.Fatalf("ts=%d query %d (%v): rank %d is p%d want p%d (scores %.6f vs %.6f)",
						ts, id, spec.Policy, j, got[j].T.ID, want[j].T.ID, got[j].Score, want[j].Score)
				}
			}
		}
		if cfg.checkIL {
			if err := e.CheckInfluence(); err != nil {
				t.Fatalf("ts=%d: influence invariant: %v", ts, err)
			}
		}
	}
	return e
}

func TestTMAMatchesOracleAcrossConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	kinds := []stream.FunctionKind{stream.FuncLinear, stream.FuncProduct, stream.FuncQuadratic, stream.FuncMixed}
	for trial := 0; trial < 10; trial++ {
		d := 1 + rng.Intn(3)
		qg := stream.NewQueryGenerator(kinds[trial%len(kinds)], d, int64(trial))
		specs := make([]QuerySpec, 3)
		for i := range specs {
			specs[i] = QuerySpec{F: qg.Next(), K: 1 + rng.Intn(8), Policy: TMA}
		}
		dist := stream.IND
		if trial%2 == 1 {
			dist = stream.ANT
		}
		runDifferential(t, differentialConfig{
			opts:    Options{Dims: d, Window: window.Count(60 + rng.Intn(100)), TargetCells: 1 << (2 * d)},
			specs:   specs,
			dist:    dist,
			cycles:  40,
			rate:    5 + rng.Intn(10),
			seed:    int64(trial * 7),
			checkIL: trial%3 == 0,
		})
	}
}

func TestSMAMatchesOracleAcrossConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	kinds := []stream.FunctionKind{stream.FuncLinear, stream.FuncProduct, stream.FuncQuadratic, stream.FuncMixed}
	for trial := 0; trial < 10; trial++ {
		d := 1 + rng.Intn(3)
		qg := stream.NewQueryGenerator(kinds[trial%len(kinds)], d, int64(trial))
		specs := make([]QuerySpec, 3)
		for i := range specs {
			specs[i] = QuerySpec{F: qg.Next(), K: 1 + rng.Intn(8), Policy: SMA}
		}
		dist := stream.IND
		if trial%2 == 1 {
			dist = stream.ANT
		}
		runDifferential(t, differentialConfig{
			opts:    Options{Dims: d, Window: window.Count(60 + rng.Intn(100)), TargetCells: 1 << (2 * d)},
			specs:   specs,
			dist:    dist,
			cycles:  40,
			rate:    5 + rng.Intn(10),
			seed:    int64(trial * 17),
			checkIL: trial%3 == 0,
		})
	}
}

func TestMixedPoliciesAndQueryTypes(t *testing.T) {
	threshold := 1.6
	specs := []QuerySpec{
		{F: geom.NewLinear(1, 1), K: 5, Policy: TMA},
		{F: geom.NewLinear(1, 1), K: 5, Policy: SMA},
		{F: geom.NewLinear(0.5, 1.5), K: 3, Policy: SMA},
		{F: geom.NewLinear(1, 1), Threshold: &threshold},
		{F: geom.NewProduct(0.2, 0.8), K: 4, Policy: TMA},
	}
	runDifferential(t, differentialConfig{
		opts:    Options{Dims: 2, Window: window.Count(150), TargetCells: 144},
		specs:   specs,
		dist:    stream.IND,
		cycles:  50,
		rate:    10,
		seed:    99,
		checkIL: true,
	})
}

func TestConstrainedQueriesMatchOracle(t *testing.T) {
	constraint := geom.Rect{Lo: geom.Vector{0.2, 0.3}, Hi: geom.Vector{0.7, 0.9}}
	thr := 1.2
	specs := []QuerySpec{
		{F: geom.NewLinear(1, 2), K: 4, Policy: TMA, Constraint: &constraint},
		{F: geom.NewLinear(1, 2), K: 4, Policy: SMA, Constraint: &constraint},
		{F: geom.NewLinear(1, 2), Threshold: &thr, Constraint: &constraint},
	}
	runDifferential(t, differentialConfig{
		opts:    Options{Dims: 2, Window: window.Count(120), TargetCells: 100},
		specs:   specs,
		dist:    stream.IND,
		cycles:  50,
		rate:    8,
		seed:    7,
		checkIL: true,
	})
}

func TestTimeBasedWindowMatchesOracle(t *testing.T) {
	specs := []QuerySpec{
		{F: geom.NewLinear(1, 1), K: 5, Policy: TMA},
		{F: geom.NewLinear(2, 1), K: 5, Policy: SMA},
	}
	runDifferential(t, differentialConfig{
		opts:    Options{Dims: 2, Window: window.Time(7), TargetCells: 144},
		specs:   specs,
		dist:    stream.IND,
		cycles:  60,
		rate:    6,
		seed:    3,
		checkIL: true,
	})
}

func TestMixedMonotonicityMatchesOracle(t *testing.T) {
	specs := []QuerySpec{
		{F: geom.NewLinear(1, -1), K: 3, Policy: TMA},  // Figure 7a
		{F: geom.NewLinear(-1, -1), K: 3, Policy: SMA}, // fully decreasing
		{F: geom.NewQuadratic(-0.5, 1), K: 4, Policy: SMA},
	}
	runDifferential(t, differentialConfig{
		opts:    Options{Dims: 2, Window: window.Count(100), TargetCells: 81},
		specs:   specs,
		dist:    stream.ANT,
		cycles:  50,
		rate:    7,
		seed:    5,
		checkIL: true,
	})
}

// TestTMAvsSMAIdenticalResults runs the two policies on identical streams
// and compares them to each other every cycle, including their Update
// deltas reconstructed into result sets.
func TestTMAvsSMAIdenticalResults(t *testing.T) {
	f := geom.NewLinear(0.8, 1.7)
	mk := func(p Policy) (*Engine, QueryID) {
		e := mustEngine(t, Options{Dims: 2, Window: window.Count(200), TargetCells: 144})
		id, err := e.Register(QuerySpec{F: f, K: 10, Policy: p})
		if err != nil {
			t.Fatal(err)
		}
		return e, id
	}
	e1, id1 := mk(TMA)
	e2, id2 := mk(SMA)
	gen1 := stream.NewGenerator(stream.IND, 2, 42)
	gen2 := stream.NewGenerator(stream.IND, 2, 42)
	for ts := 0; ts < 80; ts++ {
		if _, err := e1.Step(int64(ts), gen1.Batch(12, int64(ts))); err != nil {
			t.Fatal(err)
		}
		if _, err := e2.Step(int64(ts), gen2.Batch(12, int64(ts))); err != nil {
			t.Fatal(err)
		}
		r1, _ := e1.Result(id1)
		r2, _ := e2.Result(id2)
		if len(r1) != len(r2) {
			t.Fatalf("ts=%d: lengths differ %d vs %d", ts, len(r1), len(r2))
		}
		for i := range r1 {
			if r1[i].T.ID != r2[i].T.ID {
				t.Fatalf("ts=%d rank %d: TMA p%d vs SMA p%d", ts, i, r1[i].T.ID, r2[i].T.ID)
			}
		}
	}
	// SMA must recompute less often than TMA (the paper's headline claim).
	s1, s2 := e1.Stats(), e2.Stats()
	if s2.Recomputes > s1.Recomputes {
		t.Fatalf("SMA recomputed more often than TMA: %d vs %d", s2.Recomputes, s1.Recomputes)
	}
	if s1.Recomputes == 0 {
		t.Fatalf("expected TMA to recompute at least once in 80 cycles")
	}
}

// TestUpdatesReconstructResults applies the emitted deltas to a shadow copy
// and checks it always equals the queryable result.
func TestUpdatesReconstructResults(t *testing.T) {
	e := mustEngine(t, smallOpts(2, 120))
	specs := []QuerySpec{
		{F: geom.NewLinear(1, 1), K: 6, Policy: TMA},
		{F: geom.NewLinear(1, 3), K: 6, Policy: SMA},
	}
	ids := make([]QueryID, len(specs))
	for i, s := range specs {
		id, err := e.Register(s)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	shadow := map[QueryID]map[uint64]bool{}
	for _, id := range ids {
		shadow[id] = map[uint64]bool{}
		res, _ := e.Result(id)
		for _, en := range res {
			shadow[id][en.T.ID] = true
		}
	}
	gen := stream.NewGenerator(stream.IND, 2, 77)
	for ts := 0; ts < 60; ts++ {
		updates, err := e.Step(int64(ts), gen.Batch(8, int64(ts)))
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range updates {
			m := shadow[u.Query]
			for _, en := range u.Removed {
				if !m[en.T.ID] {
					t.Fatalf("ts=%d: removed p%d was not in shadow result", ts, en.T.ID)
				}
				delete(m, en.T.ID)
			}
			for _, en := range u.Added {
				if m[en.T.ID] {
					t.Fatalf("ts=%d: added p%d already in shadow result", ts, en.T.ID)
				}
				m[en.T.ID] = true
			}
		}
		for _, id := range ids {
			res, _ := e.Result(id)
			if len(res) != len(shadow[id]) {
				t.Fatalf("ts=%d query %d: shadow size %d vs result %d", ts, id, len(shadow[id]), len(res))
			}
			for _, en := range res {
				if !shadow[id][en.T.ID] {
					t.Fatalf("ts=%d query %d: p%d missing from shadow", ts, id, en.T.ID)
				}
			}
		}
	}
}

func TestUnregisterCleansInfluenceLists(t *testing.T) {
	e := mustEngine(t, smallOpts(2, 100))
	gen := stream.NewGenerator(stream.IND, 2, 9)
	var ids []QueryID
	for i := 0; i < 4; i++ {
		spec := QuerySpec{F: geom.NewLinear(float64(i+1), 1), K: 3, Policy: Policy(i % 2)}
		id, err := e.Register(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for ts := 0; ts < 20; ts++ {
		if _, err := e.Step(int64(ts), gen.Batch(10, int64(ts))); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids {
		if e.InfluenceEntriesFor(id) == 0 {
			t.Fatalf("query %d has no influence entries before unregister", id)
		}
		if err := e.Unregister(id); err != nil {
			t.Fatal(err)
		}
		if n := e.InfluenceEntriesFor(id); n != 0 {
			t.Fatalf("query %d left %d influence entries after unregister", id, n)
		}
	}
	if e.Grid().TotalInfluenceEntries() != 0 {
		t.Fatalf("stray influence entries remain: %d", e.Grid().TotalInfluenceEntries())
	}
	// The engine keeps running fine with no queries.
	if _, err := e.Step(20, gen.Batch(10, 20)); err != nil {
		t.Fatal(err)
	}
}

// TestUpdateStreamMatchesOracle exercises the explicit-deletion model:
// random deletions in arbitrary (non-FIFO) order, TMA and threshold
// queries compared against the oracle every cycle.
func TestUpdateStreamMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	e := mustEngine(t, Options{Dims: 2, Mode: UpdateStream, TargetCells: 100})
	thr := 1.5
	specs := []QuerySpec{
		{F: geom.NewLinear(1, 1), K: 5, Policy: TMA},
		{F: geom.NewLinear(2, 0.5), K: 3, Policy: TMA},
		{F: geom.NewLinear(1, 1), Threshold: &thr},
	}
	ids := make([]QueryID, len(specs))
	for i, s := range specs {
		id, err := e.Register(s)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	gen := stream.NewGenerator(stream.IND, 2, 31)
	live := map[uint64]*stream.Tuple{}
	var liveIDs []uint64
	for ts := 0; ts < 60; ts++ {
		arrivals := gen.Batch(6, int64(ts))
		var deletions []uint64
		for i := 0; i < 4 && len(liveIDs) > 0; i++ {
			j := rng.Intn(len(liveIDs))
			deletions = append(deletions, liveIDs[j])
			liveIDs[j] = liveIDs[len(liveIDs)-1]
			liveIDs = liveIDs[:len(liveIDs)-1]
		}
		if _, err := e.StepUpdate(int64(ts), arrivals, deletions); err != nil {
			t.Fatalf("ts=%d: %v", ts, err)
		}
		for _, a := range arrivals {
			live[a.ID] = a
			liveIDs = append(liveIDs, a.ID)
		}
		for _, id := range deletions {
			delete(live, id)
		}
		valid := make([]*stream.Tuple, 0, len(live))
		for _, tu := range live {
			valid = append(valid, tu)
		}
		for i, qid := range ids {
			got, err := e.Result(qid)
			if err != nil {
				t.Fatal(err)
			}
			var want []validate.Entry
			if specs[i].Threshold != nil {
				want = validate.Threshold(valid, specs[i].F, *specs[i].Threshold, nil)
			} else {
				want = validate.TopK(valid, specs[i].F, specs[i].K, nil)
			}
			if len(got) != len(want) {
				t.Fatalf("ts=%d query %d: %d results want %d", ts, qid, len(got), len(want))
			}
			for j := range want {
				if got[j].T.ID != want[j].T.ID {
					t.Fatalf("ts=%d query %d rank %d: p%d want p%d", ts, qid, j, got[j].T.ID, want[j].T.ID)
				}
			}
		}
	}
	// Deleting an unknown tuple fails cleanly.
	if _, err := e.StepUpdate(60, nil, []uint64{1 << 60}); err == nil {
		t.Fatalf("unknown deletion must fail")
	}
}

func TestUpdateStreamDuplicateIDRejected(t *testing.T) {
	e := mustEngine(t, Options{Dims: 2, Mode: UpdateStream, TargetCells: 64})
	a := &stream.Tuple{ID: 1, Seq: 1, TS: 0, Vec: geom.Vector{0.5, 0.5}}
	b := &stream.Tuple{ID: 1, Seq: 2, TS: 0, Vec: geom.Vector{0.6, 0.6}}
	if _, err := e.StepUpdate(0, []*stream.Tuple{a}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := e.StepUpdate(1, []*stream.Tuple{b}, nil); err == nil {
		t.Fatalf("duplicate id must fail")
	}
}

// TestWarmupUnderfullResults: with fewer valid tuples than K, results must
// contain exactly the valid tuples, and grow as the window fills.
func TestWarmupUnderfullResults(t *testing.T) {
	e := mustEngine(t, smallOpts(2, 1000))
	idT, _ := e.Register(QuerySpec{F: geom.NewLinear(1, 1), K: 50, Policy: TMA})
	idS, _ := e.Register(QuerySpec{F: geom.NewLinear(1, 1), K: 50, Policy: SMA})
	gen := stream.NewGenerator(stream.IND, 2, 3)
	total := 0
	for ts := 0; ts < 8; ts++ {
		if _, err := e.Step(int64(ts), gen.Batch(10, int64(ts))); err != nil {
			t.Fatal(err)
		}
		total += 10
		want := total
		if want > 50 {
			want = 50
		}
		for _, id := range []QueryID{idT, idS} {
			res, _ := e.Result(id)
			if len(res) != want {
				t.Fatalf("ts=%d query %d: %d results want %d", ts, id, len(res), want)
			}
		}
	}
}

func TestRegistrationMidStream(t *testing.T) {
	e := mustEngine(t, smallOpts(2, 100))
	gen := stream.NewGenerator(stream.IND, 2, 4)
	var valid []*stream.Tuple
	for ts := 0; ts < 10; ts++ {
		b := gen.Batch(20, int64(ts))
		if _, err := e.Step(int64(ts), b); err != nil {
			t.Fatal(err)
		}
		valid = append(valid, b...)
	}
	if len(valid) > 100 {
		valid = valid[len(valid)-100:]
	}
	// Register against a hot window: the initial computation must reflect
	// the current contents immediately.
	f := geom.NewLinear(1, 2)
	id, err := e.Register(QuerySpec{F: f, K: 7, Policy: SMA})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := e.Result(id)
	want := validate.TopK(valid, f, 7, nil)
	for i := range want {
		if got[i].T.ID != want[i].T.ID {
			t.Fatalf("rank %d: p%d want p%d", i, got[i].T.ID, want[i].T.ID)
		}
	}
	if err := e.CheckInfluence(); err != nil {
		t.Fatal(err)
	}
}

// TestThresholdReadsAreNotMaintenance: registering a threshold query runs
// no search, and reading its result (Result, AppendResult, Queries) runs
// one that is not charged — neither moves Stats' work counters nor the
// query's attributed cost.
func TestThresholdReadsAreNotMaintenance(t *testing.T) {
	e := mustEngine(t, smallOpts(2, 200))
	if _, err := e.Register(QuerySpec{F: geom.NewLinear(2, 1), K: 5, Policy: TMA}); err != nil {
		t.Fatal(err)
	}
	gen := stream.NewGenerator(stream.IND, 2, 8)
	var valid []*stream.Tuple
	for ts := int64(0); ts < 5; ts++ {
		b := gen.Batch(30, ts)
		if _, err := e.Step(ts, b); err != nil {
			t.Fatal(err)
		}
		valid = append(valid, b...)
	}
	before := e.Stats()
	unchanged := func(what string, id QueryID) {
		t.Helper()
		s := e.Stats()
		if s.CellsProcessed != before.CellsProcessed || s.HeapOps != before.HeapOps {
			t.Fatalf("%s moved the work counters: cells %d -> %d, heap ops %d -> %d",
				what, before.CellsProcessed, s.CellsProcessed, before.HeapOps, s.HeapOps)
		}
		if info, err := e.QueryInfoFor(id); err != nil || info.Cost != 0 {
			t.Fatalf("%s: query cost %d (err %v), want 0", what, info.Cost, err)
		}
	}

	thr := 0.8
	region := geom.Rect{Lo: geom.Vector{0.1, 0.1}, Hi: geom.Vector{0.9, 0.9}}
	id, err := e.Register(QuerySpec{F: geom.NewLinear(1, 1), Threshold: &thr, Constraint: &region})
	if err != nil {
		t.Fatal(err)
	}
	unchanged("Register", id)

	got, err := e.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	want := validate.Threshold(valid, geom.NewLinear(1, 1), thr, &region)
	if len(got) == 0 || len(got) != len(want) {
		t.Fatalf("result holds %d tuples, brute force %d", len(got), len(want))
	}
	for i := range want {
		if got[i].T.ID != want[i].T.ID || got[i].Score != want[i].Score {
			t.Fatalf("rank %d: p%d=%v, want p%d=%v", i, got[i].T.ID, got[i].Score, want[i].T.ID, want[i].Score)
		}
	}
	unchanged("Result", id)

	// AppendResult keeps the caller's prefix as it was.
	prefix := Entry{T: tup(1<<40, 0, 0, 0), Score: -1}
	out, err := e.AppendResult(id, []Entry{prefix})
	if err != nil || out[0] != prefix || len(out) != 1+len(want) {
		t.Fatalf("AppendResult: err %v, %d entries, head %v", err, len(out), out[0])
	}
	if info, err := e.QueryInfoFor(id); err != nil || info.ResultSize != len(want) {
		t.Fatalf("ResultSize %d (err %v), want %d", info.ResultSize, err, len(want))
	}
	unchanged("AppendResult and Queries", id)
}

// TestThresholdRescoreBitExact: a threshold query recognizes an expiring
// member by scoring it again, so that score must be bit-identical to the
// one it was admitted with, although the cluster it is scored in has
// changed meanwhile. More than qTile near-duplicate subscriptions share
// one cluster; between the arrivals and their expiry some members are
// unregistered, and swap-deletion moves survivors into other member tiles
// and other lanes of the multi-query kernel. Every Removed entry must
// equal its Added entry bit for bit, and every admitted tuple must be
// dropped, on every available kernel leg.
func TestThresholdRescoreBitExact(t *testing.T) {
	orig := simd.ActiveLeg()
	defer func() {
		if err := simd.SetLeg(orig); err != nil {
			t.Fatal(err)
		}
	}()
	for _, leg := range simd.AvailableLegs() {
		t.Run(leg.String(), func(t *testing.T) {
			if err := simd.SetLeg(leg); err != nil {
				t.Fatal(err)
			}
			e := mustEngine(t, Options{Dims: 3, Window: window.Count(240), TargetCells: 64})
			const members = 3*qTile + 5
			ids := make([]QueryID, members)
			for i := range ids {
				w := []float64{1 + float64(i)*1e-3/3, 1 - float64(i)*1e-3/7, 1 + float64(i%5)*1e-4}
				thr := 1.2 + float64(i%11)*0.01
				id, err := e.Register(QuerySpec{F: geom.NewLinear(w...), Threshold: &thr})
				if err != nil {
					t.Fatal(err)
				}
				ids[i] = id
			}
			if c := e.QueryIndex().NumClusters(); c != 1 {
				t.Fatalf("near-duplicate subscriptions formed %d clusters, want 1", c)
			}

			added := map[QueryID]map[uint64]float64{}
			dropped := 0
			gen := stream.NewGenerator(stream.IND, 3, 17)
			for ts := int64(0); ts < 12; ts++ {
				if ts == 4 {
					// Remove members from the first tiles: the last members
					// move into their slots.
					for i := 0; i < members; i += 3 {
						if err := e.Unregister(ids[i]); err != nil {
							t.Fatal(err)
						}
						delete(added, ids[i])
					}
				}
				updates, err := e.Step(ts, gen.Batch(60, ts))
				if err != nil {
					t.Fatal(err)
				}
				for _, u := range updates {
					held := added[u.Query]
					if held == nil {
						held = map[uint64]float64{}
						added[u.Query] = held
					}
					for _, en := range u.Removed {
						score, ok := held[en.T.ID]
						if !ok {
							t.Fatalf("cycle %d: q%d drops tuple %d it never admitted", ts, u.Query, en.T.ID)
						}
						if math.Float64bits(score) != math.Float64bits(en.Score) {
							t.Fatalf("cycle %d: q%d drops tuple %d at score %v, admitted at %v", ts, u.Query, en.T.ID, en.Score, score)
						}
						delete(held, en.T.ID)
						dropped++
					}
					for _, en := range u.Added {
						held[en.T.ID] = en.Score
					}
				}
				if err := e.CheckInfluence(); err != nil {
					t.Fatalf("cycle %d: %v", ts, err)
				}
			}
			// 720 arrivals through a 240-tuple window: the first 480 have
			// expired, so every survivor has dropped what it admitted then.
			if dropped == 0 {
				t.Fatal("no member ever dropped a tuple")
			}
			for id, held := range added {
				res, err := e.Result(id)
				if err != nil {
					t.Fatal(err)
				}
				if len(res) != len(held) {
					t.Fatalf("q%d holds %d tuples by its transcript, %d by its result", id, len(held), len(res))
				}
			}
		})
	}
}

func TestStatsAndMemoryAccounting(t *testing.T) {
	e := mustEngine(t, smallOpts(2, 200))
	if _, err := e.Register(QuerySpec{F: geom.NewLinear(1, 1), K: 5, Policy: SMA}); err != nil {
		t.Fatal(err)
	}
	gen := stream.NewGenerator(stream.IND, 2, 6)
	before := e.MemoryBytes()
	for ts := 0; ts < 30; ts++ {
		if _, err := e.Step(int64(ts), gen.Batch(10, int64(ts))); err != nil {
			t.Fatal(err)
		}
	}
	s := e.Stats()
	if s.Arrivals != 300 {
		t.Fatalf("arrivals=%d", s.Arrivals)
	}
	if s.Expirations != 100 { // 300 pushed, window 200
		t.Fatalf("expirations=%d", s.Expirations)
	}
	if s.InitialComputations != 1 {
		t.Fatalf("initial computations=%d", s.InitialComputations)
	}
	if s.SkybandSamples != 30 {
		t.Fatalf("skyband samples=%d", s.SkybandSamples)
	}
	if s.AvgSkybandSize() < 1 {
		t.Fatalf("avg skyband size=%g", s.AvgSkybandSize())
	}
	if e.MemoryBytes() <= before {
		t.Fatalf("memory accounting did not grow with content")
	}
	if e.NumPoints() != 200 || e.NumQueries() != 1 || e.Now() != 29 {
		t.Fatalf("accessors wrong: points=%d queries=%d now=%d", e.NumPoints(), e.NumQueries(), e.Now())
	}
}

func TestPolicyParsing(t *testing.T) {
	for s, want := range map[string]Policy{"TMA": TMA, "sma": SMA} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q)=%v,%v", s, got, err)
		}
	}
	if _, err := ParsePolicy("xyz"); err == nil {
		t.Errorf("unknown policy must error")
	}
	if TMA.String() != "TMA" || SMA.String() != "SMA" || Policy(7).String() == "" {
		t.Errorf("policy strings")
	}
	if AppendOnly.String() == "" || UpdateStream.String() == "" || StreamMode(7).String() == "" {
		t.Errorf("mode strings")
	}
}

// TestEmptyCyclesAndIdleQueries: cycles with no arrivals must still expire
// tuples from time-based windows and report removals.
func TestEmptyCyclesTimeWindow(t *testing.T) {
	e := mustEngine(t, Options{Dims: 2, Window: window.Time(5), TargetCells: 64})
	id, _ := e.Register(QuerySpec{F: geom.NewLinear(1, 1), K: 3, Policy: TMA})
	gen := stream.NewGenerator(stream.IND, 2, 8)
	if _, err := e.Step(0, gen.Batch(5, 0)); err != nil {
		t.Fatal(err)
	}
	res, _ := e.Result(id)
	if len(res) != 3 {
		t.Fatalf("initial results=%d", len(res))
	}
	// Advance past the span with empty cycles: everything expires.
	var updates []Update
	for ts := int64(1); ts <= 6; ts++ {
		u, err := e.Step(ts, nil)
		if err != nil {
			t.Fatal(err)
		}
		updates = append(updates, u...)
	}
	res, _ = e.Result(id)
	if len(res) != 0 {
		t.Fatalf("results should be empty after window drained: %v", res)
	}
	removed := 0
	for _, u := range updates {
		removed += len(u.Removed)
	}
	if removed != 3 {
		t.Fatalf("removals reported=%d want 3", removed)
	}
}

// TestUpdateStreamErrorsAreAllOrNothing pins the validate-then-apply
// contract of the batched StepUpdate: a rejected cycle must leave the
// engine exactly as it was — nothing half-indexed in byID or the grid,
// no deletions applied before the failing one.
func TestUpdateStreamErrorsAreAllOrNothing(t *testing.T) {
	e := mustEngine(t, Options{Dims: 2, Mode: UpdateStream, TargetCells: 64})
	id, err := e.Register(QuerySpec{F: geom.NewLinear(1, 1), K: 5, Policy: TMA})
	if err != nil {
		t.Fatal(err)
	}
	seed := []*stream.Tuple{
		{ID: 1, Seq: 1, TS: 0, Vec: geom.Vector{0.5, 0.5}},
		{ID: 2, Seq: 2, TS: 0, Vec: geom.Vector{0.6, 0.6}},
	}
	if _, err := e.StepUpdate(0, seed, nil); err != nil {
		t.Fatal(err)
	}

	// Duplicate arrival (vs index and within the batch): nothing indexed.
	fresh := &stream.Tuple{ID: 3, Seq: 3, TS: 1, Vec: geom.Vector{0.7, 0.7}}
	dup := &stream.Tuple{ID: 1, Seq: 4, TS: 1, Vec: geom.Vector{0.8, 0.8}}
	if _, err := e.StepUpdate(1, []*stream.Tuple{fresh, dup}, nil); err == nil {
		t.Fatal("duplicate arrival must fail")
	}
	twin := []*stream.Tuple{
		{ID: 4, Seq: 5, TS: 1, Vec: geom.Vector{0.3, 0.3}},
		{ID: 4, Seq: 6, TS: 1, Vec: geom.Vector{0.4, 0.4}},
	}
	if _, err := e.StepUpdate(1, twin, nil); err == nil {
		t.Fatal("within-batch duplicate arrival must fail")
	}
	if e.NumPoints() != 2 {
		t.Fatalf("failed cycles indexed tuples: %d points want 2", e.NumPoints())
	}

	// Failing deletion list: the valid prefix must not be applied, and the
	// prefix tuples must remain deletable afterwards.
	if _, err := e.StepUpdate(2, nil, []uint64{1, 99}); err == nil {
		t.Fatal("unknown deletion must fail")
	}
	if _, err := e.StepUpdate(2, nil, []uint64{2, 2}); err == nil {
		t.Fatal("duplicate deletion must fail")
	}
	if e.NumPoints() != 2 {
		t.Fatalf("failed deletion cycle mutated the index: %d points want 2", e.NumPoints())
	}
	if _, err := e.StepUpdate(3, nil, []uint64{1, 2}); err != nil {
		t.Fatalf("prefix of failed deletion became undeletable: %v", err)
	}
	if e.NumPoints() != 0 {
		t.Fatalf("points=%d want 0", e.NumPoints())
	}

	// Same-cycle arrival + deletion still works (insert then delete).
	pair := []*stream.Tuple{{ID: 7, Seq: 7, TS: 4, Vec: geom.Vector{0.9, 0.9}}}
	if _, err := e.StepUpdate(4, pair, []uint64{7}); err != nil {
		t.Fatal(err)
	}
	if e.NumPoints() != 0 {
		t.Fatalf("same-cycle insert+delete left %d points", e.NumPoints())
	}
	res, err := e.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("result holds %d entries over an empty index", len(res))
	}
	if err := e.CheckInfluence(); err != nil {
		t.Fatal(err)
	}
}
