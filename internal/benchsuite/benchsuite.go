// Package benchsuite defines the hot-path benchmark bodies shared by the
// repository's go-test benchmarks (bench_test.go wrappers) and by
// cmd/benchreport, which runs them programmatically via testing.Benchmark
// to emit the BENCH_*.json regression baseline. Keeping the bodies in a
// normal (non-test) package is what lets the report command execute the
// exact same code the test harness measures.
//
// Every workload is seeded with fixed constants so comparisons across PRs
// measure code changes, not data changes.
package benchsuite

import (
	"math/rand"
	"strings"
	"testing"

	"topkmon/internal/admission"
	"topkmon/internal/geom"
	"topkmon/internal/grid"
	"topkmon/internal/harness"
	"topkmon/internal/qindex"
	"topkmon/internal/simd"
	"topkmon/internal/stream"
	"topkmon/internal/topk"
)

// Fixed workload seeds (never the clock).
const (
	seedHarness   = 1  // harness configs (tuples; queries use Seed+1)
	seedBlockData = 41 // ScoreBlock coordinate block
	seedBlockFn   = 42 // ScoreBlock scoring function
	seedWalkData  = 43 // InfluenceWalk point fill
	seedTopKData  = 3  // TopKComputation grid fill (matches bench_test.go)
	seedTopKQuery = 4  // TopKComputation query set
	seedMultiFn   = 44 // MultiQueryKernel near-duplicate weight rows
	seedProbe     = 45 // QueryIndexProbe query population
)

// Bench is one named benchmark body.
type Bench struct {
	Name string
	F    func(b *testing.B)
}

// Suite returns the hot-path benchmarks in reporting order.
func Suite() []Bench {
	return []Bench{
		{"Fig14Grid/res=12/TMA", fig14(harness.AlgoTMA)},
		{"Fig14Grid/res=12/SMA", fig14(harness.AlgoSMA)},
		{"InsertTupleBatch/TMA", insertTupleBatch(harness.AlgoTMA)},
		{"InsertTupleBatch/SMA", insertTupleBatch(harness.AlgoSMA)},
		{"InfluenceWalk", influenceWalk},
		{"ScoreBlock/kernel-d4", scoreBlockKernel},
		{"ScoreBlock/pointwise-d4", scoreBlockPointwise},
		{"MultiQueryKernel/multi-d4", multiQueryKernelMulti},
		{"MultiQueryKernel/perquery-d4", multiQueryKernelPerQuery},
		{"QueryIndexProbe/q=10000", queryIndexProbe},
		{"PubSubCycle/q=1000", pubSubCycle(1000)},
		{"PubSubCycle/q=10000", pubSubCycle(10000)},
		{"PubSubCycle/q=100000", pubSubCycle(100000)},
		{"ReportFanOut/q=12500", reportFanOut(12500)},
		{"ReportTopK/q=1000", reportTopK(1000)},
		{"TopKComputation/k=20", topKComputation},
		{"AdmissionOverhead/ungoverned", admissionOverhead(false)},
		{"AdmissionOverhead/governed", admissionOverhead(true)},
		{"AdmissionOverhead/fastpath", admissionFastPath},
	}
}

// LegSuite returns the per-leg kernel series: the ScoreBlock batch
// kernel and the MultiQueryKernel GEMM-shaped kernel, pinned to each
// kernel leg this host can execute (widest first, per
// simd.AvailableLegs), plus the hardware leg's opt-in FMA tier when the
// host has one. The series is what makes a leg regression visible as a
// named benchmark: cmd/benchreport gates the hardware-vs-unrolled ratio
// on it and emits it as the per-leg comparison CSV.
func LegSuite() []Bench {
	var out []Bench
	for _, leg := range simd.AvailableLegs() {
		out = append(out,
			Bench{"ScoreBlockLeg/" + leg.String(), scoreBlockOnLeg(leg, false)},
			Bench{"MultiQueryKernelLeg/" + leg.String(), multiQueryOnLeg(leg, false)},
		)
	}
	if hw, ok := simd.HardwareLeg(); ok && simd.FMASupported() {
		out = append(out,
			Bench{"ScoreBlockLeg/" + hw.String() + "+fma", scoreBlockOnLeg(hw, true)},
			Bench{"MultiQueryKernelLeg/" + hw.String() + "+fma", multiQueryOnLeg(hw, true)},
		)
	}
	return out
}

// withLeg pins the simd dispatch to (leg, fma) for the duration of one
// benchmark body, restoring the previous state afterwards. Benchmarks
// run sequentially, so the process-wide leg switch is safe here.
func withLeg(b *testing.B, leg simd.Leg, fma bool, body func(b *testing.B)) {
	origLeg, origFMA := simd.ActiveLeg(), simd.FMAEnabled()
	if err := simd.SetLeg(leg); err != nil {
		b.Fatal(err)
	}
	if fma {
		if err := simd.SetFMA(true); err != nil {
			b.Fatal(err)
		}
	}
	defer func() {
		if err := simd.SetLeg(origLeg); err != nil {
			b.Fatal(err)
		}
		if origFMA {
			if err := simd.SetFMA(true); err != nil {
				b.Fatal(err)
			}
		}
	}()
	body(b)
}

// scoreBlockOnLeg is scoreBlockKernel pinned to one (leg, fma) state.
func scoreBlockOnLeg(leg simd.Leg, fma bool) func(b *testing.B) {
	return func(b *testing.B) {
		withLeg(b, leg, fma, scoreBlockKernel)
	}
}

// multiQueryOnLeg is multiQueryKernelMulti pinned to one (leg, fma) state.
func multiQueryOnLeg(leg simd.Leg, fma bool) func(b *testing.B) {
	return func(b *testing.B) {
		withLeg(b, leg, fma, multiQueryKernelMulti)
	}
}

// RunGroup runs every entry of Suite and LegSuite under the given name
// prefix as a sub-benchmark, for the bench_test.go wrappers.
func RunGroup(b *testing.B, prefix string) {
	ran := false
	for _, bench := range append(Suite(), LegSuite()...) {
		if bench.Name == prefix {
			bench.F(b)
			return
		}
		if rest, ok := strings.CutPrefix(bench.Name, prefix+"/"); ok {
			ran = true
			b.Run(rest, bench.F)
		}
	}
	if !ran {
		b.Fatalf("benchsuite: no benchmarks under %q", prefix)
	}
}

// fig14 is the Figure 14 per-cycle cost benchmark at the paper's default
// grid granularity (12 cells per axis scaled to the bench density), with
// allocation reporting — the headline per-cycle number of the regression
// trajectory. The timed loop includes batch generation (as the
// figure-reproduction benchmarks always have); the engine-only paths are
// isolated by InsertTupleBatch and ScoreBlock below.
func fig14(algo harness.Algo) func(b *testing.B) {
	return func(b *testing.B) {
		cfg := harness.Config{
			Algo: algo,
			Dist: stream.IND,
			Func: stream.FuncLinear,
			Dims: 4,
			N:    10000,
			R:    100,
			Q:    10,
			K:    20,
			Seed: seedHarness,
			// The paper's 12^4 cells scaled by N/1M keeps points-per-cell.
			TargetCells: 12 * 12 * 12 * 12 * 10000 / 1000000,
		}
		mon, gen, ts, err := harness.NewMonitor(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := mon.Step(ts, gen.Batch(cfg.R, ts)); err != nil {
				b.Fatal(err)
			}
			ts++
		}
	}
}

// insertTupleBatch stresses the cell-batched arrival/expiration path: a
// steady-state window with a high arrival rate and enough queries that
// influence-list fan-out dominates, i.e. the per-cycle cost is the batch
// scoring itself.
func insertTupleBatch(algo harness.Algo) func(b *testing.B) {
	return func(b *testing.B) {
		cfg := harness.Config{
			Algo: algo,
			Dist: stream.IND,
			Func: stream.FuncLinear,
			Dims: 4,
			N:    10000,
			R:    500,
			Q:    16,
			K:    16,
			Seed: seedHarness,
		}
		mon, gen, ts, err := harness.NewMonitor(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := mon.Step(ts, gen.Batch(cfg.R, ts)); err != nil {
				b.Fatal(err)
			}
			ts++
		}
	}
}

// influenceWalk measures influence-list iteration throughput over a grid
// with realistic fan-out: 64 queries spread over a 12^4-cell grid. One op
// walks every cell's list, which is the skeleton of a cycle's
// insert/expire dispatch.
func influenceWalk(b *testing.B) {
	g := grid.New(4, 12, grid.FIFO)
	entries := 0
	for idx := 0; idx < g.NumCells(); idx++ {
		for q := grid.QueryID(0); q < 64; q++ {
			if (idx+int(q)*37)%7 == 0 {
				g.AddInfluence(idx, q)
				entries++
			}
		}
	}
	b.SetBytes(int64(entries) * 4)
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		total := 0
		for idx := 0; idx < g.NumCells(); idx++ {
			for _, q := range g.Influence(idx) {
				total += int(q)
			}
		}
		sink = total
	}
	_ = sink
}

// blockFixture builds the shared ScoreBlock workload: a 4096-point
// 4-dimensional coordinate block and a linear scoring function.
func blockFixture() (coords []float64, dst []float64, f geom.ScoringFunction) {
	const points, dims = 4096, 4
	gen := stream.NewGenerator(stream.IND, dims, seedBlockData)
	coords = make([]float64, 0, points*dims)
	for i := 0; i < points; i++ {
		coords = append(coords, gen.Vec()...)
	}
	qg := stream.NewQueryGenerator(stream.FuncLinear, dims, seedBlockFn)
	return coords, make([]float64, points), qg.Next()
}

// scoreBlockKernel is the vectorized batch-scoring hot path: one kernel
// call scores the whole block. Compared against ScoreBlock/pointwise-d4 —
// the pre-columnar per-tuple interface-call path — it is the
// "batch-scoring speedup" figure of the regression report.
func scoreBlockKernel(b *testing.B) {
	coords, dst, f := blockFixture()
	lin := f.(*geom.Linear)
	w := lin.Weights()
	b.SetBytes(int64(len(coords)) * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simd.DotBlockInto(dst, coords, w)
	}
}

// scoreBlockPointwise scores the same block one tuple at a time through
// the ScoringFunction interface — exactly what the engine's per-tuple
// insert path did before the columnar layout.
func scoreBlockPointwise(b *testing.B) {
	coords, dst, f := blockFixture()
	const dims = 4
	b.SetBytes(int64(len(coords)) * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range dst {
			dst[j] = f.Score(geom.Vector(coords[j*dims : (j+1)*dims]))
		}
	}
}

// mqQueries is the weight-row count of the MultiQueryKernel pair — one
// qindex cluster tile's worth of near-duplicate linear queries.
const mqQueries = 64

// multiQueryFixture builds the MultiQueryKernel workload: the shared
// 4096-point coordinate block plus mqQueries near-duplicate linear weight
// rows (±1% jitter around one base vector — the pub/sub clustering regime
// the query index packs into a single columnar cluster).
func multiQueryFixture() (coords, w, dst []float64) {
	coords, _, _ = blockFixture()
	const dims = 4
	rng := rand.New(rand.NewSource(seedMultiFn))
	base := make([]float64, dims)
	for d := range base {
		base[d] = 0.2 + 0.8*rng.Float64()
	}
	w = make([]float64, 0, mqQueries*dims)
	for q := 0; q < mqQueries; q++ {
		for d := 0; d < dims; d++ {
			w = append(w, base[d]*(1+0.01*(rng.Float64()*2-1)))
		}
	}
	return coords, w, make([]float64, mqQueries*len(coords)/dims)
}

// multiQueryKernelMulti scores the block against all mqQueries weight rows
// in one GEMM-shaped kernel call — the query index's cluster-tile scoring
// path. Compared against MultiQueryKernel/perquery-d4 it is the
// multi-query speedup invariant of the regression report.
func multiQueryKernelMulti(b *testing.B) {
	coords, w, dst := multiQueryFixture()
	b.SetBytes(int64(len(coords)) * 8 * mqQueries)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simd.DotBlockMulti(dst, coords, w, 4)
	}
}

// multiQueryKernelPerQuery scores the same block one query at a time
// through the ScoringFunction interface — the per-query loop the index's
// cluster scoring replaces for the packed families (and exactly what
// generic-family clusters still do). The multi/perquery ratio is the
// multi-query speedup invariant: like ScoreBlock's kernel/pointwise pair
// it compares two measurements from the same run, so the bound is
// hardware-independent.
func multiQueryKernelPerQuery(b *testing.B) {
	coords, w, dst := multiQueryFixture()
	const dims = 4
	n := len(coords) / dims
	fns := make([]geom.ScoringFunction, mqQueries)
	for q := range fns {
		fns[q] = geom.NewLinear(w[q*dims : (q+1)*dims]...)
	}
	b.SetBytes(int64(len(coords)) * 8 * mqQueries)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for q, f := range fns {
			row := dst[q*n : (q+1)*n]
			for j := range row {
				row[j] = f.Score(geom.Vector(coords[j*dims : (j+1)*dims]))
			}
		}
	}
}

// queryIndexProbe measures the steady-state cost of probing the query
// index from every cell of an 8^4 grid with 10000 near-duplicate
// threshold queries registered — the per-cycle dispatch skeleton for
// threshold queries, as influenceWalk's per-cell lists are for top-k
// queries. One op visits every cell, fetches its cached cluster entries
// and applies the cluster-level upper-bound skip, exactly like the
// engine's insert/expire batch paths.
func queryIndexProbe(b *testing.B) {
	const dims, res, nq = 4, 8, 10000
	g := grid.New(dims, res, grid.FIFO)
	ix := qindex.New(dims, g)
	rng := rand.New(rand.NewSource(seedProbe))
	unit := geom.UnitRect(dims)
	bases := make([][]float64, 8)
	for i := range bases {
		bases[i] = make([]float64, dims)
		for d := range bases[i] {
			bases[i][d] = 0.2 + 0.8*rng.Float64()
		}
	}
	for q := 0; q < nq; q++ {
		base := bases[q%len(bases)]
		wts := make([]float64, dims)
		for d := range wts {
			wts[d] = base[d] * (1 + 0.01*(rng.Float64()*2-1))
		}
		f := geom.NewLinear(wts...)
		if err := ix.Add(grid.QueryID(q), f, 0.95*geom.MaxScore(f, unit)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		total := 0
		for idx := 0; idx < g.NumCells(); idx++ {
			for _, ce := range ix.CellEntries(idx) {
				if ce.UB >= ce.C.MinBound() {
					total += ce.C.Len()
				}
			}
		}
		sink = total
	}
	_ = sink
}

// pubSubCycle is the per-cycle cost benchmark of the sublinearity claim:
// a steady-state engine cycle with q near-duplicate high-threshold
// queries registered. The query count is the only axis that varies
// across the PubSubCycle entries; the stream, window and grid stay
// fixed, so ns/op ratios across them are the per-cycle scaling in the
// registered query count.
//
// The threshold sits at 0.999 of the maximum achievable score — the
// rare-match regime, where no tuple fires a subscription within a
// benchmark span. That is deliberate: when a match does fire, every
// matching near-duplicate subscriber must receive an update, so that
// cost is proportional to delivered output (linear in q by definition,
// measured end to end by the `querycount` experiment sweep at a hot
// 0.95 threshold). What an index can and must make sublinear is
// everything else — the per-cycle probe, cluster pruning and
// bookkeeping overhead of carrying q registrations — and that is what
// this benchmark isolates. Keeping matches out of the measured span
// also makes allocs/op deterministic, which the regression gate relies
// on.
func pubSubCycle(q int) func(b *testing.B) {
	return func(b *testing.B) {
		cfg := harness.Config{
			Algo:           harness.AlgoTMA,
			Dist:           stream.IND,
			Func:           stream.FuncLinear,
			Dims:           4,
			N:              2000,
			R:              20,
			Q:              q,
			K:              16,
			Seed:           seedHarness,
			GridRes:        8,
			NearDupQueries: true,
			ThresholdFrac:  0.999,
		}
		mon, gen, ts, err := harness.NewMonitor(cfg)
		if err != nil {
			b.Fatal(err)
		}
		// Fill the window before the timer starts. The first N/R cycles see
		// no expirations and allocate less per cycle; at the larger query
		// counts b.N is comparable to that fill phase, so without warmup
		// allocs/op would depend on b.N and flap the regression gate.
		for i := 0; i < cfg.N/cfg.R; i++ {
			if _, err := mon.Step(ts, gen.Batch(cfg.R, ts)); err != nil {
				b.Fatal(err)
			}
			ts++
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := mon.Step(ts, gen.Batch(cfg.R, ts)); err != nil {
				b.Fatal(err)
			}
			ts++
		}
	}
}

// reportFanOut is the regime PubSubCycle deliberately leaves out: a cycle
// whose one matching tuple fans out to every one of q near-duplicate
// subscribers. Each batch carries one tuple at the preferred corner of the
// workspace, which every subscription matches, and the rest pulled into
// the lower half, which none does; the window holds fifty batches, so in
// the steady state every subscriber's result holds fifty tuples and every
// cycle hands each of them one update — the newest hot tuple added, the
// one leaving the window removed. The delivered output is linear in q by
// definition; what the benchmark pins is that the cost per delivered
// update follows the change (two entries), not the result (fifty), and
// that the whole cycle's payloads cost a fixed number of allocations.
func reportFanOut(q int) func(b *testing.B) {
	return func(b *testing.B) {
		cfg := harness.Config{
			Algo:           harness.AlgoTMA,
			Dist:           stream.IND,
			Func:           stream.FuncLinear,
			Dims:           4,
			N:              1000,
			R:              20,
			Q:              q,
			K:              16, // ignored by threshold queries; the harness wants it positive
			Seed:           seedHarness,
			GridRes:        8,
			NearDupQueries: true,
			ThresholdFrac:  0.9,
		}
		mon, gen, ts, err := harness.NewMonitor(cfg)
		if err != nil {
			b.Fatal(err)
		}
		step := func() {
			batch := gen.Batch(cfg.R, ts)
			for i, t := range batch {
				for d := range t.Vec {
					t.Vec[d] *= 0.5
					if i == 0 {
						t.Vec[d] = 1
					}
				}
			}
			updates, err := mon.Step(ts, batch)
			if err != nil {
				b.Fatal(err)
			}
			if len(updates) != q {
				b.Fatalf("cycle %d delivered %d updates, want one per subscriber (%d)", ts, len(updates), q)
			}
			ts++
		}
		// Two turnovers: the first replaces the harness's prefill with
		// shaped batches, the second reaches the steady state in which
		// every cycle both adds and removes a hot tuple.
		for i := 0; i < 2*cfg.N/cfg.R; i++ {
			step()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step()
		}
	}
}

// reportTopK is the paper's default workload shape at benchmark scale —
// many top-k queries under SMA, a few of whose results change every
// cycle — sized so that per-cycle reporting (the diff of every touched
// query's result against what it last reported) is a visible share of the
// cycle next to the maintenance itself.
func reportTopK(q int) func(b *testing.B) {
	return func(b *testing.B) {
		cfg := harness.Config{
			Algo: harness.AlgoSMA,
			Dist: stream.IND,
			Func: stream.FuncLinear,
			Dims: 4,
			N:    10000,
			R:    100,
			Q:    q,
			K:    20,
			Seed: seedHarness,
		}
		mon, gen, ts, err := harness.NewMonitor(cfg)
		if err != nil {
			b.Fatal(err)
		}
		// Ten turnovers of the window: right after registration a skyband
		// holds only the top k and cycles cost more than in the steady
		// state, and the thousand queries' pooled lists take a few
		// thousand cycles to stop growing — until then allocs/op would
		// depend on b.N and flap the regression gate.
		for i := 0; i < 10*cfg.N/cfg.R; i++ {
			if _, err := mon.Step(ts, gen.Batch(cfg.R, ts)); err != nil {
				b.Fatal(err)
			}
			ts++
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := mon.Step(ts, gen.Batch(cfg.R, ts)); err != nil {
				b.Fatal(err)
			}
			ts++
		}
	}
}

// admissionOverhead is the A/B pair behind the governor's free-when-idle
// claim: the same steady-state ingest cycle as InsertTupleBatch/SMA, with
// the governed variant adding exactly the per-batch governor calls the
// pipeline runner makes on its Normal-state fast path (one Admit decision
// at enqueue, one ObserveDrain after apply). The governed leg keeps the
// zero-allocation property visible to benchreport's allocs gate; the
// <=2% ns/op bound itself is enforced through AdmissionOverhead/fastpath
// below, because subtracting two full-cycle timings cannot resolve a
// sub-percent delta on a shared host.
func admissionOverhead(governed bool) func(b *testing.B) {
	return func(b *testing.B) {
		cfg := harness.Config{
			Algo: harness.AlgoSMA,
			Dist: stream.IND,
			Func: stream.FuncLinear,
			Dims: 4,
			N:    10000,
			R:    500,
			Q:    16,
			K:    16,
			Seed: seedHarness,
		}
		mon, gen, ts, err := harness.NewMonitor(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var gov *admission.Governor
		if governed {
			gov = admission.New(admission.Config{Seed: seedHarness})
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			batch := gen.Batch(cfg.R, ts)
			if gov != nil {
				if d := gov.Admit(0, 4, len(batch), 0); d != admission.Admit {
					b.Fatalf("normal-state governor decision = %v, want admit", d)
				}
			}
			if _, err := mon.Step(ts, batch); err != nil {
				b.Fatal(err)
			}
			if gov != nil {
				gov.ObserveDrain(0, 4, 1)
			}
			ts++
		}
	}
}

// admissionFastPath times the governor calls alone — the exact per-cycle
// cost the governed pipeline adds over the ungoverned one in the Normal
// state (one Admit, one ObserveDrain). cmd/benchreport bounds it as a
// ratio invariant against AdmissionOverhead/ungoverned: the cycle must be
// at least 50x the fast path, i.e. the governor costs under 2% of a
// steady-state cycle. Expressing the bound as a ~50x ratio between
// numbers two orders of magnitude apart keeps it meaningful on noisy
// shared runners, where an A/B comparison of two full-cycle timings to
// within 2% flaps on scheduler jitter alone.
func admissionFastPath(b *testing.B) {
	gov := admission.New(admission.Config{Seed: seedHarness})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := gov.Admit(0, 4, 500, 0); d != admission.Admit {
			b.Fatalf("normal-state governor decision = %v, want admit", d)
		}
		gov.ObserveDrain(0, 4, 1)
	}
}

// topKComputation isolates the top-k computation module of Figure 6 on a
// loaded grid (the T_comp term of the Section 6 analysis), k=20.
func topKComputation(b *testing.B) {
	g := grid.New(4, grid.ResolutionForTargetCells(4, 10000/48), grid.FIFO)
	gen := stream.NewGenerator(stream.IND, 4, seedTopKData)
	for i := 0; i < 10000; i++ {
		g.Insert(gen.Next(0))
	}
	s := topk.NewSearcher(g)
	qg := stream.NewQueryGenerator(stream.FuncLinear, 4, seedTopKQuery)
	fns := qg.NextN(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.TopK(topk.Request{F: fns[i%len(fns)], K: 20})
	}
}
