// Benchmarks reproducing every table and figure of the paper's evaluation
// (Section 8) at CI-friendly scale. Each benchmark family mirrors one
// figure: sub-benchmarks sweep the figure's x-axis and compare TSL, TMA
// and SMA. The absolute numbers depend on the host; the shapes — who wins,
// by what factor, how costs scale — are the reproduction targets and are
// recorded against the paper in EXPERIMENTS.md.
//
// go test -bench=. -benchmem ./...
package topkmon_test

import (
	"fmt"
	"testing"

	"topkmon/internal/benchsuite"
	"topkmon/internal/core"
	"topkmon/internal/grid"
	"topkmon/internal/harness"
	"topkmon/internal/pipeline"
	"topkmon/internal/stream"
	"topkmon/internal/topk"
	"topkmon/internal/tsl"
	"topkmon/internal/window"
)

// Every random workload in this file is seeded with one of these fixed
// constants (never the clock), so benchmark comparisons across PRs
// measure code changes, not data changes. Distinct streams get distinct
// seeds to avoid accidental correlation between tuples and queries.
const (
	benchSeed          = 1 // harness configs (tuples; queries use Seed+1)
	benchSeedTopKData  = 3 // BenchmarkTopKComputation grid fill
	benchSeedTopKQuery = 4 // BenchmarkTopKComputation query set
	benchSeedUpdQuery  = 5 // BenchmarkUpdateStream query set
	benchSeedUpdData   = 6 // BenchmarkUpdateStream tuples
	benchSeedWinQuery  = 7 // BenchmarkWindowKinds query set
	benchSeedWinData   = 8 // BenchmarkWindowKinds tuples
)

// benchBase is the Table 1 default configuration scaled to 1% (N=10K,
// r=100, Q=10) so the full suite runs in minutes.
func benchBase() harness.Config {
	return harness.Config{
		Algo: harness.AlgoSMA,
		Dist: stream.IND,
		Func: stream.FuncLinear,
		Dims: 4,
		N:    10000,
		R:    100,
		Q:    10,
		K:    20,
		Seed: benchSeed,
	}
}

// runCycles drives b.N processing cycles against a pre-filled monitor and
// reports the monitor's space footprint as a secondary metric (plus the
// largest single shard's footprint for sharded monitors).
func runCycles(b *testing.B, cfg harness.Config) {
	b.Helper()
	mon, gen, ts, err := harness.NewMonitor(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mon.Step(ts, gen.Batch(cfg.R, ts)); err != nil {
			b.Fatal(err)
		}
		ts++
	}
	b.StopTimer()
	b.ReportMetric(float64(mon.MemoryBytes())/(1<<20), "space-MB")
	if sh, ok := mon.(interface{ ShardMemoryBytes() []int64 }); ok {
		var max int64
		for _, bs := range sh.ShardMemoryBytes() {
			if bs > max {
				max = bs
			}
		}
		b.ReportMetric(float64(max)/(1<<20), "shard-space-MB")
	}
	if c, ok := mon.(core.StreamMonitor); ok {
		_ = c.Close()
	}
}

var benchAlgos = []harness.Algo{harness.AlgoTSL, harness.AlgoTMA, harness.AlgoSMA}

// BenchmarkFig14Grid reproduces Figure 14: TMA and SMA per-cycle cost as a
// function of grid granularity (cells per axis at the paper's density).
func BenchmarkFig14Grid(b *testing.B) {
	for _, res := range []int{5, 8, 12, 15} {
		for _, algo := range []harness.Algo{harness.AlgoTMA, harness.AlgoSMA} {
			b.Run(fmt.Sprintf("cells=%d^4/%s", res, algo), func(b *testing.B) {
				cfg := benchBase()
				cfg.Algo = algo
				// Scale the paper's res^4 cell count by N/1M to keep the
				// points-per-cell density.
				cfg.TargetCells = res * res * res * res * cfg.N / 1000000
				if cfg.TargetCells < 16 {
					cfg.TargetCells = 16
				}
				runCycles(b, cfg)
			})
		}
	}
}

// BenchmarkFig15Dims reproduces Figure 15: CPU cost vs dimensionality for
// all three algorithms, IND data and linear functions.
func BenchmarkFig15Dims(b *testing.B) {
	for _, d := range []int{2, 3, 4, 5, 6} {
		for _, algo := range benchAlgos {
			b.Run(fmt.Sprintf("d=%d/%s", d, algo), func(b *testing.B) {
				cfg := benchBase()
				cfg.Dims = d
				cfg.Algo = algo
				runCycles(b, cfg)
			})
		}
	}
}

// BenchmarkFig15ANT repeats Figure 15 on anti-correlated data (the right
// panel), where top-k computations must visit many more cells.
func BenchmarkFig15ANT(b *testing.B) {
	for _, d := range []int{2, 4, 6} {
		for _, algo := range benchAlgos {
			b.Run(fmt.Sprintf("d=%d/%s", d, algo), func(b *testing.B) {
				cfg := benchBase()
				cfg.Dims = d
				cfg.Dist = stream.ANT
				cfg.Algo = algo
				runCycles(b, cfg)
			})
		}
	}
}

// BenchmarkFig16N reproduces Figure 16: cost vs data cardinality with the
// arrival rate fixed at 1% of N per cycle.
func BenchmarkFig16N(b *testing.B) {
	for _, mul := range []int{1, 2, 4} {
		for _, algo := range benchAlgos {
			b.Run(fmt.Sprintf("N=%dx/%s", mul, algo), func(b *testing.B) {
				cfg := benchBase()
				cfg.N *= mul
				cfg.R = cfg.N / 100
				cfg.Algo = algo
				runCycles(b, cfg)
			})
		}
	}
}

// BenchmarkFig17Rate reproduces Figure 17: cost vs arrival rate (0.1% to
// 10% of the window per cycle).
func BenchmarkFig17Rate(b *testing.B) {
	for _, pct := range []float64{0.1, 1, 10} {
		for _, algo := range benchAlgos {
			b.Run(fmt.Sprintf("r=%.1f%%/%s", pct, algo), func(b *testing.B) {
				cfg := benchBase()
				cfg.R = int(float64(cfg.N) * pct / 100)
				cfg.Algo = algo
				runCycles(b, cfg)
			})
		}
	}
}

// BenchmarkFig18Queries reproduces Figure 18: cost vs the number of
// registered queries.
func BenchmarkFig18Queries(b *testing.B) {
	for _, q := range []int{2, 10, 50} {
		for _, algo := range benchAlgos {
			b.Run(fmt.Sprintf("Q=%d/%s", q, algo), func(b *testing.B) {
				cfg := benchBase()
				cfg.Q = q
				cfg.Algo = algo
				runCycles(b, cfg)
			})
		}
	}
}

// BenchmarkFig19K reproduces Figure 19: cost vs the result cardinality k.
func BenchmarkFig19K(b *testing.B) {
	for _, k := range []int{1, 20, 100} {
		for _, algo := range benchAlgos {
			b.Run(fmt.Sprintf("k=%d/%s", k, algo), func(b *testing.B) {
				cfg := benchBase()
				cfg.K = k
				cfg.Algo = algo
				runCycles(b, cfg)
			})
		}
	}
}

// BenchmarkFig20Space reproduces Figure 20 (space vs k): the space-MB
// metric is the figure's y-axis; wall time is incidental.
func BenchmarkFig20Space(b *testing.B) {
	for _, k := range []int{20, 100} {
		for _, algo := range benchAlgos {
			b.Run(fmt.Sprintf("k=%d/%s", k, algo), func(b *testing.B) {
				cfg := benchBase()
				cfg.K = k
				cfg.Algo = algo
				runCycles(b, cfg)
			})
		}
	}
}

// BenchmarkFig21NonLinear reproduces Figure 21: non-linear preference
// functions (product and quadratic forms) at the default dimensionality.
func BenchmarkFig21NonLinear(b *testing.B) {
	for _, fk := range []stream.FunctionKind{stream.FuncProduct, stream.FuncQuadratic} {
		for _, algo := range benchAlgos {
			b.Run(fmt.Sprintf("f=%s/%s", fk, algo), func(b *testing.B) {
				cfg := benchBase()
				cfg.Func = fk
				cfg.Algo = algo
				runCycles(b, cfg)
			})
		}
	}
}

// BenchmarkTable2AuxSize reproduces Table 2: the average view (TSL) and
// skyband (SMA) cardinality per query, reported as the aux-entries metric.
func BenchmarkTable2AuxSize(b *testing.B) {
	for _, k := range []int{1, 20, 100} {
		for _, algo := range []harness.Algo{harness.AlgoTSL, harness.AlgoSMA} {
			b.Run(fmt.Sprintf("k=%d/%s", k, algo), func(b *testing.B) {
				cfg := benchBase()
				cfg.K = k
				cfg.Algo = algo
				mon, gen, ts, err := harness.NewMonitor(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := mon.Step(ts, gen.Batch(cfg.R, ts)); err != nil {
						b.Fatal(err)
					}
					ts++
				}
				b.StopTimer()
				switch m := mon.(type) {
				case *core.Engine:
					b.ReportMetric(m.Stats().AvgSkybandSize(), "aux-entries")
				case *tsl.Monitor:
					b.ReportMetric(m.Stats().AvgViewSize(), "aux-entries")
				}
			})
		}
	}
}

// BenchmarkShardedStep measures per-cycle throughput of the sharded
// concurrent engine as the shard count grows, on a query-heavy workload
// (Q=64 SMA queries). Tuples are hash-partitioned, so each shard indexes
// O(N/shards) of the window and runs every query; shards=1 is the
// single-engine reference. Parallel speedup requires GOMAXPROCS > 1; on a
// single-core host the sweep instead measures the fan-out and merge
// overhead.
func BenchmarkShardedStep(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("data-part/shards=%d", shards), func(b *testing.B) {
			cfg := benchBase()
			cfg.Q = 64
			cfg.Shards = shards
			runCycles(b, cfg)
		})
	}
}

// BenchmarkPipelinedStep measures the asynchronous ingestion pipeline
// against the synchronous Step loop on the same query-heavy workload as
// BenchmarkShardedStep (Q=64 SMA queries). The sync variant is the
// BenchmarkShardedStep loop: generate a batch, block in Step, repeat —
// per-cycle latency on the caller's critical path. The pipelined variant
// ingests without waiting while a consumer drains the delivery channel, so
// batch generation overlaps the cycles, which run one at a time on the
// pipeline's runner. Flush inside the timed region charges the pipelined
// variant for completing every cycle — the comparison is
// throughput-honest, not fire-and-forget.
func BenchmarkPipelinedStep(b *testing.B) {
	for _, mode := range []string{"sync", "pipelined"} {
		for _, shards := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/shards=%d", mode, shards), func(b *testing.B) {
				cfg := benchBase()
				cfg.Q = 64
				cfg.Shards = shards
				if mode == "sync" {
					runCycles(b, cfg)
					return
				}
				cfg.PipeDepth = 4
				mon, gen, ts, err := harness.NewMonitor(cfg)
				if err != nil {
					b.Fatal(err)
				}
				p := mon.(*pipeline.Pipeline)
				consumerDone := p.Drain()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := p.Ingest(ts, gen.Batch(cfg.R, ts)); err != nil {
						b.Fatal(err)
					}
					ts++
				}
				if err := p.Flush(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := p.Close(); err != nil {
					b.Fatal(err)
				}
				<-consumerDone
			})
		}
	}
}

// The hot-path microbenchmarks below are defined in internal/benchsuite —
// a normal package — so cmd/benchreport can run the identical bodies
// programmatically and emit the BENCH_5.json regression baseline that CI
// gates against. The wrappers keep them reachable through the ordinary
// `go test -bench` workflow.

// BenchmarkInsertTupleBatch measures the cell-batched arrival/expiration
// path at a high arrival rate (allocs/op is the steady-state-allocation
// guarantee's tripwire).
func BenchmarkInsertTupleBatch(b *testing.B) { benchsuite.RunGroup(b, "InsertTupleBatch") }

// BenchmarkInfluenceWalk measures sorted-small-slice influence-list
// iteration throughput over a realistically fanned-out grid.
func BenchmarkInfluenceWalk(b *testing.B) { benchsuite.RunGroup(b, "InfluenceWalk") }

// BenchmarkScoreBlock compares the vectorized batch-scoring kernel against
// the pointwise interface-call scoring it replaced; the ratio is the
// batch-scoring speedup figure of the regression report.
func BenchmarkScoreBlock(b *testing.B) { benchsuite.RunGroup(b, "ScoreBlock") }

// BenchmarkMultiQueryKernel compares the GEMM-shaped multi-query block
// kernel against a per-query single-kernel loop over the same
// near-duplicate weight rows; the ratio is the multi-query speedup figure
// of the regression report.
func BenchmarkMultiQueryKernel(b *testing.B) { benchsuite.RunGroup(b, "MultiQueryKernel") }

// BenchmarkScoreBlockLeg runs the batch-scoring kernel pinned to each
// kernel leg this host can execute (scalar, and AVX2 or NEON) —
// the per-leg comparison series cmd/benchreport gates and exports as CSV.
func BenchmarkScoreBlockLeg(b *testing.B) { benchsuite.RunGroup(b, "ScoreBlockLeg") }

// BenchmarkMultiQueryKernelLeg is BenchmarkScoreBlockLeg for the
// GEMM-shaped multi-query kernel.
func BenchmarkMultiQueryKernelLeg(b *testing.B) { benchsuite.RunGroup(b, "MultiQueryKernelLeg") }

// BenchmarkQueryIndexProbe measures the per-cycle dispatch skeleton of the
// shared query index: probing every cell's cached cluster entries with
// 10k near-duplicate queries registered.
func BenchmarkQueryIndexProbe(b *testing.B) { benchsuite.RunGroup(b, "QueryIndexProbe") }

// BenchmarkPubSubCycle is the per-cycle sublinearity benchmark: identical
// steady-state cycles with 1k/10k/100k near-duplicate threshold queries
// registered. Ratios across the query counts are the scaling claim.
func BenchmarkPubSubCycle(b *testing.B) { benchsuite.RunGroup(b, "PubSubCycle") }

// BenchmarkReportFanOut is the cycle PubSubCycle keeps out of its span: one
// match delivered to every one of 12 500 near-duplicate subscribers, each
// holding a fifty-tuple result. Cost per update must follow the change.
func BenchmarkReportFanOut(b *testing.B) { benchsuite.RunGroup(b, "ReportFanOut") }

// BenchmarkReportTopK is a steady-state SMA cycle with 1000 top-20
// queries, where diffing the touched results is a visible share of the
// cycle.
func BenchmarkReportTopK(b *testing.B) { benchsuite.RunGroup(b, "ReportTopK") }

// BenchmarkAdmissionOverhead is the governor's free-when-idle A/B pair:
// the same steady-state ingest cycle with and without the Normal-state
// per-batch governor calls. cmd/benchreport gates governed within 2% of
// ungoverned as a same-run ratio invariant.
func BenchmarkAdmissionOverhead(b *testing.B) { benchsuite.RunGroup(b, "AdmissionOverhead") }

// BenchmarkTopKComputation isolates the top-k computation module of
// Figure 6 (the T_comp term of the Section 6 analysis) on a loaded grid.
func BenchmarkTopKComputation(b *testing.B) {
	for _, k := range []int{1, 20, 100} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			g := grid.New(4, grid.ResolutionForTargetCells(4, 10000/48), grid.FIFO)
			gen := stream.NewGenerator(stream.IND, 4, benchSeedTopKData)
			for i := 0; i < 10000; i++ {
				g.Insert(gen.Next(0))
			}
			s := topk.NewSearcher(g)
			qg := stream.NewQueryGenerator(stream.FuncLinear, 4, benchSeedTopKQuery)
			fns := qg.NextN(64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.TopK(topk.Request{F: fns[i%len(fns)], K: k})
			}
		})
	}
}

// BenchmarkUpdateStream measures the explicit-deletion model of Section 7
// (TMA over hash-based cells).
func BenchmarkUpdateStream(b *testing.B) {
	e, err := core.NewEngine(core.Options{Dims: 4, Mode: core.UpdateStream, TargetCells: 10000 / 48})
	if err != nil {
		b.Fatal(err)
	}
	qg := stream.NewQueryGenerator(stream.FuncLinear, 4, benchSeedUpdQuery)
	for i := 0; i < 10; i++ {
		if _, err := e.Register(core.QuerySpec{F: qg.Next(), K: 20, Policy: core.TMA}); err != nil {
			b.Fatal(err)
		}
	}
	gen := stream.NewGenerator(stream.IND, 4, benchSeedUpdData)
	var live []uint64
	ts := int64(0)
	if _, err := e.StepUpdate(ts, gen.Batch(10000, ts), nil); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		live = append(live, uint64(i))
	}
	idx := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts++
		arrivals := gen.Batch(100, ts)
		deletions := make([]uint64, 100)
		for j := range deletions {
			deletions[j] = live[idx]
			idx++
		}
		for _, a := range arrivals {
			live = append(live, a.ID)
		}
		if _, err := e.StepUpdate(ts, arrivals, deletions); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWindowKinds compares count-based and time-based windows under
// identical load (both window variants of Section 1).
func BenchmarkWindowKinds(b *testing.B) {
	for _, kind := range []string{"count", "time"} {
		b.Run(kind, func(b *testing.B) {
			spec := window.Count(10000)
			if kind == "time" {
				spec = window.Time(100) // 100 cycles x 100 arrivals = same population
			}
			e, err := core.NewEngine(core.Options{Dims: 4, Window: spec, TargetCells: 10000 / 48})
			if err != nil {
				b.Fatal(err)
			}
			qg := stream.NewQueryGenerator(stream.FuncLinear, 4, benchSeedWinQuery)
			for i := 0; i < 10; i++ {
				if _, err := e.Register(core.QuerySpec{F: qg.Next(), K: 20, Policy: core.SMA}); err != nil {
					b.Fatal(err)
				}
			}
			gen := stream.NewGenerator(stream.IND, 4, benchSeedWinData)
			ts := int64(0)
			// Warm up to steady state.
			for ; ts < 100; ts++ {
				if _, err := e.Step(ts, gen.Batch(100, ts)); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Step(ts, gen.Batch(100, ts)); err != nil {
					b.Fatal(err)
				}
				ts++
			}
		})
	}
}
