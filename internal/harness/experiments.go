package harness

import (
	"fmt"
	"math/rand"
	"time"

	"topkmon/internal/admission"
	"topkmon/internal/analytic"
	"topkmon/internal/core"
	"topkmon/internal/stack"
	"topkmon/internal/stream"
)

// DefaultStack is the layer stack every configuration Defaults produces
// runs on (grid algorithms only; TSL runs bare). cmd/experiments sets its
// shards and pipeline from its flags so whole sweeps run sharded or
// pipelined.
var DefaultStack stack.Config

// DefaultStop, when non-nil, is the cancellation channel every
// configuration Defaults produces watches: closing it makes runs exit at
// the next cycle boundary with Result.Interrupted set. cmd/experiments
// wires it to SIGINT/SIGTERM so a whole sweep shuts down gracefully.
var DefaultStop <-chan struct{}

// Defaults returns the paper's default configuration (Table 1) scaled
// linearly: N and Q shrink with scale (bounded below so the system stays
// meaningful), r stays at 1% of N per cycle, and the simulation runs 100
// cycles at full scale, 20 below.
func Defaults(scale float64, seed int64) Config {
	n := int(1e6 * scale)
	if n < 2000 {
		n = 2000
	}
	q := int(1000 * scale)
	if q < 4 {
		q = 4
	}
	cycles := 20
	if scale >= 1 {
		cycles = 100
	}
	return Config{
		Algo:   AlgoTMA,
		Dist:   stream.IND,
		Func:   stream.FuncLinear,
		Dims:   4,
		N:      n,
		R:      maxInt(n/100, 20),
		Q:      q,
		K:      20,
		Cycles: cycles,
		Config: DefaultStack,
		Stop:   DefaultStop,
		Seed:   seed,
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// queryCounts is the pub/sub-scale query-count axis: 1k..1M log-spaced at
// full scale, shrunk linearly with the sweep scale.
func queryCounts(scale float64) []int {
	var out []int
	for _, q := range []int{1000, 10000, 100000, 1000000} {
		n := int(float64(q) * scale)
		if n < 8 {
			n = 8
		}
		out = append(out, n)
	}
	return out
}

// pubsubBase is the shared base of the query-count sweeps: near-duplicate
// threshold queries (the pub/sub matching workload the query index
// targets) over a fixed modest stream, so per-cycle cost differences are
// attributable to the query count alone.
func pubsubBase(scale float64, seed int64) Config {
	cfg := Defaults(scale, seed)
	cfg.Algo = AlgoTMA
	cfg.NearDupQueries = true
	cfg.ThresholdFrac = 0.95
	cfg.Cycles = 10
	cfg.N = maxInt(int(5e4*scale), 2000)
	cfg.R = maxInt(cfg.N/100, 20)
	// A fixed 8^4 grid regardless of N: the high-threshold influence
	// regions are thin slabs at the top corner, and the grid must resolve
	// them for cell-level skips to bite — the derived points-per-cell
	// resolution at small N (res 2) hands half the workspace to every
	// cluster and the sweep degenerates to linear-in-Q.
	cfg.GridRes = 8
	// The sweeps own their comparisons; clear whatever global defaults
	// cmd/experiments installed.
	cfg.Config = stack.Config{}
	return cfg
}

// Experiment regenerates one table or figure of the evaluation.
type Experiment struct {
	ID    string
	Title string
	// Run produces the experiment's tables at the given workload scale.
	Run func(scale float64, seed int64) ([]Table, error)
}

type sweepPoint struct {
	label string
	mut   func(Config) Config
}

// runMatrix executes base mutated by every (point, algo) pair and formats
// one table whose rows are points and columns are algorithms.
func runMatrix(title, xlabel string, base Config, points []sweepPoint, algos []Algo, metric func(Result) string) (Table, error) {
	t := Table{Title: title, XLabel: xlabel}
	for _, a := range algos {
		t.Cols = append(t.Cols, a.String())
	}
	for _, p := range points {
		row := Row{X: p.label}
		for _, a := range algos {
			cfg := p.mut(base)
			cfg.Algo = a
			cfg.Label = p.label
			res, err := Run(cfg)
			if err != nil {
				return t, fmt.Errorf("%s [%s %s]: %w", title, p.label, a, err)
			}
			row.Cells = append(row.Cells, metric(res))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func cpuMetric(r Result) string   { return FormatDuration(r.RunTime) }
func spaceMetric(r Result) string { return FormatMB(r.SpaceBytes) }

var allAlgos = []Algo{AlgoTSL, AlgoTMA, AlgoSMA}
var gridAlgos = []Algo{AlgoTMA, AlgoSMA}

func bothDists(scale float64, seed int64, title, xlabel string, points []sweepPoint, algos []Algo, metric func(Result) string) ([]Table, error) {
	var out []Table
	for _, dist := range []stream.Distribution{stream.IND, stream.ANT} {
		base := Defaults(scale, seed)
		base.Dist = dist
		tb, err := runMatrix(fmt.Sprintf("%s (%s)", title, dist), xlabel, base, points, algos, metric)
		if err != nil {
			return nil, err
		}
		out = append(out, tb)
	}
	return out, nil
}

// Experiments returns the full registry: one entry per figure/table of
// Section 8, plus the kmax tuning remark and a model-vs-measured ablation.
func Experiments() []Experiment {
	return []Experiment{
		{
			ID:    "fig14",
			Title: "Figure 14: performance vs grid granularity (IND, TMA & SMA)",
			Run: func(scale float64, seed int64) ([]Table, error) {
				base := Defaults(scale, seed)
				var points []sweepPoint
				for res := 5; res <= 15; res++ {
					res := res
					// The paper sweeps 5^4..15^4 cells at N=1M; keep the
					// points-per-cell ratio at smaller scales by shrinking
					// the resolution proportionally in total cell count.
					points = append(points, sweepPoint{
						label: fmt.Sprintf("%d^4", res),
						mut: func(c Config) Config {
							target := res * res * res * res
							if scale < 1 {
								target = int(float64(target) * float64(c.N) / 1e6)
								if target < 16 {
									target = 16
								}
							}
							c.TargetCells = target
							return c
						},
					})
				}
				timeTbl, err := runMatrix("Figure 14a: CPU time vs grid size (IND)", "cells", base, points, gridAlgos, cpuMetric)
				if err != nil {
					return nil, err
				}
				spaceTbl, err := runMatrix("Figure 14b: space vs grid size (IND)", "cells", base, points, gridAlgos, spaceMetric)
				if err != nil {
					return nil, err
				}
				return []Table{timeTbl, spaceTbl}, nil
			},
		},
		{
			ID:    "fig15",
			Title: "Figure 15: CPU time vs dimensionality (linear functions)",
			Run: func(scale float64, seed int64) ([]Table, error) {
				return bothDists(scale, seed, "Figure 15: CPU time vs d", "d", dimPoints(), allAlgos, cpuMetric)
			},
		},
		{
			ID:    "fig16",
			Title: "Figure 16: CPU time vs data cardinality N (r = N/100)",
			Run: func(scale float64, seed int64) ([]Table, error) {
				var points []sweepPoint
				for _, mul := range []int{1, 2, 3, 4, 5} {
					mul := mul
					points = append(points, sweepPoint{
						label: fmt.Sprintf("%dx", mul),
						mut: func(c Config) Config {
							c.N *= mul
							c.R = maxInt(c.N/100, 20)
							c.TargetCells = 0 // re-derive for the larger N
							return c
						},
					})
				}
				return bothDists(scale, seed, "Figure 16: CPU time vs N", "N", points, allAlgos, cpuMetric)
			},
		},
		{
			ID:    "fig17",
			Title: "Figure 17: CPU time vs arrival rate r",
			Run: func(scale float64, seed int64) ([]Table, error) {
				var points []sweepPoint
				// The paper's rates are 0.1%..10% of N per cycle.
				for _, pct := range []float64{0.1, 0.5, 1, 5, 10} {
					pct := pct
					points = append(points, sweepPoint{
						label: fmt.Sprintf("%.1f%%", pct),
						mut: func(c Config) Config {
							c.R = maxInt(int(float64(c.N)*pct/100), 5)
							return c
						},
					})
				}
				return bothDists(scale, seed, "Figure 17: CPU time vs r", "r/N", points, allAlgos, cpuMetric)
			},
		},
		{
			ID:    "fig18",
			Title: "Figure 18: CPU time vs query cardinality Q",
			Run: func(scale float64, seed int64) ([]Table, error) {
				var points []sweepPoint
				for _, frac := range []float64{0.1, 0.5, 1, 2, 5} {
					frac := frac
					points = append(points, sweepPoint{
						label: fmt.Sprintf("%gx", frac),
						mut: func(c Config) Config {
							c.Q = maxInt(int(float64(c.Q)*frac), 2)
							return c
						},
					})
				}
				return bothDists(scale, seed, "Figure 18: CPU time vs Q", "Q", points, allAlgos, cpuMetric)
			},
		},
		{
			ID:    "fig19",
			Title: "Figure 19: CPU time vs result cardinality k",
			Run: func(scale float64, seed int64) ([]Table, error) {
				return bothDists(scale, seed, "Figure 19: CPU time vs k", "k", kPoints(), allAlgos, cpuMetric)
			},
		},
		{
			ID:    "fig20",
			Title: "Figure 20: space requirements vs k",
			Run: func(scale float64, seed int64) ([]Table, error) {
				return bothDists(scale, seed, "Figure 20: space vs k", "k", kPoints(), allAlgos, spaceMetric)
			},
		},
		{
			ID:    "table2",
			Title: "Table 2: average view/skyband size per query",
			Run: func(scale float64, seed int64) ([]Table, error) {
				tbl := Table{
					Title:  "Table 2: average view (TSL) / skyband (SMA) size per query",
					XLabel: "k",
					Cols:   []string{"TSL IND", "SMA IND", "TSL ANT", "SMA ANT"},
				}
				for _, k := range []int{1, 5, 10, 20, 50, 100} {
					row := Row{X: fmt.Sprintf("%d", k)}
					for _, dist := range []stream.Distribution{stream.IND, stream.ANT} {
						for _, algo := range []Algo{AlgoTSL, AlgoSMA} {
							cfg := Defaults(scale, seed)
							cfg.Dist = dist
							cfg.Algo = algo
							cfg.K = k
							res, err := Run(cfg)
							if err != nil {
								return nil, err
							}
							row.Cells = append(row.Cells, fmt.Sprintf("%.1f", res.AvgAuxSize))
						}
					}
					// Reorder to TSL-IND, SMA-IND, TSL-ANT, SMA-ANT (already).
					tbl.Rows = append(tbl.Rows, row)
				}
				return []Table{tbl}, nil
			},
		},
		{
			ID:    "fig21",
			Title: "Figure 21: CPU time vs d for non-linear functions",
			Run: func(scale float64, seed int64) ([]Table, error) {
				var out []Table
				for _, fk := range []stream.FunctionKind{stream.FuncProduct, stream.FuncQuadratic} {
					for _, dist := range []stream.Distribution{stream.IND, stream.ANT} {
						base := Defaults(scale, seed)
						base.Dist = dist
						base.Func = fk
						tbl, err := runMatrix(
							fmt.Sprintf("Figure 21: CPU time vs d, f=%s (%s)", fk, dist),
							"d", base, dimPoints(), allAlgos, cpuMetric)
						if err != nil {
							return nil, err
						}
						out = append(out, tbl)
					}
				}
				return out, nil
			},
		},
		{
			ID:    "kmax",
			Title: "kmax tuning for TSL (Section 8 remark), beside the grid TMA view under updates",
			Run: func(scale float64, seed int64) ([]Table, error) {
				base := Defaults(scale, seed)
				var points []sweepPoint
				for _, km := range []int{20, 25, 30, 40, 60, 100} {
					km := km
					points = append(points, sweepPoint{
						label: fmt.Sprintf("%d", km),
						mut: func(c Config) Config {
							c.KMax = km
							return c
						},
					})
				}
				tbl, err := runMatrix("TSL CPU time vs kmax (k=20, IND); last row: grid TMA under update streams", "kmax", base, points, []Algo{AlgoTSL}, cpuMetric)
				if err != nil {
					return nil, err
				}
				// The grid engine's TMA keeps the same kind of view under
				// update streams, at the fixed capacity core.DefaultKMax(k).
				upd, err := runUpdateTMA(base)
				if err != nil {
					return nil, err
				}
				tbl.Rows = append(tbl.Rows, Row{
					X:     fmt.Sprintf("%d (grid TMA, updates)", core.DefaultKMax(base.K)),
					Cells: []string{cpuMetric(upd)},
				})
				return []Table{tbl}, nil
			},
		},
		{
			ID:    "model",
			Title: "Ablation: measured TMA/SMA ratio vs the Section 6 model",
			Run: func(scale float64, seed int64) ([]Table, error) {
				tbl := Table{
					Title:  "Ablation: TMA/SMA CPU ratio, measured vs model",
					XLabel: "k",
					Cols:   []string{"measured", "model", "TMA recomputes", "SMA recomputes"},
				}
				for _, k := range []int{1, 10, 20, 50, 100} {
					cfg := Defaults(scale, seed)
					cfg.K = k
					cfg.Algo = AlgoTMA
					tma, err := Run(cfg)
					if err != nil {
						return nil, err
					}
					cfg.Algo = AlgoSMA
					sma, err := Run(cfg)
					if err != nil {
						return nil, err
					}
					measured := float64(tma.RunTime) / float64(sma.RunTime)
					res := 12.0
					if cfg.GridRes == 0 {
						res = 12 // model at the paper's tuned grid
					}
					p := analytic.Params{
						N: float64(cfg.N), R: float64(cfg.R), Q: float64(cfg.Q),
						K: float64(k), D: float64(cfg.Dims), Delta: 1 / res,
					}
					model := p.TMATime() / p.SMATime()
					tbl.Rows = append(tbl.Rows, Row{
						X: fmt.Sprintf("%d", k),
						Cells: []string{
							fmt.Sprintf("%.2f", measured),
							fmt.Sprintf("%.2f", model),
							fmt.Sprintf("%d", tma.Recomputes),
							fmt.Sprintf("%d", sma.Recomputes),
						},
					})
				}
				return []Table{tbl}, nil
			},
		},
		{
			ID:    "order",
			Title: "Ablation: Pins-before-Pdel vs deletions-first processing (Figure 8)",
			Run: func(scale float64, seed int64) ([]Table, error) {
				tbl := Table{
					Title:  "Ablation: processing order (TMA, IND)",
					XLabel: "k",
					Cols:   []string{"Pins first (paper)", "Pdel first", "recomputes (paper)", "recomputes (inverted)"},
				}
				for _, k := range []int{10, 20, 50} {
					cfg := Defaults(scale, seed)
					cfg.Algo = AlgoTMA
					cfg.K = k
					paper, err := Run(cfg)
					if err != nil {
						return nil, err
					}
					cfg.DeletionsFirst = true
					inverted, err := Run(cfg)
					if err != nil {
						return nil, err
					}
					tbl.Rows = append(tbl.Rows, Row{
						X: fmt.Sprintf("%d", k),
						Cells: []string{
							FormatDuration(paper.RunTime),
							FormatDuration(inverted.RunTime),
							fmt.Sprintf("%d", paper.Recomputes),
							fmt.Sprintf("%d", inverted.Recomputes),
						},
					})
				}
				return []Table{tbl}, nil
			},
		},
		{
			ID:    "partition",
			Title: "Partitioning: data-sharding across shard counts (beyond the paper)",
			Run: func(scale float64, seed int64) ([]Table, error) {
				tbl := Table{
					Title:  "Partitioning: per-run CPU time, total space and max per-shard space vs shards (SMA, IND; a shard holds O(N/shards))",
					XLabel: "shards",
					Cols:   []string{"time", "space", "max shard space"},
				}
				for _, n := range []int{1, 2, 4, 8, 16} {
					cfg := Defaults(scale, seed)
					cfg.Algo = AlgoSMA
					cfg.Shards = n
					res, err := Run(cfg)
					if err != nil {
						return nil, fmt.Errorf("partition [shards=%d]: %w", n, err)
					}
					perShard := res.MaxShardSpaceBytes
					if perShard == 0 {
						perShard = res.SpaceBytes // single engine: the one "shard"
					}
					tbl.Rows = append(tbl.Rows, Row{X: fmt.Sprintf("%d", n), Cells: []string{
						FormatDuration(res.RunTime), FormatMB(res.SpaceBytes), FormatMB(perShard),
					}})
				}
				// Query-count axis: every shard runs the whole query set.
				qTbl := Table{
					Title:  "Partitioning: run time vs query count (near-dup threshold queries, shards=4)",
					XLabel: "Q",
					Cols:   []string{"time"},
				}
				for _, q := range queryCounts(scale) {
					cfg := pubsubBase(scale, seed)
					cfg.Shards = 4
					cfg.Q = q
					res, err := Run(cfg)
					if err != nil {
						return nil, fmt.Errorf("partition querycount [Q=%d]: %w", q, err)
					}
					qTbl.Rows = append(qTbl.Rows, Row{X: fmt.Sprintf("%d", q), Cells: []string{FormatDuration(res.RunTime)}})
				}
				return []Table{tbl, qTbl}, nil
			},
		},
		{
			ID:    "querycount",
			Title: "Query count: query-index per-cycle cost and space at pub/sub-scale threshold-query counts (beyond the paper)",
			Run: func(scale float64, seed int64) ([]Table, error) {
				tbl := Table{
					Title:  "Query count: per-cycle CPU time and space, near-dup threshold queries (d=4, IND)",
					XLabel: "Q",
					Cols:   []string{"index/cycle", "index space", "index space HW"},
				}
				// The query-count axis is deliberately NOT scaled: the point
				// of this sweep is registration scale itself, so even the CI
				// smoke slice must carry the full 1M-query leg (scale shrinks
				// only the data volume via pubsubBase).
				for _, q := range []int{1000, 10000, 100000, 1000000} {
					cfg := pubsubBase(scale, seed)
					cfg.Q = q
					res, err := Run(cfg)
					if err != nil {
						return nil, fmt.Errorf("querycount [Q=%d]: %w", q, err)
					}
					row := Row{X: fmt.Sprintf("%d", q)}
					row.Cells = append(row.Cells,
						FormatDuration(res.PerCycle()), FormatMB(res.SpaceBytes), FormatMB(res.MemoryHighWater))
					tbl.Rows = append(tbl.Rows, row)
				}
				return []Table{tbl}, nil
			},
		},
		{
			ID:    "pipeline",
			Title: "Pipelined ingestion: synchronous Step vs async pipeline across shard counts (beyond the paper)",
			Run: func(scale float64, seed int64) ([]Table, error) {
				tbl := Table{
					Title:  "Pipelined ingestion: wall-clock run time, sync vs pipelined (SMA, IND, depth 4)",
					XLabel: "shards",
					Cols:   []string{"sync", "piped"},
				}
				for _, n := range []int{1, 2, 4, 8} {
					row := Row{X: fmt.Sprintf("%d", n)}
					for _, depth := range []int{0, 4} {
						cfg := Defaults(scale, seed)
						cfg.Algo = AlgoSMA
						cfg.Shards = n
						cfg.PipeDepth = depth
						res, err := Run(cfg)
						if err != nil {
							return nil, fmt.Errorf("pipeline [shards=%d depth=%d]: %w", n, depth, err)
						}
						row.Cells = append(row.Cells, FormatDuration(res.RunTime))
					}
					tbl.Rows = append(tbl.Rows, row)
				}
				return []Table{tbl}, nil
			},
		},
		{
			ID:    "overload",
			Title: "Overload: admission control under sustained arrival-rate overload — drop fraction, staleness, peak memory (beyond the paper)",
			Run: func(scale float64, seed int64) ([]Table, error) {
				// The governed pipeline is driven at 1x..16x the calibrated
				// arrival rate across shard counts. The interesting figures
				// are not run time but the degradation contract: how much of
				// the stream was shed, how many cycles ran degraded, whether
				// the governor ended recovered, and the memory high-water the
				// bounded queue held the run to.
				//
				// The workload is closed-loop (the generator produces the next
				// batch only after the previous Ingest returns) and the
				// generator far outruns the engine, so without pacing the
				// bounded queue pegs at every rate and the sweep measures
				// nothing. Each shard count therefore first runs an ungoverned
				// 1x baseline; the governed runs are paced to one batch per 2x
				// its per-cycle time with the same budget as the governor's
				// latency target. A 1x batch then fills half its slot (healthy),
				// while an Rx batch needs ~R/2 slots: past 2x the engine falls
				// behind its schedule and the governor sheds against the
				// budget.
				shardCounts := []int{1, 2, 4, 8}
				targets := make(map[int]time.Duration, len(shardCounts))
				for _, n := range shardCounts {
					cfg := Defaults(scale, seed)
					cfg.Algo = AlgoSMA
					cfg.Shards = n
					cfg.PipeDepth = 4
					res, err := Run(cfg)
					if err != nil {
						return nil, fmt.Errorf("overload baseline [shards=%d]: %w", n, err)
					}
					targets[n] = 2 * res.PerCycle()
				}
				dropTbl := Table{
					Title:  "Overload: dropped tuple fraction vs arrival-rate multiplier (SMA, IND, pipeline depth 4, admission on)",
					XLabel: "rate",
				}
				staleTbl := Table{
					Title:  "Overload: degraded cycles (shedding+critical drains) and final governor state",
					XLabel: "rate",
				}
				memTbl := Table{
					Title:  "Overload: engine memory high-water",
					XLabel: "rate",
				}
				for _, n := range shardCounts {
					col := fmt.Sprintf("%d shards", n)
					dropTbl.Cols = append(dropTbl.Cols, col)
					staleTbl.Cols = append(staleTbl.Cols, col)
					memTbl.Cols = append(memTbl.Cols, col)
				}
				for _, rate := range []int{1, 2, 4, 8, 16} {
					dropRow := Row{X: fmt.Sprintf("%dx", rate)}
					staleRow := Row{X: fmt.Sprintf("%dx", rate)}
					memRow := Row{X: fmt.Sprintf("%dx", rate)}
					for _, n := range shardCounts {
						cfg := Defaults(scale, seed)
						cfg.Algo = AlgoSMA
						cfg.Shards = n
						cfg.PipeDepth = 4
						cfg.Admission = &admission.Config{Seed: cfg.Seed, CycleTarget: targets[n]}
						cfg.IngestInterval = targets[n]
						cfg.R *= rate
						res, err := Run(cfg)
						if err != nil {
							return nil, fmt.Errorf("overload [rate=%dx shards=%d]: %w", rate, n, err)
						}
						offered := int64(res.CyclesRun) * int64(cfg.R)
						frac := 0.0
						if offered > 0 {
							frac = float64(res.DroppedTuples) / float64(offered)
						}
						dropRow.Cells = append(dropRow.Cells, fmt.Sprintf("%.1f%%", 100*frac))
						staleRow.Cells = append(staleRow.Cells,
							fmt.Sprintf("%d (%s)", res.SheddingCycles+res.CriticalCycles, res.AdmissionState))
						memRow.Cells = append(memRow.Cells, FormatMB(res.MemoryHighWater))
					}
					dropTbl.Rows = append(dropTbl.Rows, dropRow)
					staleTbl.Rows = append(staleTbl.Rows, staleRow)
					memTbl.Rows = append(memTbl.Rows, memRow)
				}
				return []Table{dropTbl, staleTbl, memTbl}, nil
			},
		},
		{
			ID:    "shards",
			Title: "Shard scaling: per-cycle cost and space vs shard count (beyond the paper)",
			Run: func(scale float64, seed int64) ([]Table, error) {
				base := Defaults(scale, seed)
				var points []sweepPoint
				for _, n := range []int{1, 2, 4, 8} {
					points = append(points, sweepPoint{
						label: fmt.Sprintf("%d", n),
						mut: func(c Config) Config {
							c.Shards = n
							return c
						},
					})
				}
				timeTbl, err := runMatrix("Shard scaling: CPU time vs shards (IND)", "shards", base, points, gridAlgos, cpuMetric)
				if err != nil {
					return nil, err
				}
				spaceTbl, err := runMatrix("Shard scaling: space vs shards (IND)", "shards", base, points, gridAlgos, spaceMetric)
				if err != nil {
					return nil, err
				}
				return []Table{timeTbl, spaceTbl}, nil
			},
		},
	}
}

// Experiment looks up an experiment by id.
func ExperimentByID(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q", id)
}

func dimPoints() []sweepPoint {
	var points []sweepPoint
	for _, d := range []int{2, 3, 4, 5, 6} {
		d := d
		points = append(points, sweepPoint{
			label: fmt.Sprintf("%d", d),
			mut: func(c Config) Config {
				c.Dims = d
				return c
			},
		})
	}
	return points
}

func kPoints() []sweepPoint {
	var points []sweepPoint
	for _, k := range []int{1, 5, 10, 20, 50, 100} {
		k := k
		points = append(points, sweepPoint{
			label: fmt.Sprintf("%d", k),
			mut: func(c Config) Config {
				c.K = k
				return c
			},
		})
	}
	return points
}

// runUpdateTMA runs the grid TMA under the explicit-deletion model of
// Section 7 at cfg's sizes, on a bare engine: N live tuples, then per
// cycle R arrivals and R deletions of random live tuples, against Q top-K
// queries. RunTime, Recomputes and CellsProcessed cover the cycles.
func runUpdateTMA(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	res := Result{Config: cfg}
	e, err := core.NewEngine(core.Options{
		Dims: cfg.Dims, Mode: core.UpdateStream, GridRes: cfg.GridRes, TargetCells: cfg.TargetCells,
	})
	if err != nil {
		return res, err
	}
	gen := stream.NewGenerator(cfg.Dist, cfg.Dims, cfg.Seed)
	t0 := time.Now()
	fill := gen.Batch(cfg.N, 0)
	if _, err := e.StepUpdate(0, fill, nil); err != nil {
		return res, err
	}
	live := make([]uint64, 0, cfg.N+cfg.R)
	for _, t := range fill {
		live = append(live, t.ID)
	}
	qg := stream.NewQueryGenerator(cfg.Func, cfg.Dims, cfg.Seed+1)
	for i := 0; i < cfg.Q; i++ {
		if _, err := e.Register(core.QuerySpec{F: qg.Next(), K: cfg.K, Policy: core.TMA}); err != nil {
			return res, err
		}
	}
	res.InitTime = time.Since(t0)
	base := e.Stats()
	rng := rand.New(rand.NewSource(cfg.Seed + 4))
	deletions := make([]uint64, min(cfg.R, cfg.N))
	t1 := time.Now()
	for ts := int64(1); ts <= int64(cfg.Cycles); ts++ {
		for i := range deletions {
			j := rng.Intn(len(live))
			deletions[i] = live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		arrivals := gen.Batch(cfg.R, ts)
		for _, t := range arrivals {
			live = append(live, t.ID)
		}
		if _, err := e.StepUpdate(ts, arrivals, deletions); err != nil {
			return res, err
		}
		res.CyclesRun++
	}
	res.RunTime = time.Since(t1)
	s := e.Stats()
	res.Recomputes = s.Recomputes - base.Recomputes
	res.CellsProcessed = s.CellsProcessed - base.CellsProcessed
	res.SpaceBytes = e.MemoryBytes()
	return res, nil
}
