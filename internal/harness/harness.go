// Package harness runs the paper's experiments: it builds monitors (TSL,
// TMA or SMA), generates workloads per Section 8 (IND/ANT streams, random
// query sets, count-based windows with r arrivals per cycle), measures CPU
// time and space, and renders the tables behind every figure of the
// evaluation.
//
// Configurations scale linearly from the paper's defaults (Table 1:
// d=4, N=1M, r=10K, Q=1K, k=20) so the same sweeps run as quick CI
// benchmarks at small scale and as full reproductions offline.
package harness

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"topkmon/internal/admission"
	"topkmon/internal/core"
	"topkmon/internal/geom"
	"topkmon/internal/pipeline"
	"topkmon/internal/recovery"
	"topkmon/internal/shard"
	"topkmon/internal/stream"
	"topkmon/internal/tsl"
	"topkmon/internal/window"
)

// ShardLoad re-exports the shard package's per-shard load figure for the
// commands' Progress callbacks.
type ShardLoad = shard.ShardLoad

// AdmissionSnapshot re-exports the governor's counter snapshot for the
// commands' AdmissionProgress callbacks and epilogues.
type AdmissionSnapshot = admission.Snapshot

// Algo identifies one of the three compared algorithms.
type Algo int

// Algorithms under comparison.
const (
	AlgoTSL Algo = iota
	AlgoTMA
	AlgoSMA
)

// String implements fmt.Stringer.
func (a Algo) String() string {
	switch a {
	case AlgoTSL:
		return "TSL"
	case AlgoTMA:
		return "TMA"
	case AlgoSMA:
		return "SMA"
	default:
		return fmt.Sprintf("Algo(%d)", int(a))
	}
}

// ParseAlgo converts a name to an Algo.
func ParseAlgo(s string) (Algo, error) {
	switch s {
	case "TSL", "tsl":
		return AlgoTSL, nil
	case "TMA", "tma":
		return AlgoTMA, nil
	case "SMA", "sma":
		return AlgoSMA, nil
	default:
		return 0, fmt.Errorf("harness: unknown algorithm %q", s)
	}
}

// Config describes one experiment run.
type Config struct {
	// Label annotates the run in reports (e.g. "d=4").
	Label string
	Algo  Algo
	Dist  stream.Distribution
	Func  stream.FunctionKind
	// Dims, N (window size), R (arrivals per cycle), Q (queries), K.
	Dims int
	N    int
	R    int
	Q    int
	K    int
	// Cycles is the number of measured processing cycles (the paper's
	// "simulation length", 100 timestamps at full scale).
	Cycles int
	// GridRes fixes the per-axis resolution (Figure 14); zero derives it
	// from TargetCells.
	GridRes int
	// TargetCells approximates the total grid size when GridRes is zero;
	// zero keeps the points-per-cell density of the paper's tuned grid.
	TargetCells int
	// KMax overrides the TSL view capacity (zero = tuned default).
	KMax int
	// DeletionsFirst inverts the paper's Pins-before-Pdel processing order
	// (grid algorithms only) — the ordering ablation of Figure 8.
	DeletionsFirst bool
	// Shards runs the grid algorithms on the sharded concurrent engine
	// with this many shards (0 or 1 = the paper's single engine). TSL has
	// no sharded implementation.
	Shards int
	// DataPartition selects the data-partitioned sharded engine (tuples
	// hashed across shards, router-side top-k merge) instead of the
	// default query-partitioned one. Ignored unless Shards > 1.
	DataPartition bool
	// Pipeline, when positive, drives the run through asynchronous
	// pipelined ingestion with this queue depth: batches are ingested
	// without waiting for the cycle and updates drain on a consumer
	// goroutine, so the measured time is wall-clock throughput with
	// ingestion, cycles and delivery overlapped. Zero measures the
	// synchronous Step loop. Grid algorithms only.
	Pipeline int
	// Admission fronts pipelined ingestion with the load-shedding governor
	// (internal/admission): under sustained overload batches are shed —
	// counted in Result.DroppedBatches/DroppedTuples — instead of queueing
	// without bound, and the run keeps going. Requires Pipeline > 0; grid
	// algorithms only.
	Admission bool
	// MemLimit arms the governor's memory watermark, in bytes: crossing it
	// forces the Critical state (arrivals stripped, expiry keeps running).
	// Implies Admission.
	MemLimit int64
	// AdmissionTarget arms the governor's per-cycle latency trigger: drain
	// or hot-shard observations above it count as overload even while the
	// queue looks shallow. Zero leaves only the occupancy and memory
	// triggers. Requires Admission (or MemLimit).
	AdmissionTarget time.Duration
	// IngestInterval paces pipelined ingestion to one batch per interval
	// instead of generating flat out. The generator is effectively
	// infinitely fast relative to the engine, so an unpaced closed loop
	// pegs the bounded queue at any batch size and queue occupancy stops
	// meaning anything; pacing restores a real arrival rate, which is what
	// an overload sweep varies. Zero disables pacing. Requires
	// Pipeline > 0.
	IngestInterval time.Duration
	// NearDupQueries draws the query set as ±1% jittered copies of eight
	// base preference vectors instead of independent functions — the
	// pub/sub-style workload where the shared query index collapses the
	// set into a handful of clusters. Grid algorithms only.
	NearDupQueries bool
	// ThresholdFrac, when > 0, registers threshold queries instead of
	// top-k: each query's threshold is this fraction of its function's
	// maximum achievable score on the unit workspace (0.95 ≈ the pub/sub
	// matching regime, where most cycles deliver nothing to most
	// queries). Grid algorithms only; K is ignored.
	ThresholdFrac float64
	// Progress, when non-nil with ProgressEvery > 0, is invoked every
	// ProgressEvery measured cycles with the monitor's current per-shard
	// loads (nil for unsharded monitors). On a pipelined run the load read
	// is a barrier, so frequent progress sampling costs overlap.
	Progress      func(cycle int, loads []shard.ShardLoad)
	ProgressEvery int
	// AdmissionProgress, when non-nil with ProgressEvery > 0, fires at the
	// same cadence as Progress with the governor's current snapshot
	// (admission-controlled pipelined runs only).
	AdmissionProgress func(cycle int, snap admission.Snapshot)
	// CheckpointDir, when non-empty, wraps the monitor in a durability
	// guard (internal/recovery): batches are WAL-logged before they are
	// applied and the full monitor state is checkpointed into this
	// directory every CheckpointEvery successful cycles (0 = only at
	// Close) and at Close. The directory must not already hold a
	// checkpoint lineage. Grid algorithms only.
	CheckpointDir   string
	CheckpointEvery int
	// Stop, when non-nil, cancels the run when closed: the cycle loop
	// exits at the next boundary, pipelined ingestion is flushed, the
	// stats epilogue — including the final checkpoint, when enabled —
	// still runs, and Result.Interrupted reports the early exit.
	Stop <-chan struct{}
	Seed int64
}

// withDefaults fills derived fields.
func (c Config) withDefaults() Config {
	if c.Cycles == 0 {
		c.Cycles = 20
	}
	if c.TargetCells == 0 && c.GridRes == 0 {
		// The paper tunes to 12^4 cells for N=1M: ~48 tuples per cell.
		c.TargetCells = c.N / 48
		if c.TargetCells < 16 {
			c.TargetCells = 16
		}
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Dims <= 0:
		return fmt.Errorf("harness: dims=%d", c.Dims)
	case c.N <= 0:
		return fmt.Errorf("harness: N=%d", c.N)
	case c.R <= 0:
		return fmt.Errorf("harness: R=%d", c.R)
	case c.Q <= 0:
		return fmt.Errorf("harness: Q=%d", c.Q)
	case c.K <= 0:
		return fmt.Errorf("harness: K=%d", c.K)
	}
	if (c.ThresholdFrac > 0 || c.NearDupQueries) && c.Algo == AlgoTSL {
		return fmt.Errorf("harness: ThresholdFrac/NearDupQueries apply to the grid algorithms only")
	}
	if c.CheckpointDir != "" && c.Algo == AlgoTSL {
		return fmt.Errorf("harness: CheckpointDir applies to the grid algorithms only")
	}
	// The governor fronts the pipelined ingest queue: without a pipeline
	// there is no queue to govern, and silently ignoring the flags would
	// publish an ungoverned run as an admission measurement.
	if (c.Admission || c.MemLimit > 0 || c.AdmissionTarget > 0) && (c.Pipeline <= 0 || c.Algo == AlgoTSL) {
		return fmt.Errorf("harness: Admission/MemLimit require Pipeline > 0 on a grid algorithm")
	}
	// Pacing sleeps inside the measured loop: on the synchronous path the
	// sleep would be booked as engine time and publish bogus per-cycle
	// figures.
	if c.IngestInterval > 0 && (c.Pipeline <= 0 || c.Algo == AlgoTSL) {
		return fmt.Errorf("harness: IngestInterval requires Pipeline > 0 on a grid algorithm")
	}
	return nil
}

// Result carries the measurements of one run.
type Result struct {
	Config Config
	// InitTime covers query registration (the initial top-k computations).
	InitTime time.Duration
	// RunTime covers the measured processing cycles.
	RunTime time.Duration
	// SpaceBytes is the monitor footprint at the end of the run.
	SpaceBytes int64
	// MaxShardSpaceBytes is the largest single shard's footprint (sharded
	// monitors only; zero otherwise). Query partitioning keeps it O(N) —
	// the full index on every shard — while data partitioning drops it to
	// O(N/shards).
	MaxShardSpaceBytes int64
	// MaxShardCycleNS / MeanShardCycleNS are the hottest and the average
	// shard's EWMA per-cycle wall time at the end of the run (sharded
	// monitors only; zero otherwise). Their ratio is the load imbalance.
	MaxShardCycleNS  int64
	MeanShardCycleNS int64
	// Recomputes / Refills count from-scratch computations during
	// maintenance (engine recomputations or TSL view refills).
	Recomputes int64
	// AvgAuxSize is the average skyband size (SMA) or view size (TSL) per
	// query per cycle — Table 2. Zero for TMA.
	AvgAuxSize float64
	// CellsProcessed counts de-heaped cells (grid algorithms).
	CellsProcessed int64
	// MemoryHighWater is the largest footprint the monitor observed across
	// the run (grid engines; summed over shards). At least SpaceBytes.
	MemoryHighWater int64
	// MaxCellBytesHighWater is the largest single grid cell ever
	// allocated, in bytes — the tuple-skew figure (grid engines).
	MaxCellBytesHighWater int64
	// DroppedBatches and DroppedTuples count the load shed by the admission
	// governor on a pipelined run: whole cycles and the stream events they
	// carried that never reached the engine, plus arrivals stripped in
	// Critical.
	DroppedBatches int64
	DroppedTuples  int64
	// AdmissionState is the governor's final state ("" when admission is
	// off): "normal" means the run ended recovered, "shedding"/"critical"
	// that overload outlasted the measured cycles.
	AdmissionState string
	// SheddingCycles and CriticalCycles count cycles drained while the
	// governor was degraded — the bounded-staleness figure of an overload
	// run.
	SheddingCycles int64
	CriticalCycles int64
	// CyclesRun counts the processing cycles actually executed; less than
	// Config.Cycles only when the run was interrupted.
	CyclesRun int
	// Interrupted reports that Config.Stop cancelled the run early. The
	// measurements cover the cycles that did run.
	Interrupted bool
}

// PerCycle returns the average maintenance time per processing cycle.
func (r Result) PerCycle() time.Duration {
	if r.Config.Cycles == 0 {
		return 0
	}
	return r.RunTime / time.Duration(r.Config.Cycles)
}

// NewMonitor builds the monitor for a config, pre-fills the window with N
// tuples, and registers the Q queries. It returns the monitor, the stream
// generator (positioned after the fill), and the next timestamp to use.
func NewMonitor(cfg Config) (core.Monitor, *stream.Generator, int64, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, nil, 0, err
	}
	var mon core.Monitor
	switch cfg.Algo {
	case AlgoTSL:
		opts := tsl.Options{Dims: cfg.Dims, Window: window.Count(cfg.N)}
		if cfg.KMax > 0 {
			opts.KMax = func(int) int { return cfg.KMax }
		}
		m, err := tsl.New(opts)
		if err != nil {
			return nil, nil, 0, err
		}
		mon = m
	case AlgoTMA, AlgoSMA:
		opts := core.Options{
			Dims:           cfg.Dims,
			Window:         window.Count(cfg.N),
			GridRes:        cfg.GridRes,
			TargetCells:    cfg.TargetCells,
			DeletionsFirst: cfg.DeletionsFirst,
		}
		if cfg.Shards > 1 && cfg.DataPartition {
			s, err := shard.NewData(opts, cfg.Shards)
			if err != nil {
				return nil, nil, 0, err
			}
			mon = s
		} else if cfg.Shards > 1 {
			s, err := shard.New(opts, cfg.Shards)
			if err != nil {
				return nil, nil, 0, err
			}
			mon = s
		} else {
			e, err := core.NewEngine(opts)
			if err != nil {
				return nil, nil, 0, err
			}
			mon = e
		}
	default:
		return nil, nil, 0, fmt.Errorf("harness: unknown algorithm %v", cfg.Algo)
	}

	gen := stream.NewGenerator(cfg.Dist, cfg.Dims, cfg.Seed)
	// Fill the window at ts=0, before queries exist, so registration sees
	// the steady-state data volume.
	if _, err := mon.Step(0, gen.Batch(cfg.N, 0)); err != nil {
		return nil, nil, 0, err
	}
	policy := core.TMA
	if cfg.Algo == AlgoSMA {
		policy = core.SMA
	}
	qg := stream.NewQueryGenerator(cfg.Func, cfg.Dims, cfg.Seed+1)
	// Near-duplicate mode: jittered copies of a few base vectors, so the
	// quantized cluster keys coincide and the query index shares work.
	var ndRng *rand.Rand
	var ndBases [][]float64
	if cfg.NearDupQueries {
		ndRng = rand.New(rand.NewSource(cfg.Seed + 3))
		for i := 0; i < 8; i++ {
			w := make([]float64, cfg.Dims)
			for d := range w {
				w[d] = 0.2 + ndRng.Float64()*0.8
			}
			ndBases = append(ndBases, w)
		}
	}
	unit := geom.UnitRect(cfg.Dims)
	for i := 0; i < cfg.Q; i++ {
		var f geom.ScoringFunction
		if cfg.NearDupQueries {
			base := ndBases[i%len(ndBases)]
			w := make([]float64, cfg.Dims)
			for d := range w {
				w[d] = base[d] * (1 + 0.01*(ndRng.Float64()*2-1))
			}
			f = geom.NewLinear(w...)
		} else {
			f = qg.Next()
		}
		var spec core.QuerySpec
		if cfg.ThresholdFrac > 0 {
			thr := cfg.ThresholdFrac * geom.MaxScore(f, unit)
			spec = core.QuerySpec{F: f, Threshold: &thr}
		} else {
			spec = core.QuerySpec{F: f, K: cfg.K, Policy: policy}
		}
		if _, err := mon.Register(spec); err != nil {
			return nil, nil, 0, err
		}
	}
	// The guard wraps last, so its initial checkpoint already contains the
	// prefilled window and the registered query set: the run is restorable
	// from its first measured cycle.
	if cfg.CheckpointDir != "" {
		g, err := recovery.NewGuard(mon.(core.StreamMonitor), cfg.CheckpointDir, recovery.GuardOptions{
			Every: cfg.CheckpointEvery,
		})
		if err != nil {
			_ = mon.(core.StreamMonitor).Close()
			return nil, nil, 0, err
		}
		mon = g
	}
	return mon, gen, 1, nil
}

// stopped reports whether the Stop channel has been closed.
func (c Config) stopped() bool {
	if c.Stop == nil {
		return false
	}
	select {
	case <-c.Stop:
		return true
	default:
		return false
	}
}

// progress fires the configured Progress callback after cycle c (0-based)
// when it is due, handing it the monitor's current shard loads.
func (c Config) progress(cycle int, mon core.Monitor) {
	if c.Progress == nil || c.ProgressEvery <= 0 || (cycle+1)%c.ProgressEvery != 0 {
		return
	}
	var loads []shard.ShardLoad
	if sl, ok := mon.(interface{ ShardLoads() []shard.ShardLoad }); ok {
		loads = sl.ShardLoads()
	}
	c.Progress(cycle+1, loads)
}

// Run executes one full experiment run and collects measurements.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	res := Result{Config: cfg}

	t0 := time.Now()
	mon, gen, ts, err := NewMonitor(cfg)
	if err != nil {
		return res, err
	}
	res.InitTime = time.Since(t0)

	// Like Shards, Pipeline applies to the grid algorithms only and is
	// silently ignored for TSL, so sweep-wide -pipeline flags don't abort
	// the TSL columns.
	var runTime time.Duration
	if cfg.Pipeline > 0 && cfg.Algo != AlgoTSL {
		// Pipelined path: wrap the pre-filled monitor, drain deliveries on
		// a consumer goroutine, ingest without waiting, and close the run
		// with the Flush barrier so every cycle is applied and delivered
		// inside the measured span.
		popts := pipeline.Options{Depth: cfg.Pipeline}
		var gov *admission.Governor
		if cfg.Admission || cfg.MemLimit > 0 || cfg.AdmissionTarget > 0 {
			gov = admission.New(admission.Config{
				Seed:        cfg.Seed,
				MemLimit:    cfg.MemLimit,
				CycleTarget: cfg.AdmissionTarget,
			})
			popts.Admission = gov
		}
		// Init (prefill + registration) ran through the same shard workers
		// as live cycles but at orders-of-magnitude larger batch sizes;
		// without a reset the stale EWMA reads as a latency breach and the
		// governor sheds a perfectly healthy run's first cycles.
		if gov != nil {
			if rl, ok := mon.(interface{ ResetLoadStats() }); ok {
				rl.ResetLoadStats()
			}
		}
		p := pipeline.New(mon.(core.StreamMonitor), popts)
		consumerDone := p.Drain()
		// Close is idempotent: the stats epilogue below closes the monitor
		// too, this deferred close only covers error returns and joins the
		// consumer either way.
		defer func() { _ = p.Close(); <-consumerDone }()
		t1 := time.Now()
		next := time.Now()
		for c := 0; c < cfg.Cycles && !res.Interrupted; c++ {
			if cfg.stopped() {
				res.Interrupted = true
				break
			}
			if cfg.IngestInterval > 0 {
				// Fixed-schedule pacing: sleep to the slot, not for the
				// interval, so a slow Ingest (the queue blocking) eats its
				// own budget instead of pushing every later arrival back.
				if d := time.Until(next); d > 0 {
					time.Sleep(d)
				}
				next = next.Add(cfg.IngestInterval)
			}
			if err := p.Ingest(ts, gen.Batch(cfg.R, ts)); err != nil {
				// A governor shed is the run degrading as designed: the
				// cycle's arrivals are the staleness cost, the run goes on.
				if gov == nil || !errors.Is(err, admission.ErrOverloaded) {
					return res, err
				}
			}
			ts++
			res.CyclesRun++
			cfg.progress(c, p)
			if gov != nil && cfg.AdmissionProgress != nil && cfg.ProgressEvery > 0 && (c+1)%cfg.ProgressEvery == 0 {
				cfg.AdmissionProgress(c+1, gov.Snapshot())
			}
		}
		if err := p.Flush(); err != nil {
			return res, err
		}
		runTime = time.Since(t1)
		res.DroppedBatches = p.Dropped()
		res.DroppedTuples = p.DroppedTuples()
		if gov != nil {
			snap := gov.Snapshot()
			res.AdmissionState = snap.State.String()
			res.SheddingCycles = snap.SheddingDrains
			res.CriticalCycles = snap.CriticalDrains
		}
		mon = p
	} else {
		t1 := time.Now()
		for c := 0; c < cfg.Cycles; c++ {
			if cfg.stopped() {
				res.Interrupted = true
				break
			}
			if _, err := mon.Step(ts, gen.Batch(cfg.R, ts)); err != nil {
				return res, err
			}
			ts++
			res.CyclesRun++
			cfg.progress(c, mon)
		}
		runTime = time.Since(t1)
	}
	res.RunTime = runTime
	res.SpaceBytes = mon.MemoryBytes()
	if sh, ok := mon.(interface{ ShardMemoryBytes() []int64 }); ok {
		for _, b := range sh.ShardMemoryBytes() {
			if b > res.MaxShardSpaceBytes {
				res.MaxShardSpaceBytes = b
			}
		}
	}
	if sl, ok := mon.(interface{ ShardLoads() []shard.ShardLoad }); ok {
		if loads := sl.ShardLoads(); len(loads) > 0 {
			var nsSum int64
			for _, l := range loads {
				if l.EWMACycleNS > res.MaxShardCycleNS {
					res.MaxShardCycleNS = l.EWMACycleNS
				}
				nsSum += l.EWMACycleNS
			}
			res.MeanShardCycleNS = nsSum / int64(len(loads))
		}
	}

	// The grid engines — single or sharded — share the core.Stats shape;
	// the sharded monitor aggregates its per-shard counters before
	// reporting, so the harness reads one interface either way.
	switch m := mon.(type) {
	case core.StreamMonitor:
		s := m.Stats()
		res.Recomputes = s.Recomputes
		res.CellsProcessed = s.CellsProcessed
		res.AvgAuxSize = s.AvgSkybandSize()
		res.MemoryHighWater = s.MemoryHighWater
		res.MaxCellBytesHighWater = s.MaxCellBytesHighWater
		_ = m.Close()
	case *tsl.Monitor:
		s := m.Stats()
		res.Recomputes = s.Refills
		res.AvgAuxSize = s.AvgViewSize()
	}
	return res, nil
}
