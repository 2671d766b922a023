// Command layers is the benchmark's traced pass: it attributes a
// workload's cost to the layers topkmon, pipeline, recovery, shard,
// admission, core, grid, window, qindex, topk, skyband, simd and geom by
// timing calls into their exported functions from outside, and prints every
// per-layer metric by name.
//
// The stack's layers each wrap a core.StreamMonitor, but recovery.Guard
// type-switches on the concrete engine beneath it, so spans cannot be
// interposed everywhere. The pass is therefore a rung ladder over the
// identical stream, built from the internal constructors in the order
// topkmon.New composes them: core (bare engine), shard (NewData), recovery
// (NewGuard over it), pipeline (paced, with a span decorator between
// pipeline and guard), topkmon (the untraced end-to-end run). A layer's
// self time is its rung's median minus what the rung beneath it covers.
// Single-engine workloads get the core rung, the Stats() counters and the
// leaf probes sized to that workload.
//
// This program is the only part of the benchmark that imports
// topkmon/internal; the end-to-end program in .. stays on the public API.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"topkmon/bench/work"
)

// traceShare is the share of the end-to-end span every rung replays. The
// per-layer figures are medians and per-cycle counts, which a fifth of the
// span settles, and the traced pass then stays as short as the untraced.
const traceShare = 1.0 / 5

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
}

func run() error {
	fl := work.Flags(flag.CommandLine)
	flag.Parse()
	fl.Trace = 1
	if fl.Workload == "" {
		return work.RunAll(fl, os.Stdout, os.Stderr)
	}
	w, err := work.Find(fl.Workload)
	if err != nil {
		return err
	}
	tr := newTracer()
	values, out, err := trace(w, fl.Config(), tr)
	if err != nil {
		return err
	}
	path := filepath.Join(filepath.Dir(fl.Out), "trace-"+w.Name+".jsonl")
	if err := tr.write(path); err != nil {
		return err
	}
	fmt.Printf("%d spans in %s\n", len(tr.spans), path)
	rec, err := work.NewRecord(out, fl.Seconds, true, work.PerLayer, values)
	if err != nil {
		return err
	}
	return fl.Emit(rec, work.PerLayer)
}

// trace runs the rung ladder, the untraced end-to-end run and the leaf
// probes for one workload and returns every per-layer metric.
func trace(w work.Workload, cfg work.Config, tr *tracer) (map[string]float64, *work.Outcome, error) {
	v := make(map[string]float64, len(work.PerLayer))
	for _, d := range work.PerLayer {
		v[d.Name] = 0
	}
	cfg.Seconds *= traceShare
	cfg.Setups = 1
	cfg.Detail = true
	cycles := w.CyclesFor(cfg.Seconds)

	coreRung, err := syncRung(w, cfg, cycles, tr, "core.step", buildCore)
	if err != nil {
		return nil, nil, err
	}
	v["core.step_ns_per_tuple"] = float64(coreRung.busy) / float64(coreRung.tuples)
	v["core.step_us_p50"] = work.Micros(work.Percentile(coreRung.calls, 50))

	var paced *pacedRung
	if w.Kind == work.Paced {
		if paced, err = stackRungs(w, cfg, cycles, tr, v); err != nil {
			return nil, nil, err
		}
	}

	// The topkmon rung: the end-to-end run itself, tracing off.
	out, err := work.Run(w, cfg)
	if err != nil {
		return nil, nil, err
	}
	st := out.Stats
	perCycle := func(n int64) float64 { return float64(n) / float64(out.Cycles) }
	v["core.recomputes_per_cycle"] = perCycle(st.Recomputes)
	v["core.cells_processed_per_cycle"] = perCycle(st.CellsProcessed)
	v["core.heap_ops_per_cycle"] = perCycle(st.HeapOps)
	v["core.influence_events_per_tuple"] = float64(st.InfluenceEvents) / float64(out.Tuples)
	v["core.result_updates_per_cycle"] = perCycle(st.ResultUpdates)
	v["core.skyband_avg_size"] = st.AvgSkybandSize()
	if st.InfluenceEvents > 0 {
		v["core.update_yield"] = float64(st.ResultUpdates) / float64(st.InfluenceEvents)
	}
	v["topkmon.register_us_p50"] = work.Micros(work.Percentile(out.RegisterCalls, 50))
	v["topkmon.result_read_ns_p50"] = float64(work.Percentile(out.ResultCalls, 50))
	v["topkmon.memory_bytes_per_tuple"] = float64(out.MemoryBytes) / float64(max(out.LivePoints, 1))
	v["topkmon.restore_ms"] = out.RestoreMillis
	v["bench.gen_ns_per_tuple"] = float64(out.GenTime) / float64(out.Tuples)
	if paced != nil {
		v["shard.cycle_skew"], v["shard.cost_skew"], v["shard.memory_skew"] = skews(out.ShardLoads)
		v["bench.gen_late_us_p50"] = work.Micros(work.Percentile(out.Late, 50))
		v["bench.gen_late_us_p99"] = work.Micros(work.Percentile(out.Late, 99))
		v["pipeline.queue_high_water"] = float64(st.QueueHighWater)
		// The rungs' medians are plain ones, so the untraced is too.
		untraced := work.Micros(work.Percentile(out.CycleLatency, 50))
		v["bench.trace_overhead_ratio"] = paced.cycleP50 / untraced
		paced.account(os.Stdout, untraced)
	}

	probes(w, cfg.Seed, cycles, v)
	return v, out, nil
}

// sinceMillis is time.Since in fractional milliseconds.
func sinceMillis(t0 time.Time) float64 { return float64(time.Since(t0)) / 1e6 }
