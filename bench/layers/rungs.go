package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"topkmon/bench/load"
	"topkmon/bench/work"
	"topkmon/internal/core"
	"topkmon/internal/pipeline"
	"topkmon/internal/recovery"
	"topkmon/internal/shard"
	"topkmon/internal/stream"
	"topkmon/internal/window"
)

// span is one traced interval. Spans of one cycle share its timestamp as
// identifier; Parent names the span that caused it.
type span struct {
	Name   string `json:"name"`
	Cycle  int64  `json:"cycle"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
}

// tracer keeps spans in memory and writes them out when the run ends.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(name, parent string, cycle int64, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{name, cycle, int64(start.Sub(t.epoch)), int64(end.Sub(t.epoch)), parent})
	t.mu.Unlock()
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// coreOptions are the core.Options the facade derives for the workload.
func coreOptions(w work.Workload) core.Options {
	o := core.Options{Dims: load.Dims}
	if w.Kind == work.Churn {
		o.Mode = core.UpdateStream
	} else {
		o.Window = window.Count(w.Window)
	}
	return o
}

func buildCore(w work.Workload, _ work.Config) (core.StreamMonitor, error) {
	return core.NewEngine(coreOptions(w))
}

func buildShard(w work.Workload, _ work.Config) (core.StreamMonitor, error) {
	return shard.NewData(coreOptions(w), work.PacedShards)
}

// buildGuard makes the checkpoint directory too; the caller removes
// Guard.Dir() once the guard is closed.
func buildGuard(w work.Workload, cfg work.Config) (core.StreamMonitor, error) {
	if err := os.MkdirAll(cfg.TmpDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.TmpDir, "guard-")
	if err != nil {
		return nil, err
	}
	inner, err := shard.NewData(coreOptions(w), work.PacedShards)
	if err != nil {
		return nil, err
	}
	g, err := recovery.NewGuard(inner, dir, recovery.GuardOptions{Every: 0})
	if err != nil {
		inner.Close()
		return nil, err
	}
	return g, nil
}

// rung is what replaying a span through one synchronous rung measured.
type rung struct {
	mon    core.StreamMonitor // still open
	calls  []time.Duration    // one per Step or StepUpdate call
	busy   time.Duration
	tuples int64
}

// prepare fills the window and registers the workload's queries on mon,
// as the end-to-end set-up does, and returns the ids oldest first.
func prepare(w work.Workload, in *work.Stream, mon core.StreamMonitor, step func(work.Cycle) error) ([]core.QueryID, error) {
	for ts, batch := range in.Prefill {
		if err := step(work.Cycle{TS: int64(ts), Arrivals: batch}); err != nil {
			return nil, fmt.Errorf("prefill cycle %d: %w", ts, err)
		}
	}
	in.Prefill = nil
	ids := make([]core.QueryID, 0, len(in.Specs))
	for i, spec := range in.Specs {
		id, err := mon.Register(spec.QuerySpec(w.Policy()))
		if err != nil {
			return nil, fmt.Errorf("register query %d: %w", i, err)
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// syncRung replays the workload's span through a monitor built from the
// internal constructors, timing every cycle call from outside. The query
// replacements and reads of the churn workload are applied untimed, so
// the engine passes through the same states as in the end-to-end run.
func syncRung(w work.Workload, cfg work.Config, cycles int, tr *tracer, name string,
	build func(work.Workload, work.Config) (core.StreamMonitor, error)) (*rung, error) {
	mon, err := build(w, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s rung: %w", name, err)
	}
	step := func(c work.Cycle) error {
		var err error
		if w.Kind == work.Churn {
			_, err = mon.StepUpdate(c.TS, c.Arrivals, c.Deletions)
		} else {
			_, err = mon.Step(c.TS, c.Arrivals)
		}
		return err
	}
	in := work.NewStream(w, cfg.Seed, cycles)
	ids, err := prepare(w, in, mon, step)
	if err != nil {
		mon.Close()
		return nil, fmt.Errorf("%s rung: %w", name, err)
	}
	r := &rung{mon: mon, calls: make([]time.Duration, 0, cycles)}
	for c := -w.Warmup(); c < cycles; c++ {
		cyc := in.Next()
		t0 := time.Now()
		err := step(cyc)
		t1 := time.Now()
		if err != nil {
			mon.Close()
			return nil, fmt.Errorf("%s rung: cycle %d: %w", name, c, err)
		}
		if c >= 0 { // the warm-up is replayed, as end to end, but not recorded
			r.calls = append(r.calls, t1.Sub(t0))
			r.busy += t1.Sub(t0)
			r.tuples += int64(cyc.Tuples())
			tr.add(name, "", cyc.TS, t0, t1)
		}
		for _, spec := range cyc.Fresh {
			if err := mon.Unregister(ids[0]); err != nil {
				mon.Close()
				return nil, fmt.Errorf("%s rung: cycle %d: unregister: %w", name, c, err)
			}
			id, err := mon.Register(spec.QuerySpec(w.Policy()))
			if err != nil {
				mon.Close()
				return nil, fmt.Errorf("%s rung: cycle %d: register: %w", name, c, err)
			}
			ids = append(ids[1:], id)
		}
		for _, pos := range cyc.Reads {
			if _, err := mon.Result(ids[pos]); err != nil {
				mon.Close()
				return nil, fmt.Errorf("%s rung: cycle %d: result: %w", name, c, err)
			}
		}
	}
	return r, nil
}

// dirBytes sums the sizes of the files in dir, the WAL apart.
func dirBytes(dir string) (wal, rest int64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, 0, err
		}
		if e.Name() == "wal.log" {
			wal += info.Size()
		} else {
			rest += info.Size()
		}
	}
	return wal, rest, nil
}

// stackRungs runs the rungs above core for the paced workload: shard,
// recovery (with the WAL cross-check and the checkpoint timings on the
// quiescent rung) and the paced pipeline rung.
func stackRungs(w work.Workload, cfg work.Config, cycles int, tr *tracer, v map[string]float64) (*pacedRung, error) {
	sh, err := syncRung(w, cfg, cycles, tr, "shard.step", buildShard)
	if err != nil {
		return nil, err
	}
	if err := sh.mon.Close(); err != nil {
		return nil, fmt.Errorf("shard rung: close: %w", err)
	}
	shardP50 := work.Micros(work.Percentile(sh.calls, 50))
	v["shard.step_us_p50"] = shardP50
	v["shard.step_us_p99"] = work.Micros(work.Percentile(sh.calls, 99))
	v["shard.tax_ratio"] = shardP50 / v["core.step_us_p50"]

	gr, err := syncRung(w, cfg, cycles, tr, "recovery.step", buildGuard)
	if err != nil {
		return nil, err
	}
	guard := gr.mon.(*recovery.Guard)
	defer os.RemoveAll(guard.Dir())
	v["recovery.wal_self_us_p50"] = work.Micros(work.Percentile(gr.calls, 50)) - shardP50
	walBytes, _, err := dirBytes(guard.Dir())
	if err != nil {
		guard.Close()
		return nil, err
	}
	// The log holds the prefill, the registrations and the warm-up too.
	logged := gr.tuples + int64(w.Window+w.Warmup()*w.Rate)
	v["recovery.wal_bytes_per_tuple"] = float64(walBytes) / float64(logged)
	var ckpt []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if err := guard.Checkpoint(); err != nil {
			guard.Close()
			return nil, fmt.Errorf("guard rung: checkpoint: %w", err)
		}
		ckpt = append(ckpt, sinceMillis(t0))
	}
	v["recovery.checkpoint_ms_p50"] = work.Median(ckpt)
	_, ckptBytes, err := dirBytes(guard.Dir())
	if err != nil {
		guard.Close()
		return nil, err
	}
	v["recovery.checkpoint_bytes"] = float64(ckptBytes)
	t0 := time.Now()
	if err := guard.Close(); err != nil {
		return nil, fmt.Errorf("guard rung: close: %w", err)
	}
	v["recovery.close_ms"] = sinceMillis(t0)

	if v["recovery.wal_append_us_p50"], err = walAppend(w, cfg, cycles); err != nil {
		return nil, err
	}
	return pipelineRung(w, cfg, cycles, tr, v)
}

// walAppend times recovery.WAL.Append alone on the span's batches: the
// cross-check of the guard rung's self time.
func walAppend(w work.Workload, cfg work.Config, cycles int) (float64, error) {
	dir, err := os.MkdirTemp(cfg.TmpDir, "wal-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	wal, _, err := recovery.OpenWAL(filepath.Join(dir, "wal.log"), recovery.SyncNone)
	if err != nil {
		return 0, err
	}
	in := work.NewStream(w, cfg.Seed, cycles)
	in.Prefill = nil
	calls := make([]time.Duration, 0, cycles)
	for c := 0; c < cycles; c++ {
		cyc := in.Next()
		t0 := time.Now()
		err := wal.Append(recovery.Record{Kind: recovery.RecordBatch, Now: cyc.TS, Arrivals: cyc.Arrivals})
		calls = append(calls, time.Since(t0))
		if err != nil {
			wal.Close()
			return 0, fmt.Errorf("wal append: %w", err)
		}
	}
	if err := wal.Close(); err != nil {
		return 0, err
	}
	return work.Micros(work.Percentile(calls, 50)), nil
}

// stamped is the benchmark's own core.StreamMonitor decorator: it sits
// between the pipeline and the guard and stamps the start and end of every
// inner Step. The pipeline's runner goroutine is the only writer; the
// stamps are read after a barrier (Flush, Register) or after Close.
type stamped struct {
	core.StreamMonitor
	steps []stamp
}

type stamp struct {
	ts         int64
	start, end time.Time
	delivers   bool
}

func (s *stamped) Step(now int64, arrivals []*stream.Tuple) ([]core.Update, error) {
	t0 := time.Now()
	ups, err := s.StreamMonitor.Step(now, arrivals)
	s.steps = append(s.steps, stamp{now, t0, time.Now(), len(ups) > 0})
	return ups, err
}

// pacedRung is what the paced pipeline rung measured, as medians in
// microseconds.
type pacedRung struct {
	cycleP50, late, ingest, queue, guardStep, deliver float64
	walSelf, shardStep, coreStep                      float64
}

// pipelineRung drives pipeline.New(stamped(guard)) on the end-to-end
// workload's schedule and records, per cycle, the spans late (due to sent),
// ingest (the Ingest call), queue (Ingest return to inner start), guard.step
// (the inner Step) and deliver (inner end to receipt on Updates()).
func pipelineRung(w work.Workload, cfg work.Config, cycles int, tr *tracer, v map[string]float64) (*pacedRung, error) {
	inner, err := buildGuard(w, cfg)
	if err != nil {
		return nil, fmt.Errorf("pipeline rung: %w", err)
	}
	guard := inner.(*recovery.Guard)
	defer os.RemoveAll(guard.Dir())
	dec := &stamped{StreamMonitor: guard}
	pipe := pipeline.New(dec, pipeline.Options{Depth: work.PacedDepth, DropLog: guard})

	var received []time.Time
	consumerDone := make(chan struct{})
	go func() {
		defer close(consumerDone)
		for range pipe.Updates() {
			received = append(received, time.Now())
		}
	}()
	fail := func(err error) (*pacedRung, error) {
		pipe.Close()
		<-consumerDone
		return nil, fmt.Errorf("pipeline rung: %w", err)
	}

	in := work.NewStream(w, cfg.Seed, cycles)
	applied := func(c work.Cycle) error {
		if err := pipe.Ingest(c.TS, c.Arrivals); err != nil {
			return err
		}
		return pipe.Flush()
	}
	if _, err := prepare(w, in, pipe, applied); err != nil {
		return fail(err)
	}
	for c := -w.Warmup(); c < 0; c++ {
		if err := applied(in.Next()); err != nil {
			return fail(fmt.Errorf("warm-up cycle %d: %w", c, err))
		}
	}
	// Flush was a barrier: the stamps and deliveries of the prefill and the
	// warm-up are in, and none of them belongs to the span.
	base := len(dec.steps)
	skip := 0
	for _, st := range dec.steps {
		if st.delivers {
			skip++
		}
	}

	period := time.Second / work.PacedHz
	due := make([]time.Time, cycles)
	sent := make([]time.Time, cycles)
	back := make([]time.Time, cycles)
	next := in.Next()
	start := time.Now().Add(period)
	for c := 0; c < cycles; c++ {
		cyc := next
		due[c] = start.Add(time.Duration(c) * period)
		work.SleepUntil(due[c])
		sent[c] = time.Now()
		err := pipe.Ingest(cyc.TS, cyc.Arrivals)
		back[c] = time.Now()
		if err != nil {
			return fail(fmt.Errorf("cycle %d: %w", c, err))
		}
		if c+1 < cycles {
			next = in.Next()
		}
	}
	if err := pipe.Close(); err != nil {
		return nil, fmt.Errorf("pipeline rung: close: %w", err)
	}
	<-consumerDone
	steps := dec.steps[base:]
	if len(steps) != cycles {
		return nil, fmt.Errorf("pipeline rung: %d inner steps for %d batches", len(steps), cycles)
	}
	if skip > len(received) {
		return nil, fmt.Errorf("pipeline rung: %d deliveries, %d before the span alone", len(received), skip)
	}
	received = received[skip:]

	var late, ingest, queue, inStep, deliver, total []time.Duration
	j := 0
	for c, st := range steps {
		late = append(late, sent[c].Sub(due[c]))
		tr.add("late", "cycle", st.ts, due[c], sent[c])
		ingest = append(ingest, back[c].Sub(sent[c]))
		queue = append(queue, max(st.start.Sub(back[c]), 0))
		inStep = append(inStep, st.end.Sub(st.start))
		tr.add("cycle", "", st.ts, due[c], st.end)
		tr.add("ingest", "cycle", st.ts, sent[c], back[c])
		tr.add("queue", "cycle", st.ts, back[c], st.start)
		tr.add("guard.step", "cycle", st.ts, st.start, st.end)
		if st.delivers && j < len(received) {
			deliver = append(deliver, received[j].Sub(st.end))
			total = append(total, received[j].Sub(due[c]))
			tr.add("deliver", "cycle", st.ts, st.end, received[j])
			j++
		}
	}
	if j != len(received) {
		return nil, fmt.Errorf("pipeline rung: %d deliveries for %d updating cycles", len(received), j)
	}
	p := &pacedRung{
		cycleP50:  work.Micros(work.Percentile(total, 50)),
		late:      work.Micros(work.Percentile(late, 50)),
		ingest:    work.Micros(work.Percentile(ingest, 50)),
		queue:     work.Micros(work.Percentile(queue, 50)),
		guardStep: work.Micros(work.Percentile(inStep, 50)),
		deliver:   work.Micros(work.Percentile(deliver, 50)),
		walSelf:   v["recovery.wal_self_us_p50"],
		shardStep: v["shard.step_us_p50"],
		coreStep:  v["core.step_us_p50"],
	}
	v["pipeline.ingest_call_us_p50"] = p.ingest
	v["pipeline.queue_wait_us_p50"] = p.queue
	v["pipeline.queue_wait_us_p99"] = work.Micros(work.Percentile(queue, 99))
	v["pipeline.deliver_us_p50"] = p.deliver
	v["pipeline.delivery_p99_us"] = work.Micros(work.Percentile(total, 99))
	return p, nil
}

// account prints the layer self-time table of the paced workload and the
// residual against the untraced median.
func (p *pacedRung) account(out io.Writer, untracedP50 float64) {
	sum := p.late + p.ingest + p.queue + p.guardStep + p.deliver
	fmt.Fprintf(out, "fullstack-paced cycle_p50_us by layer (self time, us):\n")
	fmt.Fprintf(out, "  bench     %.1f (the generator sending after the batch was due)\n", p.late)
	fmt.Fprintf(out, "  pipeline  ingest %.1f + queue wait %.1f + deliver %.1f\n", p.ingest, p.queue, p.deliver)
	fmt.Fprintf(out, "  recovery  %.1f (guard rung %.1f - shard rung %.1f; in-pipeline guard.step span %.1f)\n",
		p.walSelf, p.walSelf+p.shardStep, p.shardStep, p.guardStep)
	fmt.Fprintf(out, "  shard     %.1f (shard rung %.1f - core rung %.1f)\n", p.shardStep-p.coreStep, p.shardStep, p.coreStep)
	fmt.Fprintf(out, "  core      %.1f\n", p.coreStep)
	fmt.Fprintf(out, "  spans sum to %.1f; traced median %.1f; untraced median %.1f; residual %+.1f%%\n",
		sum, p.cycleP50, untracedP50, 100*(sum-untracedP50)/untracedP50)
}

// skews returns max/mean over shards of cycle time, cost and memory.
func skews(loads []shard.ShardLoad) (cycle, cost, memory float64) {
	ratio := func(get func(shard.ShardLoad) float64) float64 {
		var sum, top float64
		for _, l := range loads {
			x := get(l)
			sum += x
			top = max(top, x)
		}
		if sum == 0 {
			return 0
		}
		return top / (sum / float64(len(loads)))
	}
	return ratio(func(l shard.ShardLoad) float64 { return float64(l.EWMACycleNS) }),
		ratio(func(l shard.ShardLoad) float64 { return float64(l.Cost) }),
		ratio(func(l shard.ShardLoad) float64 { return float64(l.MemoryBytes) })
}
