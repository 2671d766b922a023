package work

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"topkmon/bench/load"
	"topkmon/pkg/topkmon"
)

// Outcome is everything one run of one workload measured. Metrics holds
// the end-to-end metrics by name; the rest feeds the per-layer report and
// the exact-count comparison.
type Outcome struct {
	Workload Workload
	Seed     int64
	Cycles   int
	Tuples   int64

	Attempted int64
	Failed    int64
	// FirstError describes the first failed operation, if any.
	FirstError string

	Metrics map[string]float64

	// Counts the program makes, which repeat exactly for a seed. Transcript
	// hashes everything the monitor reported from the warm-up on; Updating
	// lists the cycles of a closed loop whose call returned an update
	// (warm-up cycles count down to -1).
	Transcript uint64
	Updating   []int
	Deliveries int
	Stats      topkmon.Stats // delta over the measured span

	SetupSeconds []float64
	// CycleLatency is the span's per-cycle latency sample as measured; the
	// time metrics are taken on a deflated copy (see SegmentCycles).
	CycleLatency []time.Duration
	// Late is how far behind its schedule the paced generator sent each
	// batch.
	Late []time.Duration
	// RegisterCalls and ResultCalls are per-call durations, recorded only
	// on a detailed run.
	RegisterCalls []time.Duration
	ResultCalls   []time.Duration
	GenTime       time.Duration // time spent generating batches inside the span
	MemoryBytes   int64
	LivePoints    int
	ShardLoads    []topkmon.ShardLoad
	RestoreMillis float64
}

// Correct reports whether every operation and check succeeded.
func (o *Outcome) Correct() bool { return o.Failed == 0 }

func (o *Outcome) fail(err error) {
	o.Failed++
	if o.FirstError == "" {
		o.FirstError = err.Error()
	}
}

// Config tunes a run.
type Config struct {
	Seed    int64
	Seconds float64
	// Setups is how many times the monitor is built; zero means Setups.
	Setups int
	// Detail records per-call Register and Result timings and restores
	// the paced workload's checkpoint; the per-layer pass sets it.
	Detail bool
	// TmpDir is where checkpoint directories are made and removed.
	TmpDir string
}

// instance is one built monitor with its registered queries.
type instance struct {
	mon     *topkmon.Monitor
	queries []query // oldest first
	dir     string
}

func (in *instance) close() error {
	err := in.mon.Close()
	if in.dir != "" {
		if rerr := os.RemoveAll(in.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// step applies one cycle synchronously on whichever ingestion surface the
// monitor has; set-up uses it so that registration finds a full window.
func step(mon *topkmon.Monitor, w Workload, ts int64, batch []*topkmon.Tuple, deletions []uint64) ([]topkmon.Update, error) {
	switch {
	case mon.Pipelined():
		if err := mon.Ingest(ts, batch); err != nil {
			return nil, err
		}
		return nil, mon.Flush()
	case w.Kind == Churn:
		return mon.StepUpdate(ts, batch, deletions)
	default:
		return mon.Step(ts, batch)
	}
}

func register(mon *topkmon.Monitor, s Spec) (topkmon.QueryID, error) {
	if s.Threshold != nil {
		return mon.RegisterThreshold(s.F, *s.Threshold)
	}
	return mon.RegisterTopK(s.F, K)
}

// setup is the timed set-up: New, prefill in Rate-sized batches before any
// query exists (so registration pays the initial computation on a full
// window, the paper's Figure 6 module), then every Register call. Nothing
// is delivered on a pipelined monitor's Updates channel meanwhile: no query
// exists while the window fills, and Register reports no update.
func (w Workload) setup(in *Stream, cfg Config, calls *[]time.Duration) (*instance, time.Duration, error) {
	inst := &instance{}
	if w.Kind == Paced {
		if err := os.MkdirAll(cfg.TmpDir, 0o755); err != nil {
			return nil, 0, err
		}
		dir, err := os.MkdirTemp(cfg.TmpDir, w.Name+"-")
		if err != nil {
			return nil, 0, err
		}
		// WithCheckpoint wants the directory absent or empty; keep it empty.
		inst.dir = dir
	}
	start := time.Now()
	mon, err := topkmon.New(load.Dims, w.options(inst.dir)...)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: New: %w", w.Name, err)
	}
	inst.mon = mon
	for ts, batch := range in.Prefill {
		if _, err := step(mon, w, int64(ts), batch, nil); err != nil {
			return nil, 0, fmt.Errorf("%s: prefill cycle %d: %w", w.Name, ts, err)
		}
	}
	inst.queries = make([]query, len(in.Specs))
	for i, spec := range in.Specs {
		var t0 time.Time
		if calls != nil {
			t0 = time.Now()
		}
		id, err := register(mon, spec)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: register query %d: %w", w.Name, i, err)
		}
		if calls != nil {
			*calls = append(*calls, time.Since(t0))
		}
		inst.queries[i] = query{Spec: spec, id: id}
	}
	return inst, time.Since(start), nil
}

// Run builds the workload's monitor cfg.Setups times, measures one span on
// the last, checks the results, and closes it.
func Run(w Workload, cfg Config) (*Outcome, error) {
	if cfg.Setups <= 0 {
		cfg.Setups = Setups
	}
	out := &Outcome{Workload: w, Seed: cfg.Seed, Cycles: w.CyclesFor(cfg.Seconds), Metrics: map[string]float64{}}
	gen := generatorAllocs(w.Rate)

	var ref *Outcome
	if w.Kind == Paced {
		// The reference pass precedes every measurement, set-up included.
		r, err := w.referencePass(cfg, out)
		if err != nil {
			return nil, err
		}
		ref = r
	}

	in := NewStream(w, cfg.Seed, out.Cycles)
	var inst *instance
	for i := 0; i < cfg.Setups; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, fmt.Errorf("%s: close set-up %d: %w", w.Name, i, err)
			}
			runtime.GC()
		}
		var calls *[]time.Duration
		if cfg.Detail && i == cfg.Setups-1 {
			calls = &out.RegisterCalls
		}
		built, d, err := w.setup(in, cfg, calls)
		if err != nil {
			return nil, err
		}
		inst = built
		out.SetupSeconds = append(out.SetupSeconds, d.Seconds())
	}
	out.Metrics["setup_s"] = Median(out.SetupSeconds)
	in.Prefill = nil

	var err error
	if w.Kind == Paced {
		err = w.pacedSpan(inst, in, ref, gen, cfg, out)
	} else {
		err = w.closedSpan(inst, in, gen, cfg, out)
	}
	if cerr := inst.close(); err == nil && cerr != nil {
		err = fmt.Errorf("%s: close: %w", w.Name, cerr)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// span brackets the measured region and turns its counters into metrics.
type span struct {
	before counters
	stats  topkmon.Stats
	// The batches the stream generates inside the span are taken off the
	// allocation figures: gen is what one costs, batches is in.Batches
	// when the span began.
	in      *Stream
	gen     batchAllocs
	batches int
	genTime time.Duration // in.GenTime when the span began
}

func beginSpan(mon *topkmon.Monitor, in *Stream, gen batchAllocs) span {
	runtime.GC()
	return span{
		stats: mon.Stats(), in: in, gen: gen, batches: in.Batches, genTime: in.GenTime,
		before: readCounters(),
	}
}

func (s span) end(mon *topkmon.Monitor, out *Outcome) {
	after := readCounters()
	tuples := float64(out.Tuples)
	generated := float64(s.in.Batches - s.batches)
	out.Metrics["allocs_per_tuple"] = (float64(after.allocs-s.before.allocs) - generated*s.gen.objects) / tuples
	out.Metrics["bytes_per_tuple"] = (float64(after.bytes-s.before.bytes) - generated*s.gen.bytes) / tuples
	out.Metrics["live_heap_mb"] = float64(liveHeapBytes()) / (1 << 20)
	out.Stats = statsDelta(mon.Stats(), s.stats)
	out.GenTime = s.in.GenTime - s.genTime
	out.MemoryBytes = mon.MemoryBytes()
	out.LivePoints = mon.NumPoints()
	out.ShardLoads = mon.ShardLoads()
}

// statsDelta subtracts the cumulative counters the report uses; gauges
// (high-water marks) keep their end-of-span value.
func statsDelta(a, b topkmon.Stats) topkmon.Stats {
	a.Arrivals -= b.Arrivals
	a.Expirations -= b.Expirations
	a.InfluenceEvents -= b.InfluenceEvents
	a.Recomputes -= b.Recomputes
	a.InitialComputations -= b.InitialComputations
	a.CellsProcessed -= b.CellsProcessed
	a.HeapOps -= b.HeapOps
	a.CellsWalked -= b.CellsWalked
	a.SkybandSizeSum -= b.SkybandSizeSum
	a.SkybandSamples -= b.SkybandSamples
	a.ResultUpdates -= b.ResultUpdates
	a.DroppedBatches -= b.DroppedBatches
	a.DroppedTuples -= b.DroppedTuples
	return a
}

// Warmup is the number of cycles replayed between set-up and the measured
// span: one turnover of the window. Right after registration every query's
// book-keeping is in its initial state (an SMA skyband holds only the top
// k), and the first cycles cost a third more than the steady state.
func (w Workload) Warmup() int { return (w.Window + w.Rate - 1) / w.Rate }

// closedSpan is the closed loop of the three single-caller workloads: the
// next call is made when the previous one returned, and every batch is
// generated between timed calls.
func (w Workload) closedSpan(inst *instance, in *Stream, gen batchAllocs, cfg Config, out *Outcome) error {
	mon := inst.mon
	chk := w.checker(cfg, out)
	tr := newTranscript()

	out.CycleLatency = make([]time.Duration, 0, out.Cycles)
	var segs []segment
	var seg *segment // the open segment; none during the warm-up
	timed := func(calls *[]time.Duration, fn func() error) error {
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		if seg != nil {
			seg.busy += d
			if cfg.Detail {
				*calls = append(*calls, d)
			}
		}
		out.Attempted++
		return err
	}

	var sp span
	every := segmentCycles(out.Cycles)
	for c := -w.Warmup(); c < out.Cycles; c++ {
		if c == 0 {
			// The warm-up ran through the same code; drop what it counted.
			out.Attempted = 0
			sp = beginSpan(mon, in, gen)
		}
		if c >= 0 && c%every == 0 {
			segs, seg = nextSegment(segs, seg)
		}
		cyc := in.Next()
		t0 := time.Now()
		ups, err := step(mon, w, cyc.TS, cyc.Arrivals, cyc.Deletions)
		d := time.Since(t0)
		out.Attempted++
		if seg != nil {
			out.CycleLatency = append(out.CycleLatency, d)
			out.Tuples += int64(cyc.Tuples())
			seg.latency = append(seg.latency, d)
			seg.busy += d
			seg.cycles++
			seg.tuples += int64(cyc.Tuples())
		}
		if err != nil {
			return fmt.Errorf("%s: cycle %d: %w", w.Name, c, err)
		}
		tr.updates(ups)
		if len(ups) > 0 {
			out.Updating = append(out.Updating, c)
		}

		for _, spec := range cyc.Fresh {
			old := inst.queries[0]
			inst.queries = inst.queries[1:]
			if err := timed(&out.RegisterCalls, func() error { return mon.Unregister(old.id) }); err != nil {
				return fmt.Errorf("%s: cycle %d: unregister: %w", w.Name, c, err)
			}
			q := query{Spec: spec}
			if err := timed(&out.RegisterCalls, func() (err error) { q.id, err = register(mon, spec); return }); err != nil {
				return fmt.Errorf("%s: cycle %d: register: %w", w.Name, c, err)
			}
			inst.queries = append(inst.queries, q)
		}
		for _, pos := range cyc.Reads {
			var res []topkmon.Entry
			if err := timed(&out.ResultCalls, func() (err error) { res, err = mon.Result(inst.queries[pos].id); return }); err != nil {
				return fmt.Errorf("%s: cycle %d: result: %w", w.Name, c, err)
			}
			tr.entries(res)
		}

		if c >= 0 && (c+1)%CheckEvery == 0 && c+1 < out.Cycles {
			out.check(chk, mon, in.live, inst.queries)
		}
	}
	segs = lastSegment(segs, seg, every)
	sp.end(mon, out)
	out.timeMetrics(segs, true)
	out.check(chk, mon, in.live, inst.queries)
	out.Transcript = tr.sum()
	return nil
}

// nextSegment closes the segment a loop is in and opens the next. An open
// segment's cpu field holds the process CPU time at which it began.
func nextSegment(segs []segment, open *segment) ([]segment, *segment) {
	now := processCPU()
	if open != nil {
		open.cpu = now - open.cpu
	}
	segs = append(segs, segment{cpu: now})
	return segs, &segs[len(segs)-1]
}

// lastSegment closes the segment a loop ended in, and drops it if it is a
// partial one of fewer than `every` cycles: those cycles are in the span's
// counts, not in its times.
func lastSegment(segs []segment, open *segment, every int) []segment {
	open.cpu = processCPU() - open.cpu
	if open.cycles < every && len(segs) > 1 {
		segs = segs[:len(segs)-1]
	}
	return segs
}

// checker returns the workload's result checker. On a detailed run of a
// workload that reads no results itself, the checker's reads are the
// Result calls timed.
func (w Workload) checker(cfg Config, out *Outcome) *checker {
	chk := &checker{rng: rand.New(rand.NewSource(cfg.Seed + 3))}
	if cfg.Detail && w.Kind != Churn {
		chk.reads = &out.ResultCalls
	}
	return chk
}

func (o *Outcome) check(chk *checker, mon *topkmon.Monitor, m *model, queries []query) {
	attempted, failed, first := chk.check(mon, m, queries, CheckQueries)
	o.Attempted += attempted
	o.Failed += failed
	if first != nil && o.FirstError == "" {
		o.FirstError = first.Error()
	}
}

// referencePass runs the paced workload's identical stream and queries
// through a synchronous single-engine monitor, as a closed loop with its
// periodic checks (on the pipelined monitor they would be barriers in the
// middle of the schedule). The repository's contract is byte-identical
// transcripts in every mode, so delivery j on Updates() belongs to the j-th
// cycle whose Step returned an update here (Outcome.Updating).
//
// The time in its Step calls over the tuples applied is the paced
// workload's ns_per_tuple: the single-threaded baseline of the same job,
// against which cpu_ns_per_tuple reads as what the stack above the engine
// multiplies a tuple's cost by. The paced span has no such figure of its
// own that repeats: the sum of its Ingest calls is made by the few that wait
// for queue space while a collection runs (5-82 ns/tuple over ten runs), the
// median call is a channel send that may or may not have to wake the
// receiver (6.5-10.9 us, spread 43%), and the time per tuple at saturation
// (batches sent back to back after the span) fell into one of two regimes a
// fifth apart from run to run (spread 22-26%).
func (w Workload) referencePass(cfg Config, out *Outcome) (*Outcome, error) {
	plain := w
	plain.Kind = TopK
	ref := &Outcome{Workload: plain, Seed: cfg.Seed, Cycles: out.Cycles, Metrics: map[string]float64{}}
	in := NewStream(plain, cfg.Seed, out.Cycles)
	inst, _, err := plain.setup(in, cfg, nil)
	if err != nil {
		return nil, fmt.Errorf("reference pass: %w", err)
	}
	in.Prefill = nil
	cfg.Detail = false
	err = plain.closedSpan(inst, in, batchAllocs{}, cfg, ref)
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("reference pass: %w", err)
	}
	out.Metrics["ns_per_tuple"] = ref.Metrics["ns_per_tuple"]
	out.Attempted += ref.Attempted
	out.Failed += ref.Failed
	out.FirstError = ref.FirstError
	return ref, nil
}

// pacedSpan is the open loop: one producer calls Ingest on a fixed
// schedule whatever the monitor does, one consumer drains Updates().
// Latency runs from the instant a batch was due, not sent, to receipt of
// its delivery.
func (w Workload) pacedSpan(inst *instance, in *Stream, ref *Outcome, gen batchAllocs, cfg Config, out *Outcome) error {
	mon := inst.mon
	period := time.Second / PacedHz
	expected := len(ref.Updating)

	// The consumer owns these until consumerDone closes; received[:expected]
	// is complete once caughtUp closes.
	received := make([]time.Time, expected)
	deliveries := 0
	tr := newTranscript()
	caughtUp := make(chan struct{})
	consumerDone := make(chan struct{})
	go func() {
		defer close(consumerDone)
		if expected == 0 {
			close(caughtUp)
		}
		for ups := range mon.Updates() {
			if deliveries < expected {
				received[deliveries] = time.Now()
			}
			tr.updates(ups)
			deliveries++
			if deliveries == expected {
				close(caughtUp)
			}
		}
	}()

	// The warm-up is not on the schedule: each cycle is applied before the
	// next is sent, and the span's own counters start after it.
	for c := -w.Warmup(); c < 0; c++ {
		cyc := in.Next()
		if _, err := step(mon, w, cyc.TS, cyc.Arrivals, nil); err != nil {
			return fmt.Errorf("%s: warm-up cycle %d: %w", w.Name, c, err)
		}
	}
	out.Late = make([]time.Duration, 0, out.Cycles)
	var segs []segment
	var seg *segment
	every := segmentCycles(out.Cycles)
	next := in.Next()
	sp := beginSpan(mon, in, gen)
	start := time.Now().Add(period)
	for c := 0; c < out.Cycles; c++ {
		if c%every == 0 {
			segs, seg = nextSegment(segs, seg)
		}
		cyc := next
		due := start.Add(time.Duration(c) * period)
		SleepUntil(due)
		out.Late = append(out.Late, time.Since(due))
		err := mon.Ingest(cyc.TS, cyc.Arrivals)
		out.Attempted++
		out.Tuples += int64(cyc.Tuples())
		seg.cycles++
		seg.tuples += int64(cyc.Tuples())
		if err != nil {
			// A refused batch (ErrOverloaded included) is a failed
			// operation; the stream goes on, and the final check, which
			// counts the batch as applied, fails too.
			out.fail(fmt.Errorf("cycle %d: ingest: %w", c, err))
		}
		if c+1 < out.Cycles {
			// The next batch is made after the call, before the sleep.
			next = in.Next()
		}
	}
	out.Attempted++
	if err := mon.Flush(); err != nil {
		out.fail(fmt.Errorf("flush: %w", err))
	}
	// Flush hands the last delivery to the channel; give the consumer a
	// moment to take it. Missing deliveries are a failure, not a hang.
	select {
	case <-caughtUp:
	case <-time.After(2 * time.Second):
	}
	segs = lastSegment(segs, seg, every)
	sp.end(mon, out)
	out.check(w.checker(cfg, out), mon, in.live, inst.queries)

	if err := mon.Close(); err != nil {
		return fmt.Errorf("%s: close: %w", w.Name, err)
	}
	<-consumerDone
	out.Deliveries = deliveries
	out.Transcript = tr.sum()
	out.Attempted += 2
	if deliveries != expected {
		out.fail(fmt.Errorf("%d deliveries, reference pass %d", deliveries, expected))
	}
	if out.Transcript != ref.Transcript {
		out.fail(fmt.Errorf("delivered transcript %x, reference pass %x", out.Transcript, ref.Transcript))
	}
	out.CycleLatency = make([]time.Duration, 0, expected)
	for j := 0; j < min(deliveries, expected); j++ {
		if c := ref.Updating[j]; c >= 0 {
			d := received[j].Sub(start.Add(time.Duration(c) * period))
			out.CycleLatency = append(out.CycleLatency, d)
			if k := c / every; k < len(segs) {
				segs[k].latency = append(segs[k].latency, d)
			}
		}
	}
	out.timeMetrics(segs, false)

	if cfg.Detail {
		t0 := time.Now()
		restored, err := topkmon.Restore(inst.dir)
		if err != nil {
			return fmt.Errorf("%s: restore: %w", w.Name, err)
		}
		out.RestoreMillis = float64(time.Since(t0)) / 1e6
		go func() {
			for range restored.Updates() {
			}
		}()
		if err := restored.Close(); err != nil {
			return fmt.Errorf("%s: close restored: %w", w.Name, err)
		}
	}
	return nil
}

// timeMetrics derives the time metrics from the span's segments, deflated
// to the span's quiet pace (see SegmentCycles): cycle_p50_us is the median
// cycle latency, cpu_ns_per_tuple the process CPU time over the tuples
// applied, and on a closed loop ns_per_tuple the time spent in monitor calls
// over the same tuples.
//
// cycle_tail_us is the median over the segments of each one's tail
// percentile. On the closed loops that is the 99th: the plain 99th
// percentile of a span has a few dozen samples beyond it, which a handful of
// host stalls move by a fifth from run to run. On the paced loop it is the
// 80th percentile of due-to-delivery latency. Everything from the 85th
// percentile up is made by some thirty collections and a few disk stalls per
// span: over ten runs the spread was 12% at every percentile from the 50th
// to the 80th, 21% at the 85th, 45% at the 90th and 55% at the 99th, whatever
// the estimator. The 99th percentile is the per-layer
// pipeline.delivery_p99_us.
func (o *Outcome) timeMetrics(segs []segment, closed bool) {
	deflate(segs)
	tail := 99.0
	if !closed {
		tail = 80
	}
	var all, tails []time.Duration
	var busy, cpu time.Duration
	var tuples int64
	for _, s := range segs {
		all = append(all, s.latency...)
		tails = append(tails, Percentile(s.latency, tail))
		busy += s.busy
		cpu += s.cpu
		tuples += s.tuples
	}
	o.Metrics["cycle_p50_us"] = Micros(Percentile(all, 50))
	o.Metrics["cycle_tail_us"] = Micros(Percentile(tails, 50))
	o.Metrics["cpu_ns_per_tuple"] = float64(cpu) / float64(tuples)
	if closed {
		o.Metrics["ns_per_tuple"] = float64(busy) / float64(tuples)
	}
}
