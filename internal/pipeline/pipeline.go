// Package pipeline decouples stream ingestion from query maintenance: a
// Pipeline wraps any core.StreamMonitor — the single engine, the
// query-partitioned Sharded or the data-partitioned DataSharded — behind a
// non-blocking Ingest call, a bounded ingest queue, and an ordered delivery
// channel carrying each cycle's merged []core.Update. Distributed
// sliding-window monitors overlap communication with computation in exactly
// this way (Papapetrou et al.; Chan et al.); here the overlap is between
// the producer (batch construction, result consumption) and the processing
// cycles, and — for the query-partitioned sharded monitor — between the
// shards themselves.
//
// Two pipelining depths apply, depending on the wrapped monitor:
//
//   - *shard.Sharded (query partitioning): cycles are submitted through
//     StepAsync into bounded per-shard job queues, so a fast shard runs
//     several cycles ahead of a slow one; the delivery stage waits the
//     completion tickets in submission order and merges off the critical
//     path. Per-query maintenance is independent across shards, which is
//     what makes running shard s's cycle t+1 concurrently with shard r's
//     cycle t safe.
//   - the single engine and *shard.DataSharded: cycles apply synchronously
//     on the pipeline's runner goroutine (the data-partitioned router's
//     k-way merge is a per-cycle barrier across shards, so cycles cannot
//     overlap each other without breaking exactness). The pipeline still
//     overlaps ingestion and delivery with the cycles.
//
// Ordering and delivery guarantees, both layouts alike:
//
//   - Batches are applied in Ingest order, exactly once each. A full queue
//     makes Ingest wait; only an admission governor (Options.Admission)
//     loses data, by shedding a batch before it enters the queue — Ingest
//     then reports admission.ErrOverloaded and the batch is counted in
//     Stats.DroppedBatches.
//   - The Updates channel carries every non-empty cycle result in cycle
//     order — the same per-query Update sequence the synchronous Step
//     calls would have returned, which the differential suites assert
//     byte for byte.
//   - Register, Unregister, Result and the counter reads are barriers:
//     they run after every previously ingested batch has been applied, so
//     interleaving them with Ingest is equivalent to the same interleaving
//     with synchronous Step.
//   - Flush returns once every previously ingested batch has been applied
//     AND its updates handed to the Updates channel; Close does the same,
//     then closes the Updates channel and the wrapped monitor.
//
// The consumer contract: drain Updates (until it is closed) from a
// goroutine other than the ingesting one. Non-empty results are delivered
// with a blocking send, so an undrained channel eventually blocks Ingest,
// and Flush/Close block until the consumer catches up.
package pipeline

import (
	"errors"
	"fmt"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"topkmon/internal/admission"
	"topkmon/internal/core"
	"topkmon/internal/shard"
	"topkmon/internal/stream"
)

// ErrClosed is reported (possibly wrapped) by operations on a closed
// pipeline, so shutdown paths can errors.Is-distinguish an orderly close
// from a real fault.
var ErrClosed = errors.New("pipeline: closed")

// DefaultDepth is the queue depth used when Options.Depth is zero.
const DefaultDepth = 4

// Options configures a Pipeline.
type Options struct {
	// Depth bounds the ingest queue and the delivery channel. The sharded
	// fast path's per-shard job queues are bounded separately, at a fixed
	// depth (shard.jobQueueDepth), so raising Depth past that widens only
	// the router-side buffers. Zero means DefaultDepth. The depth is fixed
	// for the pipeline's lifetime; the largest occupancy ever reached is
	// reported in Stats.QueueHighWater.
	Depth int
	// DropLog, when non-nil, observes every batch the admission governor
	// sheds and the arrivals it strips in Critical — the hook the
	// checkpoint guard (internal/recovery) uses to write per-drop WAL
	// records, so a replayed transcript can account for the exact stream
	// events load shedding discarded. Called outside the pipeline's
	// internal lock, on the producer goroutine that offered the batch;
	// implementations may block or take their own locks.
	DropLog DropLogger
	// Admission, when non-nil, is the load-shedding governor consulted
	// before every batch enters the ingest queue. A Shed verdict rejects
	// the whole batch — the producer sees an error wrapping
	// admission.ErrOverloaded and the batch is counted in
	// Stats.DroppedBatches — and an AdmitDeletions verdict (Critical state)
	// strips the batch's arrivals while the cycle still runs. The pipeline
	// feeds the governor its drain, hot-shard and memory observations from
	// the runner goroutine.
	Admission *admission.Governor
	// AdmissionLog, when non-nil, observes the decision on every batch
	// offered while a governor is installed, exactly once per batch (a
	// batch refused because the pipeline is closed or has failed is not
	// reported: it had no admission fate). The overload differential
	// harness uses this to reconstruct the admitted subsequence. Called on
	// the producer goroutine, outside the pipeline's internal lock; must
	// not call back into the pipeline.
	AdmissionLog func(now int64, d admission.Decision)
}

// DropLogger receives the content of batches the admission governor shed
// (or the arrivals it stripped), in the shape they were ingested.
type DropLogger interface {
	LogDrop(now int64, isUpdate bool, arrivals []*stream.Tuple, deletions []uint64)
}

// asyncStepper is the fast path: the query-partitioned sharded monitor
// accepts cycle submissions without waiting for completion, letting shard
// cycles overlap each other.
type asyncStepper interface {
	StepAsync(now int64, arrivals []*stream.Tuple) (*shard.Ticket, error)
	StepUpdateAsync(now int64, arrivals []*stream.Tuple, deletions []uint64) (*shard.Ticket, error)
}

// job is one entry of the ingest queue: either a stream batch or a control
// operation to run on the runner goroutine (barrier ops, stop sentinel).
// Control jobs are exempt from the queue bound and are never dropped.
type job struct {
	// Batch fields.
	isBatch   bool
	isUpdate  bool
	now       int64
	arrivals  []*stream.Tuple
	deletions []uint64

	// Control fields.
	fn   func()
	done chan struct{}
	stop bool
}

// delivery is one entry of the runner→deliverer FIFO: a completed cycle
// (or its ticket, still in flight on the shards), a flush marker, or the
// stop sentinel.
type delivery struct {
	updates []core.Update
	err     error
	ticket  *shard.Ticket
	flush   chan error
	stop    bool
}

// Pipeline is the asynchronous ingestion front of a monitor. It implements
// core.StreamMonitor — Step/StepUpdate excepted, which return an error
// directing callers to Ingest — and is safe for concurrent use.
type Pipeline struct {
	mon   core.StreamMonitor
	depth int

	// mu guards the ingest queue, the closed flag and the recorded error;
	// cond wakes blocked producers and the runner.
	mu      sync.Mutex //topk:lockrank 40 leaf
	cond    *sync.Cond
	queue   []*job
	batches int // batch jobs currently queued (control jobs are exempt)
	closed  bool
	err     error // first cycle error; sticky

	dropped       atomic.Int64
	droppedTuples atomic.Int64
	highWater     atomic.Int64
	dropLog       DropLogger

	// gov is the admission governor (nil when disabled); admLog its
	// decision hook. qBatches mirrors batches (maintained under mu, read
	// lock-free) so the admission decision and the runner's drain
	// observation see queue occupancy without taking mu a second time.
	// appliedBatches is runner-private and spaces the memory-watermark
	// samples.
	gov            *admission.Governor
	admLog         func(now int64, d admission.Decision)
	qBatches       atomic.Int64
	appliedBatches int

	deliveries chan delivery
	out        chan []core.Update

	delivererDone chan struct{}
	closeOnce     sync.Once
	closeErr      error
}

var _ core.StreamMonitor = (*Pipeline)(nil)

// New wraps mon in a pipeline and starts its runner and delivery
// goroutines. The pipeline owns the monitor: Close closes it.
func New(mon core.StreamMonitor, opts Options) *Pipeline {
	depth := opts.Depth
	if depth <= 0 {
		depth = DefaultDepth
	}
	p := &Pipeline{
		mon:     mon,
		depth:   depth,
		dropLog: opts.DropLog,
		gov:     opts.Admission,
		admLog:  opts.AdmissionLog,
		// Depth bounds the delivery buffers too (see Options.Depth).
		deliveries:    make(chan delivery, depth),
		out:           make(chan []core.Update, depth),
		delivererDone: make(chan struct{}),
	}
	p.cond = sync.NewCond(&p.mu)
	go p.runner()
	go p.deliverer()
	return p
}

// Depth returns the queue depth.
func (p *Pipeline) Depth() int { return p.depth }

// HighWater returns the largest number of batches ever queued at once.
func (p *Pipeline) HighWater() int64 { return p.highWater.Load() }

// Admission returns the governor fronting this pipeline, nil when
// admission control is disabled.
func (p *Pipeline) Admission() *admission.Governor { return p.gov }

// Updates returns the ordered delivery channel: one non-empty []Update per
// cycle that changed any result, closed by Close after the final delivery.
func (p *Pipeline) Updates() <-chan []core.Update { return p.out }

// Drain discards deliveries on a background goroutine, for callers that
// read results through the barrier API and don't need per-cycle deltas —
// without it the bounded delivery channel eventually backpressures
// ingestion. The returned channel closes once Updates closes (after
// Close), joining the drainer.
func (p *Pipeline) Drain() <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range p.out {
		}
	}()
	return done
}

// Dropped returns the number of batches the admission governor shed.
func (p *Pipeline) Dropped() int64 { return p.dropped.Load() }

// DroppedTuples returns the number of stream events lost to admission
// control: arrivals plus explicit deletions of the shed batches, plus the
// arrivals stripped in Critical — the exact loss figure, independent of
// how batch sizes varied.
func (p *Pipeline) DroppedTuples() int64 { return p.droppedTuples.Load() }

// Ingest enqueues one append-only cycle, waiting for queue space when the
// pipeline is at depth. With an admission governor installed the batch
// may instead be shed (an error wrapping admission.ErrOverloaded) or have
// its arrivals stripped. The batch is applied asynchronously; its updates
// arrive on Updates. The arrivals slice is owned by the pipeline from
// this call on.
func (p *Pipeline) Ingest(now int64, arrivals []*stream.Tuple) error {
	return p.enqueueBatch(&job{isBatch: true, now: now, arrivals: arrivals})
}

// IngestUpdate is Ingest for the explicit-deletion stream model.
func (p *Pipeline) IngestUpdate(now int64, arrivals []*stream.Tuple, deletions []uint64) error {
	return p.enqueueBatch(&job{isBatch: true, isUpdate: true, now: now, arrivals: arrivals, deletions: deletions})
}

func (p *Pipeline) enqueueBatch(j *job) error {
	// The admission decision runs before the queue is touched: a shed
	// batch never contends for a slot, and the governor sees the
	// occupancy the batch would have joined.
	dec := admission.Admit
	if p.gov != nil {
		var done bool
		var err error
		dec, done, err = p.admitBatch(j)
		if done {
			return err
		}
	}
	err := p.enqueueBatchLocked(j)
	if err == nil && p.gov != nil && p.admLog != nil {
		p.admLog(j.now, dec)
	}
	return err
}

// admitBatch consults the governor about one offered batch. done reports
// that the batch must not be enqueued: the producer sees err, an
// ErrOverloaded wrap for a shed batch. An AdmitDeletions verdict strips
// the batch's arrivals in place (drop-logging them) and lets it proceed.
func (p *Pipeline) admitBatch(j *job) (dec admission.Decision, done bool, err error) {
	dec = p.gov.Admit(int(p.qBatches.Load()), p.depth, len(j.arrivals), len(j.deletions))
	switch dec {
	case admission.Shed:
		// A closed (or failed) pipeline reports its terminal error, not a
		// drop: the batch was never going to be applied either way, and
		// counting it as shed would misattribute the loss.
		p.mu.Lock()
		closed, cycleErr := p.closed, p.err
		p.mu.Unlock()
		if closed {
			return dec, true, ErrClosed
		}
		if cycleErr != nil {
			return dec, true, cycleErr
		}
		p.dropped.Add(1)
		p.droppedTuples.Add(int64(len(j.arrivals) + len(j.deletions)))
		if p.admLog != nil {
			p.admLog(j.now, admission.Shed)
		}
		if p.dropLog != nil {
			p.dropLog.LogDrop(j.now, j.isUpdate, j.arrivals, j.deletions)
		}
		return dec, true, fmt.Errorf("pipeline: batch at t=%d shed by the admission governor (state %s): %w",
			j.now, p.gov.State(), admission.ErrOverloaded)
	case admission.AdmitDeletions:
		if len(j.arrivals) > 0 {
			p.droppedTuples.Add(int64(len(j.arrivals)))
			if p.dropLog != nil {
				p.dropLog.LogDrop(j.now, j.isUpdate, j.arrivals, nil)
			}
			j.arrivals = nil
		}
	}
	return dec, false, nil
}

func (p *Pipeline) enqueueBatchLocked(j *job) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.closed {
			return ErrClosed
		}
		if p.err != nil {
			return p.err
		}
		if p.batches < p.depth {
			break
		}
		p.cond.Wait()
	}
	p.batches++
	p.qBatches.Store(int64(p.batches))
	if hw := int64(p.batches); hw > p.highWater.Load() {
		p.highWater.Store(hw)
	}
	p.queue = append(p.queue, j)
	p.cond.Broadcast()
	return nil
}

// call runs fn on the runner goroutine after every previously queued batch
// has been applied — the barrier primitive behind Register, Result, Flush
// and the counter reads.
//
//topk:blocking
func (p *Pipeline) call(fn func()) error {
	done := make(chan struct{})
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	p.queue = append(p.queue, &job{fn: fn, done: done})
	p.cond.Broadcast()
	p.mu.Unlock()
	<-done
	return nil
}

// read is call with a closed-pipeline fallback: after Close the wrapped
// monitor is quiescent, so counter reads run directly, preserving the
// shard monitors' reads-keep-working-after-Close semantics. The fallback
// waits for the drain to finish first — closed is set before the runner
// has necessarily applied the queued batches, and a direct read in that
// window would race with the in-flight cycle.
func (p *Pipeline) read(fn func()) {
	if err := p.call(fn); err != nil {
		<-p.delivererDone
		fn()
	}
}

// runner drains the ingest queue: batches are applied (or, on the sharded
// fast path, submitted) in order; control jobs run on this goroutine,
// which is what makes them barriers.
func (p *Pipeline) runner() {
	for {
		p.mu.Lock()
		for len(p.queue) == 0 {
			p.cond.Wait()
		}
		j := p.queue[0]
		copy(p.queue, p.queue[1:])
		p.queue[len(p.queue)-1] = nil
		p.queue = p.queue[:len(p.queue)-1]
		if j.isBatch {
			p.batches--
			p.qBatches.Store(int64(p.batches))
		}
		failed := p.err != nil
		p.cond.Broadcast()
		p.mu.Unlock()

		switch {
		case j.stop:
			p.deliveries <- delivery{stop: true}
			return
		case j.fn != nil:
			j.fn()
			close(j.done)
		default:
			if failed {
				// A cycle failed: like the synchronous monitors, the engine
				// state is undefined; the error is sticky and batches not yet
				// started are discarded. (On the async fast path, cycles
				// submitted before the failure surfaced at the delivery stage
				// may still run — undefined state either way.)
				continue
			}
			cycleNS := p.apply(j)
			if p.gov != nil {
				p.observeGovernor(cycleNS)
			}
		}
	}
}

// memSampleEvery spaces the governor's memory-watermark observations: the
// engine footprint walk is not free (on the sharded monitors it drains the
// shard queues), so the runner samples it every memSampleEvery applied
// batches rather than per cycle. Memory moves on window scale, not batch
// scale, so the lag is bounded and harmless.
const memSampleEvery = 16

// observeGovernor feeds the runner's post-apply signals to the admission
// governor: the queue occupancy and cycle time it just drained, the
// busiest shard's backlog when the wrapped monitor exposes one, and —
// every memSampleEvery batches — the engine footprint plus the process
// heap. Runs on the runner goroutine with no pipeline locks held.
func (p *Pipeline) observeGovernor(cycleNS int64) {
	p.gov.ObserveDrain(int(p.qBatches.Load()), p.depth, cycleNS)
	if ls, ok := p.mon.(interface{ LoadSignal() (int, int, int64) }); ok {
		depth, capacity, ewmaNS := ls.LoadSignal()
		p.gov.ObserveShard(depth, capacity, ewmaNS)
	}
	p.appliedBatches++
	if p.appliedBatches%memSampleEvery == 0 {
		p.gov.ObserveMemory(p.mon.MemoryBytes(), heapInUseBytes())
	}
}

// heapMetric is the runtime/metrics gauge backing the governor's
// process-memory signal: bytes of live heap objects, the figure that
// actually grows when the engine's window state does.
const heapMetric = "/memory/classes/heap/objects:bytes"

// heapInUseBytes reads the process-heap figure for the memory watermark.
func heapInUseBytes() int64 {
	s := [1]metrics.Sample{{Name: heapMetric}}
	metrics.Read(s[:])
	if s[0].Value.Kind() == metrics.KindUint64 {
		return int64(s[0].Value.Uint64())
	}
	return 0
}

// apply runs one batch and returns the cycle's wall time in nanoseconds on
// the synchronous path (zero on the async fast path, where submission
// returns before the shards finish and the hot-shard EWMA carries the
// latency signal instead). The sharded fast path submits the cycle and
// hands its ticket to the delivery stage, freeing this goroutine to apply
// the next batch while the shards still work; other monitors process the
// cycle here, synchronously.
func (p *Pipeline) apply(j *job) int64 {
	if as, ok := p.mon.(asyncStepper); ok {
		var t *shard.Ticket
		var err error
		if j.isUpdate {
			t, err = as.StepUpdateAsync(j.now, j.arrivals, j.deletions)
		} else {
			t, err = as.StepAsync(j.now, j.arrivals)
		}
		if err != nil {
			p.recordErr(err)
		}
		p.deliveries <- delivery{ticket: t, err: err}
		return 0
	}
	start := time.Now()
	var updates []core.Update
	var err error
	if j.isUpdate {
		updates, err = p.mon.StepUpdate(j.now, j.arrivals, j.deletions)
	} else {
		updates, err = p.mon.Step(j.now, j.arrivals)
	}
	cycleNS := time.Since(start).Nanoseconds()
	if err != nil {
		// Record here, on the runner, not only at the delivery stage: the
		// next queued batch is dequeued immediately after this return, and
		// it must see the failure instead of stepping an undefined-state
		// engine.
		p.recordErr(err)
	}
	p.deliveries <- delivery{updates: updates, err: err}
	return cycleNS
}

// deliverer resolves completed cycles in submission order and forwards
// non-empty update batches to the output channel. Waiting the sharded
// tickets here — off the runner goroutine — is what lets cycle t+1 start
// on the shards while cycle t's fan-in is still being merged.
func (p *Pipeline) deliverer() {
	defer close(p.delivererDone)
	for d := range p.deliveries {
		switch {
		case d.stop:
			close(p.out)
			return
		case d.flush != nil:
			p.mu.Lock()
			err := p.err
			p.mu.Unlock()
			d.flush <- err
		default:
			updates, err := d.updates, d.err
			if err == nil && d.ticket != nil {
				updates, err = d.ticket.Wait()
			}
			if err != nil {
				p.recordErr(err)
				continue
			}
			// Async fast path only: suppress deliveries from cycles that ran
			// after a failure — cycles t+1.. may already have been submitted
			// when cycle t's ticket surfaces its error here, and their
			// results were computed on undefined-state engines. Synchronous
			// deliveries need no check: the runner stops applying batches
			// once the error is recorded, so any queued sync delivery was
			// computed before the failure and is legitimate.
			if d.ticket != nil {
				p.mu.Lock()
				failed := p.err != nil
				p.mu.Unlock()
				if failed {
					continue
				}
			}
			if len(updates) > 0 {
				p.out <- updates
			}
		}
	}
}

// recordErr stores the first cycle error and wakes blocked producers so
// they observe it instead of waiting forever.
func (p *Pipeline) recordErr(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Flush blocks until every batch ingested before the call has been applied
// and its updates delivered to the Updates channel, then returns the first
// cycle error if any occurred. Concurrent and repeated flushes are safe.
func (p *Pipeline) Flush() error {
	ch := make(chan error, 1)
	if err := p.call(func() { p.deliveries <- delivery{flush: ch} }); err != nil {
		return err
	}
	return <-ch
}

// Close drains the pipeline — every batch ingested before the call is
// applied and delivered — then closes the Updates channel and the wrapped
// monitor. Producers blocked in Ingest are released with an error; calling
// Close twice is safe. Counter reads keep working afterwards.
func (p *Pipeline) Close() error {
	p.closeOnce.Do(func() {
		p.mu.Lock()
		p.closed = true
		p.queue = append(p.queue, &job{stop: true})
		p.cond.Broadcast()
		p.mu.Unlock()
		<-p.delivererDone
		p.mu.Lock()
		cycleErr := p.err
		p.mu.Unlock()
		monErr := p.mon.Close()
		if cycleErr != nil {
			p.closeErr = cycleErr
		} else {
			p.closeErr = monErr
		}
	})
	return p.closeErr
}

// Step implements core.StreamMonitor by rejection: pipelined monitors
// ingest asynchronously.
func (p *Pipeline) Step(int64, []*stream.Tuple) ([]core.Update, error) {
	return nil, fmt.Errorf("pipeline: use Ingest and the Updates channel instead of Step")
}

// StepUpdate implements core.StreamMonitor by rejection, as Step.
func (p *Pipeline) StepUpdate(int64, []*stream.Tuple, []uint64) ([]core.Update, error) {
	return nil, fmt.Errorf("pipeline: use IngestUpdate and the Updates channel instead of StepUpdate")
}

// Register implements core.Monitor as a barrier: the query's initial
// result reflects every previously ingested batch, exactly as if the same
// sequence had run through synchronous Step calls.
func (p *Pipeline) Register(spec core.QuerySpec) (core.QueryID, error) {
	var id core.QueryID
	var err error
	if cerr := p.call(func() { id, err = p.mon.Register(spec) }); cerr != nil {
		return 0, cerr
	}
	return id, err
}

// Unregister implements core.Monitor as a barrier.
func (p *Pipeline) Unregister(id core.QueryID) error {
	var err error
	if cerr := p.call(func() { err = p.mon.Unregister(id) }); cerr != nil {
		return cerr
	}
	return err
}

// Result implements core.Monitor as a barrier: the returned result
// reflects every previously ingested batch (whose updates may still be in
// flight on the Updates channel).
func (p *Pipeline) Result(id core.QueryID) ([]core.Entry, error) {
	var res []core.Entry
	var err error
	if cerr := p.call(func() { res, err = p.mon.Result(id) }); cerr != nil {
		return nil, cerr
	}
	return res, err
}

// Stats implements core.StreamMonitor as a barrier read, adding the
// pipeline's shed-batch counter and queue high-water mark.
func (p *Pipeline) Stats() core.Stats {
	var s core.Stats
	p.read(func() { s = p.mon.Stats() })
	s.DroppedBatches = p.dropped.Load()
	s.DroppedTuples = p.droppedTuples.Load()
	s.QueueHighWater = p.highWater.Load()
	return s
}

// MemoryBytes implements core.Monitor as a barrier read.
func (p *Pipeline) MemoryBytes() int64 {
	var b int64
	p.read(func() { b = p.mon.MemoryBytes() })
	return b
}

// ShardMemoryBytes forwards a sharded wrapped monitor's per-shard
// footprints as a barrier read (nil for unsharded monitors), so the
// harness's max-per-shard space metric survives pipelining.
func (p *Pipeline) ShardMemoryBytes() []int64 {
	var per []int64
	p.read(func() {
		if sh, ok := p.mon.(interface{ ShardMemoryBytes() []int64 }); ok {
			per = sh.ShardMemoryBytes()
		}
	})
	return per
}

// ShardLoads forwards a sharded wrapped monitor's per-shard load figures
// as a barrier read (nil for unsharded monitors), so load observability
// survives pipelining.
func (p *Pipeline) ShardLoads() []shard.ShardLoad {
	var per []shard.ShardLoad
	p.read(func() {
		if sh, ok := p.mon.(interface{ ShardLoads() []shard.ShardLoad }); ok {
			per = sh.ShardLoads()
		}
	})
	return per
}

// NumPoints implements core.StreamMonitor as a barrier read.
func (p *Pipeline) NumPoints() int {
	var n int
	p.read(func() { n = p.mon.NumPoints() })
	return n
}

// NumQueries implements core.StreamMonitor as a barrier read.
func (p *Pipeline) NumQueries() int {
	var n int
	p.read(func() { n = p.mon.NumQueries() })
	return n
}

// Now implements core.StreamMonitor as a barrier read.
func (p *Pipeline) Now() int64 {
	var now int64
	p.read(func() { now = p.mon.Now() })
	return now
}

// CheckInfluence verifies the influence-list invariant on the wrapped
// monitor behind a barrier, so stress tests can assert it between cycles
// while ingestion continues around them. Monitors without an invariant
// checker report nil.
func (p *Pipeline) CheckInfluence() error {
	var err error
	if cerr := p.call(func() {
		if c, ok := p.mon.(interface{ CheckInfluence() error }); ok {
			err = c.CheckInfluence()
		}
	}); cerr != nil {
		return cerr
	}
	return err
}
