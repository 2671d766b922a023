// Package shard runs N independent core.Engine instances behind the same
// monitoring interface, turning the paper's single-server model into a
// concurrent engine without changing any algorithmic result. Two layouts
// are provided, following the partition-and-merge pattern of distributed
// sliding-window monitoring (Papapetrou et al.; Chan et al.):
//
//   - Sharded (New, this file) partitions the *query set*: each registered
//     query lives on the shard its id hashes to, while every processing
//     cycle's arrival/expiration batch is broadcast to all shards in
//     parallel. Each shard is a complete engine — its own grid index,
//     window and query table — owned by exactly one goroutine, so the
//     core algorithms run unmodified and unlocked. Because the per-query
//     maintenance of TMA/SMA is independent across queries, a query's
//     result trajectory on its shard is bit-identical to what the single
//     engine would produce on the same stream; the router only has to
//     translate per-shard query ids back to global ones and merge the
//     per-shard update fan-in by query id. The trade-off is explicit: the
//     tuple index is replicated per shard (memory and ingest work scale
//     with the shard count), in exchange for query maintenance — the
//     dominant cost at large Q, see Figure 18 — being spread over as many
//     cores as there are shards.
//
//   - DataSharded (NewData, data.go) partitions the *stream*: tuples are
//     hash-partitioned across shards, every query runs on every shard
//     against its O(N/shards) slice, and the router k-way merges the
//     per-shard partial results into the exact global answer. Index
//     memory stays O(N) in total regardless of the shard count, at the
//     price of a router-side merge on every cycle.
//
// Both layouts place by hash alone (placement.go): nothing moves between
// shards once it has arrived.
//
// The differential tests in shard_test.go and data_test.go verify both
// layouts emit update streams identical to the single engine's for every
// policy, query type and stream mode.
package shard

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"topkmon/internal/core"
	"topkmon/internal/stream"
)

// ErrStopped is reported (possibly wrapped) by mutating operations on a
// monitor whose workers have been stopped by Close, so shutdown and
// recovery paths can errors.Is-distinguish an orderly stop from a real
// fault. Counter reads keep working after Close and never report it.
var ErrStopped = errors.New("shard: monitor stopped")

// route locates a query: the shard that owns it and its id local to that
// shard's engine.
type route struct {
	shard int
	local core.QueryID
}

// Sharded is a concurrent monitor running one core.Engine per shard. It
// implements core.StreamMonitor and, unlike the single engine, is safe for
// concurrent use: Register, Unregister, Result and Stats may be called
// while a cycle runs. Cycles themselves are serialized — Step/StepUpdate
// model the arrival of one stream batch, which is inherently ordered.
type Sharded struct {
	workers []*worker

	// regMu serializes registrations end to end (id allocation, engine
	// call, rollback), making the id rollback on a rejected spec exact:
	// ids never burn, so id assignment matches the single engine even
	// under concurrent Register calls racing with rejected specs.
	regMu sync.Mutex //topk:lockrank 10

	// mu guards the routing table.
	mu     sync.Mutex //topk:lockrank 40 leaf
	nextID core.QueryID
	routes map[core.QueryID]route

	// closeMu guards the worker channels' lifetime: every operation holds
	// it for reading while it may send jobs, Close holds it for writing
	// while closing the channels. closed is written under the write lock.
	closeMu sync.RWMutex //topk:lockrank 30
	closed  bool

	// stepMu serializes processing cycles.
	stepMu sync.Mutex //topk:lockrank 20
}

var _ core.StreamMonitor = (*Sharded)(nil)

// jobQueueDepth bounds each shard's ingest channel. Synchronous cycles
// never queue more than one job per worker (they wait for the fan-in), so
// the buffer is invisible to them; pipelined ingestion (internal/pipeline)
// uses the headroom to let a fast shard run several cycles ahead of a slow
// one before backpressure blocks the submitter.
const jobQueueDepth = 8

// worker owns one engine. Every access to eng and localToGlobal happens on
// the worker goroutine, which drains jobs sequentially — the channel is the
// only synchronization the engine needs.
type worker struct {
	eng           *core.Engine
	jobs          chan func()
	stopped       chan struct{}
	localToGlobal map[core.QueryID]core.QueryID
	// ewmaNS smooths the shard's per-cycle wall time (alpha 0.2). Written
	// on the worker goroutine only (cycle jobs); atomic because the
	// lock-free LoadSignal read crosses goroutines — the admission
	// governor samples it from the pipeline runner while cycles run.
	ewmaNS atomic.Int64
}

// noteCycle folds one cycle's wall time into the worker's EWMA. It runs on
// the worker goroutine (the only writer).
func (w *worker) noteCycle(d time.Duration) {
	ns := d.Nanoseconds()
	prev := w.ewmaNS.Load()
	if prev == 0 {
		w.ewmaNS.Store(ns)
		return
	}
	w.ewmaNS.Store(prev + (ns-prev)/5)
}

func (w *worker) loop() {
	for job := range w.jobs {
		job()
	}
	close(w.stopped)
}

// call runs fn on the worker goroutine and waits for it to finish.
//
//topk:blocking
func (w *worker) call(fn func()) {
	done := make(chan struct{})
	w.jobs <- func() {
		fn()
		close(done)
	}
	<-done
}

// New builds a sharded monitor with n shards, each configured by opts.
func New(opts core.Options, n int) (*Sharded, error) {
	return newWithFactory(opts, n, core.NewEngine)
}

// newWithFactory is New with an injectable engine constructor, so tests
// can exercise the mid-construction failure path (identical options
// otherwise fail deterministically on the first shard or none at all).
func newWithFactory(opts core.Options, n int, factory func(core.Options) (*core.Engine, error)) (*Sharded, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", n)
	}
	workers, err := spawnWorkers(opts, n, factory)
	if err != nil {
		return nil, err
	}
	return &Sharded{workers: workers, routes: make(map[core.QueryID]route)}, nil
}

// spawnWorkers builds n engines and starts one worker goroutine per
// engine. On a mid-construction failure the workers already started are
// torn down completely — job channels closed and goroutines awaited — so a
// failed constructor leaks nothing.
func spawnWorkers(opts core.Options, n int, factory func(core.Options) (*core.Engine, error)) ([]*worker, error) {
	workers := make([]*worker, n)
	for i := range workers {
		eng, err := factory(opts)
		if err != nil {
			for _, w := range workers[:i] {
				close(w.jobs)
			}
			for _, w := range workers[:i] {
				<-w.stopped
			}
			return nil, err
		}
		w := &worker{
			eng:           eng,
			jobs:          make(chan func(), jobQueueDepth),
			stopped:       make(chan struct{}),
			localToGlobal: make(map[core.QueryID]core.QueryID),
		}
		workers[i] = w
		go w.loop()
	}
	return workers, nil
}

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.workers) }

// Options returns the engine options every shard was constructed with.
func (s *Sharded) Options() core.Options {
	var opts core.Options
	s.callShard0(func(e *core.Engine) { opts = e.Options() })
	return opts
}

// Barrier runs fn against every shard engine in shard order, each call
// executing on its worker goroutine with processing cycles serialized
// out — the coordinated quiescent point the checkpoint writer and the
// restore path operate at. The first error stops the sweep.
func (s *Sharded) Barrier(fn func(i int, eng *core.Engine) error) error {
	s.stepMu.Lock()
	defer s.stepMu.Unlock()
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return ErrStopped
	}
	for i, w := range s.workers {
		var err error
		w.call(func() { err = fn(i, w.eng) })
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// QueryRoute is one routing-table entry in exportable form: the global
// query id, the shard owning the query, and its id local to that shard's
// engine.
type QueryRoute struct {
	Global core.QueryID
	Shard  int
	Local  core.QueryID
}

// ExportRouting snapshots the router state a checkpoint must carry: the
// global id watermark and every registered query's route, sorted by
// global id.
func (s *Sharded) ExportRouting() (core.QueryID, []QueryRoute) {
	s.mu.Lock()
	defer s.mu.Unlock()
	routes := make([]QueryRoute, 0, len(s.routes))
	for g, r := range s.routes {
		routes = append(routes, QueryRoute{Global: g, Shard: r.shard, Local: r.local})
	}
	slices.SortFunc(routes, func(a, b QueryRoute) int { return cmp.Compare(a.Global, b.Global) })
	return s.nextID, routes
}

// RestoreRouting reinstates an exported routing table on a freshly built
// monitor whose shard engines already hold the corresponding queries at
// the recorded local ids (the checkpoint restore path): the router-side
// routes, plus each worker's local→global translation table. Routes are
// reinstated as recorded, not re-derived from the hash, so a lineage
// whose queries sit elsewhere (written by an older placement policy)
// restores them in place.
func (s *Sharded) RestoreRouting(next core.QueryID, routes []QueryRoute) error {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return ErrStopped
	}
	perShard := make([]map[core.QueryID]core.QueryID, len(s.workers))
	for i := range perShard {
		perShard[i] = make(map[core.QueryID]core.QueryID)
	}
	s.mu.Lock()
	for _, r := range routes {
		if r.Shard < 0 || r.Shard >= len(s.workers) {
			s.mu.Unlock()
			return fmt.Errorf("shard: route for query %d names shard %d of %d", r.Global, r.Shard, len(s.workers))
		}
		if _, dup := s.routes[r.Global]; dup {
			s.mu.Unlock()
			return fmt.Errorf("shard: duplicate route for query %d", r.Global)
		}
		s.routes[r.Global] = route{shard: r.Shard, local: r.Local}
		perShard[r.Shard][r.Local] = r.Global
	}
	s.nextID = next
	s.mu.Unlock()
	for i, w := range s.workers {
		m := perShard[i]
		w.call(func() {
			for local, global := range m {
				w.localToGlobal[local] = global
			}
		})
	}
	return nil
}

// Register implements core.Monitor. Global query ids are assigned in
// registration order (matching the single engine) and hashed to a shard,
// whose engine computes the initial result. Registrations are serialized
// by regMu so a rejected spec rolls its id back exactly — the documented
// "ids match the single engine" property holds even when concurrent
// registrations race with rejections.
func (s *Sharded) Register(spec core.QuerySpec) (core.QueryID, error) {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return 0, ErrStopped
	}
	s.mu.Lock()
	global := s.nextID
	s.nextID++
	s.mu.Unlock()
	si := shardOf(global, len(s.workers))
	w := s.workers[si]
	var local core.QueryID
	var err error
	w.call(func() {
		local, err = w.eng.Register(spec)
		if err == nil {
			w.localToGlobal[local] = global
		}
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		// Exact rollback: regMu guarantees no other registration allocated
		// an id in between, so the decrement always reclaims `global`.
		s.nextID--
		return 0, err
	}
	s.routes[global] = route{shard: si, local: local}
	return global, nil
}

// Unregister implements core.Monitor.
func (s *Sharded) Unregister(id core.QueryID) error {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return ErrStopped
	}
	s.mu.Lock()
	r, ok := s.routes[id]
	if ok {
		delete(s.routes, id)
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("shard: unknown query %d", id)
	}
	w := s.workers[r.shard]
	var err error
	w.call(func() {
		delete(w.localToGlobal, r.local)
		err = w.eng.Unregister(r.local)
	})
	return err
}

// Result implements core.Monitor.
func (s *Sharded) Result(id core.QueryID) ([]core.Entry, error) {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return nil, ErrStopped
	}
	s.mu.Lock()
	r, ok := s.routes[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("shard: unknown query %d", id)
	}
	w := s.workers[r.shard]
	var res []core.Entry
	var err error
	w.call(func() {
		res, err = w.eng.Result(r.local)
	})
	return res, err
}

// Step implements core.Monitor: the arrival batch is broadcast to every
// shard, the shards process the cycle in parallel, and the per-shard
// update streams are merged by global query id.
func (s *Sharded) Step(now int64, arrivals []*stream.Tuple) ([]core.Update, error) {
	return s.cycle(func(e *core.Engine) ([]core.Update, error) {
		return e.Step(now, arrivals)
	})
}

// StepUpdate implements core.StreamMonitor for the explicit-deletion model.
func (s *Sharded) StepUpdate(now int64, arrivals []*stream.Tuple, deletions []uint64) ([]core.Update, error) {
	return s.cycle(func(e *core.Engine) ([]core.Update, error) {
		return e.StepUpdate(now, arrivals, deletions)
	})
}

// shardResult is one shard's contribution to a cycle.
type shardResult struct {
	updates []core.Update
	err     error
}

// Ticket is the completion handle of an asynchronously submitted cycle
// (StepAsync / StepUpdateAsync). The shards process the cycle on their own
// goroutines; Wait blocks until every shard has finished and returns the
// merged update batch — exactly what the synchronous Step would have
// returned for the same cycle. Tickets of successive cycles must be waited
// in submission order by whoever needs the synchronous delivery order; the
// ingestion pipeline's delivery stage does exactly that.
type Ticket struct {
	wg      sync.WaitGroup
	results []shardResult
}

// Wait blocks until the cycle has completed on every shard and returns the
// merged, globally ordered update batch. It may be called multiple times.
func (t *Ticket) Wait() ([]core.Update, error) {
	t.wg.Wait()
	return mergeShardUpdates(t.results)
}

// mergeShardUpdates merges per-shard update fan-in into the single engine's
// global ordering. On error the first failing shard's error is returned;
// like the single engine, a mid-cycle validation failure leaves the monitor
// in an undefined state.
//
//topk:deterministic
func mergeShardUpdates(results []shardResult) ([]core.Update, error) {
	total := 0
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		total += len(r.updates)
	}
	if total == 0 {
		return nil, nil
	}
	merged := make([]core.Update, 0, total)
	for _, r := range results {
		merged = append(merged, r.updates...)
	}
	// Global ids are unique across shards, so sorting by id restores the
	// single engine's global ordering regardless of which shard holds
	// which query.
	slices.SortFunc(merged, func(a, b core.Update) int { return cmp.Compare(a.Query, b.Query) })
	return merged, nil
}

// submit enqueues one processing cycle into every shard's bounded job
// queue and returns without waiting for completion. Shards only ever read
// the tuples, so sharing the batch slice across goroutines is safe.
// Callers hold stepMu, which orders submissions; per-worker job queues are
// FIFO, so every shard sees cycles (and the query operations interleaved
// with them) in the same order.
func (s *Sharded) submit(step func(*core.Engine) ([]core.Update, error)) (*Ticket, error) {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return nil, ErrStopped
	}
	t := &Ticket{results: make([]shardResult, len(s.workers))}
	t.wg.Add(len(s.workers))
	for i, w := range s.workers {
		w.jobs <- func() {
			defer t.wg.Done()
			start := time.Now()
			updates, err := step(w.eng)
			w.noteCycle(time.Since(start))
			if err == nil {
				// Translate shard-local query ids to global ones while still
				// on the worker goroutine (localToGlobal is worker-owned).
				for j := range updates {
					updates[j].Query = w.localToGlobal[updates[j].Query]
				}
			}
			t.results[i] = shardResult{updates, err}
		}
	}
	return t, nil
}

// cycle runs one synchronous processing cycle: submit plus wait, with
// stepMu held end to end so cycles are fully serialized.
func (s *Sharded) cycle(step func(*core.Engine) ([]core.Update, error)) ([]core.Update, error) {
	s.stepMu.Lock()
	defer s.stepMu.Unlock()
	t, err := s.submit(step)
	if err != nil {
		return nil, err
	}
	return t.Wait()
}

// StepAsync submits one append-only cycle without waiting for the shards
// to process it. Submissions are serialized (stepMu) but return as soon as
// the cycle is enqueued on every shard's bounded job queue — a fast shard
// may run several cycles ahead of a slow one, which is the overlap the
// ingestion pipeline exploits. When a shard's queue is full the submission
// blocks: that is the per-shard backpressure bound. The returned Ticket
// yields the cycle's merged updates; callers needing the synchronous
// delivery order must Wait tickets in submission order.
func (s *Sharded) StepAsync(now int64, arrivals []*stream.Tuple) (*Ticket, error) {
	s.stepMu.Lock()
	defer s.stepMu.Unlock()
	return s.submit(func(e *core.Engine) ([]core.Update, error) {
		return e.Step(now, arrivals)
	})
}

// StepUpdateAsync is StepAsync for the explicit-deletion stream model.
func (s *Sharded) StepUpdateAsync(now int64, arrivals []*stream.Tuple, deletions []uint64) (*Ticket, error) {
	s.stepMu.Lock()
	defer s.stepMu.Unlock()
	return s.submit(func(e *core.Engine) ([]core.Update, error) {
		return e.StepUpdate(now, arrivals, deletions)
	})
}

// checkInfluenceAll runs core.Engine.CheckInfluence on every shard engine
// through the monitor's broadcast — each check executes atomically on its
// worker goroutine, serialized against queued cycles — and returns the
// first failure. Shared by both shard layouts.
func checkInfluenceAll(n int, broadcast func(func(int, *core.Engine))) error {
	errs := make([]error, n)
	broadcast(func(i int, e *core.Engine) {
		errs[i] = e.CheckInfluence()
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// CheckInfluence verifies the influence-list invariant on every shard
// engine, continuously checkable from stress and differential tests.
func (s *Sharded) CheckInfluence() error {
	return checkInfluenceAll(len(s.workers), s.broadcast)
}

// Stats implements core.StreamMonitor, aggregating across shards: the
// stream-level counters Arrivals and Expirations are identical on every
// shard (the batch is broadcast) and reported once, while query-attributed
// counters — influence events, recomputations, processed cells, skyband
// samples, result updates — are summed, since each shard serves a disjoint
// query subset.
func (s *Sharded) Stats() core.Stats {
	per := make([]core.Stats, len(s.workers))
	s.broadcast(func(i int, e *core.Engine) {
		per[i] = e.Stats()
	})
	agg := per[0]
	for _, st := range per[1:] {
		agg.InfluenceEvents += st.InfluenceEvents
		agg.Recomputes += st.Recomputes
		agg.InitialComputations += st.InitialComputations
		agg.CellsProcessed += st.CellsProcessed
		agg.HeapOps += st.HeapOps
		agg.CellsWalked += st.CellsWalked
		agg.SkybandSizeSum += st.SkybandSizeSum
		agg.SkybandSamples += st.SkybandSamples
		agg.ResultUpdates += st.ResultUpdates
		// Per-shard memory peaks sum (each engine really holds its own
		// structures, possibly replicated); the per-cell peak is a max —
		// it flags the single worst cell anywhere in the fleet.
		agg.MemoryHighWater += st.MemoryHighWater
		if st.MaxCellBytesHighWater > agg.MaxCellBytesHighWater {
			agg.MaxCellBytesHighWater = st.MaxCellBytesHighWater
		}
	}
	return agg
}

// ShardLoads returns every shard's current load: routed query count, EWMA
// per-cycle wall time, cumulative attributed query cost, and memory
// footprint. The gather runs on the worker goroutines, serialized against
// queued cycles.
func (s *Sharded) ShardLoads() []ShardLoad {
	per := make([]ShardLoad, len(s.workers))
	s.broadcast(func(i int, _ *core.Engine) {
		per[i] = gatherLoad(i, s.workers[i])
	})
	return per
}

// LoadSignal returns a lock-free snapshot of the busiest shard's ingest
// pressure: the deepest per-shard job queue, the queue capacity, and the
// largest per-shard EWMA cycle time. Unlike ShardLoads it never touches
// the worker goroutines (channel length and atomic reads only), so the
// admission governor can sample it from the pipeline runner without
// stalling in-flight cycles. The figures are approximate by nature —
// queue depths move concurrently — which is all a load controller needs.
func (s *Sharded) LoadSignal() (depth, capacity int, ewmaNS int64) {
	return loadSignal(s.workers)
}

// loadSignal is LoadSignal over any worker set, shared by both layouts.
func loadSignal(workers []*worker) (depth, capacity int, ewmaNS int64) {
	for _, w := range workers {
		if d := len(w.jobs); d > depth {
			depth = d
		}
		if e := w.ewmaNS.Load(); e > ewmaNS {
			ewmaNS = e
		}
	}
	return depth, jobQueueDepth, ewmaNS
}

// ResetLoadStats clears the per-worker cycle-time EWMAs so the next cycle
// seeds them fresh. Bulk initialization (window prefill, query
// registration) runs through the same workers as live cycles but costs
// orders of magnitude more; a driver that measures — or feeds the signal
// to the admission governor — calls this at measurement start so stale
// init latency cannot masquerade as overload.
func (s *Sharded) ResetLoadStats() {
	for _, w := range s.workers {
		w.ewmaNS.Store(0)
	}
}

// MemoryBytes implements core.Monitor: the sum over shards. The index
// really is replicated per shard, so the total reflects the cost of the
// parallelism honestly.
func (s *Sharded) MemoryBytes() int64 {
	var total int64
	per := make([]int64, len(s.workers))
	s.broadcast(func(i int, e *core.Engine) {
		per[i] = e.MemoryBytes()
	})
	for _, b := range per {
		total += b
	}
	return total
}

// ShardMemoryBytes returns each shard engine's individual footprint. Under
// query partitioning every entry is O(N) — the whole index is replicated —
// which is the memory blow-up the data-partitioned mode exists to avoid.
func (s *Sharded) ShardMemoryBytes() []int64 {
	per := make([]int64, len(s.workers))
	s.broadcast(func(i int, e *core.Engine) {
		per[i] = e.MemoryBytes()
	})
	return per
}

// NumPoints implements core.StreamMonitor. Every shard indexes the full
// stream, so shard 0 is authoritative.
func (s *Sharded) NumPoints() int {
	var n int
	s.callShard0(func(e *core.Engine) { n = e.NumPoints() })
	return n
}

// NumQueries implements core.StreamMonitor: the global registration count.
func (s *Sharded) NumQueries() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.routes)
}

// Now implements core.StreamMonitor.
func (s *Sharded) Now() int64 {
	var now int64
	s.callShard0(func(e *core.Engine) { now = e.Now() })
	return now
}

// callShard0 runs fn against shard 0's engine, on its goroutine while the
// monitor is open and synchronously once it is closed.
func (s *Sharded) callShard0(fn func(e *core.Engine)) {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	w := s.workers[0]
	if s.closed {
		fn(w.eng)
		return
	}
	w.call(func() { fn(w.eng) })
}

// broadcast runs fn for every shard in parallel on the shards' own
// goroutines and waits for all of them. Broadcasting against a closed
// monitor runs fn synchronously against the (now quiescent) engines.
func (s *Sharded) broadcast(fn func(i int, e *core.Engine)) {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		for i, w := range s.workers {
			fn(i, w.eng)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(s.workers))
	for i, w := range s.workers {
		w.jobs <- func() {
			defer wg.Done()
			fn(i, w.eng)
		}
	}
	wg.Wait()
}

// Close implements core.StreamMonitor: it stops the worker goroutines and
// waits for them to drain. After Close, mutating operations and cycles
// (Register, Unregister, Step, StepUpdate, Result) return errors, while
// the counter reads (Stats, MemoryBytes, NumPoints, NumQueries, Now) keep
// working against the quiescent engines. Calling Close twice is safe.
func (s *Sharded) Close() error {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	for _, w := range s.workers {
		close(w.jobs)
	}
	for _, w := range s.workers {
		<-w.stopped
	}
	return nil
}
