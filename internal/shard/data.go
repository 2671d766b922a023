// Data-partitioned sharding: tuples, not queries, are hash-partitioned
// across shards. Each shard's engine indexes only its O(N/shards) slice of
// the stream, every query is registered on every shard, and the router
// merges the per-shard partial top-k lists into the exact global result —
// the classic partition-and-merge layout of distributed sliding-window
// monitoring (Papapetrou et al.; Chan et al.), with the paper's per-shard
// TMA/SMA machinery left unmodified.
//
// Exactness rests on two observations:
//
//   - Each shard's local result is the exact local answer over the tuples
//     it indexes (the engine guarantees this for TMA, SMA and threshold
//     queries alike). Any member of the global top-k beats all but at most
//     k-1 tuples globally, hence also locally, so it is contained in its
//     owning shard's local top-k. Registering every query with the full k
//     on every shard therefore inflates the aggregate candidate pool to
//     shards×k entries — the merge-safe bound — and the k-way merge of the
//     local lists under the stream.Better total order (score descending,
//     arrival sequence breaking ties deterministically) yields exactly the
//     single engine's result.
//
//   - Expirations must follow the *global* window, not per-shard ones: an
//     expiring tuple lives on exactly one shard, but whether it expires at
//     all (count-based windows) depends on the global tuple count. The
//     router therefore owns the one sliding window over the full stream
//     and forwards each shard its slice of every cycle's expiration run
//     via core.Engine.StepExternal; the slices preserve FIFO order, which
//     is all SMA's skyband reduction needs.
//
// The router keeps a per-query result cache for top-k queries (the merged
// result as last reported) and emits exactly the core.Update deltas the
// single engine would: same added/removed entries, same ordering, verified
// byte-for-byte by the differential tests in data_test.go. A threshold
// query needs no cache: each live tuple sits on exactly one shard, so its
// global delta is the union of the shards' deltas.

package shard

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"topkmon/internal/core"
	"topkmon/internal/stream"
	"topkmon/internal/window"
)

// mergedQuery is the router-side state of one query under data
// partitioning: its spec (for the merge limit) and, for a top-k query, the
// merged result as last reported to the client, in descending total order.
// A cycle merges into spare and swaps it with reported when the result
// changed, so steady merging reuses both arrays.
type mergedQuery struct {
	spec     core.QuerySpec
	reported []core.Entry
	spare    []core.Entry
}

// limit returns the merge cutoff: k for top-k queries, unbounded for
// threshold queries (their result is the full union).
func (m *mergedQuery) limit() int {
	if m.spec.Threshold != nil {
		return -1
	}
	return m.spec.K
}

// DataSharded is the data-partitioned concurrent monitor. It implements
// core.StreamMonitor with results provably identical to the single engine:
// per-shard index memory is O(N/shards) instead of the O(N) replication of
// the query-partitioned Sharded. Register, Unregister and Result serialize
// against cycles (queries span every shard, so cross-shard consistency
// requires it), but all methods remain safe for concurrent use.
type DataSharded struct {
	workers []*worker
	mode    core.StreamMode

	// win is the global sliding window (AppendOnly mode only): the router
	// owns expiration so count-based windows see the global tuple count.
	win *window.Window

	// clock holds the stream admission watermarks, guarded by stepMu.
	clock core.Clock

	// qmu guards the queries map structure (NumQueries may read it while a
	// cycle runs); all writers additionally hold stepMu.
	qmu     sync.RWMutex //topk:lockrank 40 leaf
	queries map[core.QueryID]*mergedQuery

	// resultUpdates counts router-emitted Update records — the
	// client-visible figure reported by Stats in place of the per-shard
	// internal counts.
	resultUpdates atomic.Int64

	// closeMu / closed guard the worker channels' lifetime, as in Sharded.
	closeMu sync.RWMutex //topk:lockrank 30
	closed  bool

	// stepMu serializes cycles and the cross-shard query operations.
	stepMu sync.Mutex //topk:lockrank 20

	// sc is the cycle's working memory, guarded by stepMu.
	sc cycleScratch
}

// cycleScratch is the router's per-cycle working memory, reused cycle
// after cycle so that a cycle allocates little beyond the updates it
// returns. Every per-shard slice is indexed by shard; a worker job touches
// only its own shard's entries, handed over by the job channel and handed
// back through wg. No engine keeps a batch slice past StepExternal or
// StepUpdate, so the per-shard slices are reused the next cycle.
type cycleScratch struct {
	now      int64
	arrivals [][]*stream.Tuple // arrivals by shard
	expired  [][]*stream.Tuple // the window's expiration run by shard (AppendOnly)
	deleted  [][]uint64        // explicit deletions by shard (UpdateStream)
	run      []*stream.Tuple   // the window's expiration run
	results  []shardResult
	dirty    []core.QueryID // queries any shard reported, sorted, unique
	snaps    []partials
	parts    [][]core.Entry // one dirty query's partial results by shard
	stepJobs []func()       // stepJobs[i] runs shard i's slice of the cycle
	snapJobs []func()       // snapJobs[i] fills snaps[i]
	checks   []func()       // checks[i] validates shard i's update slice
	wg       sync.WaitGroup
}

// partials holds one shard's partial results for a cycle's dirty top-k
// queries back to back: dirty query j's list is entries[ends[j-1]:ends[j]]
// (from 0 for j = 0), empty for a threshold query.
type partials struct {
	entries []core.Entry
	ends    []int
}

// list returns dirty query j's partial result.
func (p *partials) list(j int) []core.Entry {
	start := 0
	if j > 0 {
		start = p.ends[j-1]
	}
	return p.entries[start:p.ends[j]]
}

// release drops the tuple references the cycle staged, keeping every
// capacity, so the scratch never pins a tuple that has left the window.
func (sc *cycleScratch) release() {
	for i := range sc.arrivals {
		clear(sc.arrivals[i])
		clear(sc.expired[i])
		sc.results[i] = shardResult{}
		clear(sc.snaps[i].entries)
	}
	clear(sc.run)
}

var _ core.StreamMonitor = (*DataSharded)(nil)

// NewData builds a data-partitioned monitor with n shards, each running an
// engine configured by opts over its hash-slice of the stream.
func NewData(opts core.Options, n int) (*DataSharded, error) {
	return newDataWithFactory(opts, n, core.NewEngine)
}

// newDataWithFactory is NewData with an injectable engine constructor
// (see newWithFactory).
func newDataWithFactory(opts core.Options, n int, factory func(core.Options) (*core.Engine, error)) (*DataSharded, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", n)
	}
	d := &DataSharded{
		mode:    opts.Mode,
		queries: make(map[core.QueryID]*mergedQuery),
	}
	engOpts := opts
	if opts.Mode == core.AppendOnly {
		if err := opts.Window.Validate(); err != nil {
			return nil, err
		}
		d.win = window.New(opts.Window)
		// Shards receive their expiration slices from the router's window.
		engOpts.ExternalExpiry = true
	}
	workers, err := spawnWorkers(engOpts, n, factory)
	if err != nil {
		return nil, err
	}
	d.workers = workers
	d.sc = cycleScratch{
		arrivals: make([][]*stream.Tuple, n),
		expired:  make([][]*stream.Tuple, n),
		deleted:  make([][]uint64, n),
		results:  make([]shardResult, n),
		snaps:    make([]partials, n),
		parts:    make([][]core.Entry, n),
		stepJobs: make([]func(), n),
		snapJobs: make([]func(), n),
		checks:   make([]func(), n),
	}
	for i := range workers {
		d.sc.stepJobs[i] = func() { d.stepShard(i) }
		d.sc.snapJobs[i] = func() { d.snapShard(i) }
		d.sc.checks[i] = func() { d.checkShard(i) }
	}
	return d, nil
}

// NumShards returns the shard count.
func (d *DataSharded) NumShards() int { return len(d.workers) }

// Options returns the monitor-level options: the engine options with the
// ExternalExpiry flag cleared again — NewData sets it itself when it takes
// ownership of the global window, so clearing it round-trips the options a
// restore must hand back to NewData.
func (d *DataSharded) Options() core.Options {
	var opts core.Options
	d.callShard0(func(e *core.Engine) { opts = e.Options() })
	opts.ExternalExpiry = false
	return opts
}

// ExportClock snapshots the router's cycle clock and stream-admission
// watermarks (the per-shard engines keep their own, exported per shard).
func (d *DataSharded) ExportClock() core.Clock {
	d.stepMu.Lock()
	defer d.stepMu.Unlock()
	return d.clock
}

// RestoreClock pins the router's cycle clock and admission watermarks —
// the restore-path counterpart of ExportClock, applied after the global
// tail has been replayed.
func (d *DataSharded) RestoreClock(c core.Clock) {
	d.stepMu.Lock()
	defer d.stepMu.Unlock()
	d.clock = c
}

// GlobalTail returns the fleet's live tuples in replay order: the router
// window's FIFO snapshot under append-only streams, or the per-shard
// explicit-deletion tails merged by ascending sequence. Re-ingesting the
// tail into a fresh monitor with the same shard count repartitions every
// tuple to its original shard (routing is a function of the tuple id), so
// the per-shard indexes rebuild exactly.
func (d *DataSharded) GlobalTail() []*stream.Tuple {
	d.stepMu.Lock()
	defer d.stepMu.Unlock()
	if d.win != nil {
		return d.win.Snapshot()
	}
	per := make([][]*stream.Tuple, len(d.workers))
	d.broadcast(func(i int, e *core.Engine) { per[i] = e.WindowTail() })
	var out []*stream.Tuple
	for _, p := range per {
		out = append(out, p...)
	}
	slices.SortFunc(out, func(a, b *stream.Tuple) int { return cmp.Compare(a.Seq, b.Seq) })
	return out
}

// Barrier runs fn against every shard engine in shard order, each call on
// its worker goroutine with cycles serialized out — the quiescent point
// checkpoints are written and restored at. The first error stops the
// sweep.
func (d *DataSharded) Barrier(fn func(i int, eng *core.Engine) error) error {
	d.stepMu.Lock()
	defer d.stepMu.Unlock()
	d.closeMu.RLock()
	defer d.closeMu.RUnlock()
	if d.closed {
		return ErrStopped
	}
	for i, w := range d.workers {
		var err error
		w.call(func() { err = fn(i, w.eng) })
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// RouterQuery is the router-side state of one query under data
// partitioning, in exportable form: the spec (for the merge limit) and
// the merged result as last reported, in descending total order.
type RouterQuery struct {
	ID           core.QueryID
	Spec         core.QuerySpec
	LastReported []core.Entry
}

// ExportRouterQueries snapshots every query's router-side merge cache,
// sorted by query id.
func (d *DataSharded) ExportRouterQueries() []RouterQuery {
	d.stepMu.Lock()
	defer d.stepMu.Unlock()
	d.qmu.RLock()
	defer d.qmu.RUnlock()
	out := make([]RouterQuery, 0, len(d.queries))
	for id, st := range d.queries {
		out = append(out, RouterQuery{ID: id, Spec: st.spec, LastReported: slices.Clone(st.reported)})
	}
	slices.SortFunc(out, func(a, b RouterQuery) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// RestoreRouterQueries reinstates exported router caches on a freshly
// built monitor whose shard engines already hold the corresponding
// queries (the checkpoint restore path).
func (d *DataSharded) RestoreRouterQueries(qs []RouterQuery) error {
	d.stepMu.Lock()
	defer d.stepMu.Unlock()
	d.closeMu.RLock()
	defer d.closeMu.RUnlock()
	if d.closed {
		return ErrStopped
	}
	d.qmu.Lock()
	defer d.qmu.Unlock()
	for _, rq := range qs {
		if _, dup := d.queries[rq.ID]; dup {
			return fmt.Errorf("shard: duplicate router query %d", rq.ID)
		}
		st := &mergedQuery{spec: rq.Spec}
		// Older checkpoints carry a threshold query's merged result here;
		// it has no baseline, so the list is ignored.
		if rq.Spec.Threshold == nil {
			st.reported = slices.Clone(rq.LastReported)
		}
		d.queries[rq.ID] = st
	}
	return nil
}

// routeTuples splits an arrival batch or an expiration run into the
// per-shard slices parts by tuple id, so an expiring tuple reaches the
// shard that indexed it. Order within each slice is preserved (per-shard
// Seq order — and hence FIFO expiration — survives partitioning).
func routeTuples(batch []*stream.Tuple, parts [][]*stream.Tuple) {
	for i := range parts {
		parts[i] = parts[i][:0]
	}
	for _, t := range batch {
		si := shardOfTuple(t.ID, len(parts))
		parts[si] = append(parts[si], t)
	}
}

// routeDeleted splits explicit deletions (UpdateStream mode), which
// arrive as bare ids, by the same hash: a deletion always reaches the
// shard that indexed the tuple, and an unknown id reaches a shard whose
// engine reports it.
func routeDeleted(ids []uint64, parts [][]uint64) {
	for i := range parts {
		parts[i] = parts[i][:0]
	}
	for _, id := range ids {
		si := shardOfTuple(id, len(parts))
		parts[si] = append(parts[si], id)
	}
}

// Register implements core.Monitor. The query is installed on every shard
// — shard 0 first, so a rejected spec touches no engine state at all and
// ids never burn — and the merged initial result seeds the router's cache,
// matching the single engine's behavior of not re-reporting pre-existing
// result entries. Engine-local ids advance in lockstep across shards
// (every registration reaches every shard), so the shard-local id doubles
// as the global one.
func (d *DataSharded) Register(spec core.QuerySpec) (core.QueryID, error) {
	d.stepMu.Lock()
	defer d.stepMu.Unlock()
	d.closeMu.RLock()
	defer d.closeMu.RUnlock()
	if d.closed {
		return 0, ErrStopped
	}

	// Shard 0 validates the spec: engine registration failures depend only
	// on the spec and options, which are identical on every shard, so a
	// shard-0 success guarantees the remaining shards accept too.
	w0 := d.workers[0]
	var id core.QueryID
	var err error
	w0.call(func() {
		id, err = w0.eng.Register(spec)
	})
	if err != nil {
		return 0, err
	}
	rest := d.workers[1:]
	ids := make([]core.QueryID, len(rest))
	errs := make([]error, len(rest))
	var wg sync.WaitGroup
	wg.Add(len(rest))
	for i, w := range rest {
		w.jobs <- func() {
			defer wg.Done()
			ids[i], errs[i] = w.eng.Register(spec)
		}
	}
	wg.Wait()
	for i := range rest {
		if errs[i] != nil {
			return 0, fmt.Errorf("shard: inconsistent registration (shard %d: %v)", i+1, errs[i])
		}
		if ids[i] != id {
			return 0, fmt.Errorf("shard: query id skew: shard %d assigned %d, shard 0 assigned %d", i+1, ids[i], id)
		}
	}

	st := &mergedQuery{spec: spec}
	if spec.Threshold == nil {
		st.reported = d.mergedResult(id, st.limit())
	}
	d.qmu.Lock()
	d.queries[id] = st
	d.qmu.Unlock()
	return id, nil
}

// Unregister implements core.Monitor: the query is removed from every
// shard and from the router cache.
func (d *DataSharded) Unregister(id core.QueryID) error {
	d.stepMu.Lock()
	defer d.stepMu.Unlock()
	d.closeMu.RLock()
	defer d.closeMu.RUnlock()
	if d.closed {
		return ErrStopped
	}
	d.qmu.Lock()
	_, ok := d.queries[id]
	if ok {
		delete(d.queries, id)
	}
	d.qmu.Unlock()
	if !ok {
		return fmt.Errorf("shard: unknown query %d", id)
	}
	errs := make([]error, len(d.workers))
	var wg sync.WaitGroup
	wg.Add(len(d.workers))
	for i, w := range d.workers {
		w.jobs <- func() {
			defer wg.Done()
			errs[i] = w.eng.Unregister(id)
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Result implements core.Monitor: the k-way merge of the per-shard partial
// results, identical to the single engine's result.
func (d *DataSharded) Result(id core.QueryID) ([]core.Entry, error) {
	d.stepMu.Lock()
	defer d.stepMu.Unlock()
	d.closeMu.RLock()
	defer d.closeMu.RUnlock()
	if d.closed {
		return nil, ErrStopped
	}
	d.qmu.RLock()
	st, ok := d.queries[id]
	d.qmu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("shard: unknown query %d", id)
	}
	return d.mergedResult(id, st.limit()), nil
}

// mergedResult snapshots query id on every shard and merges the partial
// lists. Callers hold stepMu (cross-shard consistency) with the monitor
// open.
//
//topk:deterministic
func (d *DataSharded) mergedResult(id core.QueryID, limit int) []core.Entry {
	parts := make([][]core.Entry, len(d.workers))
	var wg sync.WaitGroup
	wg.Add(len(d.workers))
	for i, w := range d.workers {
		w.jobs <- func() {
			defer wg.Done()
			parts[i], _ = w.eng.AppendResult(id, nil)
		}
	}
	wg.Wait()
	return mergeEntries(parts, limit, nil)
}

// mergeEntries k-way merges per-shard result lists — each already sorted
// under the stream.Better total order (score descending, later arrival
// winning score ties) — into the global order, keeping at most limit
// entries (limit < 0 keeps all). Seq tie-breaking makes the merge
// deterministic: sequence numbers are globally unique, so Better is a
// strict total order and the output is independent of shard enumeration
// order.
//
//topk:deterministic
func mergeEntries(parts [][]core.Entry, limit int, out []core.Entry) []core.Entry {
	var idxBuf [16]int
	var idx []int
	if len(parts) <= len(idxBuf) {
		idx = idxBuf[:len(parts)]
	} else {
		idx = make([]int, len(parts))
	}
	for {
		best := -1
		for i, p := range parts {
			if idx[i] >= len(p) {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			c, b := p[idx[i]], parts[best][idx[best]]
			if stream.Better(c.Score, c.T.Seq, b.Score, b.T.Seq) {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, parts[best][idx[best]])
		idx[best]++
		if limit >= 0 && len(out) >= limit {
			return out
		}
	}
}

// Step implements core.Monitor for the append-only model: arrivals are
// hash-partitioned across shards, the router's global window decides the
// cycle's expirations (each forwarded to the one shard indexing it), the
// shards process their slices in parallel, and the router merges the
// per-shard partial results of every touched query into global deltas.
func (d *DataSharded) Step(now int64, arrivals []*stream.Tuple) ([]core.Update, error) {
	if d.mode != core.AppendOnly {
		return nil, fmt.Errorf("shard: Step requires AppendOnly mode; use StepUpdate")
	}
	d.stepMu.Lock()
	defer d.stepMu.Unlock()
	d.closeMu.RLock()
	defer d.closeMu.RUnlock()
	if d.closed {
		return nil, ErrStopped
	}

	// Global admission is the single engine's, and must run before the
	// window sees the batch (window.Push treats out-of-order arrivals as a
	// programming error).
	if err := d.clock.Admit(now, arrivals); err != nil {
		return nil, err
	}

	sc := &d.sc
	sc.now = now
	routeTuples(arrivals, sc.arrivals)
	for _, t := range arrivals {
		d.win.Push(t)
	}
	sc.run = d.win.ExpireAppend(now, sc.run[:0])
	routeTuples(sc.run, sc.expired)
	return d.runCycle()
}

// StepUpdate implements core.StreamMonitor for the explicit-deletion
// model: arrivals and deletions alike are routed to the shard owning the
// tuple id (a deletion always reaches the shard that indexed the tuple).
// Like the single engine, it applies a cycle only when the whole cycle is
// valid: every shard checks its slice before any shard applies its own.
// A per-shard check is complete because arrivals and deletions route by
// the same id hash, so a duplicate or a deletion's target is always on the
// shard that sees the id.
func (d *DataSharded) StepUpdate(now int64, arrivals []*stream.Tuple, deletions []uint64) ([]core.Update, error) {
	if d.mode != core.UpdateStream {
		return nil, fmt.Errorf("shard: StepUpdate requires UpdateStream mode")
	}
	d.stepMu.Lock()
	defer d.stepMu.Unlock()
	d.closeMu.RLock()
	defer d.closeMu.RUnlock()
	if d.closed {
		return nil, ErrStopped
	}
	sc := &d.sc
	sc.now = now
	routeTuples(arrivals, sc.arrivals)
	routeDeleted(deletions, sc.deleted)
	d.fanOut(sc.checks)
	for _, r := range sc.results {
		if r.err != nil {
			sc.release()
			return nil, r.err
		}
	}
	return d.runCycle()
}

// runCycle runs the cycle staged in d.sc on every shard, then merges: the
// union of the queries any shard reported is the set whose merged result
// may have changed (the merged result is a function of the per-shard
// partial results, and an engine reports a query exactly when its partial
// result changed). Those top-k queries are snapshotted on every shard,
// k-way merged, and diffed against the router cache; a threshold query's
// Added and Removed are the union of the shards' own — reproducing the
// single engine's finishCycle reporting exactly. Callers hold stepMu and
// closeMu.
func (d *DataSharded) runCycle() ([]core.Update, error) {
	sc := &d.sc
	defer sc.release()
	d.fanOut(sc.stepJobs)
	for _, r := range sc.results {
		if r.err != nil {
			// Like the single engine, a mid-cycle failure leaves the
			// monitor in an undefined state.
			return nil, r.err
		}
	}

	sc.dirty = sc.dirty[:0]
	for _, r := range sc.results {
		for _, u := range r.updates {
			sc.dirty = append(sc.dirty, u.Query)
		}
	}
	if len(sc.dirty) == 0 {
		return nil, nil
	}
	slices.Sort(sc.dirty)
	sc.dirty = slices.Compact(sc.dirty)

	// Snapshot phase: every shard's partial result for every dirty top-k
	// query, gathered in parallel on the worker goroutines.
	d.fanOut(sc.snapJobs)

	// Merge and diff against the router cache, mirroring the single
	// engine's finishCycle: Added in descending total order, Removed
	// likewise, updates ordered by query id (dirty is sorted), queries
	// whose merged result is unchanged are silent.
	var updates []core.Update
	byQuery := func(u core.Update, q core.QueryID) int { return cmp.Compare(u.Query, q) }
	for j, q := range sc.dirty {
		st := d.queries[q]
		if st == nil {
			continue // unregistered between cycles; engines no longer know it either
		}
		if st.spec.Threshold != nil {
			// Every shard's update list is ordered by query id, and a
			// tuple sits on one shard: the union is the global delta.
			u := core.Update{Query: q}
			for _, r := range sc.results {
				if k, ok := slices.BinarySearchFunc(r.updates, q, byQuery); ok {
					u.Added = append(u.Added, r.updates[k].Added...)
					u.Removed = append(u.Removed, r.updates[k].Removed...)
				}
			}
			slices.SortFunc(u.Added, core.EntryOrder)
			slices.SortFunc(u.Removed, core.EntryOrder)
			updates = append(updates, u)
			d.resultUpdates.Add(1)
			continue
		}
		for i := range sc.snaps {
			sc.parts[i] = sc.snaps[i].list(j)
		}
		merged := mergeEntries(sc.parts, st.limit(), st.spare[:0])
		added, removed := core.DiffResults(st.reported, merged, nil, nil)
		if len(added) == 0 && len(removed) == 0 {
			st.spare = merged // the same tuples as reported: pins nothing more
			continue
		}
		clear(st.reported)
		st.reported, st.spare = merged, st.reported[:0]
		updates = append(updates, core.Update{Query: q, Added: added, Removed: removed})
		d.resultUpdates.Add(1)
	}
	return updates, nil
}

// fanOut runs jobs[i] on shard i's worker for every shard and waits for
// all of them. Callers hold stepMu and closeMu with the monitor open.
func (d *DataSharded) fanOut(jobs []func()) {
	d.sc.wg.Add(len(jobs))
	for i, w := range d.workers {
		w.jobs <- jobs[i]
	}
	d.sc.wg.Wait()
}

// stepShard runs shard i's slice of the staged cycle, on its worker.
func (d *DataSharded) stepShard(i int) {
	defer d.sc.wg.Done()
	sc, w := &d.sc, d.workers[i]
	start := time.Now()
	var r shardResult
	if d.mode == core.AppendOnly {
		r.updates, r.err = w.eng.StepExternal(sc.now, sc.arrivals[i], sc.expired[i])
	} else {
		r.updates, r.err = w.eng.StepUpdate(sc.now, sc.arrivals[i], sc.deleted[i])
	}
	w.noteCycle(time.Since(start))
	sc.results[i] = r
}

// checkShard validates shard i's slice of the staged update cycle, on its
// worker, without applying it.
func (d *DataSharded) checkShard(i int) {
	defer d.sc.wg.Done()
	sc := &d.sc
	sc.results[i].err = d.workers[i].eng.CheckUpdate(sc.now, sc.arrivals[i], sc.deleted[i])
}

// snapShard fills snaps[i] with shard i's partial result of every dirty
// top-k query, on its worker. (No writer touches d.queries while stepMu is
// held, so the workers may read it.)
func (d *DataSharded) snapShard(i int) {
	defer d.sc.wg.Done()
	eng, p := d.workers[i].eng, &d.sc.snaps[i]
	p.entries, p.ends = p.entries[:0], p.ends[:0]
	for _, q := range d.sc.dirty {
		if st := d.queries[q]; st != nil && st.spec.Threshold == nil {
			p.entries, _ = eng.AppendResult(q, p.entries)
		}
		p.ends = append(p.ends, len(p.entries))
	}
}

// CheckInfluence verifies the influence-list invariant on every shard
// engine, continuously checkable from stress and differential tests (see
// checkInfluenceAll in shard.go).
func (d *DataSharded) CheckInfluence() error {
	return checkInfluenceAll(len(d.workers), d.broadcast)
}

// Stats implements core.StreamMonitor. Every counter is summed across
// shards — the shards see disjoint slices of the stream, so the sums equal
// the single engine's stream-level figures — except ResultUpdates, which
// reports the router-emitted (client-visible) update count rather than the
// shards' internal partial-result churn.
func (d *DataSharded) Stats() core.Stats {
	per := make([]core.Stats, len(d.workers))
	d.broadcast(func(i int, e *core.Engine) {
		per[i] = e.Stats()
	})
	var agg core.Stats
	for _, st := range per {
		agg.Arrivals += st.Arrivals
		agg.Expirations += st.Expirations
		agg.InfluenceEvents += st.InfluenceEvents
		agg.Recomputes += st.Recomputes
		agg.InitialComputations += st.InitialComputations
		agg.CellsProcessed += st.CellsProcessed
		agg.HeapOps += st.HeapOps
		agg.CellsWalked += st.CellsWalked
		agg.SkybandSizeSum += st.SkybandSizeSum
		agg.SkybandSamples += st.SkybandSamples
		agg.MemoryHighWater += st.MemoryHighWater
		if st.MaxCellBytesHighWater > agg.MaxCellBytesHighWater {
			agg.MaxCellBytesHighWater = st.MaxCellBytesHighWater
		}
	}
	agg.ResultUpdates = d.resultUpdates.Load()
	return agg
}

// MemoryBytes implements core.Monitor: the engines' footprints (disjoint
// index slices, each O(N/shards)) plus the router's global window, the
// per-query merge caches (reported and spare, at capacity) and the retained
// cycle scratch. It serializes against cycles (stepMu): the router's window,
// merge caches and scratch are cycle-owned state.
func (d *DataSharded) MemoryBytes() int64 {
	d.stepMu.Lock()
	defer d.stepMu.Unlock()
	var total int64
	for _, b := range d.ShardMemoryBytes() {
		total += b
	}
	if d.win != nil {
		total += d.win.MemoryBytes()
	}
	d.qmu.RLock()
	for _, st := range d.queries {
		total += int64(cap(st.reported)+cap(st.spare)) * entryBytes
	}
	d.qmu.RUnlock()
	return total + d.sc.memoryBytes()
}

// Footprints of the router's retained element types.
const (
	entryBytes = 16 // core.Entry: tuple pointer + score
	wordBytes  = 8  // a tuple pointer, a deletion id or an end offset
)

// memoryBytes is the capacity the scratch retains between cycles.
func (sc *cycleScratch) memoryBytes() int64 {
	words := cap(sc.run)
	for i := range sc.arrivals {
		words += cap(sc.arrivals[i]) + cap(sc.expired[i]) + cap(sc.deleted[i]) + cap(sc.snaps[i].ends)
	}
	total := int64(words) * wordBytes
	for i := range sc.snaps {
		total += int64(cap(sc.snaps[i].entries)) * entryBytes
	}
	return total + int64(cap(sc.dirty))*4 // QueryID is 4 bytes
}

// ShardLoads returns every shard's current load. Under data partitioning
// every query runs on every shard, so the query count is uniform — the
// per-shard EWMA cycle time and memory figures are the useful part (skew
// here means the *tuple* hash is unbalanced).
func (d *DataSharded) ShardLoads() []ShardLoad {
	per := make([]ShardLoad, len(d.workers))
	d.broadcast(func(i int, _ *core.Engine) {
		per[i] = gatherLoad(i, d.workers[i])
	})
	return per
}

// LoadSignal returns a lock-free snapshot of the busiest shard's ingest
// pressure (deepest job queue, capacity, largest EWMA cycle time) — see
// Sharded.LoadSignal. Data-partitioned cycles are per-cycle barriers, so
// queue depth rarely exceeds one, but the EWMA still carries the
// hot-shard latency signal.
func (d *DataSharded) LoadSignal() (depth, capacity int, ewmaNS int64) {
	return loadSignal(d.workers)
}

// ResetLoadStats clears the per-worker cycle-time EWMAs — see
// Sharded.ResetLoadStats.
func (d *DataSharded) ResetLoadStats() {
	for _, w := range d.workers {
		w.ewmaNS.Store(0)
	}
}

// ShardMemoryBytes returns each shard engine's individual footprint —
// under data partitioning each entry is O(N/shards), the property the
// partition benchmark asserts.
func (d *DataSharded) ShardMemoryBytes() []int64 {
	per := make([]int64, len(d.workers))
	d.broadcast(func(i int, e *core.Engine) {
		per[i] = e.MemoryBytes()
	})
	return per
}

// NumPoints implements core.StreamMonitor: the shards index disjoint
// slices, so the global count is the sum.
func (d *DataSharded) NumPoints() int {
	per := make([]int, len(d.workers))
	d.broadcast(func(i int, e *core.Engine) {
		per[i] = e.NumPoints()
	})
	total := 0
	for _, c := range per {
		total += c
	}
	return total
}

// NumQueries implements core.StreamMonitor: the router's registration
// count (every query lives on every shard).
func (d *DataSharded) NumQueries() int {
	d.qmu.RLock()
	defer d.qmu.RUnlock()
	return len(d.queries)
}

// Now implements core.StreamMonitor. Every shard receives every cycle
// (possibly with an empty slice), so shard 0 is authoritative.
func (d *DataSharded) Now() int64 {
	var now int64
	d.callShard0(func(e *core.Engine) { now = e.Now() })
	return now
}

// callShard0 runs fn against shard 0's engine, on its goroutine while the
// monitor is open and synchronously once it is closed.
func (d *DataSharded) callShard0(fn func(e *core.Engine)) {
	d.closeMu.RLock()
	defer d.closeMu.RUnlock()
	w := d.workers[0]
	if d.closed {
		fn(w.eng)
		return
	}
	w.call(func() { fn(w.eng) })
}

// broadcast runs fn for every shard in parallel on the shards' own
// goroutines and waits for all of them; against a closed monitor it runs
// synchronously on the quiescent engines (counter reads keep working after
// Close, as on Sharded).
func (d *DataSharded) broadcast(fn func(i int, e *core.Engine)) {
	d.closeMu.RLock()
	defer d.closeMu.RUnlock()
	if d.closed {
		for i, w := range d.workers {
			fn(i, w.eng)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(d.workers))
	for i, w := range d.workers {
		w.jobs <- func() {
			defer wg.Done()
			fn(i, w.eng)
		}
	}
	wg.Wait()
}

// Close implements core.StreamMonitor with the same semantics as
// Sharded.Close: workers stop and drain, mutating operations fail
// afterwards, counter reads keep working, double Close is safe.
func (d *DataSharded) Close() error {
	d.closeMu.Lock()
	defer d.closeMu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	for _, w := range d.workers {
		close(w.jobs)
	}
	for _, w := range d.workers {
		<-w.stopped
	}
	return nil
}
