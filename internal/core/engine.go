package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"topkmon/internal/container/idtab"
	"topkmon/internal/geom"
	"topkmon/internal/grid"
	"topkmon/internal/qindex"
	"topkmon/internal/skyband"
	"topkmon/internal/stream"
	"topkmon/internal/topk"
	"topkmon/internal/window"
)

// qTile is the member-tile width of the query-index probe: one cell
// block is scored against at most qTile cluster members per multi-query
// kernel call, bounding the score scratch at qTile × block length.
const qTile = 64

type queryKind int

const (
	topkKind queryKind = iota
	thresholdKind
)

// query is one entry of the query table QT (Figure 4): the scoring
// function, k, the current result, and the per-policy maintenance state.
type query struct {
	id   QueryID
	spec QuerySpec
	kind queryKind

	// topScore is the admission filter compared against arriving tuples.
	// TMA: the score of the last entry of the top list (rises as better
	// tuples arrive or the last entry is deleted). SMA: the kth score at
	// the last from-scratch computation (the paper's "score of the kth
	// element after the last application of top-k computation").
	// Threshold queries: the fixed threshold. -Inf while the result is
	// underfull (the influence region is then the whole workspace).
	topScore float64
	// regScore is the admission filter value at the moment the influence
	// lists were last registered; the registered cell set corresponds to
	// it. Used by the invariant checker.
	regScore float64

	// TMA state: the top list in descending total order plus its tuple ids
	// as a parallel column, which the expiration path scans for membership.
	// The list is always exactly the top-k' of the query's valid tuples,
	// k' <= kmax: a view in the sense of Yi et al. (the TSL baseline's),
	// of which only the first k entries are the result. An arrival enters
	// when it beats the last entry (every arrival while topScore is -Inf,
	// the list then holding every valid tuple) and evicts the entry beyond
	// kmax; a deletion leaves the list. kmax is fixed at Register: k on an
	// append-only engine, where this is exactly the paper's TMA, and
	// DefaultKMax(k) under update streams, where deletions then cost a
	// recomputation only once they leave fewer than k entries.
	top   []Entry
	topID []uint64
	kmax  int
	// affected marks a TMA query whose list fell below k entries; it is
	// recomputed from scratch once the whole expiration batch has been
	// applied (Figure 9 lines 12-13).
	affected bool

	// SMA state.
	sky        *skyband.Skyband
	skyChanged bool
	// pending buffers this cycle's admitted SMA arrivals during the
	// cell-batched insert phase. Cells are visited in grouping order, not
	// arrival order, but skyband insertion requires ascending sequence —
	// the buffered entries are sorted by Seq and applied at the end of the
	// phase (flushPending), restoring the exact per-arrival semantics.
	pending []Entry

	// Reporting state (report.go): a top-k query's result as last reported,
	// in descending total order; a threshold query's chains of this cycle's
	// admissions and drops in Engine.thrLog. A threshold query keeps no
	// result: between cycles it is every valid tuple of its constraint
	// scoring above the threshold, which AppendResult computes on demand.
	reported []Entry
	addHead  int32
	remHead  int32

	// cost accumulates the maintenance work attributed to this query:
	// influence events examined, cells processed and heap operations of its
	// from-scratch computations, and cells visited by its pruning walks.
	// It is deterministic for a given stream — the same replay attributes
	// the same cost — and checkpoints carry it along.
	cost int64
}

// Engine is the grid-based continuous monitoring engine. It is not safe
// for concurrent use: the paper's model is a single server processing one
// cycle at a time. Engines hold no process-global state, however, so any
// number of them may run concurrently with each other — the property the
// sharded monitor in internal/shard builds on (one engine per shard, one
// goroutine per engine).
type Engine struct {
	opts Options
	g    *grid.Grid
	w    *window.Window // nil in UpdateStream mode
	s    *topk.Searcher

	// qi is the query index, the home of every threshold query; top-k
	// queries live on the grid's influence lists instead. Both answer
	// "which queries must see a stream event in this cell", and each
	// query is in exactly one of them, chosen by kind at Register: a
	// top-k query's small influence region moves at every recomputation,
	// which the paper's lazy per-cell lists (Section 4.3) absorb with a
	// registration loop and a pruning walk; a threshold query's region
	// is fixed and can cover most of the workspace, so it is indexed
	// once by its bound at O(queries + cells) memory, where lists would
	// cost O(queries × cells). Index delivery is a superset of what the
	// lists would deliver, which the threshold handlers' admission
	// predicate absorbs (see probe).
	qi *qindex.Index

	// queries is the query table, indexed by query id (ids are issued
	// densely from nextID); numQueries counts its non-nil slots.
	queries    []*query
	numQueries int
	nextID     QueryID

	// clock is the cycle clock and the append-only sequence watermark.
	clock Clock

	// dirty is a bitmap over the query table marking the queries touched
	// in the current cycle, and dirtyWords one over dirty marking its
	// non-zero words, so that finishCycle collects the cycle's dirtyIDs in
	// id order without scanning every query's bit.
	dirty      []uint64
	dirtyWords []uint64
	dirtyIDs   []QueryID

	// scratch state for influence-list walks.
	walkVisited []uint32
	walkGen     uint32
	walkQueue   []int

	// Pooled per-cycle scratch for the cell-batched insert/expire phases
	// and update emission; steady-state cycles allocate nothing from these.
	// cellMark stamps cells touched by the current phase (insert phase:
	// 1 + the cell's live length before the batch; expire phase: 1 + the
	// cell's bucket position); touched lists them in first-touch order.
	cellMark   []int32
	touched    []int
	expBuckets []expBucket
	expFilter  []*stream.Tuple
	pendingQs  []*query
	scoreBuf   []float64
	mqDst      []float64
	expCoords  []float64
	ubRow      []float64
	skyScratch []skyband.Entry
	resScratch []Entry
	// batchIDs and goneIDs hold an update cycle's arriving and deleted
	// ids while CheckUpdate validates it (values unused).
	batchIDs idtab.Table
	goneIDs  idtab.Table

	// Pooled reporting scratch (report.go): the cycle's threshold log, the
	// staged update payloads and their spans, one query's Removed.
	thrLog     []thrEvent
	payload    []Entry
	spans      []updateSpan
	remScratch []Entry

	// sma lists the registered SMA queries, so the per-cycle skyband
	// sampling loop never scans the whole table (at pub/sub query counts
	// that would break sublinear per-cycle cost).
	sma []*query
	// memHW is the high-water of MemoryBytes results (pull-model: only
	// MemoryBytes calls move it).
	memHW int64

	stats Stats
}

// expBucket groups one cell's share of a cycle's expiration batch, in
// arrival order. The tuple slices are pooled across cycles.
type expBucket struct {
	idx    int
	tuples []*stream.Tuple
}

// NewEngine constructs an engine from the given options.
func NewEngine(opts Options) (*Engine, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	res := opts.GridRes
	if res == 0 {
		res = grid.ResolutionForTargetCells(opts.Dims, opts.TargetCells)
	}
	mode := grid.FIFO
	if opts.Mode == UpdateStream {
		mode = grid.Random
	}
	g := grid.New(opts.Dims, res, mode)
	e := &Engine{
		opts:        opts,
		g:           g,
		s:           topk.NewSearcher(g),
		walkVisited: make([]uint32, g.NumCells()),
		cellMark:    make([]int32, g.NumCells()),
		qi:          qindex.New(opts.Dims, g),
	}
	if opts.Mode == AppendOnly && !opts.ExternalExpiry {
		e.w = window.New(opts.Window)
	}
	return e, nil
}

var _ StreamMonitor = (*Engine)(nil)

// Grid exposes the underlying index (read-only use: tests, harness).
func (e *Engine) Grid() *grid.Grid { return e.g }

// Close implements StreamMonitor. The single engine owns no background
// resources, so it is a no-op.
func (e *Engine) Close() error { return nil }

// Now returns the engine clock: the timestamp of the last processed cycle.
func (e *Engine) Now() int64 { return e.clock.Now }

// NumPoints returns the number of valid tuples.
func (e *Engine) NumPoints() int { return e.g.NumPoints() }

// NumQueries returns the number of registered queries.
func (e *Engine) NumQueries() int { return e.numQueries }

// lookup returns the registered query with the given id, or nil.
func (e *Engine) lookup(id QueryID) *query {
	if int(id) < len(e.queries) {
		return e.queries[id]
	}
	return nil
}

// install enters q into the query table (and the SMA list), growing the
// dirty bitmap with it.
func (e *Engine) install(q *query) {
	if n := int(q.id) + 1; n > len(e.queries) {
		e.queries = append(e.queries, make([]*query, n-len(e.queries))...)
		if words := (n + 63) / 64; words > len(e.dirty) {
			e.dirty = append(e.dirty, make([]uint64, words-len(e.dirty))...)
			if sum := (words + 63) / 64; sum > len(e.dirtyWords) {
				e.dirtyWords = append(e.dirtyWords, make([]uint64, sum-len(e.dirtyWords))...)
			}
		}
	}
	e.queries[q.id] = q
	e.numQueries++
	if q.sky != nil {
		e.sma = append(e.sma, q)
	}
}

// Stats returns a snapshot of the engine counters. CellsProcessed and
// HeapOps are read from the searcher.
func (e *Engine) Stats() Stats {
	s := e.stats
	s.CellsProcessed = e.s.CellsProcessed
	s.HeapOps = e.s.HeapOps
	s.MemoryHighWater = e.memHW
	s.MaxCellBytesHighWater = e.g.MaxCellBytesHighWater()
	return s
}

// MemoryHighWater returns the largest MemoryBytes figure observed so
// far. Pull-model: it only moves when MemoryBytes is called (the shard
// load gatherer does every pass), keeping the per-cycle path free of
// O(cells) scans.
func (e *Engine) MemoryHighWater() int64 { return e.memHW }

// Register implements Monitor.
func (e *Engine) Register(spec QuerySpec) (QueryID, error) {
	if spec.F == nil {
		return 0, fmt.Errorf("core: query needs a scoring function")
	}
	if spec.F.Dims() != e.opts.Dims {
		return 0, fmt.Errorf("core: function dimensionality %d != workspace %d", spec.F.Dims(), e.opts.Dims)
	}
	if spec.Constraint != nil && spec.Constraint.Dims() != e.opts.Dims {
		return 0, fmt.Errorf("core: constraint dimensionality %d != workspace %d", spec.Constraint.Dims(), e.opts.Dims)
	}
	q := &query{id: e.nextID, spec: spec}
	if spec.Threshold != nil {
		q.kind = thresholdKind
		q.topScore = *spec.Threshold
		q.regScore = *spec.Threshold
	} else {
		if spec.K <= 0 {
			return 0, fmt.Errorf("core: K must be positive, got %d", spec.K)
		}
		if spec.Policy == SMA && e.opts.Mode == UpdateStream {
			return 0, fmt.Errorf("core: SMA is unavailable under update streams (expiry order unknown, Section 7)")
		}
		if spec.Policy != TMA && spec.Policy != SMA {
			return 0, fmt.Errorf("core: unknown policy %v", spec.Policy)
		}
		q.kind = topkKind
		q.kmax = e.viewCapacity(spec)
		if spec.Policy == SMA {
			q.sky = skyband.New(spec.K)
		}
	}
	e.nextID++
	e.install(q)

	// A threshold query is only indexed by its fixed bound: its result is
	// a function of the window, so there is nothing to compute. A top-k
	// query runs the initial computation (Figure 6) and registers influence
	// lists over the cells it processed.
	if q.kind == thresholdKind {
		if err := e.qi.Add(q.id, spec.F, *spec.Threshold); err != nil {
			panic(err)
		}
	} else {
		e.computeFromScratch(q)
		e.stats.InitialComputations++
		e.stats.Recomputes-- // computeFromScratch counted it as a recompute
		q.reported = q.currentResult(nil)
	}
	return q.id, nil
}

// Unregister implements Monitor: it deletes the query from the query table
// and from its delivery structure — a threshold query leaves the query
// index, a top-k query's entries are removed from all influence lists by
// walking worse-ward from the cell with the maximum maxscore (Section 4.3).
func (e *Engine) Unregister(id QueryID) error {
	q := e.lookup(id)
	if q == nil {
		return fmt.Errorf("core: unknown query %d", id)
	}
	e.queries[id] = nil
	e.numQueries--
	if q.sky != nil {
		e.sma = slices.DeleteFunc(e.sma, func(s *query) bool { return s == q })
	}
	if q.kind == thresholdKind {
		if err := e.qi.Remove(id); err != nil {
			panic(err)
		}
	} else {
		start := e.g.BestCell(q.spec.F)
		if q.spec.Constraint != nil {
			start = e.g.BestCellIn(q.spec.F, *q.spec.Constraint)
		}
		e.walkInfluence(q, []int{start})
	}
	// Drop the query from the dirty set if the current cycle touched it
	// (a summary bit left over an emptied word is harmless).
	e.dirty[id/64] &^= 1 << (id % 64)
	return nil
}

// Step implements Monitor for the append-only (sliding-window) model. The
// arrival batch must carry the cycle's timestamp and strictly increasing
// sequence numbers.
func (e *Engine) Step(now int64, arrivals []*stream.Tuple) ([]Update, error) {
	if e.opts.Mode != AppendOnly {
		return nil, fmt.Errorf("core: Step requires AppendOnly mode; use StepUpdate")
	}
	if e.opts.ExternalExpiry {
		return nil, fmt.Errorf("core: engine uses external expiry; use StepExternal")
	}
	if err := e.clock.Admit(now, arrivals); err != nil {
		return nil, err
	}
	// The window decides what expires with the arrivals accounted for; it
	// never looks at the index, so it can run ahead of both phases.
	for _, t := range arrivals {
		e.w.Push(t)
	}
	e.expFilter = e.w.ExpireAppend(now, e.expFilter[:0])
	updates := e.applyCycle(arrivals, e.expFilter)
	e.releaseExpFilter()
	return updates, nil
}

// applyCycle runs the two event phases of an append-only cycle and reports:
// Pins before Pdel, so that an arrival replacing an expiring result tuple
// avoids a from-scratch recomputation (Figure 8a discussion). Under the
// DeletionsFirst ablation a tuple that arrives and expires within the cycle
// (r > N) must never be indexed; both lists are in arrival order, so those
// tuples are a prefix of the arrivals and the suffix of the expirations.
func (e *Engine) applyCycle(arrivals, expirations []*stream.Tuple) []Update {
	if e.opts.DeletionsFirst {
		same := 0
		for same < len(arrivals) && same < len(expirations) && expirations[len(expirations)-1-same].Seq >= arrivals[0].Seq {
			same++
		}
		e.expireBatch(expirations[:len(expirations)-same])
		e.insertBatch(arrivals[same:])
	} else {
		e.insertBatch(arrivals)
		e.expireBatch(expirations)
	}
	return e.finishCycle()
}

// StepExternal runs one append-only processing cycle whose expirations are
// supplied by the caller instead of an engine-owned window (ExternalExpiry
// mode). The expirations must be tuples previously passed as arrivals, in
// FIFO (arrival) order — the caller owns a sliding window over a superset
// of this engine's tuples and forwards the engine its slice of each
// cycle's expiration run. Arrivals and expirations follow the same
// Pins-before-Pdel cycle order as Step (inverted under DeletionsFirst),
// so a data-partitioned fleet of engines reproduces the single engine's
// results exactly.
func (e *Engine) StepExternal(now int64, arrivals, expirations []*stream.Tuple) ([]Update, error) {
	if e.opts.Mode != AppendOnly || !e.opts.ExternalExpiry {
		return nil, fmt.Errorf("core: StepExternal requires AppendOnly mode with ExternalExpiry")
	}
	for i := 1; i < len(expirations); i++ {
		if expirations[i].Seq <= expirations[i-1].Seq {
			return nil, fmt.Errorf("core: expirations out of FIFO order: seq %d after %d",
				expirations[i].Seq, expirations[i-1].Seq)
		}
	}
	if err := e.clock.Admit(now, arrivals); err != nil {
		return nil, err
	}
	return e.applyCycle(arrivals, expirations), nil
}

// AppendResult appends the current result of query id to out and returns
// the extended slice, avoiding per-call allocation. It is the snapshot
// primitive the data-partitioned sharded monitor merges across engines:
// each engine's result is the exact (local) top-k or threshold result over
// the tuples it indexes.
//
// A threshold query's result is computed here, by a threshold search over
// the grid (Section 7). A read is not maintenance: the search's cells are
// not counted in Stats.CellsProcessed or the query's cost.
func (e *Engine) AppendResult(id QueryID, out []Entry) ([]Entry, error) {
	q := e.lookup(id)
	if q == nil {
		return out, fmt.Errorf("core: unknown query %d", id)
	}
	if q.kind == thresholdKind {
		mark := len(out)
		for _, en := range e.thresholdSearch(q) {
			out = append(out, Entry{T: en.T, Score: en.Score})
		}
		slices.SortFunc(out[mark:], EntryOrder)
		return out, nil
	}
	return q.currentResult(out), nil
}

// thresholdSearch returns a threshold query's current result, unordered,
// in the searcher's pooled buffer, leaving the work counters untouched.
func (e *Engine) thresholdSearch(q *query) []topk.Entry {
	cells := e.s.CellsProcessed
	res := e.s.Threshold(q.spec.F, *q.spec.Threshold, q.spec.Constraint)
	e.s.CellsProcessed = cells
	return res
}

// StepUpdate runs one processing cycle under the explicit-deletion stream
// model of Section 7: arrivals are inserted and the tuples named by
// deletions are removed, in arbitrary order. The whole cycle is validated
// (CheckUpdate) before anything is applied, so a rejected batch leaves the
// clock, the grid and the query state exactly as they were.
func (e *Engine) StepUpdate(now int64, arrivals []*stream.Tuple, deletions []uint64) ([]Update, error) {
	if err := e.CheckUpdate(now, arrivals, deletions); err != nil {
		return nil, err
	}
	e.clock.Started, e.clock.Now = true, now
	e.insertBatch(arrivals)
	// Deletions naming same-cycle arrivals resolve against the freshly
	// inserted tuples: a tuple may arrive and leave in one cycle.
	e.expFilter = e.expFilter[:0]
	for _, id := range deletions {
		t, _ := e.g.Lookup(id)
		e.expFilter = append(e.expFilter, t)
	}
	e.expireBatch(e.expFilter)
	e.releaseExpFilter()
	return e.finishCycle(), nil
}

// CheckUpdate reports the error StepUpdate would return for the cycle,
// without applying it: the engine must be in UpdateStream mode, the clock
// must not go backwards, arrival ids must be distinct and not indexed, and
// deletions must be distinct and name a tuple that is indexed or arrives
// in the same cycle. It changes nothing a caller can observe, so a
// data-partitioned router checks every shard's slice of a cycle before
// any shard applies its own.
func (e *Engine) CheckUpdate(now int64, arrivals []*stream.Tuple, deletions []uint64) error {
	if e.opts.Mode != UpdateStream {
		return fmt.Errorf("core: StepUpdate requires UpdateStream mode")
	}
	if e.clock.Started && now < e.clock.Now {
		return fmt.Errorf("core: time went backwards: %d after %d", now, e.clock.Now)
	}
	e.batchIDs.Reset()
	for _, t := range arrivals {
		if _, dup := e.g.Lookup(t.ID); dup || !e.batchIDs.Put(t.ID, 0) {
			return fmt.Errorf("core: duplicate tuple id %d", t.ID)
		}
	}
	e.goneIDs.Reset()
	for _, id := range deletions {
		if !e.goneIDs.Put(id, 0) {
			return fmt.Errorf("core: deletion of unknown tuple %d", id)
		}
		if _, indexed := e.g.Lookup(id); !indexed {
			if _, arriving := e.batchIDs.Get(id); !arriving {
				return fmt.Errorf("core: deletion of unknown tuple %d", id)
			}
		}
	}
	return nil
}

// releaseExpFilter drops the tuple references held by the pooled
// expiration buffer (keeping its capacity), so a large expiration burst
// does not pin long-expired tuples for the engine's lifetime.
func (e *Engine) releaseExpFilter() {
	for i := range e.expFilter {
		e.expFilter[i] = nil
	}
	e.expFilter = e.expFilter[:0]
}

// Result implements Monitor.
func (e *Engine) Result(id QueryID) ([]Entry, error) { return e.AppendResult(id, nil) }

// insertBatch indexes one cycle's arrival batch and delivers every touched
// cell's new sub-block to the queries that must see it: threshold queries
// through the query-index probe, top-k queries through the cell's
// influence list (Figure 9 lines 3-7 / Figure 11 lines 4-11). Arrivals are
// grouped by destination cell: the grid appends each cell's share to its
// columnar block, and every influenced query scores the whole new
// sub-block with one vectorized kernel call instead of one interface call
// per tuple. Per-query outcomes are order-independent within a cycle
// (TMA's bounded top list is set-semantics, a threshold admission depends
// on its tuple alone, and the reporter sorts the logged admissions;
// SMA admissions are buffered and replayed in sequence order by
// flushPending), so the cell-grouped order produces exactly the
// per-arrival transcript.
//
//topk:hot
func (e *Engine) insertBatch(arrivals []*stream.Tuple) {
	for _, t := range arrivals {
		e.stats.Arrivals++
		idx := e.g.IndexOf(t.Vec)
		if e.cellMark[idx] == 0 {
			e.cellMark[idx] = int32(e.g.CellLen(idx)) + 1
			e.touched = append(e.touched, idx)
		}
		e.g.InsertAt(idx, t)
	}
	dims := e.g.Dims()
	for _, idx := range e.touched {
		from := int(e.cellMark[idx]) - 1
		e.cellMark[idx] = 0
		blk := e.g.CellBlockFrom(idx, from)
		n := blk.Len()
		if n == 0 {
			continue
		}
		e.probe(idx, blk.Coords, blk.Ptrs, dims)
		il := e.g.Influence(idx)
		if len(il) == 0 {
			continue
		}
		if cap(e.scoreBuf) < n {
			e.scoreBuf = make([]float64, 0, n+n/2+8)
		}
		scores := e.scoreBuf[:n]
		for _, id := range il {
			q := e.lookup(id)
			if q == nil {
				continue
			}
			e.stats.InfluenceEvents += int64(n)
			q.cost += int64(n)
			geom.ScoreBlockInto(q.spec.F, blk.Coords, dims, scores)
			e.applyInsertBlock(q, blk, scores, dims)
		}
	}
	e.touched = e.touched[:0]
	e.flushPending()
}

// probe delivers one cell's block of stream events — its new sub-block, or
// its expired tuples (coords nil: gathered here) — to the threshold queries
// through the query index. Clusters cached on the cell whose score upper
// bound misses their lowest member threshold are dropped wholesale; the
// rest score the block against up to qTile members per multi-query kernel
// call, and only a member with a score reaching its own threshold handles
// it. Membership is the admission predicate — a score strictly above the
// threshold, inside the constraint — in both directions: arrivals that
// pass it are admitted, expiring tuples that pass it are dropped. Scores
// are bit-identical on every kernel leg and tile position, so an expiring
// tuple passes exactly when it passed on arrival (or was in the window at
// Register). The skips are exact (a member tuple scores strictly above its
// query's threshold) and skipped members are not charged, so the
// transcript is exactly what per-query delivery would produce.
//
//topk:hot
func (e *Engine) probe(idx int, coords []float64, tuples []*stream.Tuple, dims int) {
	if e.qi.NumQueries() == 0 {
		return // even an empty lookup costs a cache miss on the cell's cache epoch
	}
	entries := e.qi.CellEntries(idx)
	if len(entries) == 0 {
		return
	}
	n := len(tuples)
	arriving := coords != nil
	if !arriving {
		if cap(e.expCoords) < n*dims {
			e.expCoords = make([]float64, 0, n*dims+n*dims/2+8)
		}
		coords = e.expCoords[:0]
		for _, t := range tuples {
			coords = append(coords, t.Vec...)
		}
	}
	for _, ce := range entries {
		cl := ce.C
		m := cl.Len()
		if m == 0 || ce.UB < cl.MinBound() {
			continue
		}
		if e.skipByEnvelope(cl, coords, n) {
			continue
		}
		for base := 0; base < m; base += qTile {
			end := base + qTile
			if end > m {
				end = m
			}
			need := (end - base) * n
			if cap(e.mqDst) < need {
				e.mqDst = make([]float64, 0, need+need/2+8)
			}
			dst := e.mqDst[:need]
			cl.ScoreMembers(dst, coords, base, end, dims)
			for j := base; j < end; j++ {
				bnd := cl.BoundAt(j)
				if ce.UB < bnd {
					continue
				}
				row := dst[(j-base)*n : (j-base+1)*n]
				if !rowReaches(row, bnd) {
					continue
				}
				q := e.queries[cl.IDAt(j)]
				e.stats.InfluenceEvents += int64(n)
				q.cost += int64(n)
				head := &q.addHead
				if !arriving {
					head = &q.remHead
				}
				cons := q.spec.Constraint
				for i, score := range row {
					if score <= bnd {
						continue
					}
					if cons != nil && !cons.Contains(geom.Vector(coords[i*dims:(i+1)*dims])) {
						continue
					}
					e.logThreshold(head, Entry{T: tuples[i], Score: score})
					e.markDirty(q)
				}
			}
		}
	}
}

// envMinMembers is the cluster size from which the envelope prefilter
// pays: scoring the envelope costs one extra member's worth of kernel
// work, so tiny clusters go straight to member scoring.
const envMinMembers = 8

// skipByEnvelope reports whether a whole cluster can be skipped for the
// given block: the block's n points are scored once against the
// cluster's weight envelope (a bitwise upper bound on every member's
// score of the same point), and if not even that bound reaches the
// cluster's minimum member bound, no member's own score can reach its
// own (>= minimum) bound and the member loop would deliver nothing.
// This is what keeps a hot cell's probe sublinear in cluster size: a
// near-duplicate cluster is pruned for the common blocks that score
// below its threshold band at the cost of one single-query kernel call,
// instead of scoring every member.
//
//topk:hot
func (e *Engine) skipByEnvelope(cl *qindex.Cluster, coords []float64, n int) bool {
	if cl.Len() < envMinMembers {
		return false
	}
	if cap(e.ubRow) < n {
		e.ubRow = make([]float64, 0, n+8)
	}
	ub := e.ubRow[:n]
	return cl.ScoreEnvelope(ub, coords) && !rowReaches(ub, cl.MinBound())
}

// rowReaches reports whether any score in row reaches bound. Equality
// counts as reaching, matching the cell-level UB < bound skips: a
// threshold query admits strictly above its bound, so this only errs
// toward delivery.
//
//topk:hot
func rowReaches(row []float64, bound float64) bool {
	for _, s := range row {
		if s >= bound {
			return true
		}
	}
	return false
}

// applyInsertBlock feeds one scored cell block to one top-k query's
// maintenance state — the per-event logic of the old per-tuple path, with
// the score already computed.
//
//topk:hot
func (e *Engine) applyInsertBlock(q *query, blk grid.Block, scores []float64, dims int) {
	cons := q.spec.Constraint
	if q.spec.Policy == SMA {
		// Stale filter: kth score at the last from-scratch computation
		// (-Inf while underfull, admitting everything). topScore only
		// changes at recomputation — never inside a cycle's insert
		// phase — so filtering the whole block against it is exact.
		for j, score := range scores {
			if score < q.topScore {
				continue
			}
			if cons != nil && !cons.Contains(geom.Vector(blk.Coords[j*dims:(j+1)*dims])) {
				continue
			}
			if len(q.pending) == 0 {
				e.pendingQs = append(e.pendingQs, q)
			}
			q.pending = append(q.pending, Entry{T: blk.Ptrs[j], Score: score})
			e.markDirty(q)
		}
		return
	}
	// TMA: an arrival enters the top list when it beats the last entry
	// (whose score topScore holds; -Inf admits everything), and the
	// result changes when it enters the first k.
	for j, score := range scores {
		if score < q.topScore || score == q.topScore && blk.Seqs[j] <= q.top[len(q.top)-1].T.Seq {
			continue
		}
		if cons != nil && !cons.Contains(geom.Vector(blk.Coords[j*dims:(j+1)*dims])) {
			continue
		}
		if q.insertTop(Entry{T: blk.Ptrs[j], Score: score}) {
			e.markDirty(q)
		}
	}
}

// flushPending applies the buffered SMA admissions in ascending sequence
// order — the order skyband insertion requires (each insert must be the
// latest arrival among the entries). It runs at the end of every insert
// phase, before any expiration of the same cycle is processed.
//
//topk:hot
func (e *Engine) flushPending() {
	for _, q := range e.pendingQs {
		slices.SortFunc(q.pending, func(a, b Entry) int {
			if a.T.Seq < b.T.Seq {
				return -1
			}
			return 1
		})
		e.skyScratch = e.skyScratch[:0]
		for _, en := range q.pending {
			e.skyScratch = append(e.skyScratch, skyband.Entry{T: en.T, Score: en.Score})
		}
		q.sky.InsertBatch(e.skyScratch)
		q.skyChanged = true
		q.pending = q.pending[:0]
	}
	e.pendingQs = e.pendingQs[:0]
}

// expireBatch removes one cycle's expiration run from the index and
// delivers each touched cell's share to the threshold queries through the
// query-index probe and to the top-k queries on the cell's influence list
// (Figure 9 lines 8-11 / Figure 11 lines 12-16). Expirations are grouped
// by cell so each influenced query handles a whole block per lookup;
// per-event outcomes are order-independent (TMA's affected flag is
// set-semantics, a threshold drop depends on its tuple alone, and an
// expiring skyband entry dominates
// nothing, so its removal never touches other entries' counters).
//
//topk:hot
func (e *Engine) expireBatch(expirations []*stream.Tuple) {
	buckets := 0
	for _, t := range expirations {
		e.stats.Expirations++
		idx := e.g.IndexOf(t.Vec)
		e.g.Remove(t)
		m := e.cellMark[idx]
		if m == 0 {
			if buckets == len(e.expBuckets) {
				e.expBuckets = append(e.expBuckets, expBucket{})
			}
			e.expBuckets[buckets].idx = idx
			e.expBuckets[buckets].tuples = e.expBuckets[buckets].tuples[:0]
			buckets++
			m = int32(buckets)
			e.cellMark[idx] = m
		}
		b := &e.expBuckets[m-1]
		b.tuples = append(b.tuples, t)
	}
	for i := 0; i < buckets; i++ {
		b := &e.expBuckets[i]
		e.cellMark[b.idx] = 0
		n := int64(len(b.tuples))
		e.probe(b.idx, nil, b.tuples, e.g.Dims())
		for _, id := range e.g.Influence(b.idx) {
			q := e.lookup(id)
			if q == nil {
				continue
			}
			e.stats.InfluenceEvents += n
			q.cost += n
			e.applyExpireBlock(q, b.tuples)
		}
		// Release the tuple references so expired tuples are not pinned
		// until the bucket's next reuse.
		for j := range b.tuples {
			b.tuples[j] = nil
		}
		b.tuples = b.tuples[:0]
	}
}

// applyExpireBlock feeds one cell's expired tuples to one top-k query's
// maintenance state.
//
//topk:hot
func (e *Engine) applyExpireBlock(q *query, tuples []*stream.Tuple) {
	if q.spec.Policy == SMA {
		for _, t := range tuples {
			if q.sky.Remove(t.ID) {
				q.skyChanged = true
				e.markDirty(q)
			}
		}
		return
	}
	for _, t := range tuples {
		i := slices.Index(q.topID, t.ID)
		if i < 0 || !q.removeTop(i) {
			continue
		}
		// The result lost a tuple. Fewer than k entries left: mark
		// affected; recomputation happens after the whole deletion batch
		// (Figure 9 line 11-13).
		if len(q.top) < q.spec.K {
			q.affected = true
		}
		e.markDirty(q)
	}
}

// finishCycle recomputes affected queries, samples statistics, and emits
// result deltas ordered by query id.
//
//topk:hot
func (e *Engine) finishCycle() []Update {
	e.dirtyIDs = e.takeDirty(e.dirtyIDs[:0])
	// Recompute affected TMA queries and underflowing SMA skybands.
	for _, id := range e.dirtyIDs {
		q := e.queries[id]
		switch {
		case q.kind != topkKind:
		case q.spec.Policy == TMA && q.affected:
			e.computeFromScratch(q)
			q.affected = false
		case q.spec.Policy == SMA && q.skyChanged:
			if q.sky.Len() < q.spec.K && e.g.NumPoints() > q.sky.Len() {
				e.computeFromScratch(q)
			}
			q.skyChanged = false
		}
	}

	// Sample skyband sizes for Table 2.
	for _, q := range e.sma {
		e.stats.SkybandSizeSum += int64(q.sky.Len())
		e.stats.SkybandSamples++
	}

	// Report changes to the client (Figure 9 line 22 / Figure 11 line 23).
	return e.report()
}

// computeFromScratch runs the top-k computation module for q, refreshes the
// policy state, registers the new influence region and prunes the stale
// one (Figure 9 lines 13-21).
func (e *Engine) computeFromScratch(q *query) {
	e.stats.Recomputes++
	work := e.s.CellsProcessed + e.s.HeapOps
	res := e.s.TopK(topk.Request{F: q.spec.F, K: q.kmax, Constraint: q.spec.Constraint})
	q.cost += e.s.CellsProcessed + e.s.HeapOps - work

	if q.spec.Policy == SMA {
		e.skyScratch = e.skyScratch[:0]
		for _, en := range res.Top {
			e.skyScratch = append(e.skyScratch, skyband.Entry{T: en.T, Score: en.Score})
		}
		q.sky.Rebuild(e.skyScratch)
	} else {
		q.top, q.topID = q.top[:0], q.topID[:0]
		for _, en := range res.Top {
			q.top = append(q.top, Entry{T: en.T, Score: en.Score})
			q.topID = append(q.topID, en.T.ID)
		}
	}
	if len(res.Top) == q.kmax {
		q.topScore = res.Top[q.kmax-1].Score
	} else {
		q.topScore = math.Inf(-1)
	}
	q.regScore = q.topScore

	// Register the new influence region...
	for _, idx := range res.Processed {
		e.g.AddInfluence(idx, q.id)
	}
	// ...and prune the stale one, walking worse-ward from the frontier
	// cells left in the heap (Figure 9 lines 14-21). Worse-stepping only
	// decreases maxscore, so the walk can never re-enter (and damage) the
	// just-registered region.
	e.walkInfluence(q, res.Frontier)
}

// walkInfluence removes q from the influence list of every cell reachable
// from seeds through cells still holding an entry for q, stepping
// worse-ward along every axis. It implements both the pruning walk after a
// recomputation and the cleanup at query termination.
//
//topk:hot
func (e *Engine) walkInfluence(q *query, seeds []int) {
	e.walkGen++
	if e.walkGen == 0 {
		for i := range e.walkVisited {
			e.walkVisited[i] = 0
		}
		e.walkGen = 1
	}
	queue := e.walkQueue[:0]
	for _, idx := range seeds {
		if e.walkVisited[idx] != e.walkGen {
			e.walkVisited[idx] = e.walkGen
			queue = append(queue, idx)
		}
	}
	for len(queue) > 0 {
		idx := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		e.stats.CellsWalked++
		q.cost++
		if !e.g.RemoveInfluence(idx, q.id) {
			continue
		}
		for dim := 0; dim < e.g.Dims(); dim++ {
			n, ok := e.g.StepWorse(idx, dim, q.spec.F.Direction(dim))
			if !ok || e.walkVisited[n] == e.walkGen {
				continue
			}
			e.walkVisited[n] = e.walkGen
			queue = append(queue, n)
		}
	}
	e.walkQueue = queue[:0]
}

func (e *Engine) markDirty(q *query) {
	w := q.id / 64
	e.dirty[w] |= 1 << (q.id % 64)
	e.dirtyWords[w/64] |= 1 << (w % 64)
}

// takeDirty appends the ids of the queries touched in the current cycle to
// out in id order, visiting only the dirty set's non-zero words, and
// clears the set.
//
//topk:hot
func (e *Engine) takeDirty(out []QueryID) []QueryID {
	for s, sum := range e.dirtyWords {
		if sum == 0 {
			continue
		}
		e.dirtyWords[s] = 0
		for ; sum != 0; sum &= sum - 1 {
			w := s*64 + bits.TrailingZeros64(sum)
			for word := e.dirty[w]; word != 0; word &= word - 1 {
				out = append(out, QueryID(w*64+bits.TrailingZeros64(word)))
			}
			e.dirty[w] = 0
		}
	}
	return out
}

// isDirty reports whether the current cycle touched query id.
func (e *Engine) isDirty(id QueryID) bool { return e.dirty[id/64]&(1<<(id%64)) != 0 }

// insertTop inserts an entry into a TMA top list, keeping descending total
// order and at most kmax entries (a full list drops its last entry, as in
// the paper, where kmax = k: TMA maintains exactly k results), and reports
// whether it entered the first k, the query's result.
//
//topk:hot
func (q *query) insertTop(en Entry) bool {
	lo, hi := 0, len(q.top)
	for lo < hi {
		mid := (lo + hi) / 2
		if stream.Better(q.top[mid].Score, q.top[mid].T.Seq, en.Score, en.T.Seq) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if len(q.top) < q.kmax {
		q.top = append(q.top, Entry{})
		q.topID = append(q.topID, 0)
	}
	copy(q.top[lo+1:], q.top[lo:])
	copy(q.topID[lo+1:], q.topID[lo:])
	q.top[lo], q.topID[lo] = en, en.T.ID
	if len(q.top) == q.kmax {
		q.topScore = q.top[q.kmax-1].Score
	}
	return lo < q.spec.K
}

// removeTop deletes entry i of a TMA top list and reports whether it was
// among the first k, the query's result. topScore follows the new last
// entry, unless the list holds every valid tuple (-Inf), which it still
// does.
func (q *query) removeTop(i int) bool {
	q.top = slices.Delete(q.top, i, i+1)
	q.topID = slices.Delete(q.topID, i, i+1)
	if n := len(q.top); math.IsInf(q.topScore, -1) || n == 0 {
		q.topScore = math.Inf(-1)
	} else {
		q.topScore = q.top[n-1].Score
	}
	return i < q.spec.K
}

// currentResult appends a top-k query's current result to out: the first k
// entries of the TMA top list or of the skyband, in descending total order.
func (q *query) currentResult(out []Entry) []Entry {
	if q.spec.Policy == SMA {
		n := q.spec.K
		if n > q.sky.Len() {
			n = q.sky.Len()
		}
		for _, en := range q.sky.Entries()[:n] {
			out = append(out, Entry{T: en.T, Score: en.Score})
		}
		return out
	}
	return append(out, q.top[:min(len(q.top), q.spec.K)]...)
}

// viewCapacity returns kmax, the most entries a top-k query's list holds
// (see query.top): DefaultKMax(k) for TMA under update streams, k
// otherwise.
func (e *Engine) viewCapacity(spec QuerySpec) int {
	if spec.Policy == TMA && e.opts.Mode == UpdateStream {
		return DefaultKMax(spec.K)
	}
	return spec.K
}

// MemoryBytes implements Monitor, mirroring the space analysis of
// Section 6: the index (grid + valid list, or under update streams the
// grid's tuple table and the per-cycle id tables, at capacity) plus the
// query-table entries (O(d + 2k') for TMA, k' <= kmax the length of its
// top list, O(d + 3k) for SMA, O(d) for a threshold query, which holds no
// result) and the query index.
func (e *Engine) MemoryBytes() int64 {
	const (
		entrySize    = 24 // tuple pointer + score
		skyEntrySize = 32 // tuple pointer + score + dominance counter
		idSize       = 8  // one word of an id column
		queryBase    = 96
	)
	total := e.g.MemoryBytes()
	if e.w != nil {
		total += e.w.MemoryBytes()
	}
	total += e.batchIDs.MemoryBytes() + e.goneIDs.MemoryBytes()
	// The table costs a pointer per issued id.
	total += int64(len(e.queries)) * 8
	for _, q := range e.queries {
		if q == nil {
			continue
		}
		total += queryBase + int64(q.spec.F.Dims())*8
		total += int64(len(q.top)) * (entrySize + idSize)
		if q.sky != nil {
			total += int64(q.sky.Len()) * (skyEntrySize + idSize)
		}
		total += int64(len(q.reported)) * entrySize
	}
	total += e.qi.MemoryBytes()
	if total > e.memHW {
		e.memHW = total
	}
	return total
}
