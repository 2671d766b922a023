// Package tsl implements the Threshold Sorted List algorithm of Section
// 3.2 — the benchmark competitor assembled from prior work that the paper
// compares TMA and SMA against:
//
//   - initial (and refill) top-k computation by Fagin's Threshold
//     Algorithm (TA) over d sorted attribute lists, with the per-round
//     threshold tau bounding the score of every unseen tuple;
//   - result maintenance by the materialized top-k view technique of Yi et
//     al.: each query keeps a view of k' entries, k <= k' <= kmax. Arrivals
//     beating the k'-th entry enter the view (dropping the kmax+1-th);
//     expirations shrink it; when k' falls below k the view is refilled to
//     kmax entries with a fresh TA run.
//
// The sorted lists are order-statistic AVL trees keyed by (attribute
// value, tuple id); each key carries the tuple pointer, so the "random
// access" of TA — fetching the remaining attributes of a tuple met during
// sorted access — is a pointer dereference, exactly as in a main-memory
// server that stores whole tuples.
//
// The //topk:deterministic directive below puts this package under the
// topklint determinism analyzer: no wall-clock reads, no unseeded
// randomness, no map-iteration-order leaks into outputs, no ad-hoc
// goroutines. The engine's transcripts must be a pure function of the
// input stream; see internal/analysis and doc.go for the rule catalog.
//
//topk:deterministic
package tsl

import (
	"cmp"
	"fmt"
	"slices"

	"topkmon/internal/container/ostree"
	"topkmon/internal/core"
	"topkmon/internal/geom"
	"topkmon/internal/stream"
	"topkmon/internal/window"
)

// listKey orders a sorted attribute list: by value, with the tuple id as
// tie-breaker. The tuple pointer is payload.
type listKey struct {
	val float64
	id  uint64
	t   *stream.Tuple
}

func listLess(a, b listKey) bool {
	if a.val != b.val {
		return a.val < b.val
	}
	return a.id < b.id
}

// view is one materialized top-k' view (Yi et al.).
type view struct {
	id   core.QueryID
	spec core.QuerySpec
	kmax int
	// entries in descending total order; len is k' in [0, kmax].
	entries []core.Entry
	ids     map[uint64]struct{}
	// complete marks a view known to contain every valid tuple (a refill
	// returned fewer than kmax entries). A complete view serves exact
	// results even when k' < k — the window simply holds fewer tuples.
	complete bool

	// reported is the result as last reported, in descending total order.
	reported []core.Entry
	dirty    bool
}

// Stats aggregates TSL counters.
type Stats struct {
	Arrivals    int64
	Expirations int64
	// Refills counts TA re-computations triggered by view underflow.
	Refills int64
	// InitialComputations counts TA runs at registration.
	InitialComputations int64
	// SortedAccesses counts entries read from the sorted lists during TA.
	SortedAccesses int64
	// ViewSizeSum / ViewSamples track per-cycle view cardinalities
	// (Table 2).
	ViewSizeSum int64
	ViewSamples int64
}

// AvgViewSize returns the average view cardinality per query per cycle
// (Table 2).
func (s Stats) AvgViewSize() float64 {
	if s.ViewSamples == 0 {
		return 0
	}
	return float64(s.ViewSizeSum) / float64(s.ViewSamples)
}

// Options configures a TSL monitor.
type Options struct {
	// Dims is the workspace dimensionality.
	Dims int
	// Window is the sliding-window specification.
	Window window.Spec
	// KMax overrides the per-query view capacity. Zero means DefaultKMax.
	KMax func(k int) int
}

// DefaultKMax returns the fine-tuned view capacities reported in Section 8
// for the paper's k values — (1,5,10,20,50,100) -> (4,10,20,30,70,120) —
// and a smooth interpolation elsewhere.
func DefaultKMax(k int) int {
	switch k {
	case 1:
		return 4
	case 5:
		return 10
	case 10:
		return 20
	case 20:
		return 30
	case 50:
		return 70
	case 100:
		return 120
	}
	extra := k / 2
	if extra < 3 {
		extra = 3
	}
	if extra > 20 {
		extra = 20
	}
	return k + extra
}

// Monitor is the TSL engine. It implements core.Monitor.
type Monitor struct {
	dims  int
	w     *window.Window
	lists []*ostree.Tree[listKey]

	queries map[core.QueryID]*view
	nextID  core.QueryID
	kmaxFn  func(k int) int

	now     int64
	started bool
	haveSeq bool
	lastSeq uint64

	dirtyList []*view
	stats     Stats
}

// New constructs a TSL monitor.
func New(opts Options) (*Monitor, error) {
	if opts.Dims <= 0 {
		return nil, fmt.Errorf("tsl: Dims must be positive, got %d", opts.Dims)
	}
	if err := opts.Window.Validate(); err != nil {
		return nil, err
	}
	kmax := opts.KMax
	if kmax == nil {
		kmax = DefaultKMax
	}
	m := &Monitor{
		dims:    opts.Dims,
		w:       window.New(opts.Window),
		lists:   make([]*ostree.Tree[listKey], opts.Dims),
		queries: make(map[core.QueryID]*view),
		kmaxFn:  kmax,
	}
	for i := range m.lists {
		m.lists[i] = ostree.New[listKey](listLess)
	}
	return m, nil
}

// Stats returns a snapshot of the counters.
func (m *Monitor) Stats() Stats { return m.stats }

// NumPoints returns the number of valid tuples.
func (m *Monitor) NumPoints() int { return m.w.Len() }

// Register implements core.Monitor. TSL supports plain top-k queries only
// (the role it plays in the paper's evaluation).
func (m *Monitor) Register(spec core.QuerySpec) (core.QueryID, error) {
	if spec.F == nil {
		return 0, fmt.Errorf("tsl: query needs a scoring function")
	}
	if spec.F.Dims() != m.dims {
		return 0, fmt.Errorf("tsl: function dimensionality %d != workspace %d", spec.F.Dims(), m.dims)
	}
	if spec.K <= 0 {
		return 0, fmt.Errorf("tsl: K must be positive, got %d", spec.K)
	}
	if spec.Constraint != nil || spec.Threshold != nil {
		return 0, fmt.Errorf("tsl: constrained and threshold queries are not supported by the baseline")
	}
	v := &view{
		id:   m.nextID,
		spec: spec,
		kmax: m.kmaxFn(spec.K),
		ids:  make(map[uint64]struct{}),
	}
	if v.kmax < spec.K {
		return 0, fmt.Errorf("tsl: kmax %d below k %d", v.kmax, spec.K)
	}
	m.nextID++
	m.queries[v.id] = v
	m.refill(v)
	m.stats.InitialComputations++
	m.stats.Refills--
	v.reported = v.result(nil)
	return v.id, nil
}

// Unregister implements core.Monitor.
func (m *Monitor) Unregister(id core.QueryID) error {
	v, ok := m.queries[id]
	if !ok {
		return fmt.Errorf("tsl: unknown query %d", id)
	}
	delete(m.queries, id)
	for i, dv := range m.dirtyList {
		if dv == v {
			m.dirtyList = append(m.dirtyList[:i], m.dirtyList[i+1:]...)
			break
		}
	}
	return nil
}

// Step implements core.Monitor: one processing cycle, arrivals before
// expirations.
func (m *Monitor) Step(now int64, arrivals []*stream.Tuple) ([]core.Update, error) {
	if m.started && now < m.now {
		return nil, fmt.Errorf("tsl: time went backwards: %d after %d", now, m.now)
	}
	for _, t := range arrivals {
		if t.TS != now {
			return nil, fmt.Errorf("tsl: arrival %v not stamped with cycle timestamp %d", t, now)
		}
		if m.haveSeq && t.Seq <= m.lastSeq {
			return nil, fmt.Errorf("tsl: arrival sequence %d not increasing (last %d)", t.Seq, m.lastSeq)
		}
		m.haveSeq = true
		m.lastSeq = t.Seq
	}
	m.started = true
	m.now = now

	for _, t := range arrivals {
		m.w.Push(t)
		m.insert(t)
	}
	for _, t := range m.w.Expire(now) {
		m.expire(t)
	}
	return m.finishCycle(), nil
}

// Result implements core.Monitor.
func (m *Monitor) Result(id core.QueryID) ([]core.Entry, error) {
	v, ok := m.queries[id]
	if !ok {
		return nil, fmt.Errorf("tsl: unknown query %d", id)
	}
	return v.result(nil), nil
}

func (m *Monitor) insert(t *stream.Tuple) {
	m.stats.Arrivals++
	for i, tr := range m.lists {
		tr.Insert(listKey{val: t.Vec[i], id: t.ID, t: t})
	}
	// Unlike the grid algorithms, TSL scores the arrival against every
	// active view — there is no influence-region filter. This is the
	// maintenance cost the paper's comparison highlights.
	for _, v := range m.queries {
		score := v.spec.F.Score(t.Vec)
		if v.offer(t, score) {
			m.markDirty(v)
		}
	}
}

func (m *Monitor) expire(t *stream.Tuple) {
	m.stats.Expirations++
	for i, tr := range m.lists {
		tr.Delete(listKey{val: t.Vec[i], id: t.ID})
	}
	for _, v := range m.queries {
		if _, ok := v.ids[t.ID]; !ok {
			continue
		}
		v.remove(t.ID)
		m.markDirty(v)
	}
}

func (m *Monitor) finishCycle() []core.Update {
	// Refill underflowing views (k' < k) unless they are complete — a
	// complete view already holds every valid tuple.
	for _, v := range m.dirtyList {
		if len(v.entries) < v.spec.K && !v.complete {
			m.refill(v)
		}
	}
	for _, v := range m.queries {
		m.stats.ViewSizeSum += int64(len(v.entries))
		m.stats.ViewSamples++
	}
	var updates []core.Update
	for _, v := range m.dirtyList {
		v.dirty = false
		cur := v.entries[:min(v.spec.K, len(v.entries))]
		added, removed := core.DiffResults(v.reported, cur, nil, nil)
		if len(added) == 0 && len(removed) == 0 {
			continue
		}
		v.reported = append(v.reported[:0], cur...)
		updates = append(updates, core.Update{Query: v.id, Added: added, Removed: removed})
	}
	m.dirtyList = m.dirtyList[:0]
	slices.SortFunc(updates, func(a, b core.Update) int { return cmp.Compare(a.Query, b.Query) })
	return updates
}

func (m *Monitor) markDirty(v *view) {
	if !v.dirty {
		v.dirty = true
		m.dirtyList = append(m.dirtyList, v)
	}
}

// refill replaces the view contents with a fresh TA top-kmax computation.
func (m *Monitor) refill(v *view) {
	m.stats.Refills++
	top := m.topKMax(v.spec.F, v.kmax)
	v.entries = v.entries[:0]
	clear(v.ids)
	for _, en := range top {
		v.entries = append(v.entries, en)
		v.ids[en.T.ID] = struct{}{}
	}
	v.complete = len(v.entries) < v.kmax
}

// topKMax is the TA module: round-robin sorted access over the d lists
// from each list's best end, random access for the remaining attributes,
// and the threshold tau = f(last attribute values encountered across the
// lists) as the stopping bound.
func (m *Monitor) topKMax(f geom.ScoringFunction, kmax int) []core.Entry {
	n := m.w.Len()
	if n == 0 {
		return nil
	}
	seen := make(map[uint64]struct{}, 4*kmax)
	tl := newBoundedTop(kmax)
	lastVals := make(geom.Vector, m.dims)
	for i := range lastVals {
		// Before any access, the bound per dimension is the best extreme.
		if f.Direction(i) == geom.Increasing {
			lastVals[i] = 1
		} else {
			lastVals[i] = 0
		}
	}
	for pos := 0; pos < n; pos++ {
		for i, tr := range m.lists {
			// Sorted access: position pos from the preferred end.
			rank := pos
			if f.Direction(i) == geom.Increasing {
				rank = n - 1 - pos
			}
			key, ok := tr.At(rank)
			if !ok {
				continue
			}
			m.stats.SortedAccesses++
			lastVals[i] = key.val
			if _, dup := seen[key.id]; dup {
				continue
			}
			seen[key.id] = struct{}{}
			// Random access: the tuple's other attributes.
			tl.offer(key.t, f.Score(key.t.Vec))
		}
		// After a full round, tau bounds every unseen tuple's score.
		if kth, full := tl.kth(); full {
			tau := f.Score(lastVals)
			if kth > tau {
				break
			}
		}
	}
	return tl.entries
}

// offer applies the Yi et al. arrival rule to the view: insert when the
// tuple beats the current k'-th entry (or unconditionally while the view is
// complete), dropping the overflow beyond kmax. It reports whether the view
// changed.
func (v *view) offer(t *stream.Tuple, score float64) bool {
	if len(v.entries) > 0 && !v.complete {
		last := v.entries[len(v.entries)-1]
		if !stream.Better(score, t.Seq, last.Score, last.T.Seq) {
			return false
		}
	}
	lo, hi := 0, len(v.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if stream.Better(v.entries[mid].Score, v.entries[mid].T.Seq, score, t.Seq) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	v.entries = append(v.entries, core.Entry{})
	copy(v.entries[lo+1:], v.entries[lo:])
	v.entries[lo] = core.Entry{T: t, Score: score}
	v.ids[t.ID] = struct{}{}
	if len(v.entries) > v.kmax {
		evicted := v.entries[len(v.entries)-1]
		v.entries = v.entries[:len(v.entries)-1]
		delete(v.ids, evicted.T.ID)
		v.complete = false
	}
	return true
}

func (v *view) remove(id uint64) {
	delete(v.ids, id)
	for i := range v.entries {
		if v.entries[i].T.ID == id {
			copy(v.entries[i:], v.entries[i+1:])
			v.entries = v.entries[:len(v.entries)-1]
			return
		}
	}
}

// result appends the first k view entries to out.
func (v *view) result(out []core.Entry) []core.Entry {
	n := v.spec.K
	if n > len(v.entries) {
		n = len(v.entries)
	}
	return append(out, v.entries[:n]...)
}

// MemoryBytes implements core.Monitor: d sorted lists of N nodes each, the
// valid list, and the per-query views.
func (m *Monitor) MemoryBytes() int64 {
	const (
		listNodeSize = 64 // key (val+id+ptr) + AVL node overhead
		entrySize    = 24
		mapEntrySize = 16
		queryBase    = 96
	)
	n := int64(m.w.Len())
	total := n*int64(m.dims)*listNodeSize + m.w.MemoryBytes()
	// Tuple payloads.
	total += n * (int64(8+8+8+24) + int64(m.dims)*8)
	for _, v := range m.queries {
		total += queryBase + int64(v.spec.F.Dims())*8
		total += int64(len(v.entries))*entrySize + int64(len(v.ids))*mapEntrySize
		total += int64(len(v.reported)) * entrySize
	}
	return total
}
