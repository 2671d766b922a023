package core

import (
	"fmt"
	"math"
	"slices"

	"topkmon/internal/skyband"
)

// QuerySnapshot is the complete portable state of one registered query:
// everything ImportQueryAt needs so that the query's subsequent behavior
// on the importing engine is byte-identical to what it would have been on
// the exporting one. It is the per-query unit of a checkpoint
// (internal/recovery).
//
// What moves: the spec, the admission filters (TopScore/RegScore), a
// top-k query's policy state (TMA top list, or SMA skyband with dominance
// counters), its reporting baseline (LastReported — the result as last
// handed to the client, which anchors future Update deltas) and its
// registered influence-cell set, and the attributed maintenance cost. A
// threshold query moves its spec and cost alone: its result is a function
// of the window the importing engine already indexes.
//
// What is re-derived: nothing. The importing engine must already index the
// same tuple stream under identical Options (same dimensionality, grid
// resolution and stream mode — validated on import); tuples are carried by
// pointer, so snapshots are only meaningful between engines fed the same
// *stream.Tuple instances — on the restore path, the tail the checkpoint
// replays.
type QuerySnapshot struct {
	Spec QuerySpec
	// Dims, GridRes and Mode pin the geometry and stream model the
	// influence-cell indices and policy state refer to; ImportQueryAt
	// rejects a snapshot taken under different options.
	Dims    int
	GridRes int
	Mode    StreamMode

	// TopScore and RegScore are the admission filters (see query).
	TopScore float64
	RegScore float64

	// Top is the TMA top list in descending total order (nil for SMA and
	// threshold queries): the query's whole view, up to kmax entries, of
	// which the first k are the result. A list of at most k entries, all
	// an engine without views ever wrote, imports as a view of that size.
	Top []Entry
	// Skyband is the full SMA skyband — entries with their dominance
	// counters, descending total order (nil for TMA and threshold queries).
	Skyband []skyband.Entry
	// LastReported is a top-k query's result as last reported to the
	// client, descending total order: the baseline future Update deltas
	// diff against. A threshold query reports from a per-cycle change log
	// and has no baseline: it exports none, and import ignores the field.
	LastReported []Entry
	// InfluenceCells lists the grid cells currently holding an influence
	// entry for a top-k query, ascending. Threshold queries live in the
	// query index, whose placement is implied by the threshold: they
	// export no cells, and import ignores the field for them.
	InfluenceCells []int
	// Cost is the accumulated attributed maintenance cost (see Stats), so
	// a restored shard's ShardLoad.Cost keeps the query's history.
	Cost int64
}

// ExportQuery snapshots the full state of query id. It must be called
// between processing cycles — the engine refuses to export a query with
// unfinished cycle work (dirty/affected flags set), because that state is
// only meaningful to the cycle that raised it. The snapshot deep-copies all
// engine-owned containers; only the tuples themselves are shared by
// pointer.
func (e *Engine) ExportQuery(id QueryID) (QuerySnapshot, error) {
	q := e.lookup(id)
	if q == nil {
		return QuerySnapshot{}, fmt.Errorf("core: unknown query %d", id)
	}
	if e.isDirty(id) || q.affected || q.skyChanged {
		return QuerySnapshot{}, fmt.Errorf("core: query %d has unfinished cycle state; export only between cycles", id)
	}
	snap := QuerySnapshot{
		Spec:     q.spec,
		Dims:     e.opts.Dims,
		GridRes:  e.g.Res(),
		Mode:     e.opts.Mode,
		TopScore: q.topScore,
		RegScore: q.regScore,
		Cost:     q.cost,
	}
	if q.kind == thresholdKind {
		return snap, nil
	}
	snap.LastReported = slices.Clone(q.reported)
	if q.spec.Policy == SMA {
		snap.Skyband = slices.Clone(q.sky.Entries())
	} else {
		snap.Top = slices.Clone(q.top)
	}
	for idx := 0; idx < e.g.NumCells(); idx++ {
		if e.g.HasInfluence(idx, id) {
			snap.InfluenceCells = append(snap.InfluenceCells, idx)
		}
	}
	return snap, nil
}

// ImportQueryAt installs a query from a snapshot under id, registering its
// influence cells (top-k) or indexing its threshold, without running any
// computation: the imported query resumes exactly where the exported one
// stopped. The id must be free; the watermark advances past it if
// necessary (restores then pin the exact watermark with SetNextQueryID).
// The engine must have been constructed with the same workspace
// dimensionality, grid resolution and stream mode, and must index the same
// tuple stream as the exporter; violations of the former are rejected
// here, the latter is the caller's contract.
func (e *Engine) ImportQueryAt(snap QuerySnapshot, id QueryID) error {
	if e.lookup(id) != nil {
		return fmt.Errorf("core: query id %d already registered", id)
	}
	if snap.Spec.F == nil {
		return fmt.Errorf("core: snapshot has no scoring function")
	}
	if snap.Dims != e.opts.Dims {
		return fmt.Errorf("core: snapshot dimensionality %d != workspace %d", snap.Dims, e.opts.Dims)
	}
	if snap.GridRes != e.g.Res() {
		return fmt.Errorf("core: snapshot grid resolution %d != engine %d", snap.GridRes, e.g.Res())
	}
	if snap.Mode != e.opts.Mode {
		return fmt.Errorf("core: snapshot stream mode %v != engine %v", snap.Mode, e.opts.Mode)
	}
	for _, idx := range snap.InfluenceCells {
		if idx < 0 || idx >= e.g.NumCells() {
			return fmt.Errorf("core: snapshot influence cell %d outside grid of %d cells", idx, e.g.NumCells())
		}
	}

	q := &query{
		id:       id,
		spec:     snap.Spec,
		topScore: snap.TopScore,
		regScore: snap.RegScore,
		cost:     snap.Cost,
	}
	switch {
	case snap.Spec.Threshold != nil:
		q.kind = thresholdKind
	case snap.Spec.Policy == SMA:
		if e.opts.Mode == UpdateStream {
			return fmt.Errorf("core: SMA is unavailable under update streams (expiry order unknown, Section 7)")
		}
		if snap.Spec.K <= 0 {
			return fmt.Errorf("core: K must be positive, got %d", snap.Spec.K)
		}
		q.kind = topkKind
		q.kmax = e.viewCapacity(snap.Spec)
		q.sky = skyband.New(snap.Spec.K)
		if err := q.sky.Restore(snap.Skyband); err != nil {
			return err
		}
	case snap.Spec.Policy == TMA:
		if snap.Spec.K <= 0 {
			return fmt.Errorf("core: K must be positive, got %d", snap.Spec.K)
		}
		q.kind = topkKind
		q.kmax = e.viewCapacity(snap.Spec)
		if len(snap.Top) > q.kmax {
			return fmt.Errorf("core: snapshot top list holds %d entries, capacity %d", len(snap.Top), q.kmax)
		}
		if !math.IsInf(snap.TopScore, -1) && (len(snap.Top) == 0 || snap.Top[len(snap.Top)-1].Score != snap.TopScore) {
			return fmt.Errorf("core: snapshot admission score %g is not the last entry's", snap.TopScore)
		}
		q.top = slices.Clone(snap.Top)
		for _, en := range q.top {
			q.topID = append(q.topID, en.T.ID)
		}
	default:
		return fmt.Errorf("core: unknown policy %v", snap.Spec.Policy)
	}
	if q.kind == topkKind {
		if !slices.IsSortedFunc(snap.Top, betterCmp) || !slices.IsSortedFunc(snap.LastReported, betterCmp) {
			return fmt.Errorf("core: snapshot result lists not in descending total order")
		}
		q.reported = slices.Clone(snap.LastReported)
	}

	e.install(q)
	if q.kind == thresholdKind {
		if err := e.qi.Add(q.id, snap.Spec.F, *snap.Spec.Threshold); err != nil {
			panic(err)
		}
	} else {
		for _, idx := range snap.InfluenceCells {
			e.g.AddInfluence(idx, q.id)
		}
	}
	if id >= e.nextID {
		e.nextID = id + 1
	}
	return nil
}

// QueryCost is one registered query's attributed maintenance cost.
type QueryCost struct {
	ID   QueryID
	Cost int64
}

// AppendQueryCosts appends every registered query's (id, cumulative cost)
// pair to out and returns the extended slice, ordered by id. It is the
// cheap read behind ShardLoad.Cost (internal/shard) — O(Q), no grid scan.
func (e *Engine) AppendQueryCosts(out []QueryCost) []QueryCost {
	for _, q := range e.queries {
		if q != nil {
			out = append(out, QueryCost{ID: q.id, Cost: q.cost})
		}
	}
	return out
}
