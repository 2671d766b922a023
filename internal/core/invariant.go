package core

import (
	"fmt"
	"math"
	"slices"

	"topkmon/internal/geom"
	"topkmon/internal/stream"
	"topkmon/internal/validate"
)

// ruleWants reports whether cell idx belongs to query q's influence region
// under the registration rule of Section 6 —
//
//	top-k queries:     cells whose (constraint-clipped) maxscore is
//	                   >= regScore (all cells intersecting the constraint
//	                   while the result is underfull, regScore = -Inf);
//	threshold queries: cells whose clipped maxscore is > the threshold.
//
// r is caller-provided scratch sized to the workspace dimensionality; its
// contents are overwritten. The rule is the single source of truth for
// both delivery structures: the influence lists materialize it per
// (top-k query, cell) pair, the query index covers it from per-query
// thresholds, and the introspection surface reports it for either.
func (e *Engine) ruleWants(q *query, idx int, r *geom.Rect) bool {
	e.g.RectInto(idx, r)
	if q.spec.Constraint != nil {
		if !r.IntersectInto(*q.spec.Constraint, r) {
			return false
		}
	}
	ms := geom.MaxScore(q.spec.F, *r)
	if q.kind == thresholdKind {
		return ms > *q.spec.Threshold
	}
	if math.IsInf(q.regScore, -1) {
		return true
	}
	return ms >= q.regScore
}

// scratchRect allocates a workspace-sized rectangle for ruleWants loops.
func (e *Engine) scratchRect() geom.Rect {
	d := e.opts.Dims
	return geom.Rect{Lo: make(geom.Vector, d), Hi: make(geom.Vector, d)}
}

// CheckInfluence verifies the per-query delivery bookkeeping: every query
// is in exactly one structure, chosen by kind.
//
// For every top-k query the set of cells holding an influence-list entry
// must be exactly the influence region given by ruleWants at the time the
// lists were last registered. For every threshold query the query index
// must hold it at exactly its threshold and the lists must not name it;
// the index's own invariants (locator consistency, weight-envelope
// dominance, bound ordering, cell-cache completeness) are validated too,
// and it must hold nothing but the threshold queries. A threshold query's
// on-demand result must equal a brute-force scan of the valid tuples
// (validate.Threshold), ids and score bits alike.
//
// It is O(Q × (cells + N)) and intended for continuous verification in tests:
// the shard monitors and the ingestion pipeline expose it as well, so
// stress and differential suites can assert the invariant after every
// processing cycle rather than only at end-of-run.
func (e *Engine) CheckInfluence() error {
	if err := e.qi.Validate(); err != nil {
		return err
	}
	r := e.scratchRect()
	thresholds, listed := 0, 0
	var valid []*stream.Tuple
	if e.qi.NumQueries() > 0 {
		for idx := 0; idx < e.g.NumCells(); idx++ {
			e.g.PointsDo(idx, func(t *stream.Tuple) bool {
				valid = append(valid, t)
				return true
			})
		}
	}
	for _, q := range e.queries {
		if q == nil {
			continue
		}
		id := q.id
		if q.kind == thresholdKind {
			thresholds++
			got, ok := e.qi.BoundOf(id)
			if !ok {
				return fmt.Errorf("threshold query %d: not present in the query index", id)
			}
			if got != *q.spec.Threshold {
				return fmt.Errorf("threshold query %d: indexed bound %g, want %g", id, got, *q.spec.Threshold)
			}
			if err := e.checkThresholdResult(q, valid); err != nil {
				return err
			}
			continue
		}
		for idx := 0; idx < e.g.NumCells(); idx++ {
			want := e.ruleWants(q, idx, &r)
			got := e.g.HasInfluence(idx, id)
			if got != want {
				return fmt.Errorf("query %d cell %d: registered=%v want %v (regScore=%g, maxscore=%g)",
					id, idx, got, want, q.regScore, geom.MaxScore(q.spec.F, e.g.Rect(idx)))
			}
			if got {
				listed++
			}
		}
	}
	if n := e.qi.NumQueries(); n != thresholds {
		return fmt.Errorf("query index holds %d queries, engine has %d threshold queries", n, thresholds)
	}
	// The lists hold exactly the entries counted above, so none names a
	// threshold (or unregistered) query.
	if n := e.g.TotalInfluenceEntries(); n != listed {
		return fmt.Errorf("grid holds %d influence entries, top-k queries account for %d", n, listed)
	}
	return nil
}

// checkThresholdResult compares a threshold query's result with the
// brute-force scan of the valid tuples, in the reporting order.
func (e *Engine) checkThresholdResult(q *query, valid []*stream.Tuple) error {
	got, err := e.AppendResult(q.id, nil)
	if err != nil {
		return err
	}
	want := validate.Threshold(valid, q.spec.F, *q.spec.Threshold, q.spec.Constraint)
	if len(got) != len(want) {
		return fmt.Errorf("threshold query %d: result holds %d tuples, brute force finds %d", q.id, len(got), len(want))
	}
	slices.SortFunc(want, func(a, b validate.Entry) int { return EntryOrder(Entry(a), Entry(b)) })
	for i, w := range want {
		if got[i].T.ID != w.T.ID || got[i].Score != w.Score {
			return fmt.Errorf("threshold query %d: result[%d] = tuple %d score %v, brute force has tuple %d score %v",
				q.id, i, got[i].T.ID, got[i].Score, w.T.ID, w.Score)
		}
	}
	return nil
}
