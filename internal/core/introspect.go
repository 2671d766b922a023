package core

import (
	"fmt"
	"math"
)

// QueryInfo is a read-only snapshot of one registered query's state,
// exposed for dashboards, debugging and the experiment harness.
type QueryInfo struct {
	ID   QueryID
	Spec QuerySpec
	// Kind is "topk" or "threshold".
	Kind string
	// ResultSize is the current result cardinality, at most k.
	ResultSize int
	// TopScore is the score a top-k result must beat: the kth score of
	// the result for TMA, the kth score at the last recomputation for
	// SMA, the fixed threshold for threshold queries. NaN while the result
	// is underfull.
	TopScore float64
	// SkybandSize is the current skyband cardinality (SMA queries only).
	SkybandSize int
	// ViewSize is the length of the TMA top list, k' (TMA queries only):
	// under update streams up to DefaultKMax(k) entries, of which the
	// first k are the result.
	ViewSize int
	// InfluenceCells counts the cells of the query's influence region:
	// for a top-k query the grid cells currently holding an entry for it
	// (the O(C) bookkeeping term of Section 6), for a threshold query the
	// cells its fixed bound reaches.
	InfluenceCells int
	// Cost is the maintenance work attributed to this query so far:
	// influence events examined plus the cells/heap operations of its
	// from-scratch computations and pruning walks. Deterministic for a
	// given stream.
	Cost int64
}

// Queries returns a snapshot of every registered query, ordered by id.
// Top-k cardinalities are gathered in one pass over the grid's influence
// lists, O(Q + cells). The query index stores no per-cell entries and a
// threshold query holds no result, so its InfluenceCells is reconstructed
// from the registration rule and its ResultSize by a threshold search —
// O(cells) per threshold query, acceptable for an introspection surface.
func (e *Engine) Queries() []QueryInfo {
	perQuery := make([]int, len(e.queries))
	for idx := 0; idx < e.g.NumCells(); idx++ {
		e.g.InfluenceDo(idx, func(id QueryID) bool {
			perQuery[id]++
			return true
		})
	}
	r := e.scratchRect()
	for id, q := range e.queries {
		if q == nil || q.kind != thresholdKind {
			continue
		}
		for idx := 0; idx < e.g.NumCells(); idx++ {
			if e.ruleWants(q, idx, &r) {
				perQuery[id]++
			}
		}
	}
	out := make([]QueryInfo, 0, e.numQueries)
	for id, q := range e.queries {
		if q == nil {
			continue
		}
		info := QueryInfo{
			ID:             q.id,
			Spec:           q.spec,
			Kind:           "topk",
			InfluenceCells: perQuery[id],
			TopScore:       q.topScore,
			Cost:           q.cost,
		}
		if math.IsInf(q.topScore, -1) {
			info.TopScore = math.NaN()
		}
		switch q.kind {
		case thresholdKind:
			info.Kind = "threshold"
			info.ResultSize = len(e.thresholdSearch(q))
		default:
			if q.spec.Policy == SMA {
				info.SkybandSize = q.sky.Len()
				info.ResultSize = q.sky.Len()
				if info.ResultSize > q.spec.K {
					info.ResultSize = q.spec.K
				}
			} else {
				info.ViewSize = len(q.top)
				info.ResultSize = min(len(q.top), q.spec.K)
				info.TopScore = math.NaN()
				if info.ResultSize == q.spec.K {
					info.TopScore = q.top[q.spec.K-1].Score
				}
			}
		}
		out = append(out, info)
	}
	return out
}

// QueryInfoFor returns the snapshot of a single query.
func (e *Engine) QueryInfoFor(id QueryID) (QueryInfo, error) {
	for _, info := range e.Queries() {
		if info.ID == id {
			return info, nil
		}
	}
	return QueryInfo{}, fmt.Errorf("core: unknown query %d", id)
}

// String renders a QueryInfo for logs.
func (qi QueryInfo) String() string {
	base := fmt.Sprintf("q%d %s f=%s", qi.ID, qi.Kind, qi.Spec.F)
	if qi.Kind == "threshold" {
		return fmt.Sprintf("%s threshold=%g results=%d cells=%d",
			base, *qi.Spec.Threshold, qi.ResultSize, qi.InfluenceCells)
	}
	return fmt.Sprintf("%s k=%d policy=%s results=%d skyband=%d view=%d cells=%d",
		base, qi.Spec.K, qi.Spec.Policy, qi.ResultSize, qi.SkybandSize, qi.ViewSize, qi.InfluenceCells)
}
