package core

import "topkmon/internal/qindex"

// InfluenceEntriesFor counts the cells of the query's influence region;
// used by the unregister test. A top-k query's region is what the grid's
// influence lists hold (stale entries of an unregistered query count too);
// a threshold query's is implied by its indexed bound, so it is
// reconstructed from the registration rule. (CheckInfluence
// itself lives in invariant.go: the shard and pipeline suites verify the
// invariant cross-package, continuously.)
func (e *Engine) InfluenceEntriesFor(id QueryID) int {
	q := e.lookup(id)
	thr := q != nil && q.kind == thresholdKind
	count := 0
	r := e.scratchRect()
	for idx := 0; idx < e.g.NumCells(); idx++ {
		if e.g.HasInfluence(idx, id) || thr && e.ruleWants(q, idx, &r) {
			count++
		}
	}
	return count
}

// TopScoreOf exposes a query's admission threshold for white-box tests.
func (e *Engine) TopScoreOf(id QueryID) float64 { return e.lookup(id).topScore }

// QueryIndex exposes the engine's query index for white-box tests.
func (e *Engine) QueryIndex() *qindex.Index { return e.qi }
