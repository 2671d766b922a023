package core

import (
	"cmp"
	"slices"

	"topkmon/internal/stream"
)

// betterCmp is stream.Better as a comparator; 0 means tied.
func betterCmp(a, b Entry) int {
	switch {
	case stream.Better(a.Score, a.T.Seq, b.Score, b.T.Seq):
		return -1
	case stream.Better(b.Score, b.T.Seq, a.Score, a.T.Seq):
		return 1
	}
	return 0
}

// EntryOrder is the reporting total order: stream.Better, then ascending
// tuple id. Sequence numbers are unique under sliding windows but not
// validated under update streams, where only ids are.
func EntryOrder(a, b Entry) int {
	if c := betterCmp(a, b); c != 0 {
		return c
	}
	return cmp.Compare(a.T.ID, b.T.ID)
}

// DiffResults is the repository's one result-delta implementation (the
// engine, the data-sharded router and the TSL baseline report through it):
// it appends to added the entries of cur that last lacks and to removed the
// entries of last that cur lacks. Inputs and outputs are in descending
// stream.Better order; identity is the tuple id. Entries tied under Better
// (an update stream may reuse sequence numbers) may sit in any order in
// either input: a tied run is matched by id as a set, never by position.
//
//topk:hot
func DiffResults(last, cur, added, removed []Entry) (addedOut, removedOut []Entry) {
	i, j := 0, 0
	for i < len(last) && j < len(cur) {
		a, b := last[i], cur[j]
		if a.T == b.T || a.T.ID == b.T.ID {
			i++
			j++
			continue
		}
		switch c := betterCmp(a, b); {
		case c < 0:
			removed = append(removed, a)
			i++
		case c > 0:
			added = append(added, b)
			j++
		default:
			ie, je := tiedRunEnd(last, i), tiedRunEnd(cur, j)
			for _, a := range last[i:ie] {
				if !slices.ContainsFunc(cur[j:je], func(e Entry) bool { return e.T.ID == a.T.ID }) {
					removed = append(removed, a)
				}
			}
			for _, b := range cur[j:je] {
				if !slices.ContainsFunc(last[i:ie], func(e Entry) bool { return e.T.ID == b.T.ID }) {
					added = append(added, b)
				}
			}
			i, j = ie, je
		}
	}
	return append(added, cur[j:]...), append(removed, last[i:]...)
}

// tiedRunEnd returns the end of the run of entries tied with entries[i].
func tiedRunEnd(entries []Entry, i int) int {
	end := i + 1
	for end < len(entries) && betterCmp(entries[i], entries[end]) == 0 {
		end++
	}
	return end
}

// thrEvent is one record of the cycle's threshold log: a tuple a query
// admitted or dropped, chained to its previous record of that kind
// (1-based index into Engine.thrLog, 0 = none).
type thrEvent struct {
	en   Entry
	prev int32
}

// updateSpan is one staged update: its query and how many of the staged
// payload entries that follow are its Added and its Removed.
type updateSpan struct {
	query          QueryID
	added, removed int
}

// logThreshold records en on the admit or drop chain with the given head.
//
//topk:hot
func (e *Engine) logThreshold(head *int32, en Entry) {
	e.thrLog = append(e.thrLog, thrEvent{en: en, prev: *head})
	*head = int32(len(e.thrLog))
}

// report diffs every dirty query, in query-id order (finishCycle has taken
// them off the dirty set into dirtyIDs), staging the payloads
// on pooled scratch and then copying them into one exactly-sized arena: a
// cycle that changes no result allocates nothing, any other twice (see
// Update for what the caller may do with the slices).
//
//topk:hot
func (e *Engine) report() []Update {
	for _, id := range e.dirtyIDs {
		q := e.queries[id]
		// A top-k query's delta is its current result against the one it
		// last reported; a threshold query's is this cycle's admissions
		// against this cycle's drops — a tuple on both sides (admitted
		// and dropped within the cycle: r > N, or an update-stream
		// deletion naming a same-cycle arrival) cancels.
		var last, cur []Entry
		switch {
		case q.kind == thresholdKind:
			last, cur = e.thresholdSides(q)
		case q.spec.Policy == SMA:
			e.resScratch = q.currentResult(e.resScratch[:0])
			last, cur = q.reported, e.resScratch
		default:
			last, cur = q.reported, q.top[:min(len(q.top), q.spec.K)]
		}
		mark := len(e.payload)
		e.payload, e.remScratch = DiffResults(last, cur, e.payload, e.remScratch[:0])
		added := len(e.payload) - mark
		if added == 0 && len(e.remScratch) == 0 {
			continue
		}
		e.payload = append(e.payload, e.remScratch...)
		e.spans = append(e.spans, updateSpan{query: id, added: added, removed: len(e.remScratch)})
		if q.kind == topkKind {
			q.reported = append(q.reported[:0], cur...)
		}
	}
	// Cleared, not just truncated: pooled capacity must not pin tuples
	// that have left the window.
	clear(e.thrLog)
	e.thrLog = e.thrLog[:0]
	if len(e.spans) == 0 {
		return nil
	}

	arena := make([]Entry, len(e.payload))
	copy(arena, e.payload)
	updates := make([]Update, len(e.spans))
	for i, s := range e.spans {
		// Capacities are clipped so that appending to one payload copies
		// it instead of overwriting its neighbour in the arena.
		u := Update{Query: s.query}
		if s.added > 0 {
			u.Added, arena = arena[:s.added:s.added], arena[s.added:]
		}
		if s.removed > 0 {
			u.Removed, arena = arena[:s.removed:s.removed], arena[s.removed:]
		}
		updates[i] = u
	}
	e.stats.ResultUpdates += int64(len(updates))
	clear(e.payload)
	e.payload, e.spans = e.payload[:0], e.spans[:0]
	return updates
}

// thresholdSides unchains a threshold query's drops and admissions of the
// cycle, each sorted into the reporting order, and resets the chains. No
// result is read: the work follows the change.
//
//topk:hot
func (e *Engine) thresholdSides(q *query) (dropped, admitted []Entry) {
	buf := e.resScratch[:0]
	for i := q.remHead; i != 0; i = e.thrLog[i-1].prev {
		buf = append(buf, e.thrLog[i-1].en)
	}
	mid := len(buf)
	for i := q.addHead; i != 0; i = e.thrLog[i-1].prev {
		buf = append(buf, e.thrLog[i-1].en)
	}
	q.addHead, q.remHead, e.resScratch = 0, 0, buf
	slices.SortFunc(buf[:mid], EntryOrder)
	slices.SortFunc(buf[mid:], EntryOrder)
	return buf[:mid], buf[mid:]
}
