package core

import (
	"cmp"
	"fmt"
	"slices"

	"topkmon/internal/stream"
)

// This file is the engine's persistence surface: the accessors a
// checkpoint writer (internal/recovery) needs to capture an engine's
// identity between cycles — options, clock, window tail, query-id
// watermark — and the restore-side primitives that rebuild a
// byte-identical engine from that state. None of these run on the
// per-cycle hot path.

// Clock is the engine's cycle-clock state: the timestamp of the last
// processed cycle plus the stream-admission watermarks. Together with the
// window tail and the per-query snapshots it pins everything admitCycle
// consults, so a restored engine accepts and rejects exactly the batches
// the original would have.
type Clock struct {
	Now     int64
	Started bool
	HaveSeq bool
	LastSeq uint64
}

// Options returns the options the engine was constructed with (TargetCells
// normalized by validation).
func (e *Engine) Options() Options { return e.opts }

// ExportClock snapshots the engine clock and admission watermarks.
func (e *Engine) ExportClock() Clock {
	return Clock{Now: e.now, Started: e.started, HaveSeq: e.haveSeq, LastSeq: e.lastSeq}
}

// RestoreClock overwrites the engine clock and admission watermarks. It is
// a restore-path primitive: callers replay the window tail first (which
// advances the clock to the tail's last timestamp) and then pin the exact
// exported clock, which may be ahead of the tail when trailing cycles
// carried no surviving arrivals.
func (e *Engine) RestoreClock(c Clock) {
	e.now = c.Now
	e.started = c.Started
	e.haveSeq = c.HaveSeq
	e.lastSeq = c.LastSeq
}

// WindowTail returns the engine's live tuples in replay order: arrival
// (FIFO) order for an engine-owned sliding window, ascending sequence
// order for the explicit-deletion model. Re-ingesting the tail into a
// fresh engine under the same options rebuilds an identical index — no
// expiration can fire during the replay, because every tail tuple is by
// definition still valid at the exported clock. Engines under external
// expiry hold no window; their tail is owned by the caller (the
// data-partitioned router) and WindowTail returns nil.
func (e *Engine) WindowTail() []*stream.Tuple {
	if e.w != nil {
		return e.w.Snapshot()
	}
	if e.byID != nil {
		out := make([]*stream.Tuple, 0, len(e.byID))
		for _, t := range e.byID {
			//topk:allow determinism the appended tail is sorted by Seq below
			out = append(out, t)
		}
		slices.SortFunc(out, func(a, b *stream.Tuple) int { return cmp.Compare(a.Seq, b.Seq) })
		return out
	}
	return nil
}

// NextQueryID returns the id the next registration would be assigned.
func (e *Engine) NextQueryID() QueryID { return e.nextID }

// QueryIDs returns the ids of all registered queries in ascending order —
// the enumeration a checkpoint writer walks with ExportQuery.
func (e *Engine) QueryIDs() []QueryID {
	out := make([]QueryID, 0, e.numQueries)
	for _, q := range e.queries {
		if q != nil {
			out = append(out, q.id)
		}
	}
	return out
}

// SetNextQueryID pins the registration watermark, so a restored engine
// assigns the same ids the original would have — including the gaps left
// by unregistered queries, which plain re-registration cannot reproduce.
// It refuses to move the watermark below an id already in use.
func (e *Engine) SetNextQueryID(next QueryID) error {
	for _, q := range e.queries {
		if q != nil && q.id >= next {
			return fmt.Errorf("core: next query id %d conflicts with registered query %d", next, q.id)
		}
	}
	e.nextID = next
	return nil
}

// ImportQueryAt is ImportQuery at a caller-chosen id: the restore-path
// variant that reinstalls a query under its original id instead of
// allocating a fresh one. The id must be free; the watermark advances
// past it if necessary (restores then pin the exact watermark with
// SetNextQueryID).
func (e *Engine) ImportQueryAt(snap QuerySnapshot, id QueryID) error {
	if e.lookup(id) != nil {
		return fmt.Errorf("core: query id %d already registered", id)
	}
	if err := e.importAt(snap, id); err != nil {
		return err
	}
	if id >= e.nextID {
		e.nextID = id + 1
	}
	return nil
}
