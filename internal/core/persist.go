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
// window tail and the per-query snapshots it pins everything Admit
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

// Admit validates one append-only cycle's arrivals against the clock —
// time must not go backwards, every arrival must carry the cycle's
// timestamp, and sequence numbers must increase across the stream — and
// advances the clock and watermark only once the whole batch has passed,
// so a rejected cycle changes nothing and its corrected retry is judged
// against the same watermark. The engine, the data-partitioned router and
// the TSL baseline admit their cycles through it.
func (c *Clock) Admit(now int64, arrivals []*stream.Tuple) error {
	if c.Started && now < c.Now {
		return fmt.Errorf("core: time went backwards: %d after %d", now, c.Now)
	}
	have, last := c.HaveSeq, c.LastSeq
	for _, t := range arrivals {
		if t.TS != now {
			return fmt.Errorf("core: arrival %v not stamped with cycle timestamp %d", t, now)
		}
		if have && t.Seq <= last {
			return fmt.Errorf("core: arrival sequence %d not increasing (last %d)", t.Seq, last)
		}
		have, last = true, t.Seq
	}
	c.Started, c.Now, c.HaveSeq, c.LastSeq = true, now, have, last
	return nil
}

// ExportClock snapshots the engine clock and admission watermarks.
func (e *Engine) ExportClock() Clock { return e.clock }

// RestoreClock overwrites the engine clock and admission watermarks. It is
// a restore-path primitive: callers replay the window tail first (which
// advances the clock to the tail's last timestamp) and then pin the exact
// exported clock, which may be ahead of the tail when trailing cycles
// carried no surviving arrivals.
func (e *Engine) RestoreClock(c Clock) { e.clock = c }

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
	if e.opts.Mode == UpdateStream {
		out := make([]*stream.Tuple, 0, e.g.NumPoints())
		for idx := 0; idx < e.g.NumCells(); idx++ {
			out = append(out, e.g.CellBlock(idx).Ptrs...)
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
