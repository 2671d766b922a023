// Package skyband maintains the k-skyband of tuples in the 2-dimensional
// score-time space, the reduction at the heart of SMA (Sections 3.1 and 5).
//
// A tuple p is dominated by a tuple q when q arrives after p (hence expires
// after p — footnote 4) and q is preferable under the total order (higher
// score, or equal score; see stream.Dominates). The k-skyband contains the
// tuples dominated by at most k-1 others: exactly the tuples that can
// appear in some current or future top-k result, assuming no further
// arrivals.
//
// Each entry carries its dominance counter DC — the number of dominating
// tuples that arrived after it. Because arrivals are processed in sequence
// order, DC is monotonically non-decreasing, and an entry whose DC reaches
// k can never re-enter any top-k result and is evicted permanently.
//
// Entries are kept in descending total order, so the current top-k result
// is simply the first k entries (q.top_list is not stored explicitly, as
// in the paper).
//
// The //topk:deterministic directive below puts this package under the
// topklint determinism analyzer: no wall-clock reads, no unseeded
// randomness, no map-iteration-order leaks into outputs, no ad-hoc
// goroutines. The engine's transcripts must be a pure function of the
// input stream; see internal/analysis and doc.go for the rule catalog.
//
//topk:deterministic
package skyband

import (
	"fmt"
	"slices"

	"topkmon/internal/container/ostree"
	"topkmon/internal/stream"
)

// Entry is a skyband member: the tuple, its score under the owning query's
// preference function, and its dominance counter.
type Entry struct {
	T     *stream.Tuple
	Score float64
	DC    int
}

// Skyband is the k-skyband of the tuples admitted by the owning query's
// influence-region filter. The zero value is not usable; construct with
// New.
type Skyband struct {
	k int
	// entries in descending total order (stream.Better).
	entries []Entry
	// ids is the tuple-id column parallel to entries: the expiration
	// path's membership test scans it (a few contiguous words for a
	// skyband of about k entries) without touching a tuple.
	ids []uint64
}

// New returns an empty k-skyband. k must be positive.
func New(k int) *Skyband {
	if k <= 0 {
		panic(fmt.Sprintf("skyband: k must be positive, got %d", k))
	}
	return &Skyband{k: k}
}

// K returns the skyband parameter.
func (s *Skyband) K() int { return s.k }

// Len returns the number of entries currently in the skyband.
func (s *Skyband) Len() int { return len(s.entries) }

// Contains reports whether the tuple with the given id is in the skyband.
func (s *Skyband) Contains(id uint64) bool { return slices.Contains(s.ids, id) }

// KthScore returns the score of the kth entry. ok is false when the
// skyband holds fewer than k entries.
func (s *Skyband) KthScore() (float64, bool) {
	if len(s.entries) < s.k {
		return 0, false
	}
	return s.entries[s.k-1].Score, true
}

// TopK appends the first min(k, Len) entries — the current top-k result —
// to out and returns it.
func (s *Skyband) TopK(out []Entry) []Entry {
	n := s.k
	if n > len(s.entries) {
		n = len(s.entries)
	}
	return append(out, s.entries[:n]...)
}

// Entries returns the full skyband in descending total order. The returned
// slice is the internal one; callers must not mutate it.
func (s *Skyband) Entries() []Entry { return s.entries }

// Rebuild replaces the skyband contents with the given tuples (typically
// the result of a from-scratch top-k computation, Figure 11 line 22). The
// input must be sorted in descending total order. Dominance counters are
// computed with the balanced tree BT of Section 5 in O(n log n): processing
// entries best-first, DC(p) is the number of already-seen tuples with a
// later arrival sequence — they are preferable to p and expire after it.
func (s *Skyband) Rebuild(top []Entry) {
	s.entries, s.ids = s.entries[:0], s.ids[:0]
	bt := ostree.New[uint64](func(a, b uint64) bool { return a < b })
	for i := range top {
		e := top[i]
		if i > 0 {
			prev := top[i-1]
			if !stream.Better(prev.Score, prev.T.Seq, e.Score, e.T.Seq) {
				panic("skyband: Rebuild input not in descending total order")
			}
		}
		e.DC = bt.CountGreater(e.T.Seq)
		bt.Insert(e.T.Seq)
		if e.DC >= s.k {
			continue // already dominated k times; cannot appear in any result
		}
		s.entries = append(s.entries, e)
		s.ids = append(s.ids, e.T.ID)
	}
}

// Insert adds a newly arrived tuple that passed the influence-region filter
// (Figure 11 lines 8-11). The tuple must be the latest arrival among all
// entries, so its own dominance counter starts at zero; every entry it
// dominates has its counter incremented, and entries whose counter reaches
// k are evicted. It returns the number of evicted entries.
func (s *Skyband) Insert(t *stream.Tuple, score float64) int {
	// Locate the insertion position in the descending total order.
	lo, hi := 0, len(s.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if stream.Better(s.entries[mid].Score, s.entries[mid].T.Seq, score, t.Seq) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	pos := lo
	// A tuple scores the same every time, so a second insert of it would
	// land exactly on the first.
	if pos < len(s.ids) && s.ids[pos] == t.ID {
		panic(fmt.Sprintf("skyband: duplicate insert of tuple %d", t.ID))
	}
	s.entries = slices.Insert(s.entries, pos, Entry{T: t, Score: score})
	s.ids = slices.Insert(s.ids, pos, t.ID)

	// The new arrival dominates every worse entry: bump their counters and
	// evict the ones that reach k, compacting in a single pass.
	evicted := 0
	w := pos + 1
	for r := pos + 1; r < len(s.entries); r++ {
		e := s.entries[r]
		e.DC++
		if e.DC >= s.k {
			evicted++
			continue
		}
		s.entries[w], s.ids[w] = e, s.ids[r]
		w++
	}
	s.entries, s.ids = s.entries[:w], s.ids[:w]
	return evicted
}

// InsertBatch inserts one cycle's admitted arrivals, which must be in
// ascending arrival (sequence) order — each element must be the latest
// arrival among everything inserted so far, the same contract as Insert.
// It returns the total number of evicted entries. This is the entry point
// of the engine's cell-batched insert phase: the batch is the cycle's
// admissions re-sorted into sequence order after per-cell block scoring.
func (s *Skyband) InsertBatch(entries []Entry) int {
	evicted := 0
	for i := range entries {
		if i > 0 && entries[i].T.Seq <= entries[i-1].T.Seq {
			panic(fmt.Sprintf("skyband: InsertBatch out of sequence order: %d after %d",
				entries[i].T.Seq, entries[i-1].T.Seq))
		}
		evicted += s.Insert(entries[i].T, entries[i].Score)
	}
	return evicted
}

// Restore replaces the skyband contents with entries previously exported
// via Entries() — including their dominance counters — so a query migrated
// between engines resumes with byte-identical skyband state. The input must
// be in descending total order with counters in [0, k); Restore validates
// and rejects malformed input without touching the current contents.
func (s *Skyband) Restore(entries []Entry) error {
	ids := make([]uint64, 0, len(entries))
	for i := range entries {
		e := entries[i]
		if e.DC < 0 || e.DC >= s.k {
			return fmt.Errorf("skyband: restore entry %d has DC=%d outside [0,%d)", e.T.ID, e.DC, s.k)
		}
		if slices.Contains(ids, e.T.ID) {
			return fmt.Errorf("skyband: restore has duplicate tuple %d", e.T.ID)
		}
		ids = append(ids, e.T.ID)
		if i > 0 {
			prev := entries[i-1]
			if !stream.Better(prev.Score, prev.T.Seq, e.Score, e.T.Seq) {
				return fmt.Errorf("skyband: restore entries %d and %d out of order", prev.T.ID, e.T.ID)
			}
		}
	}
	s.entries, s.ids = append(s.entries[:0], entries...), ids
	return nil
}

// Remove deletes the entry for the tuple with the given id, reporting
// whether it was present. Under FIFO expiration the removed tuple is the
// earliest arrival in the skyband and therefore belongs to the current
// top-k result (footnote 5); it dominates nothing, so no dominance counter
// changes (Figure 11 line 16).
func (s *Skyband) Remove(id uint64) bool {
	i := slices.Index(s.ids, id)
	if i < 0 {
		return false
	}
	s.entries = slices.Delete(s.entries, i, i+1)
	s.ids = slices.Delete(s.ids, i, i+1)
	return true
}

// checkInvariants validates ordering and counter bounds; used by tests.
func (s *Skyband) checkInvariants() error {
	if len(s.entries) != len(s.ids) {
		return fmt.Errorf("skyband: %d entries but %d ids", len(s.entries), len(s.ids))
	}
	for i := range s.entries {
		e := s.entries[i]
		if s.ids[i] != e.T.ID {
			return fmt.Errorf("skyband: entry %d has id column %d", e.T.ID, s.ids[i])
		}
		if e.DC < 0 || e.DC >= s.k {
			return fmt.Errorf("skyband: entry %d has DC=%d outside [0,%d)", e.T.ID, e.DC, s.k)
		}
		if i > 0 {
			prev := s.entries[i-1]
			if !stream.Better(prev.Score, prev.T.Seq, e.Score, e.T.Seq) {
				return fmt.Errorf("skyband: entries %d and %d out of order", prev.T.ID, e.T.ID)
			}
		}
	}
	return nil
}
