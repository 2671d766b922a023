// Package topk implements the top-k computation module of Figure 6: a
// best-first search over grid cells in descending maxscore order that
// processes exactly the cells intersecting the query's influence region.
//
// The search starts from the cell maximizing the scoring function (the
// top-right corner cell of Figure 5 for functions increasing on both
// axes), and after processing a cell en-heaps its "worse" neighbor along
// every axis — the generalization to arbitrary per-dimension monotonicity
// and dimensionality described with Figure 7. It terminates when the best
// unprocessed cell cannot contain a tuple preferable to the current kth
// result.
//
// Two variants extend the module per Section 7: constrained top-k queries
// restrict the search (and the point filter) to a constraint rectangle
// (Figure 12), and threshold queries collect every tuple scoring above a
// user threshold using a plain list instead of a heap, since the visiting
// order does not matter.
package topk

import (
	"math"

	"topkmon/internal/container/bheap"
	"topkmon/internal/geom"
	"topkmon/internal/grid"
	"topkmon/internal/stream"
)

// Entry is one result tuple with its score under the query's function.
type Entry struct {
	T     *stream.Tuple
	Score float64
}

// Request describes one top-k computation.
type Request struct {
	// F is the monotone preference function.
	F geom.ScoringFunction
	// K is the number of results to retrieve.
	K int
	// Constraint optionally restricts the query to tuples inside a
	// rectangle (constrained top-k, Section 7). Nil means unconstrained.
	Constraint *geom.Rect
}

// Result is the outcome of a top-k computation. Its slices alias the
// searcher's pooled scratch buffers: they are valid until the next TopK or
// Threshold call on the same searcher, and callers that keep them longer
// must copy (the engine copies what it retains).
type Result struct {
	// Top holds up to K entries in descending total order.
	Top []Entry
	// Processed lists the de-heaped cells — the cells intersecting the
	// influence region, in which the caller must register the query's
	// influence-list entries (Figure 6 line 13).
	Processed []int
	// Frontier lists the cells remaining in the heap at termination: they
	// were en-heaped although their maxscore fell at or below the kth
	// score. They seed the influence-list pruning walk of Figure 9
	// (lines 14-21).
	Frontier []int
}

type cellEntry struct {
	idx      int
	maxscore float64
}

// Searcher runs top-k computations against a grid. It owns reusable
// scratch state (heap, visited stamps, rectangle buffers), so it is not
// safe for concurrent use; the engine runs computations sequentially,
// matching the paper's single-server model.
type Searcher struct {
	g       *grid.Grid
	heap    *bheap.Heap[cellEntry]
	visited []uint32
	gen     uint32
	// scratch geometry buffers
	cellRect geom.Rect
	clipped  geom.Rect
	corner   geom.Vector
	// pooled per-computation buffers: cell scores (the vectorized scoring
	// block), the processed/frontier cell lists, the bounded top list, and
	// the threshold result list. Reused across calls so steady-state
	// recomputations allocate nothing; Result documents the aliasing.
	scores     []float64
	processed  []int
	frontier   []int
	top        topList
	thrEntries []Entry
	// CellsProcessed accumulates the number of de-heaped cells across
	// computations; used by the experiment harness.
	CellsProcessed int64
	// HeapOps accumulates cell-heap pushes and pops across computations.
	// Together with CellsProcessed it measures the work of one computation,
	// which the engine attributes to the owning query (core.Stats).
	HeapOps int64
}

// NewSearcher returns a searcher bound to g.
func NewSearcher(g *grid.Grid) *Searcher {
	d := g.Dims()
	return &Searcher{
		g:        g,
		heap:     bheap.NewWithCapacity[cellEntry](func(a, b cellEntry) bool { return a.maxscore > b.maxscore }, 64),
		visited:  make([]uint32, g.NumCells()),
		cellRect: geom.Rect{Lo: make(geom.Vector, d), Hi: make(geom.Vector, d)},
		clipped:  geom.Rect{Lo: make(geom.Vector, d), Hi: make(geom.Vector, d)},
		corner:   make(geom.Vector, d),
	}
}

// Grid returns the searcher's grid.
func (s *Searcher) Grid() *grid.Grid { return s.g }

func (s *Searcher) nextGen() {
	s.gen++
	if s.gen == 0 { // stamp wrap-around: reset the array once per 2^32 runs
		for i := range s.visited {
			s.visited[i] = 0
		}
		s.gen = 1
	}
}

// maxScoreOf computes maxscore of cell idx under f, clipped to the
// constraint when present. ok is false when the cell does not intersect
// the constraint.
func (s *Searcher) maxScoreOf(idx int, f geom.ScoringFunction, constraint *geom.Rect) (float64, bool) {
	s.g.RectInto(idx, &s.cellRect)
	r := &s.cellRect
	if constraint != nil {
		if !s.cellRect.IntersectInto(*constraint, &s.clipped) {
			return 0, false
		}
		r = &s.clipped
	}
	geom.BestCornerInto(f, *r, s.corner)
	return f.Score(s.corner), true
}

// scoreCell fills s.scores with the scores of cell idx's live tuples via
// the vectorized block kernel and returns the cell's columnar block.
func (s *Searcher) scoreCell(idx int, f geom.ScoringFunction) grid.Block {
	blk := s.g.CellBlock(idx)
	n := blk.Len()
	if cap(s.scores) < n {
		s.scores = make([]float64, n, n+n/2+8)
	}
	s.scores = s.scores[:n]
	geom.ScoreBlockInto(f, blk.Coords, s.g.Dims(), s.scores)
	return blk
}

// TopK runs the computation module for req and returns the result entries
// together with the processed and frontier cell sets.
func (s *Searcher) TopK(req Request) Result {
	if req.K <= 0 {
		panic("topk: K must be positive")
	}
	s.nextGen()
	s.heap.Reset()
	s.processed = s.processed[:0]
	s.frontier = s.frontier[:0]
	s.top.reset(req.K)
	dims := s.g.Dims()

	start := s.g.BestCell(req.F)
	if req.Constraint != nil {
		start = s.g.BestCellIn(req.F, *req.Constraint)
	}
	if ms, ok := s.maxScoreOf(start, req.F, req.Constraint); ok {
		s.heap.Push(cellEntry{start, ms})
		s.HeapOps++
		s.visited[start] = s.gen
	}

	for {
		next, ok := s.heap.Peek()
		if !ok {
			break
		}
		// Termination: the best unprocessed cell cannot contain a tuple
		// preferable to the current kth result. We stop on strictly
		// smaller maxscore (not <=) so that a tuple tying the kth score
		// but arriving later — preferable under the total order — is
		// never missed.
		if kth, full := s.top.kth(); full && next.maxscore < kth {
			break
		}
		s.heap.Pop()
		s.CellsProcessed++
		s.HeapOps++
		s.processed = append(s.processed, next.idx)

		blk := s.scoreCell(next.idx, req.F)
		for j, sc := range s.scores {
			if req.Constraint != nil &&
				!req.Constraint.Contains(geom.Vector(blk.Coords[j*dims:(j+1)*dims])) {
				continue
			}
			s.top.offer(blk.Ptrs[j], blk.Seqs[j], sc)
		}

		for dim := 0; dim < dims; dim++ {
			n, ok := s.g.StepWorse(next.idx, dim, req.F.Direction(dim))
			if !ok || s.visited[n] == s.gen {
				continue
			}
			s.visited[n] = s.gen
			if ms, ok := s.maxScoreOf(n, req.F, req.Constraint); ok {
				s.heap.Push(cellEntry{n, ms})
				s.HeapOps++
			}
		}
	}

	for _, e := range s.heap.Items() {
		s.frontier = append(s.frontier, e.idx)
	}
	return Result{Top: s.top.entries, Processed: s.processed, Frontier: s.frontier}
}

// Threshold collects every tuple with score strictly above the threshold,
// visiting cells from the best corner with a plain list (Section 7: the
// visiting order does not matter for threshold queries). It processes
// exactly the cells whose maxscore exceeds the threshold and returns the
// matching entries (unordered). Like Result, the returned slice aliases a
// pooled searcher buffer valid until the next computation.
func (s *Searcher) Threshold(f geom.ScoringFunction, threshold float64, constraint *geom.Rect) []Entry {
	s.nextGen()
	s.thrEntries = s.thrEntries[:0]
	dims := s.g.Dims()

	start := s.g.BestCell(f)
	if constraint != nil {
		start = s.g.BestCellIn(f, *constraint)
	}
	queue := append(s.frontier[:0], start) // reuse the frontier buffer as the DFS stack
	s.visited[start] = s.gen
	for len(queue) > 0 {
		idx := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		ms, ok := s.maxScoreOf(idx, f, constraint)
		if !ok || ms <= threshold {
			continue
		}
		s.CellsProcessed++
		blk := s.scoreCell(idx, f)
		for j, sc := range s.scores {
			if sc <= threshold {
				continue
			}
			if constraint != nil &&
				!constraint.Contains(geom.Vector(blk.Coords[j*dims:(j+1)*dims])) {
				continue
			}
			s.thrEntries = append(s.thrEntries, Entry{T: blk.Ptrs[j], Score: sc})
		}
		for dim := 0; dim < dims; dim++ {
			n, ok := s.g.StepWorse(idx, dim, f.Direction(dim))
			if !ok || s.visited[n] == s.gen {
				continue
			}
			s.visited[n] = s.gen
			queue = append(queue, n)
		}
	}
	s.frontier = queue[:0]
	return s.thrEntries
}

// topList maintains the best-k candidates in descending total order during
// a search (the red-black-tree q.top_list of the analysis; a bounded
// sorted slice has the same O(log k) search and is faster at the paper's
// k <= 100 because of locality). It is embedded in the Searcher and reset
// per computation, reusing its backing array.
type topList struct {
	k       int
	entries []Entry
}

func (tl *topList) reset(k int) {
	tl.k = k
	tl.entries = tl.entries[:0]
}

// kth returns the current kth score; full is false while fewer than k
// candidates have been seen (in which case every tuple qualifies).
func (tl *topList) kth() (float64, bool) {
	if len(tl.entries) < tl.k {
		return math.Inf(-1), false
	}
	return tl.entries[tl.k-1].Score, true
}

// offer considers one candidate. seq is the tuple's arrival sequence,
// passed alongside so the bounded-list reject path never dereferences the
// tuple (block scoring reads it from the cell's sequence column).
func (tl *topList) offer(t *stream.Tuple, seq uint64, score float64) {
	if len(tl.entries) == tl.k {
		last := tl.entries[tl.k-1]
		if !stream.Better(score, seq, last.Score, last.T.Seq) {
			return
		}
	}
	lo, hi := 0, len(tl.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if stream.Better(tl.entries[mid].Score, tl.entries[mid].T.Seq, score, seq) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if len(tl.entries) < tl.k {
		tl.entries = append(tl.entries, Entry{})
	}
	copy(tl.entries[lo+1:], tl.entries[lo:])
	tl.entries[lo] = Entry{T: t, Score: score}
}
