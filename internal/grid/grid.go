// Package grid implements the regular grid that indexes the valid records
// in main memory (Section 4.1). Each cell has extent delta = 1/res per
// axis and stores:
//
//   - a columnar (struct-of-arrays) point block: tuple coordinates in one
//     flat dims-strided []float64, with parallel id, arrival-sequence,
//     timestamp and tuple-pointer columns. Scoring a cell for a query is a
//     tight loop over the contiguous coordinate block (internal/simd); the
//     pointer column is touched only for tuples that survive the score
//     filter. Under the append-only stream model insertions and deletions
//     hit a cell in first-in-first-out order, so the block is a deque with
//     O(1) operations at both ends. Under the update-stream model of
//     Section 7 (explicit deletions) an id->slot hash locates victims and
//     deletion swaps the last slot in, keeping the block dense;
//   - an influence list IL_c: a sorted small-slice with an entry for every
//     query whose influence region intersects the cell (binary-search
//     add/remove, linear iterate — cheaper than a hash set at the observed
//     fan-outs and deterministic to iterate). Influence lists are
//     maintained lazily by the monitoring algorithms, exactly as in the
//     paper.
//
// The grid also provides the cell geometry needed by the top-k computation
// module: cell lookup in O(1) from a point, cell rectangles, the best-corner
// cell for a monotone scoring function, and "worse-neighbor" stepping along
// each axis.
//
// The //topk:deterministic directive below puts this package under the
// topklint determinism analyzer: no wall-clock reads, no unseeded
// randomness, no map-iteration-order leaks into outputs, no ad-hoc
// goroutines. The engine's transcripts must be a pure function of the
// input stream; see internal/analysis and doc.go for the rule catalog.
//
//topk:deterministic
package grid

import (
	"fmt"
	"math"
	"sort"

	"topkmon/internal/geom"
	"topkmon/internal/stream"
)

// QueryID identifies a registered monitoring query in influence lists and
// the query table.
type QueryID uint32

// Mode selects the point-list representation.
type Mode int

// Grid modes.
const (
	// FIFO stores per-cell point blocks as deques; valid under the
	// append-only sliding-window model where expiration order equals
	// arrival order.
	FIFO Mode = iota
	// Random augments the point blocks with an id->slot hash, supporting
	// the explicit-deletion stream model of Section 7 in O(1) expected
	// time (deletion swaps the last slot into the hole).
	Random
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case FIFO:
		return "fifo"
	case Random:
		return "random"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// cell is one grid cell: the columnar point block plus the influence list.
// Live slots occupy positions [head, len); FIFO expiration advances head,
// Random-mode deletion swap-fills from the tail (head stays 0 there).
type cell struct {
	coords []float64 // dims-strided coordinates
	ids    []uint64
	seqs   []uint64
	tss    []int64
	ptrs   []*stream.Tuple
	head   int
	// Random mode: id -> absolute slot position in the columns.
	slot map[uint64]int
	// Influence list: query ids in ascending order.
	infl []QueryID
}

// len reports the number of live slots.
func (c *cell) len() int { return len(c.ptrs) - c.head }

// release drops the point columns entirely, returning the cell's backing
// blocks to the allocator. Called whenever the last live tuple leaves the
// cell, so a drained cell holds no memory (streams sweep across cells; a
// cell that was hot an hour ago must not pin its high-water block forever).
func (c *cell) release() {
	c.coords, c.ids, c.seqs, c.tss, c.ptrs = nil, nil, nil, nil, nil
	c.head = 0
}

// compact moves the live slots to the front of the columns, clearing the
// vacated pointer tail so tuples are not pinned.
func (c *cell) compact(dims int) {
	n := copy(c.ptrs, c.ptrs[c.head:])
	for i := n; i < len(c.ptrs); i++ {
		c.ptrs[i] = nil
	}
	copy(c.coords, c.coords[c.head*dims:])
	copy(c.ids, c.ids[c.head:])
	copy(c.seqs, c.seqs[c.head:])
	copy(c.tss, c.tss[c.head:])
	c.coords = c.coords[:n*dims]
	c.ids = c.ids[:n]
	c.seqs = c.seqs[:n]
	c.tss = c.tss[:n]
	c.ptrs = c.ptrs[:n]
	c.head = 0
}

// deleteSlot removes absolute slot pos by swapping the last slot in
// (Random mode: order is not meaningful there).
func (c *cell) deleteSlot(pos, dims int) {
	last := len(c.ptrs) - 1
	if pos != last {
		c.ptrs[pos] = c.ptrs[last]
		c.ids[pos] = c.ids[last]
		c.seqs[pos] = c.seqs[last]
		c.tss[pos] = c.tss[last]
		copy(c.coords[pos*dims:(pos+1)*dims], c.coords[last*dims:(last+1)*dims])
		c.slot[c.ids[pos]] = pos
	}
	c.ptrs[last] = nil
	c.ptrs = c.ptrs[:last]
	c.ids = c.ids[:last]
	c.seqs = c.seqs[:last]
	c.tss = c.tss[:last]
	c.coords = c.coords[:last*dims]
}

// Block is a read-only columnar view of (a suffix of) one cell's live
// tuples: point j has coordinates Coords[j*dims : (j+1)*dims] and parallel
// entries in the remaining columns. The view is invalidated by the next
// mutation of the cell.
type Block struct {
	Coords []float64
	IDs    []uint64
	Seqs   []uint64
	TSs    []int64
	Ptrs   []*stream.Tuple
}

// Len returns the number of points in the block.
func (b Block) Len() int { return len(b.Ptrs) }

// Grid is the in-memory index of valid records. It is not safe for
// concurrent mutation; the engine owns it single-threaded, matching the
// paper's single-server processing-cycle model.
type Grid struct {
	dims   int
	res    int
	delta  float64
	mode   Mode
	cells  []cell
	stride []int // stride[i] = res^i, for index arithmetic
	points int
	// maxCellBytesHW is the largest single cell's capacity byte footprint
	// ever reached — the tuple-hash-skew signal for memory-aware shard
	// placement. Updated only when an append grows a cell's backing
	// block, so the insert hot path pays one capacity comparison.
	maxCellBytesHW int64
}

// New constructs a grid over the unit workspace [0,1]^dims with res cells
// per axis (res^dims cells in total).
func New(dims, res int, mode Mode) *Grid {
	if dims <= 0 {
		panic(fmt.Sprintf("grid: dims must be positive, got %d", dims))
	}
	if res <= 0 {
		panic(fmt.Sprintf("grid: resolution must be positive, got %d", res))
	}
	total := 1
	stride := make([]int, dims)
	for i := 0; i < dims; i++ {
		stride[i] = total
		if total > math.MaxInt32/res {
			panic(fmt.Sprintf("grid: %d^%d cells overflow", res, dims))
		}
		total *= res
	}
	return &Grid{
		dims:   dims,
		res:    res,
		delta:  1.0 / float64(res),
		mode:   mode,
		cells:  make([]cell, total),
		stride: stride,
	}
}

// ResolutionForTargetCells returns the per-axis resolution whose total cell
// count res^dims is closest to target. The paper tunes the grid to roughly
// 12^4 cells regardless of dimensionality (Section 8).
func ResolutionForTargetCells(dims, target int) int {
	if dims <= 0 || target < 1 {
		return 1
	}
	res := int(math.Round(math.Pow(float64(target), 1/float64(dims))))
	if res < 1 {
		res = 1
	}
	best, bestDiff := res, math.Abs(math.Pow(float64(res), float64(dims))-float64(target))
	for _, cand := range []int{res - 1, res + 1} {
		if cand < 1 {
			continue
		}
		if diff := math.Abs(math.Pow(float64(cand), float64(dims)) - float64(target)); diff < bestDiff {
			best, bestDiff = cand, diff
		}
	}
	return best
}

// Dims returns the dimensionality of the workspace.
func (g *Grid) Dims() int { return g.dims }

// Res returns the number of cells per axis.
func (g *Grid) Res() int { return g.res }

// Delta returns the cell extent per axis (1/Res).
func (g *Grid) Delta() float64 { return g.delta }

// Mode returns the point-list representation mode.
func (g *Grid) Mode() Mode { return g.mode }

// NumCells returns the total number of cells.
func (g *Grid) NumCells() int { return len(g.cells) }

// NumPoints returns the number of indexed tuples.
func (g *Grid) NumPoints() int { return g.points }

// coordOf maps an attribute value in [0,1] to a cell coordinate, assigning
// the boundary value 1.0 to the last cell.
func (g *Grid) coordOf(x float64) int {
	c := int(x * float64(g.res))
	if c >= g.res {
		c = g.res - 1
	}
	if c < 0 {
		c = 0
	}
	return c
}

// IndexOf returns the index of the cell covering v in O(d) time.
//
//topk:hot
func (g *Grid) IndexOf(v geom.Vector) int {
	idx := 0
	for i := 0; i < g.dims; i++ {
		idx += g.coordOf(v[i]) * g.stride[i]
	}
	return idx
}

// CoordsInto decodes a cell index into per-axis coordinates, writing them
// into out (which must have length Dims).
func (g *Grid) CoordsInto(idx int, out []int) {
	for i := g.dims - 1; i >= 0; i-- {
		out[i] = idx / g.stride[i]
		idx -= out[i] * g.stride[i]
	}
}

// IndexFromCoords encodes per-axis coordinates into a cell index.
func (g *Grid) IndexFromCoords(coords []int) int {
	idx := 0
	for i, c := range coords {
		idx += c * g.stride[i]
	}
	return idx
}

// RectInto writes the closed rectangle of cell idx into out, whose Lo/Hi
// vectors must have length Dims. Bounds are computed by division (c/res),
// not multiplication by delta: division is correctly rounded, so the
// boundary of cell 7 in a 10-cell grid is exactly the double 0.7 and
// touches user-supplied constraint rectangles written with such literals.
func (g *Grid) RectInto(idx int, out *geom.Rect) {
	res := float64(g.res)
	for i := g.dims - 1; i >= 0; i-- {
		c := idx / g.stride[i]
		idx -= c * g.stride[i]
		out.Lo[i] = float64(c) / res
		out.Hi[i] = float64(c+1) / res
	}
}

// Rect returns the rectangle of cell idx.
func (g *Grid) Rect(idx int) geom.Rect {
	out := geom.Rect{Lo: make(geom.Vector, g.dims), Hi: make(geom.Vector, g.dims)}
	g.RectInto(idx, &out)
	return out
}

// Neighbor returns the index of the cell one step along dim (delta = +1 or
// -1 cell). ok is false when the step leaves the workspace.
func (g *Grid) Neighbor(idx, dim, delta int) (int, bool) {
	c := (idx / g.stride[dim]) % g.res
	nc := c + delta
	if nc < 0 || nc >= g.res {
		return 0, false
	}
	return idx + delta*g.stride[dim], true
}

// StepWorse returns the neighbor of idx along dim in the direction of
// decreasing maxscore for a function monotone as dir on that axis: toward
// lower coordinates when increasing, higher when decreasing. This is the
// en-heaping step of Figure 6 (generalized to arbitrary monotonicity as in
// Figure 7).
func (g *Grid) StepWorse(idx, dim int, dir geom.Direction) (int, bool) {
	if dir == geom.Increasing {
		return g.Neighbor(idx, dim, -1)
	}
	return g.Neighbor(idx, dim, +1)
}

// BestCell returns the index of the cell with the globally maximal
// maxscore for f: the corner cell of the workspace in f's preferred
// directions (the "top-right cell" of Figure 5 for increasing functions).
func (g *Grid) BestCell(f geom.ScoringFunction) int {
	idx := 0
	for i := 0; i < g.dims; i++ {
		if f.Direction(i) == geom.Increasing {
			idx += (g.res - 1) * g.stride[i]
		}
	}
	return idx
}

// BestCellIn returns the index of the cell that maximizes f within the
// constraint rectangle r (the starting cell of a constrained top-k search,
// Figure 12). The rectangle is clamped to the unit workspace.
func (g *Grid) BestCellIn(f geom.ScoringFunction, r geom.Rect) int {
	idx := 0
	for i := 0; i < g.dims; i++ {
		var x float64
		if f.Direction(i) == geom.Increasing {
			x = math.Min(1, math.Max(0, r.Hi[i]))
		} else {
			x = math.Min(1, math.Max(0, r.Lo[i]))
		}
		idx += g.coordOf(x) * g.stride[i]
	}
	return idx
}

// Insert adds t to its covering cell and returns the cell's index.
func (g *Grid) Insert(t *stream.Tuple) int {
	idx := g.IndexOf(t.Vec)
	g.InsertAt(idx, t)
	return idx
}

// InsertAt adds t to cell idx, which must be the cell covering t.Vec
// (callers that already computed IndexOf avoid recomputing it). The tuple's
// coordinates are appended to the cell's columnar block.
//
//topk:hot
func (g *Grid) InsertAt(idx int, t *stream.Tuple) {
	c := &g.cells[idx]
	pc, cc := cap(c.ptrs), cap(c.coords)
	c.coords = append(c.coords, t.Vec...)
	c.ids = append(c.ids, t.ID)
	c.seqs = append(c.seqs, t.Seq)
	c.tss = append(c.tss, t.TS)
	c.ptrs = append(c.ptrs, t)
	if cap(c.ptrs) != pc || cap(c.coords) != cc {
		if b := g.CellCapBytes(idx); b > g.maxCellBytesHW {
			g.maxCellBytesHW = b
		}
	}
	if g.mode == Random {
		if c.slot == nil {
			//topk:allow hotalloc lazy once-per-cell init of a long-lived slot map, reused until the cell drains
			c.slot = make(map[uint64]int, 4)
		}
		//topk:allow mapop Random-mode id -> slot map, the random-deletion locator; ROADMAP item 2's engine-wide tuple table replaces it
		c.slot[t.ID] = len(c.ptrs) - 1
	}
	g.points++
}

// Remove deletes t from its covering cell, reporting whether it was found.
// In FIFO mode the expiring tuple is, by construction, at the head of its
// cell's block, so the common case is O(1); a linear fallback keeps the
// structure correct if callers remove out of order. A cell whose last live
// tuple leaves releases its backing block entirely (and a long-lived dead
// prefix is compacted away), so memory tracks the live population.
//
//topk:hot
func (g *Grid) Remove(t *stream.Tuple) bool {
	idx := g.IndexOf(t.Vec)
	c := &g.cells[idx]
	if g.mode == Random {
		//topk:allow mapop Random-mode id -> slot map, see InsertAt
		pos, ok := c.slot[t.ID]
		if !ok {
			return false
		}
		//topk:allow mapop Random-mode id -> slot map, see InsertAt
		delete(c.slot, t.ID)
		c.deleteSlot(pos, g.dims)
		if len(c.ptrs) == 0 {
			c.release()
		}
		g.points--
		return true
	}
	n := c.len()
	if n == 0 {
		return false
	}
	if c.ptrs[c.head] == t {
		c.ptrs[c.head] = nil
		c.head++
		switch {
		case c.head == len(c.ptrs):
			c.release()
		case c.head > len(c.ptrs)/2 && c.head > 16:
			c.compact(g.dims)
		}
		g.points--
		return true
	}
	// Out-of-order fallback: locate the tuple among the live slots and
	// shift the suffix left across every column.
	for j := c.head; j < len(c.ptrs); j++ {
		if c.ptrs[j] != t {
			continue
		}
		last := len(c.ptrs) - 1
		copy(c.ptrs[j:], c.ptrs[j+1:])
		copy(c.ids[j:], c.ids[j+1:])
		copy(c.seqs[j:], c.seqs[j+1:])
		copy(c.tss[j:], c.tss[j+1:])
		copy(c.coords[j*g.dims:], c.coords[(j+1)*g.dims:])
		c.ptrs[last] = nil
		c.ptrs = c.ptrs[:last]
		c.ids = c.ids[:last]
		c.seqs = c.seqs[:last]
		c.tss = c.tss[:last]
		c.coords = c.coords[:last*g.dims]
		if c.head == len(c.ptrs) {
			c.release()
		}
		g.points--
		return true
	}
	return false
}

// CellBlock returns the columnar view of cell idx's live tuples.
func (g *Grid) CellBlock(idx int) Block {
	return g.CellBlockFrom(idx, 0)
}

// CellBlockFrom returns the columnar view of cell idx's live tuples
// starting at live offset from (0 = the whole cell). The engine uses it to
// score exactly the sub-block a cycle's arrival batch appended to a cell.
//
//topk:hot
func (g *Grid) CellBlockFrom(idx, from int) Block {
	c := &g.cells[idx]
	lo := c.head + from
	return Block{
		Coords: c.coords[lo*g.dims:],
		IDs:    c.ids[lo:],
		Seqs:   c.seqs[lo:],
		TSs:    c.tss[lo:],
		Ptrs:   c.ptrs[lo:],
	}
}

// PointsDo calls fn for every tuple in cell idx until fn returns false.
func (g *Grid) PointsDo(idx int, fn func(*stream.Tuple) bool) {
	c := &g.cells[idx]
	for _, t := range c.ptrs[c.head:] {
		if !fn(t) {
			return
		}
	}
}

// CellLen returns the number of tuples in cell idx.
func (g *Grid) CellLen(idx int) int {
	return g.cells[idx].len()
}

// CellCapBytes returns the bytes reserved by cell idx's point columns
// (capacity, not length) — the figure the drained-cell release guarantee
// is about. Exposed for tests.
func (g *Grid) CellCapBytes(idx int) int64 {
	c := &g.cells[idx]
	return int64(cap(c.coords))*8 + int64(cap(c.ids))*8 + int64(cap(c.seqs))*8 +
		int64(cap(c.tss))*8 + int64(cap(c.ptrs))*8
}

// MaxCellBytesHighWater returns the largest capacity byte footprint any
// single cell's point columns ever reached. Unlike MemoryBytes it never
// shrinks — it records the worst skew the tuple hash produced, which is
// the signal memory-aware placement needs even after the hot cell
// drained and released its block.
func (g *Grid) MaxCellBytesHighWater() int64 { return g.maxCellBytesHW }

// inflFind returns the position of q in cell c's influence list, or the
// insertion position with ok=false.
func inflFind(infl []QueryID, q QueryID) (int, bool) {
	pos := sort.Search(len(infl), func(i int) bool { return infl[i] >= q })
	return pos, pos < len(infl) && infl[pos] == q
}

// AddInfluence records query q in the influence list of cell idx.
func (g *Grid) AddInfluence(idx int, q QueryID) {
	c := &g.cells[idx]
	pos, ok := inflFind(c.infl, q)
	if ok {
		return
	}
	c.infl = append(c.infl, 0)
	copy(c.infl[pos+1:], c.infl[pos:])
	c.infl[pos] = q
}

// RemoveInfluence deletes query q from the influence list of cell idx,
// reporting whether an entry existed. A list that empties releases its
// backing array.
func (g *Grid) RemoveInfluence(idx int, q QueryID) bool {
	c := &g.cells[idx]
	pos, ok := inflFind(c.infl, q)
	if !ok {
		return false
	}
	copy(c.infl[pos:], c.infl[pos+1:])
	c.infl = c.infl[:len(c.infl)-1]
	if len(c.infl) == 0 {
		c.infl = nil
	}
	return true
}

// HasInfluence reports whether query q is in the influence list of cell
// idx.
func (g *Grid) HasInfluence(idx int, q QueryID) bool {
	_, ok := inflFind(g.cells[idx].infl, q)
	return ok
}

// Influence returns cell idx's influence list: query ids in ascending
// order. The slice is the internal one — callers must not mutate it and
// must not hold it across AddInfluence/RemoveInfluence calls. This is the
// engine's hot-path accessor; InfluenceDo wraps it for callers that prefer
// a callback.
func (g *Grid) Influence(idx int) []QueryID {
	return g.cells[idx].infl
}

// InfluenceDo calls fn for every query in the influence list of cell idx,
// in ascending query-id order, until fn returns false. Callers must not
// mutate the list during iteration; the engine collects affected queries
// first and processes them after.
func (g *Grid) InfluenceDo(idx int, fn func(QueryID) bool) {
	for _, q := range g.cells[idx].infl {
		if !fn(q) {
			return
		}
	}
}

// InfluenceLen returns the influence-list cardinality of cell idx.
func (g *Grid) InfluenceLen(idx int) int { return len(g.cells[idx].infl) }

// TotalInfluenceEntries sums influence-list cardinalities over all cells —
// the O(Q*C) bookkeeping term of the space analysis (Section 6).
func (g *Grid) TotalInfluenceEntries() int {
	total := 0
	for i := range g.cells {
		total += len(g.cells[i].infl)
	}
	return total
}

// MemoryBytes estimates the index footprint: the cell directory, the
// columnar point blocks (coordinates, ids, sequences, timestamps and tuple
// pointers at reserved capacity), the influence-list entries, and the
// tuple payloads (id + d float64 attributes + seq + timestamp), mirroring
// the O(N*(d+1) + Q*C) terms of Section 6.
func (g *Grid) MemoryBytes() int64 {
	const (
		cellOverhead  = int64(160) // five column headers + head + map/list pointers
		inflEntrySize = int64(4)   // one QueryID in the sorted slice
		slotEntrySize = int64(24)  // id->slot entry incl. bucket overhead
	)
	total := int64(len(g.cells)) * cellOverhead
	for i := range g.cells {
		c := &g.cells[i]
		total += g.CellCapBytes(i)
		if g.mode == Random {
			total += int64(len(c.slot)) * slotEntrySize
		}
		total += int64(cap(c.infl)) * inflEntrySize
	}
	// Tuple payloads: ID + Seq + TS + vector header and data.
	tupleSize := int64(8+8+8+24) + int64(g.dims)*8
	total += int64(g.points) * tupleSize
	return total
}
