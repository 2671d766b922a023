package grid

import (
	"math/rand"
	"testing"

	"topkmon/internal/stream"
)

// churnGrid is a FIFO sliding window over a fixed ring of tuples: each
// cycle inserts the next r tuples of the ring and removes the r that fell
// out of the n-tuple window. Tuples are reinserted only after they left,
// so a run of cycles allocates nothing outside the grid.
type churnGrid struct {
	g    *Grid
	ring []*stream.Tuple
	n, r int
	next int // ring position of the next arrival
}

func newChurnGrid(dims, res, n, r int, seed int64) *churnGrid {
	rng := rand.New(rand.NewSource(seed))
	ring := make([]*stream.Tuple, 3*n)
	for i := range ring {
		v := make([]float64, dims)
		for d := range v {
			v[d] = rng.Float64()
		}
		ring[i] = &stream.Tuple{ID: uint64(i), Seq: uint64(i), Vec: v}
	}
	return &churnGrid{g: New(dims, res, FIFO), ring: ring, n: n, r: r}
}

// cycle inserts r arrivals and, once the window is full, removes the r
// oldest tuples.
func (c *churnGrid) cycle(t testing.TB) {
	m := len(c.ring)
	for j := 0; j < c.r; j++ {
		c.g.Insert(c.ring[(c.next+j)%m])
	}
	if c.next >= c.n {
		for j := 0; j < c.r; j++ {
			if tu := c.ring[(c.next-c.n+j)%m]; !c.g.Remove(tu) {
				t.Fatalf("tuple %d not found", tu.ID)
			}
		}
	}
	c.next += c.r
}

// checkPoolClean asserts the pool invariants: every pooled block has empty
// columns of its class's capacity and no tuple pointer anywhere up to that
// capacity, and pooledSlots matches the free lists.
func checkPoolClean(t *testing.T, g *Grid) {
	t.Helper()
	slots := 0
	for c, fl := range g.free {
		size := minBlockSlots << c
		for _, b := range fl {
			if len(b.ptrs) != 0 || len(b.coords) != 0 || len(b.ids) != 0 || len(b.seqs) != 0 || len(b.tss) != 0 {
				t.Fatalf("class %d: pooled block has live columns", c)
			}
			if cap(b.ptrs) != size || cap(b.ids) != size || cap(b.seqs) != size || cap(b.tss) != size || cap(b.coords) != size*g.dims {
				t.Fatalf("class %d: pooled block capacities ptrs=%d coords=%d, want %d slots", c, cap(b.ptrs), cap(b.coords), size)
			}
			for i, p := range b.ptrs[:cap(b.ptrs)] {
				if p != nil {
					t.Fatalf("class %d: pooled block pins tuple %d at slot %d", c, p.ID, i)
				}
			}
			slots += size
		}
	}
	if slots != g.pooledSlots {
		t.Fatalf("pooledSlots = %d, free lists hold %d", g.pooledSlots, slots)
	}
}

// TestPooledBlocksPinNoTuple: blocks handed back by drained cells and by
// growth, and blocks taken from the free list, hold no tuple pointer at any
// index up to their capacity — a pooled block must not keep an expired
// tuple reachable.
func TestPooledBlocksPinNoTuple(t *testing.T) {
	c := newChurnGrid(2, 6, 300, 40, 3)
	for i := 0; i < 60; i++ {
		c.cycle(t)
		checkPoolClean(t, c.g)
	}
	if c.g.pooledSlots == 0 {
		t.Fatal("churn left the pool empty; the test exercises nothing")
	}
	for cl, fl := range c.g.free {
		for len(fl) > 0 {
			b := c.g.takeBlock(minBlockSlots << cl)
			for i, p := range b.ptrs[:cap(b.ptrs)] {
				if p != nil {
					t.Fatalf("taken class-%d block pins tuple %d at slot %d", cl, p.ID, i)
				}
			}
			fl = c.g.free[cl]
		}
	}
}

// TestPoolBoundAfterDrain: once the whole window drains, every class holds
// at most the bound of an empty grid, although the larger population
// pooled more, and MemoryBytes counts exactly the cell directory plus the
// pooled capacity.
func TestPoolBoundAfterDrain(t *testing.T) {
	const dims = 3
	g := New(dims, 4, FIFO)
	rng := rand.New(rand.NewSource(5))
	var tuples []*stream.Tuple
	// Skewed fill: cells of every size from a few points to thousands, so
	// blocks of many classes are in play, and a population whose per-class
	// bound exceeds the empty grid's.
	for i := 0; i < 4*poolDivisor*poolMinSlots; i++ {
		x := rng.Float64() * rng.Float64() * rng.Float64()
		tu := &stream.Tuple{ID: uint64(i), Seq: uint64(i), Vec: []float64{x, rng.Float64(), x}}
		tuples = append(tuples, tu)
		g.Insert(tu)
	}
	peak := 0
	for i, tu := range tuples {
		if !g.Remove(tu) {
			t.Fatalf("tuple %d not found", tu.ID)
		}
		if i == len(tuples)-2 {
			for c, fl := range g.free {
				peak = max(peak, len(fl)*(minBlockSlots<<c))
			}
		}
	}
	checkPoolClean(t, g)
	if g.pooledSlots == 0 {
		t.Fatal("drained grid pooled nothing")
	}
	if peak <= poolMinSlots {
		t.Fatalf("no class ever held more than %d slots; the test exercises no trim", peak)
	}
	for c, fl := range g.free {
		if held := len(fl) * (minBlockSlots << c); held > poolMinSlots {
			t.Fatalf("class %d holds %d slots after the drain, bound %d", c, held, poolMinSlots)
		}
	}
	const cellOverhead = 152
	want := int64(g.NumCells())*cellOverhead + int64(g.pooledSlots)*(dims+4)*8
	if got := g.MemoryBytes(); got != want {
		t.Fatalf("MemoryBytes = %d, want directory + pool = %d", got, want)
	}
}

// TestRandomModeSlotsAcrossGrowth is the Random-mode property test: random
// inserts and deletes interleave across block growth, drains and
// recycling, and after every operation each live tuple's tuple-table entry
// names its own cell and a slot holding its own entry in every column.
func TestRandomModeSlotsAcrossGrowth(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := New(2, 2, Random)
		live := map[uint64]*stream.Tuple{}
		var ids []uint64
		next := uint64(0)
		for op := 0; op < 2000; op++ {
			if len(ids) == 0 || rng.Intn(100) < 55 {
				tu := &stream.Tuple{ID: next, Seq: next, TS: int64(op), Vec: []float64{rng.Float64(), rng.Float64()}}
				next++
				g.Insert(tu)
				live[tu.ID] = tu
				ids = append(ids, tu.ID)
			} else {
				k := rng.Intn(len(ids))
				id := ids[k]
				ids[k] = ids[len(ids)-1]
				ids = ids[:len(ids)-1]
				if !g.Remove(live[id]) {
					t.Fatalf("seed %d: tuple %d not found", seed, id)
				}
				delete(live, id)
			}
			for _, tu := range live {
				idx := g.IndexOf(tu.Vec)
				c := &g.cells[idx]
				loc, ok := g.ids.Get(tu.ID)
				pos := int(uint32(loc))
				if !ok || int(loc>>32) != idx || pos >= len(c.ptrs) {
					t.Fatalf("seed %d op %d: tuple %d of cell %d located at %d/%d (ok=%v) in a cell of %d", seed, op, tu.ID, idx, loc>>32, pos, ok, len(c.ptrs))
				}
				if c.ptrs[pos] != tu || c.ids[pos] != tu.ID || c.seqs[pos] != tu.Seq || c.tss[pos] != tu.TS ||
					c.coords[pos*2] != tu.Vec[0] || c.coords[pos*2+1] != tu.Vec[1] {
					t.Fatalf("seed %d op %d: slot %d of tuple %d indexes another tuple's columns", seed, op, pos, tu.ID)
				}
			}
			if g.NumPoints() != len(live) || g.ids.Len() != len(live) {
				t.Fatalf("seed %d: grid holds %d points and %d table entries, want %d", seed, g.NumPoints(), g.ids.Len(), len(live))
			}
		}
		checkPoolClean(t, g)
	}
}

// TestFullFIFOCellCompactsBeforeGrowing: a full FIFO cell with a dead
// prefix of at least an eighth of its block makes room in place instead
// of doubling its capacity.
func TestFullFIFOCellCompactsBeforeGrowing(t *testing.T) {
	g := New(1, 1, FIFO)
	var tuples []*stream.Tuple
	for i := 0; i < 8; i++ {
		tu := mkTuple(uint64(i), 0.5)
		tuples = append(tuples, tu)
		g.Insert(tu)
	}
	full := g.CellCapBytes(0)
	g.Remove(tuples[0])
	g.Insert(mkTuple(8, 0.5))
	if got := g.CellCapBytes(0); got != full {
		t.Fatalf("cell grew from %d to %d bytes with a free dead slot", full, got)
	}
	blk := g.CellBlock(0)
	for j, tu := range blk.Ptrs {
		if tu.ID != uint64(j+1) || blk.IDs[j] != tu.ID || blk.Coords[j] != 0.5 {
			t.Fatalf("slot %d after compaction holds %d", j, tu.ID)
		}
	}
	g.Insert(mkTuple(9, 0.5))
	if got := g.CellCapBytes(0); got != 2*full {
		t.Fatalf("full cell without a dead prefix holds %d bytes, want doubled %d", got, 2*full)
	}
}
