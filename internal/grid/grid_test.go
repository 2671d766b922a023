package grid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"topkmon/internal/geom"
	"topkmon/internal/stream"
)

func mkTuple(id uint64, coords ...float64) *stream.Tuple {
	return &stream.Tuple{ID: id, Seq: id, Vec: geom.Vector(coords)}
}

func TestNewValidation(t *testing.T) {
	for _, bad := range [][2]int{{0, 5}, {2, 0}, {-1, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) should panic", bad[0], bad[1])
				}
			}()
			New(bad[0], bad[1], FIFO)
		}()
	}
	g := New(2, 7, FIFO)
	if g.NumCells() != 49 || g.Dims() != 2 || g.Res() != 7 {
		t.Fatalf("bad geometry: cells=%d", g.NumCells())
	}
	if math.Abs(g.Delta()-1.0/7) > 1e-15 {
		t.Fatalf("delta=%g", g.Delta())
	}
}

func TestModeString(t *testing.T) {
	if FIFO.String() != "fifo" || Random.String() != "random" || Mode(5).String() == "" {
		t.Fatalf("mode strings")
	}
}

func TestResolutionForTargetCells(t *testing.T) {
	cases := []struct{ dims, target, want int }{
		{4, 20736, 12}, // the paper's 12^4
		{2, 20736, 144},
		{3, 20736, 27}, // 27^3=19683 closer than 28^3=21952
		{6, 20736, 5},  // 5^6=15625 vs 6^6=46656
		{1, 100, 100},
		{4, 1, 1},
		{0, 100, 1}, // degenerate input
		{3, 0, 1},
	}
	for _, c := range cases {
		if got := ResolutionForTargetCells(c.dims, c.target); got != c.want {
			t.Errorf("ResolutionForTargetCells(%d,%d)=%d want %d", c.dims, c.target, got, c.want)
		}
	}
}

func TestIndexCoordsRoundTrip(t *testing.T) {
	g := New(3, 5, FIFO)
	coords := make([]int, 3)
	for idx := 0; idx < g.NumCells(); idx++ {
		g.CoordsInto(idx, coords)
		for _, c := range coords {
			if c < 0 || c >= 5 {
				t.Fatalf("coord out of range: %v", coords)
			}
		}
		if back := g.IndexFromCoords(coords); back != idx {
			t.Fatalf("round trip %d -> %v -> %d", idx, coords, back)
		}
	}
}

func TestIndexOfMatchesPaperFormula(t *testing.T) {
	// Section 4.1: cell c_{i,j} covers [i*delta,(i+1)*delta) x [j*delta,...),
	// and the covering cell of p is i = p.x1/delta, j = p.x2/delta.
	g := New(2, 7, FIFO)
	rng := rand.New(rand.NewSource(1))
	coords := make([]int, 2)
	for trial := 0; trial < 1000; trial++ {
		v := geom.Vector{rng.Float64(), rng.Float64()}
		idx := g.IndexOf(v)
		g.CoordsInto(idx, coords)
		for d := 0; d < 2; d++ {
			want := int(v[d] / g.Delta())
			if want >= 7 {
				want = 6
			}
			if coords[d] != want {
				t.Fatalf("v=%v dim %d: coord %d want %d", v, d, coords[d], want)
			}
		}
	}
	// Boundary: 1.0 maps into the last cell.
	idx := g.IndexOf(geom.Vector{1, 1})
	g.CoordsInto(idx, coords)
	if coords[0] != 6 || coords[1] != 6 {
		t.Fatalf("boundary coords=%v", coords)
	}
}

func TestRectContainsItsPoints(t *testing.T) {
	g := New(2, 9, FIFO)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 500; trial++ {
		v := geom.Vector{rng.Float64(), rng.Float64()}
		r := g.Rect(g.IndexOf(v))
		if !r.Contains(v) {
			t.Fatalf("cell rect %v does not contain %v", r, v)
		}
	}
	// Rects tile the workspace: total volume is 1.
	vol := 0.0
	for idx := 0; idx < g.NumCells(); idx++ {
		r := g.Rect(idx)
		vol += (r.Hi[0] - r.Lo[0]) * (r.Hi[1] - r.Lo[1])
	}
	if math.Abs(vol-1) > 1e-9 {
		t.Fatalf("cells do not tile the workspace: vol=%g", vol)
	}
}

func TestNeighborAndBounds(t *testing.T) {
	g := New(2, 3, FIFO)
	coords := make([]int, 2)
	center := g.IndexFromCoords([]int{1, 1})
	for _, c := range []struct {
		dim, delta int
		want       [2]int
	}{
		{0, +1, [2]int{2, 1}},
		{0, -1, [2]int{0, 1}},
		{1, +1, [2]int{1, 2}},
		{1, -1, [2]int{1, 0}},
	} {
		n, ok := g.Neighbor(center, c.dim, c.delta)
		if !ok {
			t.Fatalf("neighbor dim=%d delta=%d not found", c.dim, c.delta)
		}
		g.CoordsInto(n, coords)
		if coords[0] != c.want[0] || coords[1] != c.want[1] {
			t.Fatalf("neighbor coords=%v want %v", coords, c.want)
		}
	}
	corner := g.IndexFromCoords([]int{0, 0})
	if _, ok := g.Neighbor(corner, 0, -1); ok {
		t.Fatalf("stepping off the low edge must fail")
	}
	if _, ok := g.Neighbor(g.IndexFromCoords([]int{2, 0}), 0, +1); ok {
		t.Fatalf("stepping off the high edge must fail")
	}
}

func TestStepWorseDirections(t *testing.T) {
	g := New(2, 4, FIFO)
	idx := g.IndexFromCoords([]int{2, 2})
	coords := make([]int, 2)
	// Increasing: worse is toward lower coordinates.
	n, ok := g.StepWorse(idx, 0, geom.Increasing)
	if !ok {
		t.Fatalf("step failed")
	}
	g.CoordsInto(n, coords)
	if coords[0] != 1 {
		t.Fatalf("increasing step gave %v", coords)
	}
	// Decreasing: worse is toward higher coordinates.
	n, ok = g.StepWorse(idx, 1, geom.Decreasing)
	if !ok {
		t.Fatalf("step failed")
	}
	g.CoordsInto(n, coords)
	if coords[1] != 3 {
		t.Fatalf("decreasing step gave %v", coords)
	}
}

func TestBestCell(t *testing.T) {
	g := New(2, 7, FIFO)
	coords := make([]int, 2)
	// Increasing on both: top-right cell c_{6,6} (Figure 5).
	g.CoordsInto(g.BestCell(geom.NewLinear(1, 2)), coords)
	if coords[0] != 6 || coords[1] != 6 {
		t.Fatalf("best cell=%v want [6 6]", coords)
	}
	// f = x1 - x2: bottom-right cell (Figure 7a).
	g.CoordsInto(g.BestCell(geom.NewLinear(1, -1)), coords)
	if coords[0] != 6 || coords[1] != 0 {
		t.Fatalf("best cell=%v want [6 0]", coords)
	}
}

func TestBestCellIn(t *testing.T) {
	g := New(2, 7, FIFO)
	coords := make([]int, 2)
	// Constrained region like Figure 12: R's top-right corner inside c_{5,5}.
	r := geom.Rect{Lo: geom.Vector{0.3, 0.35}, Hi: geom.Vector{0.8, 0.8}}
	g.CoordsInto(g.BestCellIn(geom.NewLinear(1, 2), r), coords)
	if coords[0] != 5 || coords[1] != 5 {
		t.Fatalf("constrained best cell=%v want [5 5]", coords)
	}
	// Clamping: a constraint exceeding the workspace behaves like the
	// workspace corner.
	r2 := geom.Rect{Lo: geom.Vector{-1, -1}, Hi: geom.Vector{2, 2}}
	g.CoordsInto(g.BestCellIn(geom.NewLinear(1, 2), r2), coords)
	if coords[0] != 6 || coords[1] != 6 {
		t.Fatalf("clamped best cell=%v", coords)
	}
}

func TestInsertRemoveFIFO(t *testing.T) {
	g := New(2, 4, FIFO)
	a := mkTuple(1, 0.1, 0.1)
	b := mkTuple(2, 0.11, 0.12) // same cell
	c := mkTuple(3, 0.9, 0.9)   // different cell
	g.Insert(a)
	g.Insert(b)
	g.Insert(c)
	if g.NumPoints() != 3 {
		t.Fatalf("points=%d", g.NumPoints())
	}
	idx := g.IndexOf(a.Vec)
	if g.CellLen(idx) != 2 {
		t.Fatalf("cell len=%d", g.CellLen(idx))
	}
	var seen []uint64
	g.PointsDo(idx, func(tu *stream.Tuple) bool {
		seen = append(seen, tu.ID)
		return true
	})
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 2 {
		t.Fatalf("FIFO order violated: %v", seen)
	}
	if !g.Remove(a) {
		t.Fatalf("remove head failed")
	}
	if g.Remove(a) {
		t.Fatalf("double remove succeeded")
	}
	if g.CellLen(idx) != 1 || g.NumPoints() != 2 {
		t.Fatalf("counts wrong after removal")
	}
}

func TestRemoveOutOfOrderFallback(t *testing.T) {
	g := New(1, 2, FIFO)
	a, b, c := mkTuple(1, 0.1), mkTuple(2, 0.2), mkTuple(3, 0.3)
	g.Insert(a)
	g.Insert(b)
	g.Insert(c)
	if !g.Remove(b) { // middle of the deque
		t.Fatalf("out-of-order remove failed")
	}
	var seen []uint64
	g.PointsDo(g.IndexOf(a.Vec), func(tu *stream.Tuple) bool {
		seen = append(seen, tu.ID)
		return true
	})
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 3 {
		t.Fatalf("order after middle removal: %v", seen)
	}
}

func TestRandomModeInsertRemove(t *testing.T) {
	g := New(2, 4, Random)
	a := mkTuple(1, 0.5, 0.5)
	b := mkTuple(2, 0.5, 0.5)
	g.Insert(a)
	g.Insert(b)
	if g.CellLen(g.IndexOf(a.Vec)) != 2 {
		t.Fatalf("cell len wrong")
	}
	// Random deletion order is the whole point of this mode.
	if !g.Remove(a) || g.Remove(a) {
		t.Fatalf("random-mode remove semantics")
	}
	count := 0
	g.PointsDo(g.IndexOf(b.Vec), func(*stream.Tuple) bool { count++; return true })
	if count != 1 || g.NumPoints() != 1 {
		t.Fatalf("leftover points wrong")
	}
	// Lookup resolves ids through the tuple table, including b's moved slot.
	if got, ok := g.Lookup(2); !ok || got != b {
		t.Fatalf("Lookup(2) = %v, %v", got, ok)
	}
	if _, ok := g.Lookup(1); ok {
		t.Fatalf("removed tuple still found")
	}
	// A tuple whose vector names another cell is not the indexed one.
	if g.Remove(mkTuple(2, 0.1, 0.1)) || g.NumPoints() != 1 {
		t.Fatalf("Remove accepted an id indexed in another cell")
	}
}

func TestPointsDoEarlyStop(t *testing.T) {
	g := New(1, 1, FIFO)
	for i := uint64(0); i < 10; i++ {
		g.Insert(mkTuple(i, 0.5))
	}
	count := 0
	g.PointsDo(0, func(*stream.Tuple) bool { count++; return count < 3 })
	if count != 3 {
		t.Fatalf("early stop ignored: %d", count)
	}
}

func TestInfluenceLists(t *testing.T) {
	g := New(2, 3, FIFO)
	g.AddInfluence(4, 7)
	g.AddInfluence(4, 9)
	g.AddInfluence(5, 7)
	if !g.HasInfluence(4, 7) || g.HasInfluence(4, 8) {
		t.Fatalf("HasInfluence wrong")
	}
	if g.InfluenceLen(4) != 2 || g.InfluenceLen(5) != 1 || g.InfluenceLen(0) != 0 {
		t.Fatalf("influence lens wrong")
	}
	if g.TotalInfluenceEntries() != 3 {
		t.Fatalf("total=%d", g.TotalInfluenceEntries())
	}
	var qs []QueryID
	g.InfluenceDo(4, func(q QueryID) bool { qs = append(qs, q); return true })
	if len(qs) != 2 {
		t.Fatalf("influence iteration: %v", qs)
	}
	if !g.RemoveInfluence(4, 7) || g.RemoveInfluence(4, 7) {
		t.Fatalf("RemoveInfluence semantics")
	}
	if g.TotalInfluenceEntries() != 2 {
		t.Fatalf("total after removal=%d", g.TotalInfluenceEntries())
	}
	// Re-adding after removal works (lazy map reuse).
	g.AddInfluence(4, 7)
	if !g.HasInfluence(4, 7) {
		t.Fatalf("re-add failed")
	}
}

func TestFIFOChurnCompaction(t *testing.T) {
	g := New(1, 1, FIFO)
	var queue []*stream.Tuple
	for i := uint64(0); i < 10000; i++ {
		tu := mkTuple(i, 0.5)
		g.Insert(tu)
		queue = append(queue, tu)
		if len(queue) > 50 {
			if !g.Remove(queue[0]) {
				t.Fatalf("remove failed at %d", i)
			}
			queue = queue[1:]
		}
	}
	if g.CellLen(0) != 50 {
		t.Fatalf("cell len=%d", g.CellLen(0))
	}
	if g.MemoryBytes() > 1<<20 {
		t.Fatalf("cell deque grew without compaction: %d bytes", g.MemoryBytes())
	}
}

func TestMemoryBytesGrowsWithContent(t *testing.T) {
	g := New(2, 4, FIFO)
	empty := g.MemoryBytes()
	for i := uint64(0); i < 100; i++ {
		g.Insert(mkTuple(i, 0.3, 0.7))
	}
	withPoints := g.MemoryBytes()
	if withPoints <= empty {
		t.Fatalf("memory should grow with points: %d vs %d", withPoints, empty)
	}
	for q := QueryID(0); q < 50; q++ {
		g.AddInfluence(3, q)
	}
	if g.MemoryBytes() <= withPoints {
		t.Fatalf("memory should grow with influence entries")
	}
}

// TestCellPartitionProperty: every random point belongs to exactly the cell
// IndexOf reports, for random grid shapes.
func TestCellPartitionProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := 1 + rng.Intn(4)
		res := 1 + rng.Intn(10)
		g := New(dims, res, FIFO)
		v := make(geom.Vector, dims)
		for i := range v {
			v[i] = rng.Float64()
		}
		idx := g.IndexOf(v)
		if !g.Rect(idx).Contains(v) {
			return false
		}
		// No other cell's half-open interior may claim it: check the cells
		// adjacent along each axis do not contain v strictly inside.
		count := 0
		for other := 0; other < g.NumCells(); other++ {
			r := g.Rect(other)
			inside := true
			for d := 0; d < dims; d++ {
				// half-open [lo, hi) except the last cell includes 1.0
				hiOK := v[d] < r.Hi[d] || (r.Hi[d] == 1.0 && v[d] == 1.0)
				if v[d] < r.Lo[d] || !hiOK {
					inside = false
					break
				}
			}
			if inside {
				count++
			}
		}
		return count == 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
