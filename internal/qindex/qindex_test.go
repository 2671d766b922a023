package qindex

import (
	"math"
	"math/rand"
	"testing"

	"topkmon/internal/geom"
)

// slabGeo splits [0,1] along dimension 0 into equal slabs, full range on
// the remaining dimensions — the simplest Geometry with distinct cells.
type slabGeo struct {
	dims, cells int
}

func (g slabGeo) NumCells() int { return g.cells }

func (g slabGeo) RectInto(idx int, out *geom.Rect) {
	for i := 0; i < g.dims; i++ {
		out.Lo[i], out.Hi[i] = 0, 1
	}
	w := 1.0 / float64(g.cells)
	out.Lo[0], out.Hi[0] = float64(idx)*w, float64(idx+1)*w
}

// minDim is a generic (non-packed) monotone scoring function — the
// minimum coordinate — exercising the famGeneric singleton path.
type minDim struct{ dims int }

func (m minDim) Dims() int { return m.dims }

func (m minDim) Score(v geom.Vector) float64 {
	s := v[0]
	for _, x := range v[1:] {
		if x < s {
			s = x
		}
	}
	return s
}

func (m minDim) Direction(int) geom.Direction { return geom.Increasing }

func (m minDim) String() string { return "min" }

func newTestIndex(t *testing.T, dims, cells int) *Index {
	t.Helper()
	return New(dims, slabGeo{dims: dims, cells: cells})
}

func mustValidate(t *testing.T, ix *Index) {
	t.Helper()
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAddRemove(t *testing.T) {
	ix := newTestIndex(t, 2, 4)
	f1 := geom.NewLinear(0.5, 0.5)
	f2 := geom.NewLinear(0.52, 0.48) // same quantized direction
	if err := ix.Add(1, f1, 0.8); err != nil {
		t.Fatal(err)
	}
	if err := ix.Add(2, f2, 0.6); err != nil {
		t.Fatal(err)
	}
	if err := ix.Add(1, f1, 0.8); err == nil {
		t.Fatal("duplicate Add accepted")
	}
	if got := ix.NumQueries(); got != 2 {
		t.Fatalf("NumQueries = %d, want 2", got)
	}
	if got := ix.NumClusters(); got != 1 {
		t.Fatalf("near-duplicate weights split into %d clusters, want 1", got)
	}
	if b, ok := ix.BoundOf(2); !ok || b != 0.6 {
		t.Fatalf("BoundOf(2) = %v,%v want 0.6,true", b, ok)
	}
	mustValidate(t, ix)

	if err := ix.Remove(1); err != nil {
		t.Fatal(err)
	}
	if _, ok := ix.BoundOf(1); ok {
		t.Fatal("removed query still resolvable")
	}
	if err := ix.Remove(1); err == nil {
		t.Fatal("second Remove of the same query accepted")
	}
	mustValidate(t, ix)
	if err := ix.Remove(2); err != nil {
		t.Fatal(err)
	}
	if got := ix.NumClusters(); got != 0 {
		t.Fatalf("emptied cluster survived: NumClusters = %d", got)
	}
	mustValidate(t, ix)
}

// TestRemoveRetightensMinBound: when the member holding a cluster's
// lowest bound leaves, the cluster-level skip threshold must rise to the
// survivors' minimum — otherwise the cluster is probed, and its members
// scored, at the departed bound for the rest of its life.
func TestRemoveRetightensMinBound(t *testing.T) {
	ix := newTestIndex(t, 2, 4)
	if err := ix.Add(1, geom.NewLinear(0.5, 0.5), 0.5); err != nil {
		t.Fatal(err)
	}
	if err := ix.Add(2, geom.NewLinear(0.52, 0.48), 0.9); err != nil {
		t.Fatal(err)
	}
	if ix.NumClusters() != 1 {
		t.Fatalf("want one cluster, got %d", ix.NumClusters())
	}
	for idx := 0; idx < 4; idx++ {
		ix.CellEntries(idx)
	}
	cl := ix.loc[2].c
	if cl.MinBound() != 0.5 {
		t.Fatalf("MinBound = %g before removal, want 0.5", cl.MinBound())
	}
	epoch := ix.Epoch()
	if err := ix.Remove(1); err != nil {
		t.Fatal(err)
	}
	if cl.MinBound() != 0.9 {
		t.Fatalf("MinBound = %g after the 0.5 member left, want 0.9", cl.MinBound())
	}
	if ix.Epoch() != epoch {
		t.Fatal("re-tightening bumped the epoch; published caches are still supersets")
	}
	mustValidate(t, ix)
}

// TestSwapDeleteLocator removes a middle member and checks the moved
// last member remains addressable, with its weights moved along.
func TestSwapDeleteLocator(t *testing.T) {
	ix := newTestIndex(t, 2, 2)
	for i, w := range [][2]float64{{0.5, 0.5}, {0.51, 0.49}, {0.49, 0.51}} {
		if err := ix.Add(QueryID(i+1), geom.NewLinear(w[0], w[1]), 0.5); err != nil {
			t.Fatal(err)
		}
	}
	if ix.NumClusters() != 1 {
		t.Fatalf("want one cluster, got %d", ix.NumClusters())
	}
	if err := ix.Remove(2); err != nil {
		t.Fatal(err)
	}
	mustValidate(t, ix)
	p := ix.loc[3]
	w := p.c.weights[p.slot*2 : p.slot*2+2]
	if w[0] != 0.49 || w[1] != 0.51 {
		t.Fatalf("moved member's weights = %v, want [0.49 0.51]", w)
	}
}

func TestClusterKeying(t *testing.T) {
	ix := newTestIndex(t, 3, 2)
	add := func(id QueryID, f geom.ScoringFunction) {
		t.Helper()
		if err := ix.Add(id, f, 1); err != nil {
			t.Fatal(err)
		}
	}
	add(1, geom.NewLinear(1, 2, 3))
	add(2, geom.NewLinear(2, 4, 6)) // scaled copy: same direction
	if ix.NumClusters() != 1 {
		t.Fatalf("scaled copies split: %d clusters", ix.NumClusters())
	}
	add(3, geom.NewLinear(3, 2, 1)) // different direction
	if ix.NumClusters() != 2 {
		t.Fatalf("distinct directions merged: %d clusters", ix.NumClusters())
	}
	add(4, geom.NewQuadratic(1, 2, 3)) // same weights, different family
	if ix.NumClusters() != 3 {
		t.Fatalf("families merged: %d clusters", ix.NumClusters())
	}
	add(5, geom.NewProduct(1, 2, 3))
	add(6, minDim{dims: 3}) // generic: singleton cluster
	add(7, minDim{dims: 3}) // second generic: its own singleton
	if ix.NumClusters() != 6 {
		t.Fatalf("want 6 clusters, got %d", ix.NumClusters())
	}
	mustValidate(t, ix)
}

func TestEpochSemantics(t *testing.T) {
	ix := newTestIndex(t, 2, 3)
	e0 := ix.Epoch()
	if err := ix.Add(1, geom.NewLinear(0.5, 0.5), 0.8); err != nil {
		t.Fatal(err)
	}
	if ix.Epoch() == e0 {
		t.Fatal("new cluster did not bump epoch")
	}

	// Populate every cell cache, then check probes are cached.
	for idx := 0; idx < 3; idx++ {
		ix.CellEntries(idx)
	}
	mustValidate(t, ix)
	e1 := ix.Epoch()

	// A second member at a higher bound must not invalidate caches.
	if err := ix.Add(3, geom.NewLinear(0.5, 0.5), 0.9); err != nil {
		t.Fatal(err)
	}
	if ix.Epoch() != e1 {
		t.Fatal("member above the cluster minimum bumped epoch")
	}

	// A member slightly below the minimum, inside the walk slack, must
	// not either.
	if err := ix.Add(4, geom.NewLinear(0.5, 0.5), 0.78); err != nil {
		t.Fatal(err)
	}
	if ix.Epoch() != e1 {
		t.Fatal("member within walk slack bumped epoch")
	}

	// A member below the walk bound must.
	if err := ix.Add(5, geom.NewLinear(0.5, 0.5), 0.2); err != nil {
		t.Fatal(err)
	}
	if ix.Epoch() == e1 {
		t.Fatal("member below walk bound did not bump epoch")
	}
	mustValidate(t, ix)

	// Removal never bumps: published caches stay supersets.
	e2 := ix.Epoch()
	for _, id := range []QueryID{5, 1, 3, 4} {
		if err := ix.Remove(id); err != nil {
			t.Fatal(err)
		}
		mustValidate(t, ix)
	}
	if ix.Epoch() != e2 {
		t.Fatal("removal bumped epoch")
	}
	// Re-creating the key makes a new cluster and must bump, or stale
	// caches would hide the newcomer.
	if err := ix.Add(2, geom.NewLinear(0.5, 0.5), 0.1); err != nil {
		t.Fatal(err)
	}
	if ix.Epoch() == e2 {
		t.Fatal("cluster re-creation did not bump epoch")
	}
	mustValidate(t, ix)
}

// TestNoUnderDelivery is the load-bearing property: for every query whose
// influence region (clipped maxscore >= bound) covers a cell, the probe
// path — CellEntries, cluster-level MinBound skip, member-level BoundAt
// skip — must reach that query on that cell. Over-delivery is fine;
// under-delivery would corrupt results.
func TestNoUnderDelivery(t *testing.T) {
	const dims, cells = 3, 8
	rng := rand.New(rand.NewSource(7))
	ix := newTestIndex(t, dims, cells)

	type entry struct {
		id    QueryID
		f     geom.ScoringFunction
		bound float64
	}
	var queries []entry
	newFn := func(i int) geom.ScoringFunction {
		w := make([]float64, dims)
		for d := range w {
			w[d] = rng.Float64()*2 - 0.5 // mostly positive, some negative
		}
		switch i % 4 {
		case 0:
			return geom.NewLinear(w...)
		case 1:
			return geom.NewQuadratic(w...)
		case 2:
			for d := range w {
				w[d] = rng.Float64() // product offsets must be >= 0
			}
			return geom.NewProduct(w...)
		default:
			return minDim{dims: dims}
		}
	}
	for i := 0; i < 200; i++ {
		f := newFn(i)
		bound := rng.Float64()*2 - 0.5
		id := QueryID(i + 1)
		if err := ix.Add(id, f, bound); err != nil {
			t.Fatal(err)
		}
		queries = append(queries, entry{id, f, bound})
	}

	check := func() {
		t.Helper()
		mustValidate(t, ix)
		r := geom.Rect{Lo: make(geom.Vector, dims), Hi: make(geom.Vector, dims)}
		for idx := 0; idx < cells; idx++ {
			reached := map[QueryID]bool{}
			for _, ce := range ix.CellEntries(idx) {
				cl := ce.C
				if cl.Len() == 0 || ce.UB < cl.MinBound() {
					continue
				}
				for j := 0; j < cl.Len(); j++ {
					if ce.UB < cl.BoundAt(j) {
						continue
					}
					reached[cl.IDAt(j)] = true
				}
			}
			ix.geo.RectInto(idx, &r)
			for _, q := range queries {
				if geom.MaxScore(q.f, r) >= q.bound && !reached[q.id] {
					t.Fatalf("cell %d: query %d (bound %g, maxscore %g) not reached by probe",
						idx, q.id, q.bound, geom.MaxScore(q.f, r))
				}
			}
		}
	}
	check()

	// Churn: replace a third of the queries under new bounds and remove
	// another third, then re-check. Exercises minBound re-tightening,
	// stale wHi and cache reuse.
	kept := queries[:0]
	for i := range queries {
		q := &queries[i]
		switch i % 3 {
		case 0:
			if err := ix.Remove(q.id); err != nil {
				t.Fatal(err)
			}
			q.bound = rng.Float64()*2 - 0.5
			if err := ix.Add(q.id, q.f, q.bound); err != nil {
				t.Fatal(err)
			}
			kept = append(kept, *q)
		case 1:
			if err := ix.Remove(q.id); err != nil {
				t.Fatal(err)
			}
		default:
			kept = append(kept, *q)
		}
	}
	queries = kept
	check()
}

// TestScoreMembersMatchesScoreBlock pins bit-identical scoring between the
// cluster batch path and the engine's single-query path.
func TestScoreMembersMatchesScoreBlock(t *testing.T) {
	const dims = 3
	rng := rand.New(rand.NewSource(11))
	ix := newTestIndex(t, dims, 2)
	fns := []geom.ScoringFunction{
		geom.NewLinear(0.2, 0.3, 0.5),
		geom.NewLinear(0.21, 0.3, 0.49),
		geom.NewLinear(0.2, 0.31, 0.5),
	}
	for i, f := range fns {
		if err := ix.Add(QueryID(i+1), f, 0); err != nil {
			t.Fatal(err)
		}
	}
	if ix.NumClusters() != 1 {
		t.Fatalf("want one cluster, got %d", ix.NumClusters())
	}
	c := ix.clusters[0]
	const n = 9
	coords := make([]float64, n*dims)
	for i := range coords {
		coords[i] = rng.Float64()
	}
	dst := make([]float64, c.Len()*n)
	c.ScoreMembers(dst, coords, 0, c.Len(), dims)
	want := make([]float64, n)
	for j := 0; j < c.Len(); j++ {
		var f geom.ScoringFunction
		for i, fn := range fns {
			if QueryID(i+1) == c.IDAt(j) {
				f = fn
			}
		}
		geom.ScoreBlockInto(f, coords, dims, want)
		for p := 0; p < n; p++ {
			if math.Float64bits(dst[j*n+p]) != math.Float64bits(want[p]) {
				t.Fatalf("member %d point %d: batch %v != direct %v", j, p, dst[j*n+p], want[p])
			}
		}
	}
}

// TestUBConservative checks the cluster envelope bound dominates every
// member's true maxscore on every cell, including negative weights.
func TestUBConservative(t *testing.T) {
	const dims, cells = 2, 5
	rng := rand.New(rand.NewSource(3))
	ix := newTestIndex(t, dims, cells)
	type m struct {
		id QueryID
		f  geom.ScoringFunction
	}
	var members []m
	for i := 0; i < 60; i++ {
		w := []float64{rng.Float64()*4 - 2, rng.Float64()*4 - 2}
		var f geom.ScoringFunction
		switch i % 3 {
		case 0:
			f = geom.NewLinear(w...)
		case 1:
			f = geom.NewQuadratic(w...)
		default:
			f = geom.NewProduct(math.Abs(w[0]), math.Abs(w[1]))
		}
		id := QueryID(i + 1)
		if err := ix.Add(id, f, math.Inf(-1)); err != nil {
			t.Fatal(err)
		}
		members = append(members, m{id, f})
	}
	r := geom.Rect{Lo: make(geom.Vector, dims), Hi: make(geom.Vector, dims)}
	for idx := 0; idx < cells; idx++ {
		ubs := map[*Cluster]float64{}
		for _, ce := range ix.CellEntries(idx) {
			ubs[ce.C] = ce.UB
		}
		ix.geo.RectInto(idx, &r)
		for _, mm := range members {
			p := ix.loc[mm.id]
			ub, ok := ubs[p.c]
			if !ok {
				t.Fatalf("cell %d: cluster of query %d absent despite -Inf bounds", idx, mm.id)
			}
			if ms := geom.MaxScore(mm.f, r); ub < ms {
				t.Fatalf("cell %d query %d: cached ub %g < true maxscore %g", idx, mm.id, ub, ms)
			}
		}
	}
}

// TestScoreEnvelopeDominates checks the block envelope scores bound
// every member's score of the same point for all three packed families
// (coordinates non-negative, as in the unit workspace), and that the
// generic family reports no envelope.
func TestScoreEnvelopeDominates(t *testing.T) {
	const dims = 3
	rng := rand.New(rand.NewSource(17))
	mk := []struct {
		name string
		fn   func(w []float64) geom.ScoringFunction
	}{
		{"linear", func(w []float64) geom.ScoringFunction { return geom.NewLinear(w...) }},
		{"quad", func(w []float64) geom.ScoringFunction { return geom.NewQuadratic(w...) }},
		{"product", func(w []float64) geom.ScoringFunction { return geom.NewProduct(w...) }},
	}
	for _, tc := range mk {
		ix := newTestIndex(t, dims, 2)
		base := []float64{0.3, 0.5, 0.7}
		for i := 0; i < 40; i++ {
			w := make([]float64, dims)
			for d := range w {
				w[d] = base[d] * (1 + 0.02*(rng.Float64()*2-1))
			}
			if err := ix.Add(QueryID(i+1), tc.fn(w), 0); err != nil {
				t.Fatal(err)
			}
		}
		if ix.NumClusters() != 1 {
			t.Fatalf("%s: want one cluster, got %d", tc.name, ix.NumClusters())
		}
		c := ix.clusters[0]
		const n = 16
		coords := make([]float64, n*dims)
		for i := range coords {
			coords[i] = rng.Float64()
		}
		env := make([]float64, n)
		if !c.ScoreEnvelope(env, coords) {
			t.Fatalf("%s: packed cluster reported no envelope", tc.name)
		}
		dst := make([]float64, c.Len()*n)
		c.ScoreMembers(dst, coords, 0, c.Len(), dims)
		for j := 0; j < c.Len(); j++ {
			for p := 0; p < n; p++ {
				if dst[j*n+p] > env[p] {
					t.Fatalf("%s member %d point %d: score %v above envelope %v", tc.name, j, p, dst[j*n+p], env[p])
				}
			}
		}
	}

	ix := newTestIndex(t, 2, 2)
	if err := ix.Add(1, minDim{dims: 2}, 0); err != nil {
		t.Fatal(err)
	}
	var env [4]float64
	if ix.clusters[0].ScoreEnvelope(env[:], []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}) {
		t.Fatal("generic cluster claimed an envelope")
	}
}

func TestMemoryBytesGrows(t *testing.T) {
	ix := newTestIndex(t, 2, 4)
	base := ix.MemoryBytes()
	for i := 0; i < 100; i++ {
		if err := ix.Add(QueryID(i+1), geom.NewLinear(0.5, 0.5), 1); err != nil {
			t.Fatal(err)
		}
	}
	grown := ix.MemoryBytes()
	if grown <= base {
		t.Fatalf("MemoryBytes did not grow: %d -> %d", base, grown)
	}
	// Columnar storage: 100 same-cluster queries must cost far less than
	// a 4-cell influence-list world would per query; sanity-bound the
	// per-query footprint.
	perQuery := (grown - base) / 100
	if perQuery > 256 {
		t.Fatalf("per-query footprint %d bytes, want <= 256", perQuery)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	ix := newTestIndex(t, 2, 2)
	if err := ix.Add(1, geom.NewLinear(0.4, 0.6), 0.5); err != nil {
		t.Fatal(err)
	}
	ix.CellEntries(0)
	mustValidate(t, ix)

	c := ix.clusters[0]
	old := c.wHi[0]
	c.wHi[0] = 0.1 // below the member weight: envelope no longer dominates
	if err := ix.Validate(); err == nil {
		t.Fatal("Validate missed a non-dominating envelope")
	}
	c.wHi[0] = old

	c.minBound = 0.7 // above the true member minimum
	if err := ix.Validate(); err == nil {
		t.Fatal("Validate missed a stale-high minBound")
	}
	c.minBound = 0.5

	c.walkBound = 0.6 // above minBound
	if err := ix.Validate(); err == nil {
		t.Fatal("Validate missed walkBound > minBound")
	}
}
