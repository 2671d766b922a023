// Package load is the benchmark's own load generator: the tuple stream and
// the query sets of every workload. The stream is made from the benchmark
// seed alone; the query sets are constants of the workloads (QuerySeed).
//
// The benchmark does not use stream.Generator. A later change may alter
// it, and the benchmark must know exactly what its generator allocates, so
// that the process-wide allocation counters, less that, measure the monitor.
package load

import (
	"math/rand"
	"slices"

	"topkmon/pkg/topkmon"
)

// Dims is the workspace dimensionality of every workload.
const Dims = 4

// Gen produces the IND (independent, uniform) tuple stream with globally
// increasing ids and sequence numbers.
type Gen struct {
	rng  *rand.Rand
	next uint64
}

// NewGen returns the stream generator for a benchmark seed.
func NewGen(seed int64) *Gen {
	return &Gen{rng: rand.New(rand.NewSource(seed))}
}

// point is one tuple with its coordinates, a single heap object.
type point struct {
	t   topkmon.Tuple
	vec [Dims]float64
}

// Batch returns n tuples stamped with cycle timestamp ts: n+1 allocations,
// one object per tuple and the slice.
//
// A tuple is an object of its own because the monitor keeps the pointers it
// is handed. With a batch in one slab, a single pointer that outlives its
// tuple (a stale slot beyond the length of some slice in the monitor) keeps
// the whole batch reachable, a thousand times what it would cost a caller
// that allocates tuple by tuple: live_heap_mb on topk-sma then read 143 MB
// against the 86 MB it reads now, grew with the length of the span, and
// moved 9% with the seed.
func (g *Gen) Batch(n int, ts int64) []*topkmon.Tuple {
	ptrs := make([]*topkmon.Tuple, n)
	for i := range ptrs {
		p := new(point)
		for j := range p.vec {
			p.vec[j] = g.rng.Float64()
		}
		p.t = topkmon.Tuple{ID: g.next, Vec: p.vec[:], Seq: g.next, TS: ts}
		g.next++
		ptrs[i] = &p.t
	}
	return ptrs
}

// QuerySeed is the seed of every workload's query set. The sets do not move
// with the benchmark seed, which moves the stream, the deletions and the
// reads: what a cycle costs depends on the geometry of the query set more
// than on anything else. With Q = 1000 stratified top-k queries the median
// cycle of topk-sma read 5.8 to 7.3 ms over six sets, whatever the stream,
// and 7.33 to 7.59 ms over six streams with one set; the driver measures the
// spread of ten runs with ten seeds, and a set per seed spent half of the
// widest bound it allows before the host added its own.
const QuerySeed = 1

// TopKWeights returns q linear preference vectors with weights U[0,1] from
// seed+1. The weights of each dimension are stratified (a Latin hypercube:
// one weight in each of q equal slices of [0,1], in random order), so every
// seed's query set has the same share of the near-zero weights that make a
// query's influence region, and its cost, many times the typical one.
func TopKWeights(seed int64, q int) [][]float64 {
	return stratified(rand.New(rand.NewSource(seed+1)), q, 0, 1)
}

// TopKWeightBlocks returns blocks*q preference vectors, every consecutive
// block of q a stratified set of its own as TopKWeights draws one. A
// workload that replaces its queries a few at a time, in this order, then
// holds at every moment q queries from at most two adjacent blocks: as even
// a mix of cheap and costly queries as the initial set, where one
// stratified draw of blocks*q vectors in random order left the mix of any q
// of them to chance.
func TopKWeightBlocks(seed int64, blocks, q int) [][]float64 {
	rng := rand.New(rand.NewSource(seed + 1))
	out := make([][]float64, 0, blocks*q)
	for b := 0; b < blocks; b++ {
		out = append(out, stratified(rng, q, 0, 1)...)
	}
	return out
}

// stratified draws q vectors whose every coordinate is stratified over
// [lo, hi).
func stratified(rng *rand.Rand, q int, lo, hi float64) [][]float64 {
	flat := make([]float64, q*Dims)
	out := make([][]float64, q)
	for i := range out {
		out[i] = flat[i*Dims : (i+1)*Dims : (i+1)*Dims]
	}
	for j := 0; j < Dims; j++ {
		for i, slice := range rng.Perm(q) {
			u := (float64(slice) + rng.Float64()) / float64(q)
			out[i][j] = lo + float64((hi-lo)*u)
		}
	}
	return out
}

// PubSub returns the publish/subscribe subscription set: q linear
// functions in `bases` groups of near-duplicates, each a ±1% jitter around
// a base vector drawn (stratified, as TopKWeights) from [0.2,1]^Dims
// (seed+1), base b serving subscriptions b, b+bases, b+2*bases, ...
//
// Every subscription's threshold is its own (matches+1)-th highest score
// over the first `tuples` tuples of the stream NewGen(stream) makes, so that over a run of
// that length every subscription is matched by exactly `matches` tuples
// (ties aside). Thresholds at a fixed fraction of the maximum score, or at
// a fixed match probability, leave the number of matches to chance: with
// matches this rare the count, and every allocation and latency figure the
// fan-out dominates, then moves by a tenth from seed to seed. With 13
// matches in 3.1 million tuples the threshold comes out near 0.97 of the
// maximum score.
//
// The explicit float64 conversions keep a compiler from fusing the
// multiply-adds, so the set is the same bits on every platform.
func PubSub(seed, stream int64, q, bases, matches, tuples int) (weights [][]float64, thresholds []float64) {
	rng := rand.New(rand.NewSource(seed + 1))
	base := stratified(rng, bases, 0.2, 1)
	for b, v := range base {
		// Base b prefers the corner of the workspace that the bits of b
		// name: a negative weight is a decreasing preference.
		for j := range v {
			if b>>j&1 == 1 {
				v[j] = -v[j]
			}
		}
	}
	flat := make([]float64, q*Dims)
	weights = make([][]float64, q)
	for i := range weights {
		w := flat[i*Dims : (i+1)*Dims : (i+1)*Dims]
		for j, b := range base[i%bases] {
			w[j] = b * (0.99 + float64(0.02*rng.Float64()))
		}
		weights[i] = w
	}

	// A subscription scores within 1% of its base, so its best matches+1
	// tuples are among the base's best few hundred: only those candidates
	// need scoring against every subscription.
	keep := min(32*(matches+1), tuples)
	cands := make([]candidates, bases)
	coords := rand.New(rand.NewSource(stream))
	var x [Dims]float64
	for t := 0; t < tuples; t++ {
		for j := range x {
			x[j] = coords.Float64()
		}
		for b := range cands {
			cands[b].offer(dot(base[b], x[:]), x, keep)
		}
	}
	thresholds = make([]float64, q)
	scores := make([]float64, 0, keep)
	for i, w := range weights {
		scores = scores[:0]
		for _, c := range cands[i%bases].vecs {
			scores = append(scores, dot(w, c[:]))
		}
		slices.Sort(scores)
		thresholds[i] = scores[max(len(scores)-1-matches, 0)]
	}
	return weights, thresholds
}

// dot mirrors geom.Linear.Score: products accumulated in index order,
// each rounded to float64.
func dot(w, x []float64) float64 {
	var s float64
	for i := range w {
		s += float64(w[i] * x[i])
	}
	return s
}

// candidates keeps the `keep` highest-scoring vectors offered, as a
// min-heap on score.
type candidates struct {
	scores []float64
	vecs   [][Dims]float64
}

func (c *candidates) offer(score float64, x [Dims]float64, keep int) {
	if len(c.scores) == keep {
		if score <= c.scores[0] {
			return
		}
		c.scores[0], c.vecs[0] = score, x
		c.down(0)
		return
	}
	c.scores, c.vecs = append(c.scores, score), append(c.vecs, x)
	for i := len(c.scores) - 1; i > 0; {
		parent := (i - 1) / 2
		if c.scores[parent] <= c.scores[i] {
			break
		}
		c.swap(i, parent)
		i = parent
	}
}

func (c *candidates) down(i int) {
	for {
		small := i
		for _, child := range []int{2*i + 1, 2*i + 2} {
			if child < len(c.scores) && c.scores[child] < c.scores[small] {
				small = child
			}
		}
		if small == i {
			return
		}
		c.swap(i, small)
		i = small
	}
}

func (c *candidates) swap(i, j int) {
	c.scores[i], c.scores[j] = c.scores[j], c.scores[i]
	c.vecs[i], c.vecs[j] = c.vecs[j], c.vecs[i]
}
