package load

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"
)

// The workloads' bytes must not drift under later changes: every metric is
// compared across commits on the assumption that the inputs are the same.
// These hashes pin, for seed 1, the first 10 000 tuples and the first 100
// vectors of each query set.
const (
	goldenTuples  = 0x588f05c1a04624ab
	goldenTopK    = 0x5ec4c53170801635
	goldenPubSub  = 0xf22cad76433c2bba
	goldenBatches = 10
)

type hasher struct {
	buf [8]byte
	sum hash.Hash64
}

func newHasher() *hasher { return &hasher{sum: fnv.New64a()} }

func (h *hasher) word(v uint64) {
	binary.LittleEndian.PutUint64(h.buf[:], v)
	h.sum.Write(h.buf[:])
}

func (h *hasher) floats(xs []float64) {
	for _, x := range xs {
		h.word(math.Float64bits(x))
	}
}

func TestGoldenStream(t *testing.T) {
	h := newHasher()
	g := NewGen(1)
	for b := 0; b < goldenBatches; b++ {
		for _, tu := range g.Batch(1000, int64(b)) {
			h.word(tu.ID)
			h.word(tu.Seq)
			h.word(uint64(tu.TS))
			h.floats(tu.Vec)
		}
	}
	if got := h.sum.Sum64(); got != goldenTuples {
		t.Errorf("first 10000 tuples of seed 1 hash to %#x, want %#x", got, uint64(goldenTuples))
	}
}

func TestGoldenQueries(t *testing.T) {
	h := newHasher()
	for _, w := range TopKWeights(1, 100) {
		h.floats(w)
	}
	if got := h.sum.Sum64(); got != goldenTopK {
		t.Errorf("first 100 top-k weight vectors of seed 1 hash to %#x, want %#x", got, uint64(goldenTopK))
	}

	h = newHasher()
	weights, thresholds := PubSub(1, 1, 100, 8, 13, 10000)
	for i, w := range weights {
		h.floats(w)
		h.word(math.Float64bits(thresholds[i]))
	}
	if got := h.sum.Sum64(); got != goldenPubSub {
		t.Errorf("first 100 pub/sub subscriptions of seed 1 hash to %#x, want %#x", got, uint64(goldenPubSub))
	}
}

func TestBatchAllocatesOneObjectPerTuple(t *testing.T) {
	g := NewGen(1)
	for _, n := range []int{10, 1000} {
		if got := testing.AllocsPerRun(10, func() { g.Batch(n, 0) }); got != float64(n+1) {
			t.Errorf("Batch(%d) makes %v allocations, want %d", n, got, n+1)
		}
	}
}

func TestPubSubMatchesExactly(t *testing.T) {
	const matches, tuples = 5, 20000
	weights, thresholds := PubSub(3, 3, 64, 4, matches, tuples)
	hits := make([]int, len(weights))
	for _, tu := range NewGen(3).Batch(tuples, 0) {
		for i, w := range weights {
			if dot(w, tu.Vec) > thresholds[i] {
				hits[i]++
			}
		}
	}
	for i, n := range hits {
		if n != matches {
			t.Errorf("subscription %d is matched by %d of the stream's tuples, want %d", i, n, matches)
		}
	}
}
