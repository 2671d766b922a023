// Package simd provides batch scoring kernels over dims-strided coordinate
// blocks — the tight loops behind the grid's columnar cell layout.
//
// A block holds n points contiguously: point j occupies
// coords[j*dims : (j+1)*dims]. Each kernel fills dst[j] with the score of
// point j under one scoring-function family (linear dot product, product
// form, quadratic form). Two implementation legs share each kernel's
// contract (see leg.go): the scalar reference, which is also the fallback
// on every host without an assembly leg, and the hardware leg (AVX2 on
// amd64, NEON on arm64), selected at startup by CPU feature detection or
// forced via TOPK_SIMD / SetLeg.
//
// Bit-exactness contract: both legs perform the per-point floating
// point operations in exactly the order the corresponding
// geom.ScoringFunction.Score method does (accumulate over dimensions in
// index order), so batch and pointwise scoring yield bit-identical
// float64 results on every host. The monitoring engine depends on this —
// scores feed total-order comparisons, and the differential harness
// asserts byte-identical transcripts against a pointwise reference
// scorer. The equivalence tests and the fuzz entry in this package pin
// the contract.
//
// The //topk:bitexact directive below puts this package under the
// topklint bitexact analyzer: fused multiply-adds are forbidden in Go
// and in assembly, every contractible a*b+c shape must carry an explicit
// float64() rounding conversion (the Go compiler fuses multiply-adds on
// arm64 but not amd64; the conversion is a documented no-op on amd64 and
// makes arm64 match it bit for bit), and the amd64/arm64/portable build
// legs must keep identical kernel signatures. //topk:deterministic
// additionally bans wall-clock reads, unseeded randomness, and
// iteration-order leaks.
//
//topk:bitexact
//topk:deterministic
package simd

// DotBlockInto fills dst[j] with the dot product of w and point j of the
// dims-strided block coords, where dims = len(w) and the block holds
// len(dst) points. It mirrors geom.Linear.Score.
func DotBlockInto(dst, coords, w []float64) {
	dotBlock(dst, coords, w)
}

// QuadBlockInto fills dst[j] with sum_i w[i] * x_i * x_i for point j of
// the block. It mirrors geom.Quadratic.Score.
func QuadBlockInto(dst, coords, w []float64) {
	quadBlock(dst, coords, w)
}

// ProductBlockInto fills dst[j] with prod_i (off[i] + x_i) for point j of
// the block. It mirrors geom.Product.Score.
func ProductBlockInto(dst, coords, off []float64) {
	productBlock(dst, coords, off)
}

// DotBlockScalar is the reference implementation of DotBlockInto: one
// point at a time, accumulating over dimensions in index order — the exact
// loop of geom.Linear.Score.
//
//topk:acc 1
func DotBlockScalar(dst, coords, w []float64) {
	dims := len(w)
	for j := range dst {
		b := j * dims
		var s float64
		for i, wi := range w {
			s += float64(wi * coords[b+i])
		}
		dst[j] = s
	}
}

// QuadBlockScalar is the reference implementation of QuadBlockInto.
//
//topk:acc 1
func QuadBlockScalar(dst, coords, w []float64) {
	dims := len(w)
	for j := range dst {
		b := j * dims
		var s float64
		for i, wi := range w {
			x := coords[b+i]
			s += float64(wi * x * x)
		}
		dst[j] = s
	}
}

// ProductBlockScalar is the reference implementation of ProductBlockInto.
//
//topk:acc 1
func ProductBlockScalar(dst, coords, off []float64) {
	dims := len(off)
	for j := range dst {
		b := j * dims
		s := 1.0
		for i, oi := range off {
			s *= oi + coords[b+i]
		}
		dst[j] = s
	}
}
