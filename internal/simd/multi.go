package simd

// Multi-query block kernels: the dual of the per-query kernels. Where
// DotBlockInto scores one weight vector against a block of points, the
// Multi variants score a whole block of nq query weight vectors (packed
// dims-strided in w, exactly like a coordinate block) against the same
// point block in one GEMM-shaped loop, filling dst row-major: row q is
// dst[q*n : (q+1)*n] with n = len(coords)/dims points.
//
// Bit-exactness contract: row q of dst is bit-identical to calling the
// corresponding single-query kernel with w[q*dims:(q+1)*dims] — each
// (query, point) score accumulates over dimensions in index order, same
// as geom.ScoringFunction.Score. The hardware leg only changes which
// scores are computed together (four queries share each coordinate
// load), never the per-score operation order.

// DotBlockMulti fills dst with the dot products of nq = len(w)/dims
// query weight vectors against the n = len(coords)/dims points of the
// block: dst[q*n+j] = <w_q, p_j>. len(dst) must be nq*n.
func DotBlockMulti(dst, coords, w []float64, dims int) {
	dotBlockMulti(dst, coords, w, dims)
}

// QuadBlockMulti is DotBlockMulti for the quadratic form:
// dst[q*n+j] = sum_i w_q[i] * x_i * x_i.
func QuadBlockMulti(dst, coords, w []float64, dims int) {
	quadBlockMulti(dst, coords, w, dims)
}

// ProductBlockMulti is DotBlockMulti for the product form:
// dst[q*n+j] = prod_i (off_q[i] + x_i).
func ProductBlockMulti(dst, coords, off []float64, dims int) {
	productBlockMulti(dst, coords, off, dims)
}

// DotBlockMultiScalar is the reference implementation of DotBlockMulti:
// one query row at a time through the single-query scalar kernel.
func DotBlockMultiScalar(dst, coords, w []float64, dims int) {
	nq, n := multiShape(dst, coords, w, dims)
	for q := 0; q < nq; q++ {
		DotBlockScalar(dst[q*n:(q+1)*n], coords, w[q*dims:(q+1)*dims])
	}
}

// QuadBlockMultiScalar is the reference implementation of QuadBlockMulti.
func QuadBlockMultiScalar(dst, coords, w []float64, dims int) {
	nq, n := multiShape(dst, coords, w, dims)
	for q := 0; q < nq; q++ {
		QuadBlockScalar(dst[q*n:(q+1)*n], coords, w[q*dims:(q+1)*dims])
	}
}

// ProductBlockMultiScalar is the reference implementation of
// ProductBlockMulti.
func ProductBlockMultiScalar(dst, coords, off []float64, dims int) {
	nq, n := multiShape(dst, coords, off, dims)
	for q := 0; q < nq; q++ {
		ProductBlockScalar(dst[q*n:(q+1)*n], coords, off[q*dims:(q+1)*dims])
	}
}

// multiShape derives (nq, n) from the packed arguments. dims == 0 is
// degenerate: every score is the empty accumulation, handled by the
// single-query kernels' own zero-dims paths with n = len(dst) per row —
// callers never pass dims == 0 with nq > 1, so treat dst as one row.
func multiShape(dst, coords, w []float64, dims int) (nq, n int) {
	if dims == 0 {
		return 1, len(dst)
	}
	return len(w) / dims, len(coords) / dims
}
