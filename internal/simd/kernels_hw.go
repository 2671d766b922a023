//go:build amd64 || arm64

package simd

// Hardware-leg wrappers. Both assembly legs (AVX2 on amd64, NEON on
// arm64) implement the same stub interface: a dims==4 fast path and a
// generic-dims path, each consuming whole groups of four points per call
// (quads = n/4). The Go wrappers own every remainder — trailing points
// beyond the last full group, and rows the multi kernels do not batch —
// with the exact scalar loops of the reference kernels, so the assembly
// never needs a tail path and the bit-identity contract lives in one
// place per shape.
//
// The stubs are declared here once and defined per architecture in
// kernels_avx2_amd64.s / kernels_neon_arm64.s; the topklint bitexact
// analyzer checks the .s files against these declarations and bans fused
// multiply-add mnemonics in them.

// hwKernels is the hardware leg's kernel set.
func hwKernels() kernelSet {
	return kernelSet{
		dot:          hwDot,
		quad:         hwQuad,
		product:      hwProduct,
		dotMulti:     hwDotMulti,
		quadMulti:    hwQuadMulti,
		productMulti: hwProductMulti,
	}
}

// dotAsmD4 fills dst[0:4*quads] with dot products of the dims==4 weight
// vector w against point groups of coords, accumulating each score from
// +0 over dimensions in index order.
//
//go:noescape
func dotAsmD4(dst, coords, w *float64, quads int)

// dotAsmAny is dotAsmD4 for arbitrary dims >= 1.
//
//go:noescape
func dotAsmAny(dst, coords, w *float64, quads, dims int)

// quadAsmD4 fills dst[0:4*quads] with quadratic forms sum_i w[i]*x_i*x_i
// (each term rounded as (w*x)*x like the scalar reference), dims==4.
//
//go:noescape
func quadAsmD4(dst, coords, w *float64, quads int)

// quadAsmAny is quadAsmD4 for arbitrary dims >= 1.
//
//go:noescape
func quadAsmAny(dst, coords, w *float64, quads, dims int)

// prodAsmD4 fills dst[0:4*quads] with products prod_i (off[i]+x_i)
// accumulated from 1.0, dims==4.
//
//go:noescape
func prodAsmD4(dst, coords, off *float64, quads int)

// prodAsmAny is prodAsmD4 for arbitrary dims >= 1.
//
//go:noescape
func prodAsmAny(dst, coords, off *float64, quads, dims int)

// dotMultiAsmD4 scores 4*qquads dims==4 query rows against pquads point
// groups, tiling query rows in groups of four (outer) over a streaming
// point-group loop (inner): each group of four dst rows is written as
// four sequential streams, and each point-group transpose is reused by
// four rows. dst rows are n apart (row-major dst[q*n+j]).
//
//go:noescape
func dotMultiAsmD4(dst, coords, w *float64, pquads, n, qquads int)

// quadMultiAsmD4 is dotMultiAsmD4 for the quadratic form.
//
//go:noescape
func quadMultiAsmD4(dst, coords, w *float64, pquads, n, qquads int)

// prodMultiAsmD4 is dotMultiAsmD4 for the product form.
//
//go:noescape
func prodMultiAsmD4(dst, coords, off *float64, pquads, n, qquads int)

// hwDot dispatches DotBlockInto to the hardware leg: full point groups in
// assembly, scalar-reference tail.
//
//topk:acc 1
//topk:hot
func hwDot(dst, coords, w []float64) {
	dims := len(w)
	n := len(dst)
	if dims == 0 || n == 0 {
		for j := range dst {
			dst[j] = 0
		}
		return
	}
	_ = coords[n*dims-1] // one bounds check for the whole block
	quads := n / 4
	if quads > 0 {
		if dims == 4 {
			dotAsmD4(&dst[0], &coords[0], &w[0], quads)
		} else {
			dotAsmAny(&dst[0], &coords[0], &w[0], quads, dims)
		}
	}
	for j := quads * 4; j < n; j++ {
		b := j * dims
		var s float64
		for i, wi := range w {
			s += float64(wi * coords[b+i])
		}
		dst[j] = s
	}
}

// hwQuad dispatches QuadBlockInto to the hardware leg.
//
//topk:acc 1
//topk:hot
func hwQuad(dst, coords, w []float64) {
	dims := len(w)
	n := len(dst)
	if dims == 0 || n == 0 {
		for j := range dst {
			dst[j] = 0
		}
		return
	}
	_ = coords[n*dims-1]
	quads := n / 4
	if quads > 0 {
		if dims == 4 {
			quadAsmD4(&dst[0], &coords[0], &w[0], quads)
		} else {
			quadAsmAny(&dst[0], &coords[0], &w[0], quads, dims)
		}
	}
	for j := quads * 4; j < n; j++ {
		b := j * dims
		var s float64
		for i, wi := range w {
			x := coords[b+i]
			s += float64(wi * x * x)
		}
		dst[j] = s
	}
}

// hwProduct dispatches ProductBlockInto to the hardware leg.
//
//topk:acc 1
//topk:hot
func hwProduct(dst, coords, off []float64) {
	dims := len(off)
	n := len(dst)
	if dims == 0 || n == 0 {
		for j := range dst {
			dst[j] = 1
		}
		return
	}
	_ = coords[n*dims-1]
	quads := n / 4
	if quads > 0 {
		if dims == 4 {
			prodAsmD4(&dst[0], &coords[0], &off[0], quads)
		} else {
			prodAsmAny(&dst[0], &coords[0], &off[0], quads, dims)
		}
	}
	for j := quads * 4; j < n; j++ {
		b := j * dims
		s := 1.0
		for i, oi := range off {
			s *= oi + coords[b+i]
		}
		dst[j] = s
	}
}

// hwDotMulti dispatches DotBlockMulti to the hardware leg. dims==4 runs
// the row-batched assembly (each point-group transpose shared by a tile
// of four query rows) plus scalar tails: trailing points for the batched
// rows, and whole leftover rows beyond the last row tile via the
// single-query hardware kernel, which is bit-identical by construction —
// as is the row loop for other dims.
//
//topk:acc 1
//topk:hot
func hwDotMulti(dst, coords, w []float64, dims int) {
	nq, n := multiShape(dst, coords, w, dims)
	if dims == 0 || n == 0 || nq == 0 {
		for j := range dst {
			dst[j] = 0
		}
		return
	}
	_ = coords[n*dims-1]
	if dims == 4 {
		pquads := n / 4
		qquads := nq / 4
		if pquads > 0 && qquads > 0 {
			dotMultiAsmD4(&dst[0], &coords[0], &w[0], pquads, n, qquads)
		}
		for q := 0; q < qquads*4; q++ {
			row := dst[q*n : (q+1)*n : (q+1)*n]
			wq := w[q*4 : q*4+4 : q*4+4]
			for j := pquads * 4; j < n; j++ {
				b := j * 4
				var s float64
				for i, wi := range wq {
					s += float64(wi * coords[b+i])
				}
				row[j] = s
			}
		}
		for q := qquads * 4; q < nq; q++ {
			hwDot(dst[q*n:(q+1)*n], coords, w[q*4:(q+1)*4])
		}
		return
	}
	for q := 0; q < nq; q++ {
		hwDot(dst[q*n:(q+1)*n], coords, w[q*dims:(q+1)*dims])
	}
}

// hwQuadMulti dispatches QuadBlockMulti to the hardware leg.
//
//topk:acc 1
//topk:hot
func hwQuadMulti(dst, coords, w []float64, dims int) {
	nq, n := multiShape(dst, coords, w, dims)
	if dims == 0 || n == 0 || nq == 0 {
		for j := range dst {
			dst[j] = 0
		}
		return
	}
	_ = coords[n*dims-1]
	if dims == 4 {
		pquads := n / 4
		qquads := nq / 4
		if pquads > 0 && qquads > 0 {
			quadMultiAsmD4(&dst[0], &coords[0], &w[0], pquads, n, qquads)
		}
		for q := 0; q < qquads*4; q++ {
			row := dst[q*n : (q+1)*n : (q+1)*n]
			wq := w[q*4 : q*4+4 : q*4+4]
			for j := pquads * 4; j < n; j++ {
				b := j * 4
				var s float64
				for i, wi := range wq {
					x := coords[b+i]
					s += float64(wi * x * x)
				}
				row[j] = s
			}
		}
		for q := qquads * 4; q < nq; q++ {
			hwQuad(dst[q*n:(q+1)*n], coords, w[q*4:(q+1)*4])
		}
		return
	}
	for q := 0; q < nq; q++ {
		hwQuad(dst[q*n:(q+1)*n], coords, w[q*dims:(q+1)*dims])
	}
}

// hwProductMulti dispatches ProductBlockMulti to the hardware leg.
//
//topk:acc 1
//topk:hot
func hwProductMulti(dst, coords, off []float64, dims int) {
	nq, n := multiShape(dst, coords, off, dims)
	if dims == 0 || n == 0 || nq == 0 {
		for j := range dst {
			dst[j] = 1
		}
		return
	}
	_ = coords[n*dims-1]
	if dims == 4 {
		pquads := n / 4
		qquads := nq / 4
		if pquads > 0 && qquads > 0 {
			prodMultiAsmD4(&dst[0], &coords[0], &off[0], pquads, n, qquads)
		}
		for q := 0; q < qquads*4; q++ {
			row := dst[q*n : (q+1)*n : (q+1)*n]
			oq := off[q*4 : q*4+4 : q*4+4]
			for j := pquads * 4; j < n; j++ {
				b := j * 4
				s := 1.0
				for i, oi := range oq {
					s *= oi + coords[b+i]
				}
				row[j] = s
			}
		}
		for q := qquads * 4; q < nq; q++ {
			hwProduct(dst[q*n:(q+1)*n], coords, off[q*4:(q+1)*4])
		}
		return
	}
	for q := 0; q < nq; q++ {
		hwProduct(dst[q*n:(q+1)*n], coords, off[q*dims:(q+1)*dims])
	}
}
