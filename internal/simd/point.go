package simd

// Pointwise scoring entry points. The geom scoring functions route their
// Score methods here so that pointwise and block scores come from the
// same arithmetic: both compute the twice-rounded reference expression,
// so a tuple's score never depends on whether it was scored alone or as
// part of a block, which the engine's total-order comparisons require.

// Dot returns the dot product of w and x. It is the pointwise
// counterpart of DotBlockInto and mirrors geom.Linear.Score. The float64
// conversion forces the product to round before the add: it blocks
// multiply-add contraction on arm64 so scores stay bit-identical across
// architectures (a free no-op on amd64, where gc never fuses).
//
//topk:acc 1
//topk:hot
func Dot(w, x []float64) float64 {
	var s float64
	for i, wi := range w {
		s += float64(wi * x[i])
	}
	return s
}

// Quad returns sum_i w[i]*x_i*x_i, each term rounded as (w*x)*x. It is
// the pointwise counterpart of QuadBlockInto and mirrors
// geom.Quadratic.Score.
//
//topk:acc 1
//topk:hot
func Quad(w, x []float64) float64 {
	var s float64
	for i, wi := range w {
		xi := x[i]
		s += float64(wi * xi * xi)
	}
	return s
}

// Product returns prod_i (off[i]+x_i) accumulated from 1.0, the
// pointwise counterpart of ProductBlockInto (geom.Product.Score).
//
//topk:acc 1
//topk:hot
func Product(off, x []float64) float64 {
	s := 1.0
	for i, oi := range off {
		s *= oi + x[i]
	}
	return s
}
