// Package geom provides the geometric substrate of the top-k monitoring
// system: d-dimensional vectors in the unit workspace, axis-parallel
// rectangles, and monotone scoring (preference) functions together with the
// maxscore machinery of Section 3.1 of the paper.
//
// All algorithms in this repository (the top-k computation module, TMA, SMA
// and the TSL baseline) are parameterized by a ScoringFunction that is
// monotone — increasingly or decreasingly — on every attribute. The grid
// traversal only needs two geometric primitives, both provided here:
//
//   - BestCorner(f, r): the corner of rectangle r that maximizes f, which
//     exists and is a per-dimension extreme because f is monotone per axis;
//   - MaxScore(f, r) = f(BestCorner(f, r)): an upper bound for the score of
//     every point inside r ("maxscore" in the paper).
//
// Scores computed here feed total-order comparisons in the engine, so the
// package is under the topklint bitexact and determinism analyzers (see
// the package doc of internal/analysis): contractible multiply-add shapes
// in Score methods carry explicit float64() rounding conversions so arm64
// multiply-add contraction cannot make batch and pointwise scoring
// diverge.
//
//topk:bitexact
//topk:deterministic
package geom

import (
	"fmt"
	"math"
	"strings"
)

// Vector is a point in the d-dimensional workspace. Attribute values live in
// [0,1] for workload data, but the type itself imposes no range.
type Vector []float64

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Equal reports whether v and o have the same dimensionality and coordinates.
func (v Vector) Equal(o Vector) bool {
	if len(v) != len(o) {
		return false
	}
	for i := range v {
		if v[i] != o[i] {
			return false
		}
	}
	return true
}

// String renders the vector as "(x1, x2, ...)" with compact precision.
func (v Vector) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, x := range v {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%.4g", x)
	}
	b.WriteByte(')')
	return b.String()
}

// Rect is an axis-parallel (hyper-)rectangle [Lo, Hi], closed on both ends.
// It represents grid cells and the constraint regions of constrained top-k
// queries (Section 7).
type Rect struct {
	Lo, Hi Vector
}

// UnitRect returns the d-dimensional unit workspace [0,1]^d.
func UnitRect(d int) Rect {
	lo := make(Vector, d)
	hi := make(Vector, d)
	for i := range hi {
		hi[i] = 1
	}
	return Rect{Lo: lo, Hi: hi}
}

// NewRect builds a rectangle from corner slices, validating that the bounds
// are consistent.
func NewRect(lo, hi Vector) (Rect, error) {
	if len(lo) != len(hi) {
		return Rect{}, fmt.Errorf("geom: corner dimensionalities differ: %d vs %d", len(lo), len(hi))
	}
	for i := range lo {
		if lo[i] > hi[i] {
			return Rect{}, fmt.Errorf("geom: dimension %d has Lo %g > Hi %g", i, lo[i], hi[i])
		}
	}
	return Rect{Lo: lo.Clone(), Hi: hi.Clone()}, nil
}

// Dims returns the dimensionality of the rectangle.
func (r Rect) Dims() int { return len(r.Lo) }

// Contains reports whether v lies inside r (boundaries included).
func (r Rect) Contains(v Vector) bool {
	if len(v) != len(r.Lo) {
		return false
	}
	for i := range v {
		if v[i] < r.Lo[i] || v[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether r and o share at least one point.
func (r Rect) Intersects(o Rect) bool {
	if r.Dims() != o.Dims() {
		return false
	}
	for i := range r.Lo {
		if r.Lo[i] > o.Hi[i] || o.Lo[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// Intersect returns the common sub-rectangle of r and o. ok is false when
// the rectangles are disjoint (or of mismatched dimensionality), in which
// case the returned rectangle is meaningless.
func (r Rect) Intersect(o Rect) (out Rect, ok bool) {
	if !r.Intersects(o) {
		return Rect{}, false
	}
	lo := make(Vector, r.Dims())
	hi := make(Vector, r.Dims())
	for i := range lo {
		lo[i] = math.Max(r.Lo[i], o.Lo[i])
		hi[i] = math.Min(r.Hi[i], o.Hi[i])
	}
	return Rect{Lo: lo, Hi: hi}, true
}

// IntersectInto is an allocation-free Intersect: the clipped bounds are
// written into out, which must have the right dimensionality. It is used on
// the hot path of constrained top-k search.
func (r Rect) IntersectInto(o Rect, out *Rect) bool {
	if !r.Intersects(o) {
		return false
	}
	for i := range r.Lo {
		out.Lo[i] = math.Max(r.Lo[i], o.Lo[i])
		out.Hi[i] = math.Min(r.Hi[i], o.Hi[i])
	}
	return true
}

// Center returns the midpoint of the rectangle.
func (r Rect) Center() Vector {
	c := make(Vector, r.Dims())
	for i := range c {
		c[i] = (r.Lo[i] + r.Hi[i]) / 2
	}
	return c
}

// String renders the rectangle as "[lo, hi]".
func (r Rect) String() string {
	return fmt.Sprintf("[%s, %s]", r.Lo, r.Hi)
}
