package geom

import (
	"fmt"
	"strings"

	"topkmon/internal/simd"
)

// Direction describes the monotonicity of a scoring function along one
// dimension: Increasing means larger attribute values yield larger (or
// equal) scores, Decreasing the opposite.
type Direction int8

// Monotonicity directions.
const (
	Increasing Direction = +1
	Decreasing Direction = -1
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case Increasing:
		return "increasing"
	case Decreasing:
		return "decreasing"
	default:
		return fmt.Sprintf("Direction(%d)", int8(d))
	}
}

// ScoringFunction is a preference function that is monotone on every
// dimension, the only requirement the paper's framework places on queries.
// Implementations must be safe for concurrent Score calls (they are
// read-only after construction).
type ScoringFunction interface {
	// Dims returns the dimensionality of the inputs the function accepts.
	Dims() int
	// Score maps a point to its preference score. Implementations may
	// assume len(v) == Dims().
	Score(v Vector) float64
	// Direction reports the monotonicity of the function along dim.
	Direction(dim int) Direction
	// String renders the function for logs and experiment reports.
	String() string
}

// BlockScorer is the optional batch extension of ScoringFunction: scoring
// functions that can fill out[j] with the score of point j of a
// dims-strided coordinate block implement it to opt into the vectorized
// cell-scoring path. Implementations must produce bit-identical results to
// calling Score point by point — scores feed total-order comparisons, so a
// reassociated batch sum would change query results.
type BlockScorer interface {
	ScoreBlock(coords []float64, dims int, out []float64)
}

// ScoreBlockInto fills out[j] with f's score of point j of the
// dims-strided block coords (len(out) points). The built-in function
// families dispatch to the internal/simd kernels; other functions use
// their BlockScorer implementation when present and fall back to pointwise
// Score calls otherwise. Results are bit-identical to pointwise scoring in
// every case.
func ScoreBlockInto(f ScoringFunction, coords []float64, dims int, out []float64) {
	switch fn := f.(type) {
	case *Linear:
		simd.DotBlockInto(out, coords, fn.weights)
	case *Quadratic:
		simd.QuadBlockInto(out, coords, fn.weights)
	case *Product:
		simd.ProductBlockInto(out, coords, fn.offsets)
	default:
		if bs, ok := f.(BlockScorer); ok {
			bs.ScoreBlock(coords, dims, out)
			return
		}
		for j := range out {
			out[j] = f.Score(Vector(coords[j*dims : (j+1)*dims]))
		}
	}
}

// BestCornerInto writes into out the corner of r that maximizes f: per
// dimension, the upper bound if f is increasing there and the lower bound
// otherwise. out must have length r.Dims().
func BestCornerInto(f ScoringFunction, r Rect, out Vector) {
	for i := range out {
		if f.Direction(i) == Increasing {
			out[i] = r.Hi[i]
		} else {
			out[i] = r.Lo[i]
		}
	}
}

// BestCorner returns the corner of r that maximizes f.
func BestCorner(f ScoringFunction, r Rect) Vector {
	out := make(Vector, r.Dims())
	BestCornerInto(f, r, out)
	return out
}

// MaxScore returns the paper's maxscore(r): an upper bound for the score of
// every point inside r, attained at the best corner. For monotone f the
// bound is tight.
func MaxScore(f ScoringFunction, r Rect) float64 {
	return f.Score(BestCorner(f, r))
}

// MinScore returns the symmetric lower bound, attained at the worst corner.
func MinScore(f ScoringFunction, r Rect) float64 {
	out := make(Vector, r.Dims())
	for i := range out {
		if f.Direction(i) == Increasing {
			out[i] = r.Lo[i]
		} else {
			out[i] = r.Hi[i]
		}
	}
	return f.Score(out)
}

// Linear is the workhorse preference function of the paper's evaluation:
// f(p) = sum_i w_i * p.x_i. A negative weight makes the function
// decreasingly monotone on that dimension (Figure 7a); a zero weight is
// treated as increasing (the function is constant there, so either direction
// is valid).
type Linear struct {
	weights []float64
}

// NewLinear builds a linear scoring function from the given weights.
func NewLinear(weights ...float64) *Linear {
	if len(weights) == 0 {
		panic("geom: NewLinear requires at least one weight")
	}
	w := make([]float64, len(weights))
	copy(w, weights)
	return &Linear{weights: w}
}

// Weights returns a copy of the coefficient vector.
func (l *Linear) Weights() []float64 {
	out := make([]float64, len(l.weights))
	copy(out, l.weights)
	return out
}

// Dims implements ScoringFunction.
func (l *Linear) Dims() int { return len(l.weights) }

// Score implements ScoringFunction. It delegates to simd.Dot so pointwise
// and block scores always come from the same twice-rounded reference
// expression. Scoring the same tuple two different ways within one run
// would flip the engine's total-order comparisons.
func (l *Linear) Score(v Vector) float64 {
	return simd.Dot(l.weights, v)
}

// Direction implements ScoringFunction.
func (l *Linear) Direction(dim int) Direction {
	if l.weights[dim] < 0 {
		return Decreasing
	}
	return Increasing
}

// String implements ScoringFunction.
func (l *Linear) String() string { return formulaString("%.3g*x%d", l.weights, " + ") }

// Product is the non-linear function of Figure 21(a,b):
// f(p) = prod_i (a_i + p.x_i) with a_i >= 0, increasingly monotone on every
// dimension (for points in the unit workspace).
type Product struct {
	offsets []float64
}

// NewProduct builds a product scoring function from the given offsets, all
// of which must be non-negative to keep the function monotone on [0,1]^d.
func NewProduct(offsets ...float64) *Product {
	if len(offsets) == 0 {
		panic("geom: NewProduct requires at least one offset")
	}
	for i, a := range offsets {
		if a < 0 {
			panic(fmt.Sprintf("geom: NewProduct offset %d is negative (%g)", i, a))
		}
	}
	a := make([]float64, len(offsets))
	copy(a, offsets)
	return &Product{offsets: a}
}

// Offsets returns a copy of the offset vector.
func (p *Product) Offsets() []float64 {
	out := make([]float64, len(p.offsets))
	copy(out, p.offsets)
	return out
}

// Dims implements ScoringFunction.
func (p *Product) Dims() int { return len(p.offsets) }

// Score implements ScoringFunction; see (*Linear).Score for why it
// routes through simd.
func (p *Product) Score(v Vector) float64 {
	return simd.Product(p.offsets, v)
}

// Direction implements ScoringFunction.
func (p *Product) Direction(int) Direction { return Increasing }

// String implements ScoringFunction.
func (p *Product) String() string {
	var b strings.Builder
	for i, a := range p.offsets {
		if i > 0 {
			b.WriteString(" * ")
		}
		fmt.Fprintf(&b, "(%.3g + x%d)", a, i+1)
	}
	return b.String()
}

// Quadratic is the non-linear function of Figure 21(c,d):
// f(p) = sum_i w_i * p.x_i^2. On the unit workspace x^2 is increasing, so
// the sign of each weight determines the monotonicity direction exactly as
// for Linear.
type Quadratic struct {
	weights []float64
}

// NewQuadratic builds a quadratic scoring function from the given weights.
func NewQuadratic(weights ...float64) *Quadratic {
	if len(weights) == 0 {
		panic("geom: NewQuadratic requires at least one weight")
	}
	w := make([]float64, len(weights))
	copy(w, weights)
	return &Quadratic{weights: w}
}

// Weights returns a copy of the coefficient vector.
func (q *Quadratic) Weights() []float64 {
	out := make([]float64, len(q.weights))
	copy(out, q.weights)
	return out
}

// Dims implements ScoringFunction.
func (q *Quadratic) Dims() int { return len(q.weights) }

// Score implements ScoringFunction; see (*Linear).Score for why it
// routes through simd.
func (q *Quadratic) Score(v Vector) float64 {
	return simd.Quad(q.weights, v)
}

// Direction implements ScoringFunction.
func (q *Quadratic) Direction(dim int) Direction {
	if q.weights[dim] < 0 {
		return Decreasing
	}
	return Increasing
}

// String implements ScoringFunction.
func (q *Quadratic) String() string { return formulaString("%.3g*x%d^2", q.weights, " + ") }

func formulaString(term string, weights []float64, sep string) string {
	var b strings.Builder
	for i, w := range weights {
		if i > 0 {
			b.WriteString(sep)
		}
		fmt.Fprintf(&b, term, w, i+1)
	}
	return b.String()
}
