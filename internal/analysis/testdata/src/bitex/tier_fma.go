// A *fma*-named file exempts nothing: math.FMA is banned here exactly as
// everywhere else in a bitexact package, and so is compiler-dependent
// contraction.
package bitex

import "math"

func fusedReference(w, x []float64) float64 {
	var s float64
	for i := range w {
		s = math.FMA(w[i], x[i], s) // want `math\.FMA rounds once`
	}
	return s
}

func stillNoContraction(a, b, c float64) float64 {
	return a*b + c // want `float multiply feeding \+ may be contracted`
}
