package simd

import (
	"math"
	"math/rand"
	"testing"
)

// bitsEqual is the bit-identity check modulo NaN payloads: any NaN
// compares equal to any NaN. Which payload a NaN-producing chain ends up
// with (a propagated input NaN vs the hardware's generated "indefinite"
// NaN from 0*Inf or Inf-Inf) depends on operand order in the emitted
// instructions, which Go does not define even between two pure-Go
// builds of the same expression — so NaN-ness must agree exactly, the
// payload is free. Scores that are NaN are outside the total-order
// comparison contract anyway.
func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// kernelCase names one (dispatch, scalar) pair under test.
type kernelCase struct {
	name    string
	kernel  func(dst, coords, params []float64)
	scalar  func(dst, coords, params []float64)
	initial float64 // value the kernel must write for dims == 0
}

func kernelCases() []kernelCase {
	return []kernelCase{
		{"dot", DotBlockInto, DotBlockScalar, 0},
		{"quad", QuadBlockInto, QuadBlockScalar, 0},
		{"product", ProductBlockInto, ProductBlockScalar, 1},
	}
}

// TestKernelEquivalenceExhaustive sweeps every (dims, n) pair in a dense
// range — covering all unroll remainders and the dims==4 specialization —
// on every leg this host supports, and requires bit-identical output
// between the dispatched kernel and the scalar reference.
func TestKernelEquivalenceExhaustive(t *testing.T) {
	forEachLeg(t, func(tb testing.TB, leg Leg) {
		runOnLeg(tb, leg, func(t testing.TB) {
			rng := rand.New(rand.NewSource(42))
			for _, kc := range kernelCases() {
				for dims := 1; dims <= 9; dims++ {
					for n := 0; n <= 21; n++ {
						coords := make([]float64, n*dims)
						for i := range coords {
							coords[i] = rng.Float64()
						}
						params := make([]float64, dims)
						for i := range params {
							params[i] = rng.Float64()*2 - 1
						}
						want := make([]float64, n)
						got := make([]float64, n)
						kc.scalar(want, coords, params)
						kc.kernel(got, coords, params)
						for j := range want {
							if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
								t.Fatalf("%s %s dims=%d n=%d point %d: kernel %v != scalar %v",
									leg, kc.name, dims, n, j, got[j], want[j])
							}
						}
					}
				}
			}
		})
	})
}

// TestKernelZeroDims pins the degenerate dims==0 behavior: the empty
// accumulation for every dst slot.
func TestKernelZeroDims(t *testing.T) {
	for _, kc := range kernelCases() {
		dst := []float64{3, 7}
		kc.kernel(dst, nil, nil)
		for j, v := range dst {
			if v != kc.initial {
				t.Fatalf("%s: dims=0 wrote dst[%d]=%v, want %v", kc.name, j, v, kc.initial)
			}
		}
	}
}

// TestDoubledWeightsDoubleScores is a metamorphic check whose oracle
// shares no code with the kernels: multiplying a weight by 2 is exact in
// floating point, and so is every rounding step downstream of it (each
// product and partial sum is exactly doubled, barring overflow and
// subnormals, which these inputs avoid). So on every leg the linear and
// quadratic kernels, single- and multi-query, must return exactly twice
// the scores for w when given 2·w, bit for bit.
func TestDoubledWeightsDoubleScores(t *testing.T) {
	type pair struct {
		name   string
		single func(dst, coords, w []float64)
		multi  func(dst, coords, w []float64, dims int)
	}
	forms := []pair{{"dot", DotBlockInto, DotBlockMulti}, {"quad", QuadBlockInto, QuadBlockMulti}}
	forEachLeg(t, func(tb testing.TB, leg Leg) {
		runOnLeg(tb, leg, func(t testing.TB) {
			rng := rand.New(rand.NewSource(17))
			check := func(name string, dims, n int, got, base []float64) {
				for j := range base {
					if math.Float64bits(got[j]) != math.Float64bits(2*base[j]) {
						t.Fatalf("%s %s dims=%d n=%d slot %d: scores for 2w %v != 2 × %v",
							leg, name, dims, n, j, got[j], base[j])
					}
				}
			}
			for dims := 1; dims <= 9; dims++ {
				for n := 0; n <= 21; n++ {
					const nq = 6
					coords := make([]float64, n*dims)
					for i := range coords {
						coords[i] = rng.Float64()*2 - 1
					}
					w := make([]float64, nq*dims)
					w2 := make([]float64, nq*dims)
					for i := range w {
						w[i] = rng.Float64()*2 - 1
						w2[i] = 2 * w[i]
					}
					for _, f := range forms {
						base, got := make([]float64, n), make([]float64, n)
						f.single(base, coords, w[:dims])
						f.single(got, coords, w2[:dims])
						check(f.name, dims, n, got, base)
						mbase, mgot := make([]float64, nq*n), make([]float64, nq*n)
						f.multi(mbase, coords, w, dims)
						f.multi(mgot, coords, w2, dims)
						check(f.name+" multi", dims, n, mgot, mbase)
					}
				}
			}
		})
	})
}

// specialValues are the IEEE edge cases every leg must reproduce
// bit-for-bit: denormals, extreme magnitudes, both zero signs, infinities
// and (canonical) NaN — regions where a reassociated kernel, a fused
// multiply-add, or an accumulator seeded with the first product instead
// of +0 would diverge.
func specialValues() []float64 {
	return []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, -0.5,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		1e-300, -1e-300, 1e300, -1e300,
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.Nextafter(1, 2), math.Nextafter(1, 0),
	}
}

// TestKernelSpecialValues exercises the specialValues lattice on every
// leg this host supports.
func TestKernelSpecialValues(t *testing.T) {
	values := specialValues()
	forEachLeg(t, func(tb testing.TB, leg Leg) {
		runOnLeg(tb, leg, func(t testing.TB) {
			for _, kc := range kernelCases() {
				for dims := 1; dims <= 5; dims++ {
					n := 13 // one full unroll group plus remainder
					coords := make([]float64, n*dims)
					params := make([]float64, dims)
					for i := range coords {
						coords[i] = values[i%len(values)]
					}
					for i := range params {
						params[i] = values[(i*3+1)%len(values)]
					}
					want := make([]float64, n)
					got := make([]float64, n)
					kc.scalar(want, coords, params)
					kc.kernel(got, coords, params)
					for j := range want {
						if !bitsEqual(got[j], want[j]) {
							t.Fatalf("%s %s dims=%d point %d: kernel %x != scalar %x",
								leg, kc.name, dims, j, math.Float64bits(got[j]), math.Float64bits(want[j]))
						}
					}
				}
			}
		})
	})
}

// FuzzKernels drives the (dispatch, scalar) equivalence from fuzzed bytes:
// the corpus chooses dims, the point count follows from the data length,
// and every float64 lane is material. NaN payloads are canonicalized to a
// fixed quiet NaN so the bit comparison stays meaningful (NaN != NaN but
// the bit patterns must still agree).
func FuzzKernels(f *testing.F) {
	f.Add(uint8(4), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(1), make([]byte, 8*17))
	f.Add(uint8(6), make([]byte, 8*6*9))
	f.Fuzz(func(t *testing.T, dimsRaw uint8, data []byte) {
		dims := int(dimsRaw%8) + 1
		floats := bytesToFloats(data)
		if len(floats) < dims {
			return
		}
		params := floats[:dims]
		rest := floats[dims:]
		n := len(rest) / dims
		if n > 256 {
			n = 256
		}
		coords := rest[:n*dims]
		forEachLeg(t, func(tb testing.TB, leg Leg) {
			for _, kc := range kernelCases() {
				want := make([]float64, n)
				got := make([]float64, n)
				kc.scalar(want, coords, params)
				kc.kernel(got, coords, params)
				for j := range want {
					if !bitsEqual(got[j], want[j]) {
						tb.Fatalf("%s %s dims=%d n=%d point %d: kernel %x != scalar %x",
							leg, kc.name, dims, n, j,
							math.Float64bits(got[j]), math.Float64bits(want[j]))
					}
				}
			}
		})
	})
}

// bytesToFloats reinterprets fuzz bytes as float64 lanes, canonicalizing
// NaNs (arithmetic on differently-payloaded NaNs is not required to
// preserve payloads, so distinct payloads would fail the bit comparison
// for reasons unrelated to evaluation order).
func bytesToFloats(data []byte) []float64 {
	out := make([]float64, 0, len(data)/8)
	for len(data) >= 8 {
		bits := uint64(data[0]) | uint64(data[1])<<8 | uint64(data[2])<<16 | uint64(data[3])<<24 |
			uint64(data[4])<<32 | uint64(data[5])<<40 | uint64(data[6])<<48 | uint64(data[7])<<56
		v := math.Float64frombits(bits)
		if math.IsNaN(v) {
			v = math.NaN()
		}
		out = append(out, v)
		data = data[8:]
	}
	return out
}
