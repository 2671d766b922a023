package simd

import (
	"math"
	"math/rand"
	"os"
	"testing"
)

// forEachLeg runs fn once per leg this host supports, with the dispatch
// routed to that leg, restoring the original leg afterwards.
// The equivalence and fuzz suites run under it so every assembly leg is
// held to the scalar reference on every host that can execute it — not
// just the leg the process happened to boot with.
func forEachLeg(t testing.TB, fn func(t testing.TB, leg Leg)) {
	origLeg := ActiveLeg()
	defer func() {
		if err := SetLeg(origLeg); err != nil {
			t.Fatalf("restoring leg %s: %v", origLeg, err)
		}
	}()
	for _, leg := range AvailableLegs() {
		if err := SetLeg(leg); err != nil {
			t.Fatalf("SetLeg(%s): %v", leg, err)
		}
		fn(t, leg)
	}
}

// runOnLeg names the subtest after the leg when fn runs under *testing.T;
// fuzz targets (testing.TB only) call fn directly.
func runOnLeg(t testing.TB, leg Leg, fn func(t testing.TB)) {
	if tt, ok := t.(*testing.T); ok {
		tt.Run("leg="+leg.String(), func(tt *testing.T) { fn(tt) })
		return
	}
	fn(t)
}

// TestEnvForcedLeg asserts that a TOPK_SIMD override really pinned the
// dispatch: the active leg matches the variable and Forced reports it.
// Without the variable the default must be the hardware leg when the
// host has one (scalar otherwise) and must not claim to be forced.
func TestEnvForcedLeg(t *testing.T) {
	v := os.Getenv("TOPK_SIMD")
	if v == "" {
		if Forced() {
			t.Fatal("Forced() = true without TOPK_SIMD")
		}
		if got, want := ActiveLeg(), AvailableLegs()[0]; got != want {
			t.Fatalf("default leg = %s, want %s", got, want)
		}
		return
	}
	want, err := ParseLeg(v)
	if err != nil {
		t.Fatalf("TOPK_SIMD=%q did not parse, yet the process booted: %v", v, err)
	}
	if !Forced() {
		t.Fatalf("TOPK_SIMD=%q set but Forced() = false", v)
	}
	if got := ActiveLeg(); got != want {
		t.Fatalf("TOPK_SIMD=%q but ActiveLeg() = %s: silent fallback", v, got)
	}
}

// TestParseLegRoundTrip pins the TOPK_SIMD vocabulary: the two legs'
// names parse, and retired or unknown names are rejected.
func TestParseLegRoundTrip(t *testing.T) {
	for _, leg := range []Leg{LegScalar, LegAVX2, LegNEON} {
		got, err := ParseLeg(leg.String())
		if err != nil || got != leg {
			t.Fatalf("ParseLeg(%q) = %v, %v; want %v", leg.String(), got, err, leg)
		}
	}
	for _, name := range []string{"avx512", "unrolled", "avx2+fma"} {
		if _, err := ParseLeg(name); err == nil {
			t.Fatalf("ParseLeg(%s) succeeded; want error", name)
		}
	}
}

// TestSetLegUnsupported asserts that forcing an unsupported leg errors
// and leaves the active leg untouched — the fail-loud half of the
// forced-leg contract.
func TestSetLegUnsupported(t *testing.T) {
	avail := map[Leg]bool{}
	for _, l := range AvailableLegs() {
		avail[l] = true
	}
	before := ActiveLeg()
	for _, l := range []Leg{LegAVX2, LegNEON, Leg(99)} {
		if avail[l] {
			continue
		}
		if err := SetLeg(l); err == nil {
			t.Fatalf("SetLeg(%s) succeeded on a host that does not support it", l)
		}
		if got := ActiveLeg(); got != before {
			t.Fatalf("failed SetLeg(%s) changed active leg to %s", l, got)
		}
	}
}

// TestAvailableLegsAlwaysRunnable asserts every advertised leg can
// actually be selected, and that the scalar leg is always advertised.
func TestAvailableLegsAlwaysRunnable(t *testing.T) {
	legs := AvailableLegs()
	seen := map[Leg]bool{}
	for _, l := range legs {
		seen[l] = true
	}
	if !seen[LegScalar] {
		t.Fatalf("AvailableLegs() = %v missing the scalar leg", legs)
	}
	forEachLeg(t, func(t testing.TB, leg Leg) {
		if ActiveLeg() != leg {
			t.Fatalf("after SetLeg(%s), ActiveLeg() = %s", leg, ActiveLeg())
		}
	})
}

// checkPointwiseBlock asserts the within-run consistency contract under
// whatever leg is currently dispatched: scoring a point
// alone (Dot/Quad/Product) and scoring it inside a block — single- and
// multi-query — must produce identical bits, tails and leftover rows
// included. The engine compares scores computed on both paths (block
// cell scoring vs pointwise influence/expiry checks); a single mismatched
// bit flips those total-order comparisons and corrupts results.
func checkPointwiseBlock(t testing.TB, rng *rand.Rand) {
	t.Helper()
	state := ActiveLeg().String()
	points := []struct {
		name  string
		point func(params, x []float64) float64
		block func(dst, coords, params []float64)
		multi func(dst, coords, params []float64, dims int)
	}{
		{"dot", Dot, DotBlockInto, DotBlockMulti},
		{"quad", Quad, QuadBlockInto, QuadBlockMulti},
		{"product", Product, ProductBlockInto, ProductBlockMulti},
	}
	const nq = 6
	for dims := 1; dims <= 9; dims++ {
		for n := 1; n <= 21; n++ {
			coords := make([]float64, n*dims)
			for i := range coords {
				coords[i] = rng.Float64()*2 - 1
			}
			mparams := make([]float64, nq*dims)
			for i := range mparams {
				mparams[i] = rng.Float64()*2 - 1
			}
			for _, pc := range points {
				params := mparams[:dims]
				blk := make([]float64, n)
				pc.block(blk, coords, params)
				for j := 0; j < n; j++ {
					pw := pc.point(params, coords[j*dims:(j+1)*dims])
					if !bitsEqual(blk[j], pw) {
						t.Fatalf("%s %s dims=%d n=%d point %d: block %x != pointwise %x",
							state, pc.name, dims, n, j,
							math.Float64bits(blk[j]), math.Float64bits(pw))
					}
				}
				mblk := make([]float64, nq*n)
				pc.multi(mblk, coords, mparams, dims)
				for q := 0; q < nq; q++ {
					wq := mparams[q*dims : (q+1)*dims]
					for j := 0; j < n; j++ {
						pw := pc.point(wq, coords[j*dims:(j+1)*dims])
						if !bitsEqual(mblk[q*n+j], pw) {
							t.Fatalf("%s %s multi dims=%d n=%d q=%d point %d: block %x != pointwise %x",
								state, pc.name, dims, n, q, j,
								math.Float64bits(mblk[q*n+j]), math.Float64bits(pw))
						}
					}
				}
			}
		}
	}
}

// TestPointwiseBlockConsistency holds every leg this host supports to
// the pointwise/block consistency contract.
func TestPointwiseBlockConsistency(t *testing.T) {
	forEachLeg(t, func(t testing.TB, leg Leg) {
		runOnLeg(t, leg, func(t testing.TB) {
			checkPointwiseBlock(t, rand.New(rand.NewSource(13)))
		})
	})
}

// TestDefaultLegByteIdentical pins that the leg the process booted with
// (the hardware leg where one exists) is byte-identical to scalar — the
// property that keeps checkpoint/difftest lineages stable across hosts.
func TestDefaultLegByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n, dims := 37, 4
	coords := make([]float64, n*dims)
	for i := range coords {
		coords[i] = rng.Float64()*2 - 1
	}
	params := make([]float64, dims)
	for i := range params {
		params[i] = rng.Float64()*2 - 1
	}
	for _, kc := range kernelCases() {
		want := make([]float64, n)
		got := make([]float64, n)
		kc.scalar(want, coords, params)
		kc.kernel(got, coords, params)
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("%s point %d: default dispatch %x != scalar %x",
					kc.name, j, math.Float64bits(got[j]), math.Float64bits(want[j]))
			}
		}
	}
}
