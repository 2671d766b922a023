package simd

import (
	"fmt"
	"os"
)

// Leg identifies one implementation of the six block kernels. Both legs
// obey the package's bit-identity contract (identical per-score
// accumulation order); they differ only in how many scores they compute
// per instruction.
type Leg int

// Kernel legs. LegScalar exists everywhere; LegAVX2 only on amd64 hosts
// whose CPU and OS support AVX2; LegNEON only on arm64 (where it is
// architecturally guaranteed).
const (
	// LegScalar is the reference implementation: one point at a time,
	// pure Go, available everywhere.
	LegScalar Leg = iota
	// LegAVX2 is the amd64 assembly leg: 4×float64 ymm lanes, vertical
	// VMULPD/VADDPD across points.
	LegAVX2
	// LegNEON is the arm64 assembly leg: 2×float64 q-registers, two
	// chained accumulator pairs across points.
	LegNEON
)

// String implements fmt.Stringer with the names TOPK_SIMD accepts.
func (l Leg) String() string {
	switch l {
	case LegScalar:
		return "scalar"
	case LegAVX2:
		return "avx2"
	case LegNEON:
		return "neon"
	default:
		return fmt.Sprintf("Leg(%d)", int(l))
	}
}

// ParseLeg converts a TOPK_SIMD value to a Leg.
func ParseLeg(s string) (Leg, error) {
	switch s {
	case "scalar":
		return LegScalar, nil
	case "avx2":
		return LegAVX2, nil
	case "neon":
		return LegNEON, nil
	default:
		return 0, fmt.Errorf("simd: unknown kernel leg %q (want scalar, avx2, or neon)", s)
	}
}

// kernelSet bundles the six kernel entry points of one leg. The exported
// dispatch functions call through the active set; SetLeg swaps it.
type kernelSet struct {
	dot          func(dst, coords, w []float64)
	quad         func(dst, coords, w []float64)
	product      func(dst, coords, off []float64)
	dotMulti     func(dst, coords, w []float64, dims int)
	quadMulti    func(dst, coords, w []float64, dims int)
	productMulti func(dst, coords, off []float64, dims int)
}

// active is the dispatched kernel set. It is written by SetLeg and read
// on every kernel call without synchronization: leg selection is a
// process-wide startup/test concern, not something to flip while scoring
// goroutines are running.
var (
	active    kernelSet
	activeLeg Leg
	forcedLeg bool
)

func scalarKernels() kernelSet {
	return kernelSet{
		dot:          DotBlockScalar,
		quad:         QuadBlockScalar,
		product:      ProductBlockScalar,
		dotMulti:     DotBlockMultiScalar,
		quadMulti:    QuadBlockMultiScalar,
		productMulti: ProductBlockMultiScalar,
	}
}

// ActiveLeg returns the leg the dispatch currently routes to.
func ActiveLeg() Leg { return activeLeg }

// Forced reports whether the active leg was pinned by the TOPK_SIMD
// environment variable at process start. Test harnesses use it to assert
// that a forced leg really is the one under test rather than a fallback.
func Forced() bool { return forcedLeg }

// AvailableLegs lists every leg SetLeg would accept on this host, in
// selection-priority order (hardware leg first). The scalar leg is
// always present.
func AvailableLegs() []Leg {
	return append(archLegs(), LegScalar)
}

// HardwareLeg returns this host's assembly leg (LegAVX2 or LegNEON) and
// whether one is supported. Benchmarks use it to label and gate the
// per-leg series without hard-coding the architecture.
func HardwareLeg() (Leg, bool) {
	legs := archLegs()
	if len(legs) == 0 {
		return 0, false
	}
	return legs[0], true
}

// SetLeg routes the six dispatch kernels to the given leg. It fails —
// leaving the active leg unchanged — when the leg is not supported on
// this host (wrong architecture, or the CPU/OS lacks the ISA extension),
// so a caller forcing a leg can never silently fall back.
func SetLeg(l Leg) error {
	ks, ok := scalarKernels(), true
	if l != LegScalar {
		ks, ok = archKernels(l)
	}
	if !ok {
		return fmt.Errorf("simd: kernel leg %s is not supported on this host (supported: %v)", l, AvailableLegs())
	}
	active, activeLeg = ks, l
	return nil
}

// init selects the hardware leg when the host has one (scalar
// otherwise), then applies the TOPK_SIMD override. An unsupported or
// unknown override panics rather than falling back: a forced-leg test run
// must exercise the leg it names or fail.
func init() {
	if err := SetLeg(AvailableLegs()[0]); err != nil {
		panic("simd: default leg unavailable: " + err.Error())
	}
	if v := os.Getenv("TOPK_SIMD"); v != "" {
		l, err := ParseLeg(v)
		if err != nil {
			panic("simd: invalid TOPK_SIMD: " + err.Error())
		}
		if err := SetLeg(l); err != nil {
			panic("simd: TOPK_SIMD=" + v + ": " + err.Error())
		}
		forcedLeg = true
	}
}

func dotBlock(dst, coords, w []float64)     { active.dot(dst, coords, w) }
func quadBlock(dst, coords, w []float64)    { active.quad(dst, coords, w) }
func productBlock(dst, coords, o []float64) { active.product(dst, coords, o) }

func dotBlockMulti(dst, coords, w []float64, dims int)  { active.dotMulti(dst, coords, w, dims) }
func quadBlockMulti(dst, coords, w []float64, dims int) { active.quadMulti(dst, coords, w, dims) }
func productBlockMulti(dst, coords, o []float64, dims int) {
	active.productMulti(dst, coords, o, dims)
}
