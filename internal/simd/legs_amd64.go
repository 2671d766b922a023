package simd

// haveAVX2 is resolved by CPUID before any init runs (package variable
// initialization precedes init functions, and leg selection depends on
// it). AVX2 additionally requires the OS to have enabled saving the ymm
// state (OSXSAVE + XCR0 bits 1-2).
var haveAVX2 = detectAVX2()

func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsaveBit = 1 << 27
	const avxBit = 1 << 28
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false
	}
	// XCR0 bits 1 (SSE) and 2 (AVX) must both be set: the OS context-
	// switches the full ymm state.
	xcr0, _ := xgetbv0()
	if xcr0&0x6 != 0x6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2Bit = 1 << 5
	return ebx7&avx2Bit != 0
}

// cpuid executes the CPUID instruction with the given leaf/subleaf.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register 0 (XCR0). Only valid when
// CPUID.1:ECX.OSXSAVE is set.
func xgetbv0() (eax, edx uint32)

// archLegs lists this host's supported assembly legs.
func archLegs() []Leg {
	if haveAVX2 {
		return []Leg{LegAVX2}
	}
	return nil
}

// archKernels resolves an assembly leg to its kernel set.
func archKernels(l Leg) (kernelSet, bool) {
	if l != LegAVX2 || !haveAVX2 {
		return kernelSet{}, false
	}
	return hwKernels(), true
}
