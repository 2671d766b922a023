package simd

// NEON (AdvSIMD) with double-precision vector arithmetic is part of the
// AArch64 baseline — every arm64 host has it, so no HWCAP probe is
// needed.

// archLegs lists this host's supported assembly legs.
func archLegs() []Leg { return []Leg{LegNEON} }

// archKernels resolves an assembly leg to its kernel set.
func archKernels(l Leg) (kernelSet, bool) {
	if l != LegNEON {
		return kernelSet{}, false
	}
	return hwKernels(), true
}
