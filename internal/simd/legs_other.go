//go:build !amd64 && !arm64

package simd

// Architectures without an assembly leg run the scalar reference.

// archLegs lists this host's supported assembly legs: none.
func archLegs() []Leg { return nil }

// archKernels resolves an assembly leg to its kernel set: none exist.
func archKernels(Leg) (kernelSet, bool) { return kernelSet{}, false }
