//go:build !amd64 && !arm64

package bitexparity

func kern(dst []float64) {
	for i := range dst {
		dst[i] = 0
	}
}

// kern2's signature drifted from the other leg: flagged (anchored at
// the active leg's declaration).
func kern2(dst []float64) {
	for i := range dst {
		dst[i] = 0
	}
}
