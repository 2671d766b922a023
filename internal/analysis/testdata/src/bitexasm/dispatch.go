// Package bitexasm exercises the bitexact "asm" rules: TEXT/stub
// parity per GOARCH, stub reachability, fused mnemonics banned in every
// .s file (an fma-named one included), and the exhaustive-suite
// requirement. The dispatch file is arch-constrained like the real
// hardware-leg wrappers, so the build-leg parity rule stays out of the
// picture.
//
//go:build amd64

//topk:bitexact
package bitexasm // want `kernels_amd64\.s:5: fused multiply-add VFMADD231PD` `kernels_fma_amd64\.s:6: fused multiply-add VFMADD231PD` `kernels_amd64\.s:11: TEXT ·orphanAsm has no Go stub declaration on GOARCH amd64` `package defines assembly kernels but no Test\*Exhaustive equivalence suite`

func dispatch(dst *float64, n int) {
	dotAsm(dst, n)
	dotFma(dst, n)
	ghostAsm(dst, n)
}
