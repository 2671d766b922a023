//go:build amd64

package bitexasm

// dotAsm pairs with TEXT ·dotAsm in kernels_amd64.s: no parity finding
// (the fused mnemonic inside its body is flagged separately).
//
//go:noescape
func dotAsm(dst *float64, n int)

// dotFma pairs with TEXT ·dotFma in kernels_fma_amd64.s: no parity
// finding (its fused mnemonic is flagged separately).
//
//go:noescape
func dotFma(dst *float64, n int)

// ghostAsm is dispatched but has no TEXT definition anywhere.
//
//go:noescape
func ghostAsm(dst *float64, n int) // want `assembly stub ghostAsm \(stubs_amd64\.go\) has no TEXT ·ghostAsm definition on GOARCH amd64`

// deadAsm has a TEXT definition but no caller in package Go code.
//
//go:noescape
func deadAsm(dst *float64, n int) // want `assembly stub deadAsm is never called from package Go code`
