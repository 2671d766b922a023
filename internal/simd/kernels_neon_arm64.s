// NEON leg of the simd kernels (arm64 baseline — advanced SIMD with
// 2x float64 lanes is mandatory on AArch64, so there is no feature
// probe). Bit-identity contract: identical to the AVX2 leg, each score
// accumulates from +0 (VEOR) over dimensions in index order with one
// rounding per multiply and per add — vertical SIMD across points, four
// points per group split over a lo/hi q-register pair. The Go wrappers
// in kernels_hw.go own all remainders; these kernels only ever see whole
// groups of four points (and, for the multi kernels, whole tiles of four
// query rows).
//
// The Go assembler has no mnemonics for the vector FMUL/FADD .2D forms,
// so those two instructions are emitted as WORD constants (macro args in
// ARM operand order FMUL Vd.2D, Vn.2D, Vm.2D = Vd <- Vn*Vm elementwise).
// The topklint bitexact analyzer bans fused mnemonics (FMLA and
// friends), which is what keeps this leg provably two-rounding and
// bit-exact.
//
// Register conventions: R18 (platform), R27 (asm temp), R28 (g) are
// never touched. V0-V7 hold loaded point groups and are reused as
// scratch after the VZIP transpose moves the four coordinate columns
// into V8-V11 (lanes for points 0,1) and V12-V15 (lanes for points
// 2,3); V16/V17 are the score accumulator pair; V20-V23 hold
// pre-broadcast weights where they survive the whole loop.

#include "textflag.h"

#define FMUL2D(d, n, m) WORD $(0x6E60DC00 | ((m) << 16) | ((n) << 5) | (d))
#define FADD2D(d, n, m) WORD $(0x4E60D400 | ((m) << 16) | ((n) << 5) | (d))

// func dotAsmD4(dst, coords, w *float64, quads int)
TEXT ·dotAsmD4(SB), NOSPLIT, $0-32
	MOVD dst+0(FP), R0
	MOVD coords+8(FP), R1
	MOVD w+16(FP), R2
	MOVD quads+24(FP), R3
	VLD1R.P 8(R2), [V20.D2]
	VLD1R.P 8(R2), [V21.D2]
	VLD1R.P 8(R2), [V22.D2]
	VLD1R.P 8(R2), [V23.D2]

dot_loop:
	VLD1.P 64(R1), [V0.D2, V1.D2, V2.D2, V3.D2]
	VLD1.P 64(R1), [V4.D2, V5.D2, V6.D2, V7.D2]
	VZIP1 V2.D2, V0.D2, V8.D2  // col0 lo = [p0d0, p1d0]
	VZIP2 V2.D2, V0.D2, V9.D2  // col1 lo
	VZIP1 V3.D2, V1.D2, V10.D2 // col2 lo
	VZIP2 V3.D2, V1.D2, V11.D2 // col3 lo
	VZIP1 V6.D2, V4.D2, V12.D2 // col0 hi = [p2d0, p3d0]
	VZIP2 V6.D2, V4.D2, V13.D2
	VZIP1 V7.D2, V5.D2, V14.D2
	VZIP2 V7.D2, V5.D2, V15.D2
	VEOR V16.B16, V16.B16, V16.B16
	VEOR V17.B16, V17.B16, V17.B16
	FMUL2D(0, 20, 8)           // t = w0*x0 (lo pair)
	FADD2D(16, 16, 0)          // acc += t
	FMUL2D(1, 20, 12)          // t = w0*x0 (hi pair)
	FADD2D(17, 17, 1)
	FMUL2D(0, 21, 9)
	FADD2D(16, 16, 0)
	FMUL2D(1, 21, 13)
	FADD2D(17, 17, 1)
	FMUL2D(0, 22, 10)
	FADD2D(16, 16, 0)
	FMUL2D(1, 22, 14)
	FADD2D(17, 17, 1)
	FMUL2D(0, 23, 11)
	FADD2D(16, 16, 0)
	FMUL2D(1, 23, 15)
	FADD2D(17, 17, 1)
	VST1.P [V16.D2, V17.D2], 32(R0)
	SUB $1, R3, R3
	CBNZ R3, dot_loop
	RET

// func dotAsmAny(dst, coords, w *float64, quads, dims int)
TEXT ·dotAsmAny(SB), NOSPLIT, $0-40
	MOVD dst+0(FP), R0
	MOVD coords+8(FP), R1
	MOVD w+16(FP), R2
	MOVD quads+24(FP), R3
	MOVD dims+32(FP), R4
	LSL $3, R4, R5             // dims*8 point stride

dotany_pgroup:
	MOVD R1, R10               // four point cursors
	ADD R5, R10, R11
	ADD R5, R11, R12
	ADD R5, R12, R13
	MOVD R2, R6                // weight cursor
	MOVD R4, R7                // dim counter
	VEOR V16.B16, V16.B16, V16.B16
	VEOR V17.B16, V17.B16, V17.B16

dotany_dim:
	VLD1.P 8(R10), V0.D[0]     // column i: lo pair [p0, p1]
	VLD1.P 8(R11), V0.D[1]
	VLD1.P 8(R12), V1.D[0]     // hi pair [p2, p3]
	VLD1.P 8(R13), V1.D[1]
	VLD1R.P 8(R6), [V2.D2]     // broadcast w_i
	FMUL2D(3, 2, 0)            // t = w_i*x_i (lo)
	FADD2D(16, 16, 3)
	FMUL2D(3, 2, 1)            // (hi)
	FADD2D(17, 17, 3)
	SUB $1, R7, R7
	CBNZ R7, dotany_dim
	VST1.P [V16.D2, V17.D2], 32(R0)
	MOVD R13, R1               // p3 cursor ended at next group base
	SUB $1, R3, R3
	CBNZ R3, dotany_pgroup
	RET

// func quadAsmD4(dst, coords, w *float64, quads int)
TEXT ·quadAsmD4(SB), NOSPLIT, $0-32
	MOVD dst+0(FP), R0
	MOVD coords+8(FP), R1
	MOVD w+16(FP), R2
	MOVD quads+24(FP), R3
	VLD1R.P 8(R2), [V20.D2]
	VLD1R.P 8(R2), [V21.D2]
	VLD1R.P 8(R2), [V22.D2]
	VLD1R.P 8(R2), [V23.D2]

quad_loop:
	VLD1.P 64(R1), [V0.D2, V1.D2, V2.D2, V3.D2]
	VLD1.P 64(R1), [V4.D2, V5.D2, V6.D2, V7.D2]
	VZIP1 V2.D2, V0.D2, V8.D2
	VZIP2 V2.D2, V0.D2, V9.D2
	VZIP1 V3.D2, V1.D2, V10.D2
	VZIP2 V3.D2, V1.D2, V11.D2
	VZIP1 V6.D2, V4.D2, V12.D2
	VZIP2 V6.D2, V4.D2, V13.D2
	VZIP1 V7.D2, V5.D2, V14.D2
	VZIP2 V7.D2, V5.D2, V15.D2
	VEOR V16.B16, V16.B16, V16.B16
	VEOR V17.B16, V17.B16, V17.B16
	FMUL2D(0, 20, 8)           // t = w0*x0 (lo), rounded
	FMUL2D(0, 0, 8)            // t = t*x0, rounded
	FADD2D(16, 16, 0)
	FMUL2D(1, 20, 12)          // (hi)
	FMUL2D(1, 1, 12)
	FADD2D(17, 17, 1)
	FMUL2D(0, 21, 9)
	FMUL2D(0, 0, 9)
	FADD2D(16, 16, 0)
	FMUL2D(1, 21, 13)
	FMUL2D(1, 1, 13)
	FADD2D(17, 17, 1)
	FMUL2D(0, 22, 10)
	FMUL2D(0, 0, 10)
	FADD2D(16, 16, 0)
	FMUL2D(1, 22, 14)
	FMUL2D(1, 1, 14)
	FADD2D(17, 17, 1)
	FMUL2D(0, 23, 11)
	FMUL2D(0, 0, 11)
	FADD2D(16, 16, 0)
	FMUL2D(1, 23, 15)
	FMUL2D(1, 1, 15)
	FADD2D(17, 17, 1)
	VST1.P [V16.D2, V17.D2], 32(R0)
	SUB $1, R3, R3
	CBNZ R3, quad_loop
	RET

// func quadAsmAny(dst, coords, w *float64, quads, dims int)
TEXT ·quadAsmAny(SB), NOSPLIT, $0-40
	MOVD dst+0(FP), R0
	MOVD coords+8(FP), R1
	MOVD w+16(FP), R2
	MOVD quads+24(FP), R3
	MOVD dims+32(FP), R4
	LSL $3, R4, R5

quadany_pgroup:
	MOVD R1, R10
	ADD R5, R10, R11
	ADD R5, R11, R12
	ADD R5, R12, R13
	MOVD R2, R6
	MOVD R4, R7
	VEOR V16.B16, V16.B16, V16.B16
	VEOR V17.B16, V17.B16, V17.B16

quadany_dim:
	VLD1.P 8(R10), V0.D[0]
	VLD1.P 8(R11), V0.D[1]
	VLD1.P 8(R12), V1.D[0]
	VLD1.P 8(R13), V1.D[1]
	VLD1R.P 8(R6), [V2.D2]
	FMUL2D(3, 2, 0)            // t = w_i*x_i (lo)
	FMUL2D(3, 3, 0)            // t = t*x_i
	FADD2D(16, 16, 3)
	FMUL2D(4, 2, 1)            // (hi)
	FMUL2D(4, 4, 1)
	FADD2D(17, 17, 4)
	SUB $1, R7, R7
	CBNZ R7, quadany_dim
	VST1.P [V16.D2, V17.D2], 32(R0)
	MOVD R13, R1
	SUB $1, R3, R3
	CBNZ R3, quadany_pgroup
	RET

// func prodAsmD4(dst, coords, off *float64, quads int)
TEXT ·prodAsmD4(SB), NOSPLIT, $0-32
	MOVD dst+0(FP), R0
	MOVD coords+8(FP), R1
	MOVD off+16(FP), R2
	MOVD quads+24(FP), R3
	VLD1R.P 8(R2), [V20.D2]
	VLD1R.P 8(R2), [V21.D2]
	VLD1R.P 8(R2), [V22.D2]
	VLD1R.P 8(R2), [V23.D2]
	FMOVD $1.0, F19
	VDUP V19.D[0], V19.D2      // [1.0, 1.0] accumulator seed

prod_loop:
	VLD1.P 64(R1), [V0.D2, V1.D2, V2.D2, V3.D2]
	VLD1.P 64(R1), [V4.D2, V5.D2, V6.D2, V7.D2]
	VZIP1 V2.D2, V0.D2, V8.D2
	VZIP2 V2.D2, V0.D2, V9.D2
	VZIP1 V3.D2, V1.D2, V10.D2
	VZIP2 V3.D2, V1.D2, V11.D2
	VZIP1 V6.D2, V4.D2, V12.D2
	VZIP2 V6.D2, V4.D2, V13.D2
	VZIP1 V7.D2, V5.D2, V14.D2
	VZIP2 V7.D2, V5.D2, V15.D2
	VORR V19.B16, V19.B16, V16.B16
	VORR V19.B16, V19.B16, V17.B16
	FADD2D(0, 20, 8)           // t = o0 + x0 (lo)
	FMUL2D(16, 16, 0)          // acc *= t
	FADD2D(1, 20, 12)          // (hi)
	FMUL2D(17, 17, 1)
	FADD2D(0, 21, 9)
	FMUL2D(16, 16, 0)
	FADD2D(1, 21, 13)
	FMUL2D(17, 17, 1)
	FADD2D(0, 22, 10)
	FMUL2D(16, 16, 0)
	FADD2D(1, 22, 14)
	FMUL2D(17, 17, 1)
	FADD2D(0, 23, 11)
	FMUL2D(16, 16, 0)
	FADD2D(1, 23, 15)
	FMUL2D(17, 17, 1)
	VST1.P [V16.D2, V17.D2], 32(R0)
	SUB $1, R3, R3
	CBNZ R3, prod_loop
	RET

// func prodAsmAny(dst, coords, off *float64, quads, dims int)
TEXT ·prodAsmAny(SB), NOSPLIT, $0-40
	MOVD dst+0(FP), R0
	MOVD coords+8(FP), R1
	MOVD off+16(FP), R2
	MOVD quads+24(FP), R3
	MOVD dims+32(FP), R4
	LSL $3, R4, R5
	FMOVD $1.0, F19
	VDUP V19.D[0], V19.D2

prodany_pgroup:
	MOVD R1, R10
	ADD R5, R10, R11
	ADD R5, R11, R12
	ADD R5, R12, R13
	MOVD R2, R6
	MOVD R4, R7
	VORR V19.B16, V19.B16, V16.B16
	VORR V19.B16, V19.B16, V17.B16

prodany_dim:
	VLD1.P 8(R10), V0.D[0]
	VLD1.P 8(R11), V0.D[1]
	VLD1.P 8(R12), V1.D[0]
	VLD1.P 8(R13), V1.D[1]
	VLD1R.P 8(R6), [V2.D2]
	FADD2D(3, 2, 0)            // t = o_i + x_i (lo)
	FMUL2D(16, 16, 3)
	FADD2D(3, 2, 1)            // (hi)
	FMUL2D(17, 17, 3)
	SUB $1, R7, R7
	CBNZ R7, prodany_dim
	VST1.P [V16.D2, V17.D2], 32(R0)
	MOVD R13, R1
	SUB $1, R3, R3
	CBNZ R3, prodany_pgroup
	RET

// The multi kernels tile query rows in groups of four (outer loop) over
// a streaming point-group loop (inner), exactly like the AVX2 leg: four
// sequential dst write streams per tile, one transpose per point group
// shared by four rows, weights re-broadcast per row from a cursor that
// resets each point group (VLD1R.P advances it by 128 bytes per tile).

// func dotMultiAsmD4(dst, coords, w *float64, pquads, n, qquads int)
TEXT ·dotMultiAsmD4(SB), NOSPLIT, $0-48
	MOVD dst+0(FP), R0
	MOVD w+16(FP), R2
	MOVD n+32(FP), R9
	LSL $3, R9, R9             // dst row stride in bytes
	MOVD qquads+40(FP), R3

dotm_qgroup:
	MOVD coords+8(FP), R7
	MOVD pquads+24(FP), R5
	MOVD R0, R10               // dst cursor, row 0 of this tile

dotm_pgroup:
	VLD1.P 64(R7), [V0.D2, V1.D2, V2.D2, V3.D2]
	VLD1.P 64(R7), [V4.D2, V5.D2, V6.D2, V7.D2]
	VZIP1 V2.D2, V0.D2, V8.D2
	VZIP2 V2.D2, V0.D2, V9.D2
	VZIP1 V3.D2, V1.D2, V10.D2
	VZIP2 V3.D2, V1.D2, V11.D2
	VZIP1 V6.D2, V4.D2, V12.D2
	VZIP2 V6.D2, V4.D2, V13.D2
	VZIP1 V7.D2, V5.D2, V14.D2
	VZIP2 V7.D2, V5.D2, V15.D2
	MOVD R2, R6                // weight cursor resets to the tile's rows
	MOVD R10, R14

	VEOR V16.B16, V16.B16, V16.B16 // query row 0
	VEOR V17.B16, V17.B16, V17.B16
	VLD1R.P 8(R6), [V2.D2]
	FMUL2D(3, 2, 8)
	FADD2D(16, 16, 3)
	FMUL2D(3, 2, 12)
	FADD2D(17, 17, 3)
	VLD1R.P 8(R6), [V2.D2]
	FMUL2D(3, 2, 9)
	FADD2D(16, 16, 3)
	FMUL2D(3, 2, 13)
	FADD2D(17, 17, 3)
	VLD1R.P 8(R6), [V2.D2]
	FMUL2D(3, 2, 10)
	FADD2D(16, 16, 3)
	FMUL2D(3, 2, 14)
	FADD2D(17, 17, 3)
	VLD1R.P 8(R6), [V2.D2]
	FMUL2D(3, 2, 11)
	FADD2D(16, 16, 3)
	FMUL2D(3, 2, 15)
	FADD2D(17, 17, 3)
	VST1 [V16.D2, V17.D2], (R14)
	ADD R9, R14, R14

	VEOR V16.B16, V16.B16, V16.B16 // query row 1
	VEOR V17.B16, V17.B16, V17.B16
	VLD1R.P 8(R6), [V2.D2]
	FMUL2D(3, 2, 8)
	FADD2D(16, 16, 3)
	FMUL2D(3, 2, 12)
	FADD2D(17, 17, 3)
	VLD1R.P 8(R6), [V2.D2]
	FMUL2D(3, 2, 9)
	FADD2D(16, 16, 3)
	FMUL2D(3, 2, 13)
	FADD2D(17, 17, 3)
	VLD1R.P 8(R6), [V2.D2]
	FMUL2D(3, 2, 10)
	FADD2D(16, 16, 3)
	FMUL2D(3, 2, 14)
	FADD2D(17, 17, 3)
	VLD1R.P 8(R6), [V2.D2]
	FMUL2D(3, 2, 11)
	FADD2D(16, 16, 3)
	FMUL2D(3, 2, 15)
	FADD2D(17, 17, 3)
	VST1 [V16.D2, V17.D2], (R14)
	ADD R9, R14, R14

	VEOR V16.B16, V16.B16, V16.B16 // query row 2
	VEOR V17.B16, V17.B16, V17.B16
	VLD1R.P 8(R6), [V2.D2]
	FMUL2D(3, 2, 8)
	FADD2D(16, 16, 3)
	FMUL2D(3, 2, 12)
	FADD2D(17, 17, 3)
	VLD1R.P 8(R6), [V2.D2]
	FMUL2D(3, 2, 9)
	FADD2D(16, 16, 3)
	FMUL2D(3, 2, 13)
	FADD2D(17, 17, 3)
	VLD1R.P 8(R6), [V2.D2]
	FMUL2D(3, 2, 10)
	FADD2D(16, 16, 3)
	FMUL2D(3, 2, 14)
	FADD2D(17, 17, 3)
	VLD1R.P 8(R6), [V2.D2]
	FMUL2D(3, 2, 11)
	FADD2D(16, 16, 3)
	FMUL2D(3, 2, 15)
	FADD2D(17, 17, 3)
	VST1 [V16.D2, V17.D2], (R14)
	ADD R9, R14, R14

	VEOR V16.B16, V16.B16, V16.B16 // query row 3
	VEOR V17.B16, V17.B16, V17.B16
	VLD1R.P 8(R6), [V2.D2]
	FMUL2D(3, 2, 8)
	FADD2D(16, 16, 3)
	FMUL2D(3, 2, 12)
	FADD2D(17, 17, 3)
	VLD1R.P 8(R6), [V2.D2]
	FMUL2D(3, 2, 9)
	FADD2D(16, 16, 3)
	FMUL2D(3, 2, 13)
	FADD2D(17, 17, 3)
	VLD1R.P 8(R6), [V2.D2]
	FMUL2D(3, 2, 10)
	FADD2D(16, 16, 3)
	FMUL2D(3, 2, 14)
	FADD2D(17, 17, 3)
	VLD1R.P 8(R6), [V2.D2]
	FMUL2D(3, 2, 11)
	FADD2D(16, 16, 3)
	FMUL2D(3, 2, 15)
	FADD2D(17, 17, 3)
	VST1 [V16.D2, V17.D2], (R14)

	ADD $32, R10, R10
	SUB $1, R5, R5
	CBNZ R5, dotm_pgroup
	ADD $128, R2, R2           // next tile of four query rows
	ADD R9<<2, R0, R0
	SUB $1, R3, R3
	CBNZ R3, dotm_qgroup
	RET

// func quadMultiAsmD4(dst, coords, w *float64, pquads, n, qquads int)
TEXT ·quadMultiAsmD4(SB), NOSPLIT, $0-48
	MOVD dst+0(FP), R0
	MOVD w+16(FP), R2
	MOVD n+32(FP), R9
	LSL $3, R9, R9
	MOVD qquads+40(FP), R3

quadm_qgroup:
	MOVD coords+8(FP), R7
	MOVD pquads+24(FP), R5
	MOVD R0, R10

quadm_pgroup:
	VLD1.P 64(R7), [V0.D2, V1.D2, V2.D2, V3.D2]
	VLD1.P 64(R7), [V4.D2, V5.D2, V6.D2, V7.D2]
	VZIP1 V2.D2, V0.D2, V8.D2
	VZIP2 V2.D2, V0.D2, V9.D2
	VZIP1 V3.D2, V1.D2, V10.D2
	VZIP2 V3.D2, V1.D2, V11.D2
	VZIP1 V6.D2, V4.D2, V12.D2
	VZIP2 V6.D2, V4.D2, V13.D2
	VZIP1 V7.D2, V5.D2, V14.D2
	VZIP2 V7.D2, V5.D2, V15.D2
	MOVD R2, R6
	MOVD R10, R14
	MOVD $4, R15               // four query rows per tile

quadm_qrow:
	VEOR V16.B16, V16.B16, V16.B16
	VEOR V17.B16, V17.B16, V17.B16
	VLD1R.P 8(R6), [V2.D2]
	FMUL2D(3, 2, 8)            // t = w0*x0 (lo)
	FMUL2D(3, 3, 8)            // t = t*x0
	FADD2D(16, 16, 3)
	FMUL2D(3, 2, 12)           // (hi)
	FMUL2D(3, 3, 12)
	FADD2D(17, 17, 3)
	VLD1R.P 8(R6), [V2.D2]
	FMUL2D(3, 2, 9)
	FMUL2D(3, 3, 9)
	FADD2D(16, 16, 3)
	FMUL2D(3, 2, 13)
	FMUL2D(3, 3, 13)
	FADD2D(17, 17, 3)
	VLD1R.P 8(R6), [V2.D2]
	FMUL2D(3, 2, 10)
	FMUL2D(3, 3, 10)
	FADD2D(16, 16, 3)
	FMUL2D(3, 2, 14)
	FMUL2D(3, 3, 14)
	FADD2D(17, 17, 3)
	VLD1R.P 8(R6), [V2.D2]
	FMUL2D(3, 2, 11)
	FMUL2D(3, 3, 11)
	FADD2D(16, 16, 3)
	FMUL2D(3, 2, 15)
	FMUL2D(3, 3, 15)
	FADD2D(17, 17, 3)
	VST1 [V16.D2, V17.D2], (R14)
	ADD R9, R14, R14
	SUB $1, R15, R15
	CBNZ R15, quadm_qrow

	ADD $32, R10, R10
	SUB $1, R5, R5
	CBNZ R5, quadm_pgroup
	ADD $128, R2, R2
	ADD R9<<2, R0, R0
	SUB $1, R3, R3
	CBNZ R3, quadm_qgroup
	RET

// func prodMultiAsmD4(dst, coords, off *float64, pquads, n, qquads int)
TEXT ·prodMultiAsmD4(SB), NOSPLIT, $0-48
	MOVD dst+0(FP), R0
	MOVD off+16(FP), R2
	MOVD n+32(FP), R9
	LSL $3, R9, R9
	MOVD qquads+40(FP), R3
	FMOVD $1.0, F19
	VDUP V19.D[0], V19.D2

prodm_qgroup:
	MOVD coords+8(FP), R7
	MOVD pquads+24(FP), R5
	MOVD R0, R10

prodm_pgroup:
	VLD1.P 64(R7), [V0.D2, V1.D2, V2.D2, V3.D2]
	VLD1.P 64(R7), [V4.D2, V5.D2, V6.D2, V7.D2]
	VZIP1 V2.D2, V0.D2, V8.D2
	VZIP2 V2.D2, V0.D2, V9.D2
	VZIP1 V3.D2, V1.D2, V10.D2
	VZIP2 V3.D2, V1.D2, V11.D2
	VZIP1 V6.D2, V4.D2, V12.D2
	VZIP2 V6.D2, V4.D2, V13.D2
	VZIP1 V7.D2, V5.D2, V14.D2
	VZIP2 V7.D2, V5.D2, V15.D2
	MOVD R2, R6
	MOVD R10, R14
	MOVD $4, R15

prodm_qrow:
	VORR V19.B16, V19.B16, V16.B16
	VORR V19.B16, V19.B16, V17.B16
	VLD1R.P 8(R6), [V2.D2]
	FADD2D(3, 2, 8)            // t = o0 + x0 (lo)
	FMUL2D(16, 16, 3)          // acc *= t
	FADD2D(3, 2, 12)           // (hi)
	FMUL2D(17, 17, 3)
	VLD1R.P 8(R6), [V2.D2]
	FADD2D(3, 2, 9)
	FMUL2D(16, 16, 3)
	FADD2D(3, 2, 13)
	FMUL2D(17, 17, 3)
	VLD1R.P 8(R6), [V2.D2]
	FADD2D(3, 2, 10)
	FMUL2D(16, 16, 3)
	FADD2D(3, 2, 14)
	FMUL2D(17, 17, 3)
	VLD1R.P 8(R6), [V2.D2]
	FADD2D(3, 2, 11)
	FMUL2D(16, 16, 3)
	FADD2D(3, 2, 15)
	FMUL2D(17, 17, 3)
	VST1 [V16.D2, V17.D2], (R14)
	ADD R9, R14, R14
	SUB $1, R15, R15
	CBNZ R15, prodm_qrow

	ADD $32, R10, R10
	SUB $1, R5, R5
	CBNZ R5, prodm_pgroup
	ADD $128, R2, R2
	ADD R9<<2, R0, R0
	SUB $1, R3, R3
	CBNZ R3, prodm_qgroup
	RET
