// AVX2 kernel legs: 4×float64 ymm lanes, vertical across points.
//
// Bit-identity: lane j of every vector op is point j's scalar operation —
// VMULPD then VADDPD per dimension, accumulating from a VXORPD-zeroed
// register (+0), exactly the reference kernel's `var s float64; s +=
// float64(wi*x)` order. No horizontal ops and no fused multiply-adds,
// so every score is byte-identical to the scalar leg.
//
// The dims==4 fast paths load four points (one cache line) and transpose
// them into per-dimension columns with VUNPCKL/HPD + VPERM2F128; the
// generic paths compose each dimension's column with VMOVSD/VMOVHPD/
// VINSERTF128 lane loads. Go-side wrappers (kernels_hw.go) handle all
// remainder points, so quads >= 1 here.
//
// Y15 and R14 are reserved by the Go internal ABI and never touched.

#include "textflag.h"

DATA one64<>+0(SB)/8, $0x3FF0000000000000 // float64(1.0)
GLOBL one64<>(SB), RODATA|NOPTR, $8

// func dotAsmD4(dst, coords, w *float64, quads int)
TEXT ·dotAsmD4(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ coords+8(FP), SI
	MOVQ w+16(FP), R8
	MOVQ quads+24(FP), CX
	VBROADCASTSD (R8), Y12     // w0 in every lane
	VBROADCASTSD 8(R8), Y13    // w1
	VBROADCASTSD 16(R8), Y14   // w2

dotd4_loop:
	VMOVUPD (SI), Y0           // point 0
	VMOVUPD 32(SI), Y1         // point 1
	VMOVUPD 64(SI), Y2         // point 2
	VMOVUPD 96(SI), Y3         // point 3
	VUNPCKLPD Y1, Y0, Y4
	VUNPCKHPD Y1, Y0, Y5
	VUNPCKLPD Y3, Y2, Y6
	VUNPCKHPD Y3, Y2, Y7
	VPERM2F128 $0x20, Y6, Y4, Y8  // column x0: lane j = point j's x0
	VPERM2F128 $0x20, Y7, Y5, Y9  // column x1
	VPERM2F128 $0x31, Y6, Y4, Y10 // column x2
	VPERM2F128 $0x31, Y7, Y5, Y11 // column x3
	VBROADCASTSD 24(R8), Y7    // w3 (Y7 free after the transpose)
	VXORPD Y0, Y0, Y0          // acc = +0, like the scalar reference
	VMULPD Y8, Y12, Y1         // w0 * x0
	VADDPD Y1, Y0, Y0
	VMULPD Y9, Y13, Y1
	VADDPD Y1, Y0, Y0
	VMULPD Y10, Y14, Y1
	VADDPD Y1, Y0, Y0
	VMULPD Y11, Y7, Y1
	VADDPD Y1, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ $128, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  dotd4_loop
	VZEROUPPER
	RET

// func quadAsmD4(dst, coords, w *float64, quads int)
TEXT ·quadAsmD4(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ coords+8(FP), SI
	MOVQ w+16(FP), R8
	MOVQ quads+24(FP), CX
	VBROADCASTSD (R8), Y12
	VBROADCASTSD 8(R8), Y13
	VBROADCASTSD 16(R8), Y14

quadd4_loop:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD 64(SI), Y2
	VMOVUPD 96(SI), Y3
	VUNPCKLPD Y1, Y0, Y4
	VUNPCKHPD Y1, Y0, Y5
	VUNPCKLPD Y3, Y2, Y6
	VUNPCKHPD Y3, Y2, Y7
	VPERM2F128 $0x20, Y6, Y4, Y8
	VPERM2F128 $0x20, Y7, Y5, Y9
	VPERM2F128 $0x31, Y6, Y4, Y10
	VPERM2F128 $0x31, Y7, Y5, Y11
	VBROADCASTSD 24(R8), Y7
	VXORPD Y0, Y0, Y0
	VMULPD Y8, Y12, Y1         // w0 * x0
	VMULPD Y8, Y1, Y1          // (w0*x0) * x0 — same shape as scalar wi*x*x
	VADDPD Y1, Y0, Y0
	VMULPD Y9, Y13, Y1
	VMULPD Y9, Y1, Y1
	VADDPD Y1, Y0, Y0
	VMULPD Y10, Y14, Y1
	VMULPD Y10, Y1, Y1
	VADDPD Y1, Y0, Y0
	VMULPD Y11, Y7, Y1
	VMULPD Y11, Y1, Y1
	VADDPD Y1, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ $128, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  quadd4_loop
	VZEROUPPER
	RET

// func prodAsmD4(dst, coords, off *float64, quads int)
TEXT ·prodAsmD4(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ coords+8(FP), SI
	MOVQ off+16(FP), R8
	MOVQ quads+24(FP), CX
	VBROADCASTSD (R8), Y12
	VBROADCASTSD 8(R8), Y13
	VBROADCASTSD 16(R8), Y14

prodd4_loop:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD 64(SI), Y2
	VMOVUPD 96(SI), Y3
	VUNPCKLPD Y1, Y0, Y4
	VUNPCKHPD Y1, Y0, Y5
	VUNPCKLPD Y3, Y2, Y6
	VUNPCKHPD Y3, Y2, Y7
	VPERM2F128 $0x20, Y6, Y4, Y8
	VPERM2F128 $0x20, Y7, Y5, Y9
	VPERM2F128 $0x31, Y6, Y4, Y10
	VPERM2F128 $0x31, Y7, Y5, Y11
	VBROADCASTSD 24(R8), Y7
	VBROADCASTSD one64<>(SB), Y0 // acc = 1.0, like the scalar reference
	VADDPD Y8, Y12, Y1         // o0 + x0
	VMULPD Y1, Y0, Y0          // acc *= term
	VADDPD Y9, Y13, Y1
	VMULPD Y1, Y0, Y0
	VADDPD Y10, Y14, Y1
	VMULPD Y1, Y0, Y0
	VADDPD Y11, Y7, Y1
	VMULPD Y1, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ $128, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  prodd4_loop
	VZEROUPPER
	RET

// func dotAsmAny(dst, coords, w *float64, quads, dims int)
TEXT ·dotAsmAny(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ coords+8(FP), SI
	MOVQ w+16(FP), R8
	MOVQ quads+24(FP), CX
	MOVQ dims+32(FP), DX
	MOVQ DX, R9
	SHLQ $3, R9                // point stride in bytes

dotany_pgroup:
	MOVQ SI, R10               // cursors into the group's four points
	LEAQ (SI)(R9*1), R11
	LEAQ (R11)(R9*1), R12
	LEAQ (R12)(R9*1), R13
	MOVQ R8, BX
	MOVQ DX, AX
	VXORPD Y0, Y0, Y0

dotany_dim:
	VMOVSD (R10), X1           // column x_i: lane j = point j's x_i
	VMOVHPD (R11), X1, X1
	VMOVSD (R12), X2
	VMOVHPD (R13), X2, X2
	VINSERTF128 $1, X2, Y1, Y1
	VBROADCASTSD (BX), Y2      // w_i
	VMULPD Y1, Y2, Y3          // w_i * x_i
	VADDPD Y3, Y0, Y0
	ADDQ $8, R10
	ADDQ $8, R11
	ADDQ $8, R12
	ADDQ $8, R13
	ADDQ $8, BX
	DECQ AX
	JNZ  dotany_dim
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	LEAQ (SI)(R9*4), SI
	DECQ CX
	JNZ  dotany_pgroup
	VZEROUPPER
	RET

// func quadAsmAny(dst, coords, w *float64, quads, dims int)
TEXT ·quadAsmAny(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ coords+8(FP), SI
	MOVQ w+16(FP), R8
	MOVQ quads+24(FP), CX
	MOVQ dims+32(FP), DX
	MOVQ DX, R9
	SHLQ $3, R9

quadany_pgroup:
	MOVQ SI, R10
	LEAQ (SI)(R9*1), R11
	LEAQ (R11)(R9*1), R12
	LEAQ (R12)(R9*1), R13
	MOVQ R8, BX
	MOVQ DX, AX
	VXORPD Y0, Y0, Y0

quadany_dim:
	VMOVSD (R10), X1
	VMOVHPD (R11), X1, X1
	VMOVSD (R12), X2
	VMOVHPD (R13), X2, X2
	VINSERTF128 $1, X2, Y1, Y1
	VBROADCASTSD (BX), Y2
	VMULPD Y1, Y2, Y3          // w_i * x_i
	VMULPD Y1, Y3, Y3          // (w_i*x_i) * x_i
	VADDPD Y3, Y0, Y0
	ADDQ $8, R10
	ADDQ $8, R11
	ADDQ $8, R12
	ADDQ $8, R13
	ADDQ $8, BX
	DECQ AX
	JNZ  quadany_dim
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	LEAQ (SI)(R9*4), SI
	DECQ CX
	JNZ  quadany_pgroup
	VZEROUPPER
	RET

// func prodAsmAny(dst, coords, off *float64, quads, dims int)
TEXT ·prodAsmAny(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ coords+8(FP), SI
	MOVQ off+16(FP), R8
	MOVQ quads+24(FP), CX
	MOVQ dims+32(FP), DX
	MOVQ DX, R9
	SHLQ $3, R9

prodany_pgroup:
	MOVQ SI, R10
	LEAQ (SI)(R9*1), R11
	LEAQ (R11)(R9*1), R12
	LEAQ (R12)(R9*1), R13
	MOVQ R8, BX
	MOVQ DX, AX
	VBROADCASTSD one64<>(SB), Y0

prodany_dim:
	VMOVSD (R10), X1
	VMOVHPD (R11), X1, X1
	VMOVSD (R12), X2
	VMOVHPD (R13), X2, X2
	VINSERTF128 $1, X2, Y1, Y1
	VBROADCASTSD (BX), Y2
	VADDPD Y1, Y2, Y3          // o_i + x_i
	VMULPD Y3, Y0, Y0          // acc *= term
	ADDQ $8, R10
	ADDQ $8, R11
	ADDQ $8, R12
	ADDQ $8, R13
	ADDQ $8, BX
	DECQ AX
	JNZ  prodany_dim
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	LEAQ (SI)(R9*4), SI
	DECQ CX
	JNZ  prodany_pgroup
	VZEROUPPER
	RET

// The multi kernels tile query rows in groups of four: the outer loop
// walks query groups, the inner loop streams the point groups once per
// query group, transposing each four-point block and scoring the group's
// four rows before advancing. Four sequential dst write streams at a
// time keep the page/cache locality of a row-at-a-time loop; iterating
// all nq rows per point group instead would touch nq distant dst lines
// per group and stall on TLB/store traffic.

// func dotMultiAsmD4(dst, coords, w *float64, pquads, n, qquads int)
TEXT ·dotMultiAsmD4(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI         // row-0 base of the current query group
	MOVQ w+16(FP), R8          // weight cursor: 4 rows x 4 dims per group
	MOVQ n+32(FP), R9
	SHLQ $3, R9                // dst row stride in bytes
	LEAQ (R9)(R9*2), R13       // 3 * row stride
	MOVQ qquads+40(FP), DX

dotm_qgroup:
	MOVQ coords+8(FP), SI
	MOVQ pquads+24(FP), CX
	MOVQ DI, R10               // dst cursor within row 0

dotm_pgroup:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD 64(SI), Y2
	VMOVUPD 96(SI), Y3
	VUNPCKLPD Y1, Y0, Y4
	VUNPCKHPD Y1, Y0, Y5
	VUNPCKLPD Y3, Y2, Y6
	VUNPCKHPD Y3, Y2, Y7
	VPERM2F128 $0x20, Y6, Y4, Y8
	VPERM2F128 $0x20, Y7, Y5, Y9
	VPERM2F128 $0x31, Y6, Y4, Y10
	VPERM2F128 $0x31, Y7, Y5, Y11

	VXORPD Y0, Y0, Y0          // query row 0
	VBROADCASTSD (R8), Y1
	VMULPD Y8, Y1, Y2
	VADDPD Y2, Y0, Y0
	VBROADCASTSD 8(R8), Y1
	VMULPD Y9, Y1, Y2
	VADDPD Y2, Y0, Y0
	VBROADCASTSD 16(R8), Y1
	VMULPD Y10, Y1, Y2
	VADDPD Y2, Y0, Y0
	VBROADCASTSD 24(R8), Y1
	VMULPD Y11, Y1, Y2
	VADDPD Y2, Y0, Y0
	VMOVUPD Y0, (R10)

	VXORPD Y0, Y0, Y0          // query row 1
	VBROADCASTSD 32(R8), Y1
	VMULPD Y8, Y1, Y2
	VADDPD Y2, Y0, Y0
	VBROADCASTSD 40(R8), Y1
	VMULPD Y9, Y1, Y2
	VADDPD Y2, Y0, Y0
	VBROADCASTSD 48(R8), Y1
	VMULPD Y10, Y1, Y2
	VADDPD Y2, Y0, Y0
	VBROADCASTSD 56(R8), Y1
	VMULPD Y11, Y1, Y2
	VADDPD Y2, Y0, Y0
	VMOVUPD Y0, (R10)(R9*1)

	VXORPD Y0, Y0, Y0          // query row 2
	VBROADCASTSD 64(R8), Y1
	VMULPD Y8, Y1, Y2
	VADDPD Y2, Y0, Y0
	VBROADCASTSD 72(R8), Y1
	VMULPD Y9, Y1, Y2
	VADDPD Y2, Y0, Y0
	VBROADCASTSD 80(R8), Y1
	VMULPD Y10, Y1, Y2
	VADDPD Y2, Y0, Y0
	VBROADCASTSD 88(R8), Y1
	VMULPD Y11, Y1, Y2
	VADDPD Y2, Y0, Y0
	VMOVUPD Y0, (R10)(R9*2)

	VXORPD Y0, Y0, Y0          // query row 3
	VBROADCASTSD 96(R8), Y1
	VMULPD Y8, Y1, Y2
	VADDPD Y2, Y0, Y0
	VBROADCASTSD 104(R8), Y1
	VMULPD Y9, Y1, Y2
	VADDPD Y2, Y0, Y0
	VBROADCASTSD 112(R8), Y1
	VMULPD Y10, Y1, Y2
	VADDPD Y2, Y0, Y0
	VBROADCASTSD 120(R8), Y1
	VMULPD Y11, Y1, Y2
	VADDPD Y2, Y0, Y0
	VMOVUPD Y0, (R10)(R13*1)

	ADDQ $128, SI
	ADDQ $32, R10
	DECQ CX
	JNZ  dotm_pgroup
	ADDQ $128, R8              // next four weight rows
	LEAQ (DI)(R9*4), DI        // next four dst rows
	DECQ DX
	JNZ  dotm_qgroup
	VZEROUPPER
	RET

// func quadMultiAsmD4(dst, coords, w *float64, pquads, n, qquads int)
TEXT ·quadMultiAsmD4(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ w+16(FP), R8
	MOVQ n+32(FP), R9
	SHLQ $3, R9
	LEAQ (R9)(R9*2), R13
	MOVQ qquads+40(FP), DX

quadm_qgroup:
	MOVQ coords+8(FP), SI
	MOVQ pquads+24(FP), CX
	MOVQ DI, R10

quadm_pgroup:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD 64(SI), Y2
	VMOVUPD 96(SI), Y3
	VUNPCKLPD Y1, Y0, Y4
	VUNPCKHPD Y1, Y0, Y5
	VUNPCKLPD Y3, Y2, Y6
	VUNPCKHPD Y3, Y2, Y7
	VPERM2F128 $0x20, Y6, Y4, Y8
	VPERM2F128 $0x20, Y7, Y5, Y9
	VPERM2F128 $0x31, Y6, Y4, Y10
	VPERM2F128 $0x31, Y7, Y5, Y11

	VXORPD Y0, Y0, Y0          // query row 0
	VBROADCASTSD (R8), Y1
	VMULPD Y8, Y1, Y2
	VMULPD Y8, Y2, Y2
	VADDPD Y2, Y0, Y0
	VBROADCASTSD 8(R8), Y1
	VMULPD Y9, Y1, Y2
	VMULPD Y9, Y2, Y2
	VADDPD Y2, Y0, Y0
	VBROADCASTSD 16(R8), Y1
	VMULPD Y10, Y1, Y2
	VMULPD Y10, Y2, Y2
	VADDPD Y2, Y0, Y0
	VBROADCASTSD 24(R8), Y1
	VMULPD Y11, Y1, Y2
	VMULPD Y11, Y2, Y2
	VADDPD Y2, Y0, Y0
	VMOVUPD Y0, (R10)

	VXORPD Y0, Y0, Y0          // query row 1
	VBROADCASTSD 32(R8), Y1
	VMULPD Y8, Y1, Y2
	VMULPD Y8, Y2, Y2
	VADDPD Y2, Y0, Y0
	VBROADCASTSD 40(R8), Y1
	VMULPD Y9, Y1, Y2
	VMULPD Y9, Y2, Y2
	VADDPD Y2, Y0, Y0
	VBROADCASTSD 48(R8), Y1
	VMULPD Y10, Y1, Y2
	VMULPD Y10, Y2, Y2
	VADDPD Y2, Y0, Y0
	VBROADCASTSD 56(R8), Y1
	VMULPD Y11, Y1, Y2
	VMULPD Y11, Y2, Y2
	VADDPD Y2, Y0, Y0
	VMOVUPD Y0, (R10)(R9*1)

	VXORPD Y0, Y0, Y0          // query row 2
	VBROADCASTSD 64(R8), Y1
	VMULPD Y8, Y1, Y2
	VMULPD Y8, Y2, Y2
	VADDPD Y2, Y0, Y0
	VBROADCASTSD 72(R8), Y1
	VMULPD Y9, Y1, Y2
	VMULPD Y9, Y2, Y2
	VADDPD Y2, Y0, Y0
	VBROADCASTSD 80(R8), Y1
	VMULPD Y10, Y1, Y2
	VMULPD Y10, Y2, Y2
	VADDPD Y2, Y0, Y0
	VBROADCASTSD 88(R8), Y1
	VMULPD Y11, Y1, Y2
	VMULPD Y11, Y2, Y2
	VADDPD Y2, Y0, Y0
	VMOVUPD Y0, (R10)(R9*2)

	VXORPD Y0, Y0, Y0          // query row 3
	VBROADCASTSD 96(R8), Y1
	VMULPD Y8, Y1, Y2
	VMULPD Y8, Y2, Y2
	VADDPD Y2, Y0, Y0
	VBROADCASTSD 104(R8), Y1
	VMULPD Y9, Y1, Y2
	VMULPD Y9, Y2, Y2
	VADDPD Y2, Y0, Y0
	VBROADCASTSD 112(R8), Y1
	VMULPD Y10, Y1, Y2
	VMULPD Y10, Y2, Y2
	VADDPD Y2, Y0, Y0
	VBROADCASTSD 120(R8), Y1
	VMULPD Y11, Y1, Y2
	VMULPD Y11, Y2, Y2
	VADDPD Y2, Y0, Y0
	VMOVUPD Y0, (R10)(R13*1)

	ADDQ $128, SI
	ADDQ $32, R10
	DECQ CX
	JNZ  quadm_pgroup
	ADDQ $128, R8
	LEAQ (DI)(R9*4), DI
	DECQ DX
	JNZ  quadm_qgroup
	VZEROUPPER
	RET

// func prodMultiAsmD4(dst, coords, off *float64, pquads, n, qquads int)
TEXT ·prodMultiAsmD4(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ off+16(FP), R8
	MOVQ n+32(FP), R9
	SHLQ $3, R9
	LEAQ (R9)(R9*2), R13
	MOVQ qquads+40(FP), DX

prodm_qgroup:
	MOVQ coords+8(FP), SI
	MOVQ pquads+24(FP), CX
	MOVQ DI, R10

prodm_pgroup:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD 64(SI), Y2
	VMOVUPD 96(SI), Y3
	VUNPCKLPD Y1, Y0, Y4
	VUNPCKHPD Y1, Y0, Y5
	VUNPCKLPD Y3, Y2, Y6
	VUNPCKHPD Y3, Y2, Y7
	VPERM2F128 $0x20, Y6, Y4, Y8
	VPERM2F128 $0x20, Y7, Y5, Y9
	VPERM2F128 $0x31, Y6, Y4, Y10
	VPERM2F128 $0x31, Y7, Y5, Y11

	VBROADCASTSD one64<>(SB), Y0 // query row 0
	VBROADCASTSD (R8), Y1
	VADDPD Y8, Y1, Y2          // o_i + x_i
	VMULPD Y2, Y0, Y0
	VBROADCASTSD 8(R8), Y1
	VADDPD Y9, Y1, Y2
	VMULPD Y2, Y0, Y0
	VBROADCASTSD 16(R8), Y1
	VADDPD Y10, Y1, Y2
	VMULPD Y2, Y0, Y0
	VBROADCASTSD 24(R8), Y1
	VADDPD Y11, Y1, Y2
	VMULPD Y2, Y0, Y0
	VMOVUPD Y0, (R10)

	VBROADCASTSD one64<>(SB), Y0 // query row 1
	VBROADCASTSD 32(R8), Y1
	VADDPD Y8, Y1, Y2
	VMULPD Y2, Y0, Y0
	VBROADCASTSD 40(R8), Y1
	VADDPD Y9, Y1, Y2
	VMULPD Y2, Y0, Y0
	VBROADCASTSD 48(R8), Y1
	VADDPD Y10, Y1, Y2
	VMULPD Y2, Y0, Y0
	VBROADCASTSD 56(R8), Y1
	VADDPD Y11, Y1, Y2
	VMULPD Y2, Y0, Y0
	VMOVUPD Y0, (R10)(R9*1)

	VBROADCASTSD one64<>(SB), Y0 // query row 2
	VBROADCASTSD 64(R8), Y1
	VADDPD Y8, Y1, Y2
	VMULPD Y2, Y0, Y0
	VBROADCASTSD 72(R8), Y1
	VADDPD Y9, Y1, Y2
	VMULPD Y2, Y0, Y0
	VBROADCASTSD 80(R8), Y1
	VADDPD Y10, Y1, Y2
	VMULPD Y2, Y0, Y0
	VBROADCASTSD 88(R8), Y1
	VADDPD Y11, Y1, Y2
	VMULPD Y2, Y0, Y0
	VMOVUPD Y0, (R10)(R9*2)

	VBROADCASTSD one64<>(SB), Y0 // query row 3
	VBROADCASTSD 96(R8), Y1
	VADDPD Y8, Y1, Y2
	VMULPD Y2, Y0, Y0
	VBROADCASTSD 104(R8), Y1
	VADDPD Y9, Y1, Y2
	VMULPD Y2, Y0, Y0
	VBROADCASTSD 112(R8), Y1
	VADDPD Y10, Y1, Y2
	VMULPD Y2, Y0, Y0
	VBROADCASTSD 120(R8), Y1
	VADDPD Y11, Y1, Y2
	VMULPD Y2, Y0, Y0
	VMOVUPD Y0, (R10)(R13*1)

	ADDQ $128, SI
	ADDQ $32, R10
	DECQ CX
	JNZ  prodm_pgroup
	ADDQ $128, R8
	LEAQ (DI)(R9*4), DI
	DECQ DX
	JNZ  prodm_qgroup
	VZEROUPPER
	RET
