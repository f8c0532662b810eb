#include "textflag.h"

// AVX2 kernels of the training update; kernels.go has the portable loops
// they must match bit for bit. Each loop runs four lanes per pass and
// finishes the last len%4 elements with the scalar VEX forms of the same
// instructions. Products use VMULPD/VMULSD followed by a separate add,
// subtract or divide, never VFMADD, so every lane rounds exactly where the
// Go loop rounds. Go assembly puts the destination last:
// VSUBPD Y1, Y2, Y3 is Y3 = Y2 - Y1.

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	// Leaf 7 must exist.
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JB   no

	// Leaf 1: ECX bit 27 is OSXSAVE, bit 28 is AVX.
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no

	// XCR0 bits 1 and 2: the OS saves the xmm and ymm state.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no

	// Leaf 7, subleaf 0: EBX bit 5 is AVX2.
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX
	JCC  no

	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func axpy4AVX2(dst, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64)
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-152
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         b0_base+24(FP), R8
	MOVQ         b1_base+48(FP), R9
	MOVQ         b2_base+72(FP), R10
	MOVQ         b3_base+96(FP), R11
	VBROADCASTSD a0+120(FP), Y0
	VBROADCASTSD a1+128(FP), Y1
	VBROADCASTSD a2+136(FP), Y2
	VBROADCASTSD a3+144(FP), Y3
	XORQ         SI, SI
	MOVQ         CX, DX
	ANDQ         $-4, DX
	JZ           axpy4tail

axpy4loop:
	VMULPD  (R8)(SI*8), Y0, Y5
	VMULPD  (R9)(SI*8), Y1, Y6
	VMULPD  (R10)(SI*8), Y2, Y7
	VMULPD  (R11)(SI*8), Y3, Y8
	VMOVUPD (DI)(SI*8), Y4
	VADDPD  Y5, Y4, Y4
	VADDPD  Y6, Y4, Y4
	VADDPD  Y7, Y4, Y4
	VADDPD  Y8, Y4, Y4
	VMOVUPD Y4, (DI)(SI*8)
	ADDQ    $4, SI
	CMPQ    SI, DX
	JB      axpy4loop

axpy4tail:
	CMPQ   SI, CX
	JAE    axpy4done
	VMULSD (R8)(SI*8), X0, X5
	VMULSD (R9)(SI*8), X1, X6
	VMULSD (R10)(SI*8), X2, X7
	VMULSD (R11)(SI*8), X3, X8
	VMOVSD (DI)(SI*8), X4
	VADDSD X5, X4, X4
	VADDSD X6, X4, X4
	VADDSD X7, X4, X4
	VADDSD X8, X4, X4
	VMOVSD X4, (DI)(SI*8)
	INCQ   SI
	JMP    axpy4tail

axpy4done:
	VZEROUPPER
	RET

// func axpy1AVX2(dst, b []float64, a float64)
TEXT ·axpy1AVX2(SB), NOSPLIT, $0-56
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         b_base+24(FP), R8
	VBROADCASTSD a+48(FP), Y0
	XORQ         SI, SI
	MOVQ         CX, DX
	ANDQ         $-4, DX
	JZ           axpy1tail

axpy1loop:
	VMULPD  (R8)(SI*8), Y0, Y5
	VMOVUPD (DI)(SI*8), Y4
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (DI)(SI*8)
	ADDQ    $4, SI
	CMPQ    SI, DX
	JB      axpy1loop

axpy1tail:
	CMPQ   SI, CX
	JAE    axpy1done
	VMULSD (R8)(SI*8), X0, X5
	VMOVSD (DI)(SI*8), X4
	VADDSD X5, X4, X4
	VMOVSD X4, (DI)(SI*8)
	INCQ   SI
	JMP    axpy1tail

axpy1done:
	VZEROUPPER
	RET

// func adamAVX2(param, grad, m, v []float64, c *adamCoef)
//
// Per element, as in adamGo:
//   mi = b1*m + ob1*g;  vi = b2*v + (ob2*g)*g
//   param -= (lr*(mi/c1)) / (sqrt(vi/c2) + eps)
TEXT ·adamAVX2(SB), NOSPLIT, $0-104
	MOVQ         param_base+0(FP), DI
	MOVQ         param_len+8(FP), CX
	MOVQ         grad_base+24(FP), R8
	MOVQ         m_base+48(FP), R9
	MOVQ         v_base+72(FP), R10
	MOVQ         c+96(FP), AX
	VBROADCASTSD 0(AX), Y0  // b1
	VBROADCASTSD 8(AX), Y1  // b2
	VBROADCASTSD 16(AX), Y2 // ob1
	VBROADCASTSD 24(AX), Y3 // ob2
	VBROADCASTSD 32(AX), Y4 // c1
	VBROADCASTSD 40(AX), Y5 // c2
	VBROADCASTSD 48(AX), Y6 // lr
	VBROADCASTSD 56(AX), Y7 // eps
	XORQ         SI, SI
	MOVQ         CX, DX
	ANDQ         $-4, DX
	JZ           adamtail

adamloop:
	VMOVUPD (R8)(SI*8), Y8    // g
	VMULPD  (R9)(SI*8), Y0, Y9
	VMULPD  Y8, Y2, Y10
	VADDPD  Y10, Y9, Y9       // mi = b1*m + ob1*g
	VMULPD  (R10)(SI*8), Y1, Y10
	VMULPD  Y8, Y3, Y11
	VMULPD  Y8, Y11, Y11
	VADDPD  Y11, Y10, Y10     // vi = b2*v + (ob2*g)*g
	VMOVUPD Y9, (R9)(SI*8)
	VMOVUPD Y10, (R10)(SI*8)
	VDIVPD  Y4, Y9, Y9        // mHat = mi / c1
	VDIVPD  Y5, Y10, Y10      // vHat = vi / c2
	VSQRTPD Y10, Y10
	VADDPD  Y7, Y10, Y10      // sqrt(vHat) + eps
	VMULPD  Y9, Y6, Y9        // lr * mHat
	VDIVPD  Y10, Y9, Y9
	VMOVUPD (DI)(SI*8), Y11
	VSUBPD  Y9, Y11, Y11
	VMOVUPD Y11, (DI)(SI*8)
	ADDQ    $4, SI
	CMPQ    SI, DX
	JB      adamloop

adamtail:
	CMPQ    SI, CX
	JAE     adamdone
	VMOVSD  (R8)(SI*8), X8
	VMULSD  (R9)(SI*8), X0, X9
	VMULSD  X8, X2, X10
	VADDSD  X10, X9, X9
	VMULSD  (R10)(SI*8), X1, X10
	VMULSD  X8, X3, X11
	VMULSD  X8, X11, X11
	VADDSD  X11, X10, X10
	VMOVSD  X9, (R9)(SI*8)
	VMOVSD  X10, (R10)(SI*8)
	VDIVSD  X4, X9, X9
	VDIVSD  X5, X10, X10
	VSQRTSD X10, X10, X10
	VADDSD  X7, X10, X10
	VMULSD  X9, X6, X9
	VDIVSD  X10, X9, X9
	VMOVSD  (DI)(SI*8), X11
	VSUBSD  X9, X11, X11
	VMOVSD  X11, (DI)(SI*8)
	INCQ    SI
	JMP     adamtail

adamdone:
	VZEROUPPER
	RET

// func blendAVX2(dst, src []float64, keep, tau float64)
TEXT ·blendAVX2(SB), NOSPLIT, $0-64
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         src_base+24(FP), R8
	VBROADCASTSD keep+48(FP), Y0
	VBROADCASTSD tau+56(FP), Y1
	XORQ         SI, SI
	MOVQ         CX, DX
	ANDQ         $-4, DX
	JZ           blendtail

blendloop:
	VMULPD  (DI)(SI*8), Y0, Y4
	VMULPD  (R8)(SI*8), Y1, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (DI)(SI*8)
	ADDQ    $4, SI
	CMPQ    SI, DX
	JB      blendloop

blendtail:
	CMPQ   SI, CX
	JAE    blenddone
	VMULSD (DI)(SI*8), X0, X4
	VMULSD (R8)(SI*8), X1, X5
	VADDSD X5, X4, X4
	VMOVSD X4, (DI)(SI*8)
	INCQ   SI
	JMP    blendtail

blenddone:
	VZEROUPPER
	RET
