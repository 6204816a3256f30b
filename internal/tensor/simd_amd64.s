#include "textflag.h"

// AVX2 bodies of tanhRow, quadAxpy, quadAxpySet, productRow and dotRows.
// Every lane performs the scalar code's IEEE operations in the scalar
// order, with no fused multiply-add except where math.Exp's own FMA path
// has one, so every result that is not NaN is bit-identical to the scalar
// loops'. Which payload survives when two NaNs meet depends on the
// operand order the Go compiler picks for the scalar loop, so the product
// and dot loops leave any NaN sum to the scalar code (see the callers in
// kernels.go). tanh has one NaN source, its input, and returns it quieted
// as math.Tanh does.

// VEC4 defines a 32-byte read-only vector holding four copies of bits.
#define VEC4(sym, bits) \
	DATA sym<>+0(SB)/8, $bits; \
	DATA sym<>+8(SB)/8, $bits; \
	DATA sym<>+16(SB)/8, $bits; \
	DATA sym<>+24(SB)/8, $bits; \
	GLOBL sym<>(SB), RODATA|NOPTR, $32

VEC4(absMask, 0x7fffffffffffffff)
VEC4(signMask, 0x8000000000000000)
VEC4(one, 0x3ff0000000000000) // 1
VEC4(two, 0x4000000000000000) // 2

// math.archExp (math/exp_amd64.s): LOG2E, LN2U, LN2L, the 0.0625 argument
// scale and the Taylor coefficients exprodata+64 … exprodata+0.
VEC4(expLog2e, 0x3ff71547652b82fe)
VEC4(expLn2U, 0x3fe62e42fefa3000)
VEC4(expLn2L, 0x3d53de6af278ece6)
VEC4(expScale, 0x3fb0000000000000)
VEC4(expC64, 0x3efa01a01a01a01a)
VEC4(expC56, 0x3f2a01a01a01a01a)
VEC4(expC48, 0x3f56c16c16c16c17)
VEC4(expC40, 0x3f81111111111111)
VEC4(expC32, 0x3fa5555555555555)
VEC4(expC24, 0x3fc5555555555555)
VEC4(expHalf, 0x3fe0000000000000)

// math.tanh (math/tanh.go): tanhP, tanhQ and the branch cutoffs 0.625 and
// 0.5*MAXLOG.
VEC4(tanhP0, 0xbfeedc5baafd6f4b)
VEC4(tanhP1, 0xc058d26a0e26682d)
VEC4(tanhP2, 0xc0993ac030580563)
VEC4(tanhQ0, 0x405c33f28a581b86)
VEC4(tanhQ1, 0x40a176fa0e5535fa)
VEC4(tanhQ2, 0x40b2ec102442040c)
VEC4(tanhSmall, 0x3fe4000000000000)
VEC4(tanhBig, 0x404601e678fc457b)

// The IEEE exponent bias, as four int32 lanes.
DATA expBias<>+0(SB)/4, $0x3ff
DATA expBias<>+4(SB)/4, $0x3ff
DATA expBias<>+8(SB)/4, $0x3ff
DATA expBias<>+12(SB)/4, $0x3ff
GLOBL expBias<>(SB), RODATA|NOPTR, $16

// QUADSTEP leaves ((a0·b0 + a1·b1) + a2·b2) + a3·b3 for columns AX..AX+3
// in Y4 and jumps to done if a lane of it is NaN. Y0–Y3 hold a0–a3
// broadcast; R8–R11 point at b0–b3.
#define QUADSTEP(done) \
	VMOVUPD (R8)(AX*8), Y4; \
	VMULPD  Y0, Y4, Y4; \
	VMOVUPD (R9)(AX*8), Y5; \
	VMULPD  Y1, Y5, Y5; \
	VADDPD  Y4, Y5, Y4; \
	VMOVUPD (R10)(AX*8), Y5; \
	VMULPD  Y2, Y5, Y5; \
	VADDPD  Y4, Y5, Y4; \
	VMOVUPD (R11)(AX*8), Y5; \
	VMULPD  Y3, Y5, Y5; \
	VADDPD  Y4, Y5, Y4; \
	VCMPPD  $3, Y4, Y4, Y5; \
	VMOVMSKPD Y5, R13; \
	TESTL   R13, R13; \
	JNE     done

// LANESUM reduces the four lanes of acc to (s0+s1)+(s2+s3) in the low
// lane of accx, using X9 and X10 as scratch.
#define LANESUM(acc, accx) \
	VEXTRACTF128 $1, acc, X9; \
	VUNPCKHPD    accx, accx, X10; \
	VADDSD       X10, accx, accx; \
	VUNPCKHPD    X9, X9, X10; \
	VADDSD       X10, X9, X9; \
	VADDSD       X9, accx, accx

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func tanhAVX2(dst, src *float64, n int)
//
// All three branches of math.tanh run on every lane and blend:
//   |x| > 0.5*MAXLOG   ±1
//   |x| >= 0.625       ±(1 - 2/(exp(2|x|)+1)), exp as math.archExp's FMA
//                      path; its special cases never apply, since
//                      2|x| lies in [1.25, 88.03]
//   otherwise          x + x·s·P(s)/Q(s) with s = x², or x itself when
//                      x == ±0
// NaN fails every comparison and takes the rational branch, which returns
// x quieted, as the scalar code does.
TEXT ·tanhAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX
	VXORPD Y12, Y12, Y12

tanhLoop:
	VMOVUPD (SI)(AX*8), Y0
	VANDPD  absMask<>(SB), Y0, Y1 // z = |x|

	// exp(2z), instruction for instruction from math.archExp.
	VADDPD       Y1, Y1, Y2
	VMULPD       expLog2e<>(SB), Y2, Y3
	VCVTPD2DQY   Y3, X4              // exponent, rounded to nearest
	VCVTDQ2PD    X4, Y3
	VFNMADD231PD expLn2U<>(SB), Y3, Y2
	VFNMADD231PD expLn2L<>(SB), Y3, Y2
	VMULPD       expScale<>(SB), Y2, Y2
	VMOVUPD      expC64<>(SB), Y3
	VFMADD213PD  expC56<>(SB), Y2, Y3
	VFMADD213PD  expC48<>(SB), Y2, Y3
	VFMADD213PD  expC40<>(SB), Y2, Y3
	VFMADD213PD  expC32<>(SB), Y2, Y3
	VFMADD213PD  expC24<>(SB), Y2, Y3
	VFMADD213PD  expHalf<>(SB), Y2, Y3
	VFMADD213PD  one<>(SB), Y2, Y3
	VMULPD       Y3, Y2, Y2
	VADDPD       two<>(SB), Y2, Y3
	VMULPD       Y3, Y2, Y2
	VADDPD       two<>(SB), Y2, Y3
	VMULPD       Y3, Y2, Y2
	VADDPD       two<>(SB), Y2, Y3
	VMULPD       Y3, Y2, Y2
	VADDPD       two<>(SB), Y2, Y3
	VFMADD213PD  one<>(SB), Y3, Y2
	VPADDD       expBias<>(SB), X4, X4
	VPMOVZXDQ    X4, Y4
	VPSLLQ       $52, Y4, Y4
	VMULPD       Y4, Y2, Y2          // s = exp(2z)

	// Middle branch: 1 - 2/(s+1), then the sign of x.
	VADDPD  one<>(SB), Y2, Y2
	VMOVUPD two<>(SB), Y3
	VDIVPD  Y2, Y3, Y3
	VMOVUPD one<>(SB), Y2
	VSUBPD  Y3, Y2, Y2
	VANDPD  signMask<>(SB), Y0, Y5
	VORPD   Y5, Y2, Y2

	// Rational branch: x + x·s·P(s)/Q(s).
	VMULPD Y0, Y0, Y6
	VMULPD Y6, Y0, Y7
	VMULPD tanhP0<>(SB), Y6, Y8
	VADDPD tanhP1<>(SB), Y8, Y8
	VMULPD Y6, Y8, Y8
	VADDPD tanhP2<>(SB), Y8, Y8
	VMULPD Y7, Y8, Y8
	VADDPD tanhQ0<>(SB), Y6, Y9
	VMULPD Y6, Y9, Y9
	VADDPD tanhQ1<>(SB), Y9, Y9
	VMULPD Y6, Y9, Y9
	VADDPD tanhQ2<>(SB), Y9, Y9
	VDIVPD Y9, Y8, Y8
	VADDPD Y8, Y0, Y8

	// Blend, later branches overriding earlier ones.
	VCMPPD    $0x1d, tanhSmall<>(SB), Y1, Y10 // z >= 0.625
	VBLENDVPD Y10, Y2, Y8, Y8
	VORPD     one<>(SB), Y5, Y11              // ±1
	VCMPPD    $0x1e, tanhBig<>(SB), Y1, Y10   // z > 0.5*MAXLOG
	VBLENDVPD Y10, Y11, Y8, Y8
	VCMPPD    $0x00, Y12, Y0, Y10             // x == 0
	VBLENDVPD Y10, Y0, Y8, Y8

	VMOVUPD Y8, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     tanhLoop
	VZEROUPPER
	RET

// func quadAxpyAVX2(a0, a1, a2, a3 float64, b0, b1, b2, b3, o *float64, n int, set bool) int
TEXT ·quadAxpyAVX2(SB), NOSPLIT, $0-96
	VBROADCASTSD a0+0(FP), Y0
	VBROADCASTSD a1+8(FP), Y1
	VBROADCASTSD a2+16(FP), Y2
	VBROADCASTSD a3+24(FP), Y3
	MOVQ         b0+32(FP), R8
	MOVQ         b1+40(FP), R9
	MOVQ         b2+48(FP), R10
	MOVQ         b3+56(FP), R11
	MOVQ         o+64(FP), DI
	MOVQ         n+72(FP), CX
	MOVBQZX      set+80(FP), R12
	XORQ         AX, AX

quadLoop:
	QUADSTEP(quadDone)
	TESTQ   R12, R12
	JNE     quadStore
	VADDPD  (DI)(AX*8), Y4, Y4 // sum + o

quadStore:
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     quadLoop

quadDone:
	MOVQ AX, ret+88(FP)
	VZEROUPPER
	RET

// func productRowAVX2(a *float64, k4 int, b *float64, n int, o *float64, n4 int) (ok bool)
//
// productRow's k-quads [0, k4) over columns [0, n4) of o: the first quad
// assigns, each later one adds its sum after, as quadAxpySet and quadAxpy
// do. b is row-major with n columns. Returns false, with o[:n4] partly
// written, at the first quad sum with a NaN lane.
TEXT ·productRowAVX2(SB), NOSPLIT, $0-49
	MOVQ a+0(FP), SI
	MOVQ k4+8(FP), R12
	MOVQ b+16(FP), R8
	MOVQ n+24(FP), DX
	MOVQ o+32(FP), DI
	MOVQ n4+40(FP), CX
	SHLQ $3, DX                   // b row stride in bytes
	LEAQ (R8)(DX*1), R9
	LEAQ (R9)(DX*1), R10
	LEAQ (R10)(DX*1), R11
	VBROADCASTSD 0(SI), Y0
	VBROADCASTSD 8(SI), Y1
	VBROADCASTSD 16(SI), Y2
	VBROADCASTSD 24(SI), Y3
	XORQ AX, AX

rowSet:
	QUADSTEP(rowNaN)
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     rowSet
	MOVQ    $4, BX                // k

rowQuads:
	CMPQ         BX, R12
	JGE          rowDone
	ADDQ         $32, SI
	LEAQ         (R8)(DX*4), R8
	LEAQ         (R9)(DX*4), R9
	LEAQ         (R10)(DX*4), R10
	LEAQ         (R11)(DX*4), R11
	VBROADCASTSD 0(SI), Y0
	VBROADCASTSD 8(SI), Y1
	VBROADCASTSD 16(SI), Y2
	VBROADCASTSD 24(SI), Y3
	XORQ         AX, AX

rowAcc:
	QUADSTEP(rowNaN)
	VADDPD  (DI)(AX*8), Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     rowAcc
	ADDQ    $4, BX
	JMP     rowQuads

rowDone:
	MOVB $1, ok+48(FP)
	VZEROUPPER
	RET

rowNaN:
	MOVB $0, ok+48(FP)
	VZEROUPPER
	RET

// func dotRowsAVX2(x *float64, k int, b *float64, m int, out *float64) (nan bool)
//
// out[j] = Dot(x[:k], b[j*k:(j+1)*k]) for j < m, four rows at a time so
// four dependency chains overlap. Lane l of a row's accumulator is Dot's
// s_l; the k%4 tail adds each product after the (s0+s1)+(s2+s3) sum.
// Reports whether any out[j] is NaN.
TEXT ·dotRowsAVX2(SB), NOSPLIT, $0-41
	MOVB $0, nan+40(FP)
	MOVQ x+0(FP), SI
	MOVQ k+8(FP), DX
	MOVQ b+16(FP), R8
	MOVQ m+24(FP), CX
	MOVQ out+32(FP), DI
	MOVQ DX, R9
	ANDQ $~3, R9     // k rounded down to a multiple of 4
	MOVQ DX, R12
	SHLQ $3, R12     // row stride in bytes
	XORQ BX, BX      // j

rows4:
	LEAQ 4(BX), AX
	CMPQ AX, CX
	JGT  rows1
	LEAQ (R8)(R12*1), R10
	LEAQ (R10)(R12*1), R11
	LEAQ (R11)(R12*1), R13
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ   AX, AX
	JMP    quads4cond

quads4:
	VMOVUPD (SI)(AX*8), Y4
	VMOVUPD (R8)(AX*8), Y5
	VMULPD  Y4, Y5, Y5
	VADDPD  Y0, Y5, Y0
	VMOVUPD (R10)(AX*8), Y6
	VMULPD  Y4, Y6, Y6
	VADDPD  Y1, Y6, Y1
	VMOVUPD (R11)(AX*8), Y7
	VMULPD  Y4, Y7, Y7
	VADDPD  Y2, Y7, Y2
	VMOVUPD (R13)(AX*8), Y8
	VMULPD  Y4, Y8, Y8
	VADDPD  Y3, Y8, Y3
	ADDQ    $4, AX

quads4cond:
	CMPQ AX, R9
	JLT  quads4

	LANESUM(Y0, X0)
	LANESUM(Y1, X1)
	LANESUM(Y2, X2)
	LANESUM(Y3, X3)

tail4:
	CMPQ   AX, DX
	JGE    store4
	VMOVSD (SI)(AX*8), X4
	VMULSD (R8)(AX*8), X4, X5
	VADDSD X5, X0, X0
	VMULSD (R10)(AX*8), X4, X5
	VADDSD X5, X1, X1
	VMULSD (R11)(AX*8), X4, X5
	VADDSD X5, X2, X2
	VMULSD (R13)(AX*8), X4, X5
	VADDSD X5, X3, X3
	INCQ   AX
	JMP    tail4

store4:
	VUNPCKLPD   X1, X0, X0
	VUNPCKLPD   X3, X2, X2
	VINSERTF128 $1, X2, Y0, Y0
	VMOVUPD     Y0, (DI)(BX*8)
	VCMPPD      $3, Y0, Y0, Y1
	VMOVMSKPD   Y1, R10
	TESTL       R10, R10
	JEQ         next4
	MOVB        $1, nan+40(FP)

next4:
	ADDQ   $4, BX
	LEAQ   (R8)(R12*4), R8
	JMP    rows4

rows1:
	CMPQ   BX, CX
	JGE    done
	VXORPD Y0, Y0, Y0
	XORQ   AX, AX
	JMP    quads1cond

quads1:
	VMOVUPD (R8)(AX*8), Y5
	VMULPD  (SI)(AX*8), Y5, Y5
	VADDPD  Y0, Y5, Y0
	ADDQ    $4, AX

quads1cond:
	CMPQ AX, R9
	JLT  quads1

	LANESUM(Y0, X0)

tail1:
	CMPQ   AX, DX
	JGE    store1
	VMOVSD (SI)(AX*8), X4
	VMULSD (R8)(AX*8), X4, X5
	VADDSD X5, X0, X0
	INCQ   AX
	JMP    tail1

store1:
	VMOVSD   X0, (DI)(BX*8)
	VUCOMISD X0, X0
	JPC      next1
	MOVB     $1, nan+40(FP)

next1:
	INCQ   BX
	ADDQ   R12, R8
	JMP    rows1

done:
	VZEROUPPER
	RET
