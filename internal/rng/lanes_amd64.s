#include "textflag.h"

// kγ for k = 1…16: the offsets of one block's sixteen states from the
// state before the block. The last entry, 16γ, advances a whole block.
DATA laneGamma<>+0x00(SB)/8, $0x9e3779b97f4a7c15
DATA laneGamma<>+0x08(SB)/8, $0x3c6ef372fe94f82a
DATA laneGamma<>+0x10(SB)/8, $0xdaa66d2c7ddf743f
DATA laneGamma<>+0x18(SB)/8, $0x78dde6e5fd29f054
DATA laneGamma<>+0x20(SB)/8, $0x1715609f7c746c69
DATA laneGamma<>+0x28(SB)/8, $0xb54cda58fbbee87e
DATA laneGamma<>+0x30(SB)/8, $0x538454127b096493
DATA laneGamma<>+0x38(SB)/8, $0xf1bbcdcbfa53e0a8
DATA laneGamma<>+0x40(SB)/8, $0x8ff34785799e5cbd
DATA laneGamma<>+0x48(SB)/8, $0x2e2ac13ef8e8d8d2
DATA laneGamma<>+0x50(SB)/8, $0xcc623af8783354e7
DATA laneGamma<>+0x58(SB)/8, $0x6a99b4b1f77dd0fc
DATA laneGamma<>+0x60(SB)/8, $0x08d12e6b76c84d11
DATA laneGamma<>+0x68(SB)/8, $0xa708a824f612c926
DATA laneGamma<>+0x70(SB)/8, $0x454021de755d453b
DATA laneGamma<>+0x78(SB)/8, $0xe3779b97f4a7c150
GLOBL laneGamma<>(SB), RODATA|NOPTR, $128

// func scan16(s, t11 uint64, blocks int) int
//
// Z1 holds the states s+γ … s+8γ and Z2 s+9γ … s+16γ. Each iteration
// mixes both, compares the mixed values with t11 into K1 and K2, and
// moves every lane on by 16γ.
TEXT ·scan16(SB), NOSPLIT, $0-32
	MOVQ s+0(FP), AX
	MOVQ t11+8(FP), BX
	MOVQ blocks+16(FP), CX
	XORQ DI, DI // blocks scanned

	VPBROADCASTQ AX, Z0
	VPADDQ       laneGamma<>+0x00(SB), Z0, Z1
	VPADDQ       laneGamma<>+0x40(SB), Z0, Z2
	VPBROADCASTQ laneGamma<>+0x78(SB), Z3
	MOVQ         $0xbf58476d1ce4e5b9, DX
	VPBROADCASTQ DX, Z4
	MOVQ         $0x94d049bb133111eb, DX
	VPBROADCASTQ DX, Z5
	VPBROADCASTQ BX, Z6

loop:
	VPSRLQ   $30, Z1, Z7
	VPSRLQ   $30, Z2, Z8
	VPXORQ   Z1, Z7, Z7
	VPXORQ   Z2, Z8, Z8
	VPMULLQ  Z4, Z7, Z7
	VPMULLQ  Z4, Z8, Z8
	VPSRLQ   $27, Z7, Z9
	VPSRLQ   $27, Z8, Z10
	VPXORQ   Z9, Z7, Z7
	VPXORQ   Z10, Z8, Z8
	VPMULLQ  Z5, Z7, Z7
	VPMULLQ  Z5, Z8, Z8
	VPSRLQ   $31, Z7, Z9
	VPSRLQ   $31, Z8, Z10
	VPXORQ   Z9, Z7, Z7
	VPXORQ   Z10, Z8, Z8
	VPCMPUQ  $1, Z6, Z7, K1 // lane < t11, unsigned
	VPCMPUQ  $1, Z6, Z8, K2
	KORTESTB K1, K2
	JNE      found
	VPADDQ   Z3, Z1, Z1
	VPADDQ   Z3, Z2, Z2
	INCQ     DI
	CMPQ     DI, CX
	JLT      loop

	MOVQ $0, ret+24(FP)
	VZEROUPPER
	RET

found:
	// The lowest set bit of K2:K1 is the block's first success.
	KMOVB  K1, AX
	KMOVB  K2, DX
	SHLL   $8, DX
	ORL    DX, AX
	BSFL   AX, AX
	SHLQ   $4, DI
	LEAQ   1(DI)(AX*1), AX
	MOVQ   AX, ret+24(FP)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
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
