// Copyright 2023 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE.golang file.

//go:build !purego

package mathx

//go:generate go run _asm/nat_amd64_asm.go -out nat_amd64.s

// The amd64 row kernels run two carry chains in the flags at once with
// MULX/ADCX/ADOX when the CPU has ADX and BMI2, and fall back to a
// MULQ chain otherwise. The probe is the package's own CPUID (the
// module has no dependencies to borrow one from); the kernels branch
// on supportADX at entry.
var supportADX = hasADX()

// hasADX reports CPUID.(EAX=7,ECX=0):EBX bits 8 (BMI2, for MULX) and
// 19 (ADX).
func hasADX() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<8) != 0 && ebx&(1<<19) != 0
}

// supportIFMA selects the 8-lane AVX-512 IFMA multiply under
// Montgomery.ExpBatch; without it batches run the row kernels one base
// at a time.
var supportIFMA = hasIFMA()

// hasIFMA reports CPUID.(EAX=7,ECX=0):EBX bits 16 (AVX512F), 17
// (AVX512DQ) and 21 (AVX512_IFMA), with the OS saving the opmask and
// all 32 zmm registers: CPUID.1:ECX bit 27 (OSXSAVE) and XCR0 bits 1, 2
// (XMM, YMM) and 5–7 (opmask, ZMM_Hi256, Hi16_ZMM).
func hasIFMA() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(1<<27) == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&0xE6 != 0xE6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	const want = 1<<16 | 1<<17 | 1<<21
	return ebx&want == want
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0, the OS-enabled register state.
func xgetbv() (eax, edx uint32)

// haveKernels reports that the addMulVVW<bits> row kernels are
// assembly.
const haveKernels = true

//go:noescape
func addMulVVW768(z, x *uint64, y uint64) (c uint64)

//go:noescape
func addMulVVW1024(z, x *uint64, y uint64) (c uint64)

//go:noescape
func addMulVVW1536(z, x *uint64, y uint64) (c uint64)

//go:noescape
func addMulVVW2048(z, x *uint64, y uint64) (c uint64)

//go:noescape
func mulIFMA768(z, x, y, n *uint64, n0 uint64)

//go:noescape
func mulIFMA1024(z, x, y, n *uint64, n0 uint64)
