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

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

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
