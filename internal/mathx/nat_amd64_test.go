//go:build !purego

package mathx

import (
	"math/big"
	"math/rand"
	"testing"
)

// withADX runs f with the row kernels forced onto the ADX path (on) or
// the MULQ path (off), restoring the CPUID selection afterwards. Tests
// that use it must not run in parallel.
func withADX(t *testing.T, on bool, f func()) {
	t.Helper()
	if on && !hasADX() {
		t.Skip("CPU lacks ADX/BMI2: only the MULQ path can run")
	}
	defer func(saved bool) { supportADX = saved }(supportADX)
	supportADX = on
	f()
}

// TestRowKernelsMatchPortable runs every fixed-width row kernel on both
// carry-chain paths against the portable row, including all-ones
// operands that carry out of every limb.
func TestRowKernelsMatchPortable(t *testing.T) {
	kernels := map[int]func(z, x *uint64, y uint64) uint64{
		768: addMulVVW768, 1024: addMulVVW1024, 1536: addMulVVW1536, 2048: addMulVVW2048,
	}
	rng := rand.New(rand.NewSource(21))
	for _, adx := range []bool{false, true} {
		t.Run(map[bool]string{false: "MULQ", true: "ADX"}[adx], func(t *testing.T) {
			withADX(t, adx, func() {
				for bits, kernel := range kernels {
					k := bits / 64
					for i := 0; i < 50; i++ {
						z, x := make([]uint64, k), make([]uint64, k)
						y := rng.Uint64()
						for j := range z {
							z[j], x[j] = rng.Uint64(), rng.Uint64()
						}
						if i == 0 {
							for j := range z {
								z[j], x[j] = ^uint64(0), ^uint64(0)
							}
							y = ^uint64(0)
						}
						want := append([]uint64(nil), z...)
						wantC := addMulVVW(want, x, y)
						if c := kernel(&z[0], &x[0], y); c != wantC {
							t.Fatalf("addMulVVW%d: carry %#x, want %#x", bits, c, wantC)
						}
						for j := range z {
							if z[j] != want[j] {
								t.Fatalf("addMulVVW%d: limb %d = %#x, want %#x", bits, j, z[j], want[j])
							}
						}
					}
				}
			})
		})
	}
}

// TestMontgomeryADXMatchesMULQ evaluates the same exponentiations on
// the ADX and MULQ paths side by side at every kernel width; both must
// equal big.Int.Exp.
func TestMontgomeryADXMatchesMULQ(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, kg := range kernelGroups {
		p := kg.g.P
		mg := kg.g.Montgomery()
		for i := 0; i < 4; i++ {
			base := new(big.Int).Rand(rng, p)
			e := new(big.Int).Rand(rng, p)
			want := expRef(base, e, p)
			var mulq, adx *big.Int
			withADX(t, false, func() { mulq = mg.ExpWidth(base, e, p.BitLen()) })
			withADX(t, true, func() { adx = mg.ExpWidth(base, e, p.BitLen()) })
			if mulq.Cmp(want) != 0 || adx.Cmp(want) != 0 {
				t.Fatalf("%d-bit group: MULQ %v, ADX %v, want %v", p.BitLen(), mulq, adx, want)
			}
		}
	}
}
