//go:build !purego

package mathx

import (
	"math/big"
	"math/rand"
	"os"
	"strings"
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

// withIFMA runs f with ExpBatch forced onto the IFMA kernel (on) or
// the row kernels (off), restoring the CPUID selection afterwards.
// Tests that use it must not run in parallel.
func withIFMA(t *testing.T, on bool, f func()) {
	t.Helper()
	if on && !hasIFMA() {
		t.Skip("CPU lacks AVX-512 IFMA: only the row kernels can run")
	}
	defer func(saved bool) { supportIFMA = saved }(supportIFMA)
	supportIFMA = on
	f()
}

// TestIFMAKernelMatchesBig checks the 8-lane multiply itself in every
// lane: z ≡ x·y·R⁻¹ (mod n), z < 2n, and every limb below 2^52, for
// operands up to the 2n−1 bound the exponentiation feeds it, including
// all lanes at 2n−1.
func TestIFMAKernelMatchesBig(t *testing.T) {
	withIFMA(t, true, func() {
		rng := rand.New(rand.NewSource(23))
		for _, kg := range batchGroups {
			p := kg.g.P
			c := kg.g.Montgomery().ifma
			k := kg.g.Montgomery().k
			twoP := new(big.Int).Lsh(p, 1)
			top := new(big.Int).Sub(twoP, big.NewInt(1))
			rInv := new(big.Int).ModInverse(new(big.Int).Lsh(big.NewInt(1), uint(52*c.l)), p)
			x, y, z := alignedLimbs(c.l*8), alignedLimbs(c.l*8), alignedLimbs(c.l*8)
			nat := make([]uint64, k+1)
			for round := 0; round < 30; round++ {
				var xs, ys [8]*big.Int
				for lane := range xs {
					xs[lane], ys[lane] = new(big.Int).Rand(rng, twoP), new(big.Int).Rand(rng, twoP)
					if round == 0 || (round == 1 && lane%2 == 0) {
						xs[lane], ys[lane] = top, top
					}
					spread52(x, 8, lane, natFromBig(xs[lane], k+1))
					spread52(y, 8, lane, natFromBig(ys[lane], k+1))
				}
				c.mul(z, x, y)
				for i, v := range z {
					if v>>52 != 0 {
						t.Fatalf("%d-bit group: limb word %d = %#x not normalised", p.BitLen(), i, v)
					}
				}
				for lane := range xs {
					gather52(nat, z, lane)
					got := natToBig(nat)
					want := new(big.Int).Mul(xs[lane], ys[lane])
					want.Mul(want, rInv).Mod(want, p)
					if got.Cmp(twoP) >= 0 || new(big.Int).Mod(got, p).Cmp(want) != 0 {
						t.Fatalf("%d-bit group, lane %d: mul = %v, want %v mod p, below 2p", p.BitLen(), lane, got, want)
					}
				}
			}
		}
	})
}

// TestMontgomeryIFMAMatchesRows evaluates the same batches on the IFMA
// kernel and on the row kernels side by side; both must equal
// big.Int.Exp.
func TestMontgomeryIFMAMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, kg := range batchGroups {
		p := kg.g.P
		mg := kg.g.Montgomery()
		bases := batchBases(rng, p, 13)
		for _, e := range []*big.Int{
			new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(kg.shortExp))),
			new(big.Int).Rand(rng, p),
		} {
			var rows, ifma []*big.Int
			withIFMA(t, false, func() {
				if mg.BatchLanes() != 1 {
					t.Fatalf("BatchLanes() = %d with IFMA off", mg.BatchLanes())
				}
				rows = mg.ExpBatch(bases, e, p.BitLen())
			})
			withIFMA(t, true, func() {
				if mg.BatchLanes() != 8 {
					t.Fatalf("BatchLanes() = %d with IFMA on", mg.BatchLanes())
				}
				ifma = mg.ExpBatch(bases, e, p.BitLen())
			})
			for i, b := range bases {
				want := expRef(b, e, p)
				if rows[i].Cmp(want) != 0 || ifma[i].Cmp(want) != 0 {
					t.Fatalf("%d-bit group, base %d: rows %v, IFMA %v, want %v", p.BitLen(), i, rows[i], ifma[i], want)
				}
			}
		}
	}
	// Widths without an IFMA kernel never take the batch path.
	for _, kg := range kernelGroups[2:] {
		withIFMA(t, true, func() {
			if n := kg.g.Montgomery().BatchLanes(); n != 1 {
				t.Fatalf("%d-bit group: BatchLanes() = %d, want 1", kg.g.P.BitLen(), n)
			}
		})
	}
}

// TestCPUProbesMatchCPUInfo checks the package's own CPUID probes
// against the flags the kernel reports in /proc/cpuinfo: adx and bmi2
// for the MULX/ADCX/ADOX rows; avx512f, avx512dq and avx512ifma for the
// batch kernel (Linux drops the avx512 flags when the OS does not save
// the zmm state, which is what the XGETBV half of hasIFMA checks).
func TestCPUProbesMatchCPUInfo(t *testing.T) {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	var flags map[string]bool
	for _, line := range strings.Split(string(raw), "\n") {
		name, val, ok := strings.Cut(line, ":")
		if ok && strings.TrimSpace(name) == "flags" {
			flags = map[string]bool{}
			for _, f := range strings.Fields(val) {
				flags[f] = true
			}
			break
		}
	}
	if flags == nil {
		t.Skip("/proc/cpuinfo lists no flags")
	}
	if want := flags["adx"] && flags["bmi2"]; hasADX() != want {
		t.Errorf("hasADX() = %v, /proc/cpuinfo adx+bmi2 = %v", hasADX(), want)
	}
	if want := flags["avx512f"] && flags["avx512dq"] && flags["avx512ifma"]; hasIFMA() != want {
		t.Errorf("hasIFMA() = %v, /proc/cpuinfo avx512f+avx512dq+avx512ifma = %v", hasIFMA(), want)
	}
}
