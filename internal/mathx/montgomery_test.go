package mathx

import (
	"math/big"
	"math/rand"
	"sync"
	"testing"
)

// expRef is the reference the Montgomery engine must match bit for bit.
func expRef(base, e, mod *big.Int) *big.Int {
	return new(big.Int).Exp(base, e, mod)
}

func TestMontgomeryRejectsBadModuli(t *testing.T) {
	for _, mod := range []*big.Int{
		nil,
		big.NewInt(0),
		big.NewInt(-7),
		big.NewInt(1),
		big.NewInt(10),      // even
		big.NewInt(1 << 20), // even, larger
	} {
		if _, err := NewMontgomery(mod); err == nil {
			t.Errorf("NewMontgomery(%v): want error, got nil", mod)
		}
	}
}

func TestMontgomeryExpMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	moduli := []*big.Int{
		big.NewInt(3),
		big.NewInt(65537),
		new(big.Int).SetUint64(0xFFFFFFFFFFFFFFC5), // largest 64-bit prime
		Oakley768.P,
		Oakley1024.P,
		MODP1536.P,
		MODP2048.P,
	}
	// Odd non-prime modulus too: REDC needs oddness, not primality.
	composite := new(big.Int).Mul(big.NewInt(3037000493), big.NewInt(2147483647))
	moduli = append(moduli, composite)

	for _, mod := range moduli {
		mg, err := NewMontgomery(mod)
		if err != nil {
			t.Fatalf("NewMontgomery(%v): %v", mod, err)
		}
		order := new(big.Int).Sub(mod, big.NewInt(1))
		exponents := []*big.Int{
			big.NewInt(0),
			big.NewInt(1),
			big.NewInt(2),
			big.NewInt(16),
			big.NewInt(65537),
			order,                                  // group order edge
			new(big.Int).Add(order, big.NewInt(1)), // wraps the order
			new(big.Int).Lsh(big.NewInt(1), 255),   // single high bit
		}
		for i := 0; i < 6; i++ {
			e := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 256))
			exponents = append(exponents, e)
		}
		bases := []*big.Int{
			big.NewInt(0),
			big.NewInt(1),
			big.NewInt(2),
			new(big.Int).Sub(mod, big.NewInt(1)),
			new(big.Int).Add(mod, big.NewInt(5)), // out of range: reduced
		}
		for i := 0; i < 4; i++ {
			b := new(big.Int).Rand(rng, mod)
			bases = append(bases, b)
		}
		for _, base := range bases {
			for _, e := range exponents {
				got := mg.Exp(base, e)
				want := expRef(base, e, mod)
				if got.Cmp(want) != 0 {
					t.Fatalf("mod %d bits: %v^%v: got %v want %v",
						mod.BitLen(), base, e, got, want)
				}
			}
		}
	}
}

// kernelGroups are the embedded groups, one per kernel width (12, 16,
// 24 and 32 limbs), each with the short-exponent width its session
// keys declare.
var kernelGroups = []struct {
	g        *Group
	shortExp int
}{
	{Oakley768, 144},
	{Oakley1024, 160},
	{MODP1536, 192},
	{MODP2048, 224},
}

// TestMontgomeryKernelWidths is the differential test of the
// fixed-width kernels against big.Int.Exp: for each kernel width, the
// exponents 0, 1, 2, a value of exactly the declared short width, a
// full-width value and p−2, each under its own width and under the
// declared short and full widths; and the bases 0, 1, p−1, unreduced
// values and random residues.
func TestMontgomeryKernelWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, kg := range kernelGroups {
		p := kg.g.P
		mg := kg.g.Montgomery()
		if mg.Kernel() != haveKernels {
			t.Fatalf("%d-bit group: Kernel() = %v, want %v", p.BitLen(), mg.Kernel(), haveKernels)
		}
		short := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(kg.shortExp)))
		short.SetBit(short, kg.shortExp-1, 1)
		full := new(big.Int).Rand(rng, p)
		full.SetBit(full, p.BitLen()-1, 1)
		exponents := []*big.Int{
			big.NewInt(0),
			big.NewInt(1),
			big.NewInt(2),
			short,
			full,
			new(big.Int).Sub(p, big.NewInt(2)),
		}
		bases := []*big.Int{
			big.NewInt(0),
			big.NewInt(1),
			new(big.Int).Sub(p, big.NewInt(1)),
			new(big.Int).Set(p),
			new(big.Int).Add(p, big.NewInt(5)),
			new(big.Int).Lsh(p, 3),
			big.NewInt(-3),
			new(big.Int).Rand(rng, p),
			new(big.Int).Rand(rng, p),
		}
		for _, base := range bases {
			for _, e := range exponents {
				want := expRef(base, e, p)
				for _, width := range []int{0, kg.shortExp, p.BitLen()} {
					if got := mg.ExpWidth(base, e, width); got.Cmp(want) != 0 {
						t.Fatalf("%d-bit group, width %d: %v^%v: got %v want %v",
							p.BitLen(), width, base, e, got, want)
					}
				}
			}
		}
	}
}

// TestMontgomeryMulMatchesBig pins the multiply itself, fixed-width and
// portable rows alike, to x·y·R⁻¹ mod n, including operands at n−1
// where the final subtraction is taken most often.
func TestMontgomeryMulMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	moduli := []*big.Int{big.NewInt(65537)}
	for _, kg := range kernelGroups {
		moduli = append(moduli, kg.g.P)
	}
	odd := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 1088))
	moduli = append(moduli, odd.SetBit(odd, 0, 1).SetBit(odd, 1087, 1))
	for _, mod := range moduli {
		mg, err := NewMontgomery(mod)
		if err != nil {
			t.Fatal(err)
		}
		rInv := new(big.Int).ModInverse(new(big.Int).Lsh(big.NewInt(1), uint(64*mg.k)), mod)
		top := new(big.Int).Sub(mod, big.NewInt(1))
		t2 := make([]uint64, 2*mg.k)
		z := make([]uint64, mg.k)
		for i := 0; i < 40; i++ {
			x, y := new(big.Int).Rand(rng, mod), new(big.Int).Rand(rng, mod)
			switch i {
			case 0:
				x, y = top, top
			case 1:
				x = top
			}
			mg.mul(z, natFromBig(x, mg.k), natFromBig(y, mg.k), t2)
			want := new(big.Int).Mul(x, y)
			want.Mul(want, rInv).Mod(want, mod)
			if got := natToBig(z); got.Cmp(want) != 0 {
				t.Fatalf("%d-bit modulus: mul(%v, %v) = %v, want %v", mod.BitLen(), x, y, got, want)
			}
		}
	}
}

// TestMontgomeryExpAllocs pins the allocation contract: after warmup a
// kernel exponentiation allocates only its result, the big.Int and its
// limb array.
func TestMontgomeryExpAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under the race detector")
	}
	for _, kg := range kernelGroups {
		mg := kg.g.Montgomery()
		if !mg.Kernel() {
			t.Skip("no kernel on this build: Exp is big.Int.Exp")
		}
		rng := rand.New(rand.NewSource(14))
		base := new(big.Int).Rand(rng, kg.g.P)
		e := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(kg.shortExp)))
		mg.ExpWidth(base, e, kg.shortExp) // warm the scratch pool
		if allocs := testing.AllocsPerRun(20, func() { mg.ExpWidth(base, e, kg.shortExp) }); allocs > 2 {
			t.Fatalf("%d-bit group: ExpWidth allocates %.1f objects per call, want <= 2 (the result)",
				kg.g.P.BitLen(), allocs)
		}
	}
}

// TestMontgomeryConcurrent hammers the shared per-group contexts from
// many goroutines at every kernel width; run under -race this pins the
// pooled-scratch sharing.
func TestMontgomeryConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 8; i++ {
				kg := kernelGroups[(int(seed)+i)%len(kernelGroups)]
				p := kg.g.P
				base := new(big.Int).Rand(rng, p)
				e := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(kg.shortExp)))
				if kg.g.Montgomery().ExpWidth(base, e, kg.shortExp).Cmp(expRef(base, e, p)) != 0 {
					t.Errorf("concurrent mismatch (seed %d, %d bits)", seed, p.BitLen())
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

// batchGroups are the kernel groups with an 8-lane IFMA kernel.
var batchGroups = kernelGroups[:2]

// batchBases returns n bases cycling through 1, 2, p−1 and random
// residues.
func batchBases(rng *rand.Rand, p *big.Int, n int) []*big.Int {
	bases := make([]*big.Int, n)
	for i := range bases {
		switch i % 4 {
		case 0:
			bases[i] = big.NewInt(1)
		case 1:
			bases[i] = big.NewInt(2)
		case 2:
			bases[i] = new(big.Int).Sub(p, big.NewInt(1))
		default:
			bases[i] = new(big.Int).Rand(rng, p)
		}
	}
	return bases
}

// TestMontgomeryExpBatchMatchesBig is the differential test of
// ExpBatch against big.Int.Exp at the two IFMA widths: batch sizes 1
// through 17 (every partial group, one and two full ones) and 64, the
// exponents 0, 1, a value of exactly the declared short width, a
// full-width value and p−2, each under the declared short and full
// widths. Hosts without IFMA run the same cases through ExpWidth.
func TestMontgomeryExpBatchMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	sizes := []int{64}
	for n := 1; n <= 17; n++ {
		sizes = append(sizes, n)
	}
	for _, kg := range batchGroups {
		p := kg.g.P
		mg := kg.g.Montgomery()
		short := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(kg.shortExp)))
		short.SetBit(short, kg.shortExp-1, 1)
		full := new(big.Int).Rand(rng, p)
		full.SetBit(full, p.BitLen()-1, 1)
		bases := batchBases(rng, p, 64)
		for _, e := range []*big.Int{big.NewInt(0), big.NewInt(1), short, full, new(big.Int).Sub(p, big.NewInt(2))} {
			want := make([]*big.Int, len(bases))
			for i, b := range bases {
				want[i] = expRef(b, e, p)
			}
			for _, width := range []int{kg.shortExp, p.BitLen()} {
				for _, n := range sizes {
					got := mg.ExpBatch(bases[:n], e, width)
					if len(got) != n {
						t.Fatalf("%d-bit group: %d results for %d bases", p.BitLen(), len(got), n)
					}
					for i := range got {
						if got[i].Cmp(want[i]) != 0 {
							t.Fatalf("%d-bit group, batch %d, width %d, e %d bits: base %d: got %v want %v",
								p.BitLen(), n, width, e.BitLen(), i, got[i], want[i])
						}
					}
				}
			}
		}
		if out := mg.ExpBatch(nil, short, kg.shortExp); len(out) != 0 {
			t.Fatalf("%d-bit group: empty batch gave %d results", p.BitLen(), len(out))
		}
	}
}

// TestMontgomeryExpBatchLanesIndependent places one base in every lane
// of an 8-base group in turn, beside neighbours that change from run
// to run (random residues, all p−1, all 1, unreduced values); its
// result must never change.
func TestMontgomeryExpBatchLanesIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, kg := range batchGroups {
		p := kg.g.P
		mg := kg.g.Montgomery()
		e := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(kg.shortExp)))
		base := new(big.Int).Rand(rng, p)
		want := expRef(base, e, p)
		neighbours := []func() *big.Int{
			func() *big.Int { return new(big.Int).Rand(rng, p) },
			func() *big.Int { return new(big.Int).Sub(p, big.NewInt(1)) },
			func() *big.Int { return big.NewInt(1) },
			func() *big.Int { return new(big.Int).Add(p, new(big.Int).Rand(rng, p)) },
		}
		for lane := 0; lane < 8; lane++ {
			for _, nb := range neighbours {
				bases := make([]*big.Int, 8)
				for i := range bases {
					bases[i] = nb()
				}
				bases[lane] = base
				got := mg.ExpBatch(bases, e, kg.shortExp)
				if got[lane].Cmp(want) != 0 {
					t.Fatalf("%d-bit group, lane %d: result depends on the neighbours", p.BitLen(), lane)
				}
				for i, b := range bases {
					if got[i].Cmp(expRef(b, e, p)) != 0 {
						t.Fatalf("%d-bit group, lane %d: neighbour %d wrong", p.BitLen(), lane, i)
					}
				}
			}
		}
	}
}

// TestMontgomeryExpBatchConcurrent runs batches on the shared group
// contexts from several goroutines; under -race it pins the pooled
// batch scratch.
func TestMontgomeryExpBatchConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 3; i++ {
				kg := batchGroups[(int(seed)+i)%len(batchGroups)]
				p := kg.g.P
				bases := batchBases(rng, p, 11)
				e := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(kg.shortExp)))
				for j, got := range kg.g.Montgomery().ExpBatch(bases, e, kg.shortExp) {
					if got.Cmp(expRef(bases[j], e, p)) != 0 {
						t.Errorf("concurrent batch mismatch (seed %d, %d bits, base %d)", seed, p.BitLen(), j)
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

// TestBatchCanonical pins the final subtraction after leaving the
// domain. The almost-Montgomery bound gives at most n there, and n
// only for a multiple of n, which the exponentiation never forms from
// a zero base; so the batches above cannot reach the x = n case, and
// it is checked here directly, beside the radix-2^52 conversions.
func TestBatchCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, kg := range batchGroups {
		p := kg.g.P
		mg, err := NewMontgomery(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range []*big.Int{big.NewInt(0), big.NewInt(1), new(big.Int).Sub(p, big.NewInt(1)), p, new(big.Int).Rand(rng, p)} {
			want := new(big.Int).Mod(x, p)
			if got := natToBig(mg.canonical(natFromBig(x, mg.k))); got.Cmp(want) != 0 {
				t.Fatalf("%d-bit group: canonical(%v) = %v, want %v", p.BitLen(), x, got, want)
			}
			l := (p.BitLen() + 2 + 51) / 52
			spread, back := make([]uint64, 8*l), make([]uint64, mg.k)
			spread52(spread, 8, 5, natFromBig(x, mg.k))
			gather52(back, spread, 5)
			if got := natToBig(back); got.Cmp(x) != 0 {
				t.Fatalf("%d-bit group: radix-2^52 round trip of %v gave %v", p.BitLen(), x, got)
			}
		}
	}
}

// fuzzWidths are the modulus widths FuzzMontgomeryVsBig draws from:
// the four kernel widths (12, 16, 24 and 32 limbs) first, then three
// in between that run the portable row and the big.Int.Exp fallback.
var fuzzWidths = []int{768, 1024, 1536, 2048, 1088, 1408, 1728}

// FuzzMontgomeryVsBig is the differential fuzzer the acceptance
// criteria require: random moduli in the DLA range (768–2048 bits,
// derived from the fuzz input so even candidates exercise the
// rejection path), random bases, and exponents covering the 0/1/order
// edge cases, evaluated with their own width and with a declared width
// taken from sel. Any divergence from big.Int.Exp fails.
func FuzzMontgomeryVsBig(f *testing.F) {
	f.Add(int64(1), []byte{2}, []byte{3}, uint(0))
	f.Add(int64(2), []byte{0xFF, 0x01}, []byte{0}, uint(1))
	f.Add(int64(3), []byte{7, 7, 7}, []byte{1}, uint(2))
	f.Add(int64(4), []byte{}, []byte{0xAB, 0xCD}, uint(3))
	f.Add(int64(5), []byte{0x80}, []byte{0x10, 0x00}, uint(9))
	f.Add(int64(6), []byte{0xFF, 0xFF, 0xFF}, []byte{0xFF, 0xFF, 0xFF}, uint(144*7+0))
	f.Add(int64(7), []byte{0x01, 0x00}, []byte{0x80, 0x00, 0x01}, uint(160*7+1))
	f.Add(int64(8), []byte{0xC3}, []byte{0x7F, 0xFF, 0xFF, 0xFF}, uint(192*7+2))
	f.Add(int64(9), []byte{0x5A, 0xA5}, []byte{0xDE, 0xAD, 0xBE, 0xEF}, uint(224*7+3))
	f.Fuzz(func(t *testing.T, seed int64, baseBytes, expBytes []byte, sel uint) {
		rng := rand.New(rand.NewSource(seed))
		bits := fuzzWidths[sel%uint(len(fuzzWidths))]
		width := int(sel/uint(len(fuzzWidths))) % (bits + 1)
		mod := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(bits)))
		mod.SetBit(mod, bits-1, 1) // full width
		mg, err := NewMontgomery(mod)
		if mod.Bit(0) == 0 {
			if err == nil {
				t.Fatal("even modulus accepted")
			}
			mod.SetBit(mod, 0, 1)
			if mg, err = NewMontgomery(mod); err != nil {
				t.Fatalf("odd modulus rejected: %v", err)
			}
		} else if err != nil {
			t.Fatalf("odd modulus rejected: %v", err)
		}
		base := new(big.Int).SetBytes(baseBytes)
		e := new(big.Int).SetBytes(expBytes)
		order := new(big.Int).Sub(mod, big.NewInt(1))
		for _, exp := range []*big.Int{e, big.NewInt(0), big.NewInt(1), order} {
			want := expRef(base, exp, mod)
			if got := mg.Exp(base, exp); got.Cmp(want) != 0 {
				t.Fatalf("mod %d bits, e %d bits: got %v want %v",
					mod.BitLen(), exp.BitLen(), got, want)
			}
			if got := mg.ExpWidth(base, exp, width); got.Cmp(want) != 0 {
				t.Fatalf("mod %d bits, e %d bits, width %d: got %v want %v",
					mod.BitLen(), exp.BitLen(), width, got, want)
			}
			// The batch path: the fuzzed base in a group beside the
			// edge bases, so the 768- and 1024-bit draws run a
			// partial IFMA group.
			bases := []*big.Int{big.NewInt(1), base, order, big.NewInt(2)}
			for i, got := range mg.ExpBatch(bases, exp, width) {
				if want := expRef(bases[i], exp, mod); got.Cmp(want) != 0 {
					t.Fatalf("batch mod %d bits, e %d bits, width %d, base %d: got %v want %v",
						mod.BitLen(), exp.BitLen(), width, i, got, want)
				}
			}
		}
		// The fixed-base table over the same modulus must agree too.
		fb := NewFixedBase(base, mod, 256)
		if fb.Covers(e) {
			if got, want := fb.Exp(e), expRef(base, e, mod); got.Cmp(want) != 0 {
				t.Fatalf("fixedbase mod %d bits: got %v want %v", mod.BitLen(), got, want)
			}
		}
	})
}

func BenchmarkMontgomeryExp768(b *testing.B) {
	g := Oakley768
	mg, _ := NewMontgomery(g.P)
	rng := rand.New(rand.NewSource(1))
	base := new(big.Int).Rand(rng, g.P)
	e := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 144))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mg.Exp(base, e)
	}
}

// benchExpBatch times ExpBatch the way the Pohlig-Hellman batch calls
// run it: 64 bases under one session exponent at its declared width.
// It reports ns per element.
func benchExpBatch(b *testing.B, g *Group, width int) {
	rng := rand.New(rand.NewSource(1))
	mg := g.Montgomery()
	bases := make([]*big.Int, 64)
	for i := range bases {
		bases[i] = new(big.Int).Rand(rng, g.P)
	}
	e := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(width)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mg.ExpBatch(bases, e, width)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(bases)), "ns/elem")
}

func BenchmarkExpBatch768(b *testing.B)  { benchExpBatch(b, Oakley768, 144) }
func BenchmarkExpBatch1024(b *testing.B) { benchExpBatch(b, Oakley1024, 160) }

func BenchmarkBigExp768(b *testing.B) {
	g := Oakley768
	rng := rand.New(rand.NewSource(1))
	base := new(big.Int).Rand(rng, g.P)
	e := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 144))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		new(big.Int).Exp(base, e, g.P)
	}
}
