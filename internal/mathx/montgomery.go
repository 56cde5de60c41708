package mathx

import (
	"errors"
	"math/big"
	"math/bits"
	"sync"
)

// Montgomery-form modular arithmetic.
//
// A Montgomery context fixes an odd modulus n and precomputes the
// constants REDC needs — R² mod n (for entering the domain), R mod n
// (the Montgomery form of 1) and n′ = -n⁻¹ mod 2⁶⁴ (the per-word
// reduction factor) — so that a modular multiplication becomes a
// word-by-word multiply-reduce over raw uint64 limbs with no division
// and no allocation. Group.Montgomery caches one context per group.
//
// The multiply follows Go's crypto/internal/fips140/bigmod: each of
// the k rows is two calls of a multiply-accumulate row kernel
// (addMulVVW). For the widths of the embedded groups — 12, 16, 24 and
// 32 limbs — the row kernel is fixed-width amd64 assembly
// (nat_amd64.s), MULX/ADCX/ADOX when the CPU has ADX and a MULQ chain
// otherwise; other widths, and purego or non-amd64 builds, run the
// portable Go row. Exp uses the assembly kernels only: without one it
// delegates to big.Int.Exp, whose own assembly beats the portable row.
// ExpBatch (montgomery_ifma.go) exponentiates eight bases per kernel
// call on CPUs with AVX-512 IFMA, for the 768- and 1024-bit widths.
//
// Results are bit-identical to math/big: the final conditional
// subtraction returns the canonical least non-negative residue, exactly
// like big.Int.Exp and big.Int.Mod. The differential tests and
// FuzzMontgomeryVsBig pin this for every kernel width, both row paths,
// random moduli, and the exponent and base edge cases. See DESIGN.md
// §7.3.

// ErrEvenModulus reports a modulus REDC cannot handle; callers fall
// back to big.Int arithmetic.
var ErrEvenModulus = errors.New("mathx: montgomery requires an odd modulus")

// Montgomery is a reusable Montgomery-arithmetic context for one odd
// modulus. It is safe for concurrent use; per-call scratch comes from
// an internal pool sized at construction so steady-state operations
// allocate only their results.
type Montgomery struct {
	mod  *big.Int
	k    int      // limb count of the modulus
	n    []uint64 // modulus limbs, little-endian
	n0   uint64   // -mod⁻¹ mod 2⁶⁴
	rr   []uint64 // R² mod n, R = 2^(64k)
	one  []uint64 // R mod n — the Montgomery form of 1
	unit []uint64 // plain 1: multiplying by it leaves the domain

	// kernel is set when the width has a fixed-width assembly row
	// kernel; Exp delegates to big.Int.Exp otherwise.
	kernel bool
	// ifma is the radix-2^52 state of the 8-lane batch kernel, set
	// when the width has one; ExpBatch uses it when the CPU does.
	ifma *ifmaCtx

	scratch sync.Pool // *montScratch
}

// montScratch holds every temporary a Montgomery operation needs, sized
// once for the context's limb count so pooled reuse is allocation-free.
type montScratch struct {
	t    []uint64 // 2k-limb product window
	a, b []uint64 // k-limb operands
	pows []uint64 // 16 k-limb window entries, one backing array
	powp [16][]uint64
}

func (m *Montgomery) newScratch() *montScratch {
	sc := &montScratch{
		t:    make([]uint64, 2*m.k),
		a:    make([]uint64, m.k),
		b:    make([]uint64, m.k),
		pows: make([]uint64, 16*m.k),
	}
	for i := range sc.powp {
		sc.powp[i] = sc.pows[i*m.k : (i+1)*m.k]
	}
	return sc
}

func (m *Montgomery) getScratch() *montScratch   { return m.scratch.Get().(*montScratch) }
func (m *Montgomery) putScratch(sc *montScratch) { m.scratch.Put(sc) }

// NewMontgomery builds a context for the given odd modulus > 1.
func NewMontgomery(mod *big.Int) (*Montgomery, error) {
	if mod == nil || mod.Sign() <= 0 || mod.Bit(0) == 0 || mod.BitLen() < 2 {
		return nil, ErrEvenModulus
	}
	k := (mod.BitLen() + 63) / 64
	m := &Montgomery{
		mod:  new(big.Int).Set(mod),
		k:    k,
		n:    natFromBig(mod, k),
		unit: make([]uint64, k),
	}
	switch k {
	case 768 / 64, 1024 / 64, 1536 / 64, 2048 / 64:
		m.kernel = haveKernels
	}
	m.unit[0] = 1
	// n0 = -n⁻¹ mod 2⁶⁴ by Newton iteration (Dussé–Kaliski).
	y := m.n[0] // n odd ⇒ invertible mod 2⁶⁴
	for i := 0; i < 5; i++ {
		y *= 2 - m.n[0]*y
	}
	m.n0 = -y
	r := new(big.Int).Lsh(big.NewInt(1), uint(64*k))
	m.rr = natFromBig(new(big.Int).Mod(new(big.Int).Mul(r, r), mod), k)
	m.one = natFromBig(new(big.Int).Mod(r, mod), k)
	m.scratch.New = func() any { return m.newScratch() }
	if haveKernels {
		m.ifma = newIFMA(m)
	}
	return m, nil
}

// Mod returns the context's modulus. Callers must not modify it.
func (m *Montgomery) Mod() *big.Int { return m.mod }

// Kernel reports whether Exp runs the fixed-width assembly kernel
// rather than delegating to big.Int.Exp.
func (m *Montgomery) Kernel() bool { return m.kernel }

// natFromBig spreads x (0 ≤ x, fitting k limbs) into little-endian
// uint64 limbs.
func natFromBig(x *big.Int, k int) []uint64 {
	out := make([]uint64, k)
	natSetBig(out, x)
	return out
}

func natSetBig(dst []uint64, x *big.Int) {
	for i := range dst {
		dst[i] = 0
	}
	if bits.UintSize == 64 {
		for i, w := range x.Bits() {
			dst[i] = uint64(w)
		}
		return
	}
	for i, w := range x.Bits() {
		dst[i/2] |= uint64(w) << (32 * uint(i%2))
	}
}

// natToBig converts limbs back to a big.Int.
func natToBig(x []uint64) *big.Int {
	if bits.UintSize == 64 {
		words := make([]big.Word, len(x))
		for i, v := range x {
			words[i] = big.Word(v)
		}
		return new(big.Int).SetBits(words)
	}
	words := make([]big.Word, 2*len(x))
	for i, v := range x {
		words[2*i] = big.Word(uint32(v))
		words[2*i+1] = big.Word(uint32(v >> 32))
	}
	return new(big.Int).SetBits(words)
}

// mul computes z = x·y·R⁻¹ mod n for x, y < n: word-by-word Montgomery
// multiplication (Gueron, "Efficient Software Implementations of
// Modular Exponentiation", Algorithm 4), with step 6's shift replaced
// by sliding the window t[i:i+k], as in bigmod's montgomeryMul. z may
// alias x or y: it is written only after the last row.
func (m *Montgomery) mul(z, x, y, t []uint64) {
	k := m.k
	t = t[:2*k]
	clear(t)
	var c uint64
	// The specialised cases run the same rows through the fixed-width
	// kernels, called directly, over array views with constant bounds.
	switch k {
	case 768 / 64:
		const k = 768 / 64
		t, x, y, n := (*[2 * k]uint64)(t), (*[k]uint64)(x), (*[k]uint64)(y), (*[k]uint64)(m.n)
		for i := 0; i < k; i++ {
			c1 := addMulVVW768(&t[i], &x[0], y[i])
			c2 := addMulVVW768(&t[i], &n[0], t[i]*m.n0)
			t[k+i], c = bits.Add64(c1, c2, c)
		}
	case 1024 / 64:
		const k = 1024 / 64
		t, x, y, n := (*[2 * k]uint64)(t), (*[k]uint64)(x), (*[k]uint64)(y), (*[k]uint64)(m.n)
		for i := 0; i < k; i++ {
			c1 := addMulVVW1024(&t[i], &x[0], y[i])
			c2 := addMulVVW1024(&t[i], &n[0], t[i]*m.n0)
			t[k+i], c = bits.Add64(c1, c2, c)
		}
	case 1536 / 64:
		const k = 1536 / 64
		t, x, y, n := (*[2 * k]uint64)(t), (*[k]uint64)(x), (*[k]uint64)(y), (*[k]uint64)(m.n)
		for i := 0; i < k; i++ {
			c1 := addMulVVW1536(&t[i], &x[0], y[i])
			c2 := addMulVVW1536(&t[i], &n[0], t[i]*m.n0)
			t[k+i], c = bits.Add64(c1, c2, c)
		}
	case 2048 / 64:
		const k = 2048 / 64
		t, x, y, n := (*[2 * k]uint64)(t), (*[k]uint64)(x), (*[k]uint64)(y), (*[k]uint64)(m.n)
		for i := 0; i < k; i++ {
			c1 := addMulVVW2048(&t[i], &x[0], y[i])
			c2 := addMulVVW2048(&t[i], &n[0], t[i]*m.n0)
			t[k+i], c = bits.Add64(c1, c2, c)
		}
	default:
		for i := 0; i < k; i++ {
			c1 := addMulVVW(t[i:k+i], x, y[i])
			c2 := addMulVVW(t[i:k+i], m.n, t[i]*m.n0)
			t[k+i], c = bits.Add64(c1, c2, c)
		}
	}
	// The window t[k:] plus the carry c is below 2n; subtract n when it
	// overflowed or is at least n. Branch-free: the difference lands in
	// the spent low half of t and a mask selects it.
	lo, hi, n, z := t[:k], t[k:2*k], m.n[:k], z[:k]
	var b uint64
	for i := range lo {
		lo[i], b = bits.Sub64(hi[i], n[i], b)
	}
	mask := -(c | (b ^ 1))
	for i := range z {
		z[i] = hi[i] ^ (mask & (hi[i] ^ lo[i]))
	}
}

// addMulVVW is the portable row: z += x·y over len(z) limbs, returning
// the carry word.
func addMulVVW(z, x []uint64, y uint64) (carry uint64) {
	x = x[:len(z)]
	for i := range z {
		hi, lo := bits.Mul64(x[i], y)
		var c uint64
		lo, c = bits.Add64(lo, z[i], 0)
		hi += c
		lo, c = bits.Add64(lo, carry, 0)
		hi += c
		z[i] = lo
		carry = hi
	}
	return carry
}

// enter converts x (canonical residue limbs) into the Montgomery
// domain: z = x·R mod n.
func (m *Montgomery) enter(z, x, t []uint64) { m.mul(z, x, m.rr, t) }

// leave converts z out of the Montgomery domain to the canonical
// residue: z = x·R⁻¹ mod n.
func (m *Montgomery) leave(z, x, t []uint64) { m.mul(z, x, m.unit, t) }

// nibble returns the i-th radix-16 digit of the exponent words.
func nibble(words []big.Word, i int) int {
	const perWord = bitsPerWord / 4
	w := i / perWord
	if w >= len(words) {
		return 0
	}
	return int(words[w]>>(4*uint(i%perWord))) & 0xF
}

// exp leaves base^e mod n, canonical, in sc.b. The exponent is read in
// fixed 4-bit windows over max(width, |e|) bits, left to right, and
// every window costs four squarings and one multiplication — a zero
// digit multiplies by the Montgomery one — so the operation count
// depends only on that nominal width, never on the exponent's digits.
func (m *Montgomery) exp(sc *montScratch, base, e *big.Int, width int) {
	if w := e.BitLen(); w > width {
		width = w
	}
	windows := (width + 3) / 4
	words := e.Bits()
	pows := &sc.powp
	// Window table: pows[0] = 1 (Montgomery one), pows[i] = base^i.
	natSetBig(sc.b, m.reduce(base))
	copy(pows[0], m.one)
	m.enter(pows[1], sc.b, sc.t)
	for i := 2; i < 16; i++ {
		m.mul(pows[i], pows[i-1], pows[1], sc.t)
	}
	acc := sc.a
	copy(acc, m.one)
	if windows > 0 {
		copy(acc, pows[nibble(words, windows-1)])
	}
	for i := windows - 2; i >= 0; i-- {
		m.mul(acc, acc, acc, sc.t)
		m.mul(acc, acc, acc, sc.t)
		m.mul(acc, acc, acc, sc.t)
		m.mul(acc, acc, acc, sc.t)
		m.mul(acc, acc, pows[nibble(words, i)], sc.t)
	}
	m.leave(sc.b, acc, sc.t)
}

// reduce returns base if already in [0, n), else the canonical residue.
func (m *Montgomery) reduce(base *big.Int) *big.Int {
	if base.Sign() < 0 || base.Cmp(m.mod) >= 0 {
		return new(big.Int).Mod(base, m.mod)
	}
	return base
}

// Exp computes base^e mod n for e ≥ 0, bit-identical to big.Int.Exp's
// canonical residue. The windows cover e's own bit length.
func (m *Montgomery) Exp(base, e *big.Int) *big.Int { return m.ExpWidth(base, e, 0) }

// ExpWidth computes base^e mod n with the windows covering
// max(width, e.BitLen()) exponent bits. Passing the exponent's nominal
// width — a key's declared size rather than the sampled value's — makes
// the multiplication count independent of the secret. Without a kernel
// for the modulus width, or for e < 0, it returns big.Int.Exp. The only
// allocation is the result.
func (m *Montgomery) ExpWidth(base, e *big.Int, width int) *big.Int {
	if !m.kernel || e.Sign() < 0 {
		return new(big.Int).Exp(base, e, m.mod)
	}
	sc := m.getScratch()
	m.exp(sc, base, e, width)
	out := natToBig(sc.b)
	m.putScratch(sc)
	return out
}
