package mathx

import (
	"math/big"
	"math/bits"
	"sync"
	"unsafe"
)

// Batched exponentiation on the 8-lane AVX-512 IFMA kernel.
//
// The Pohlig-Hellman batch calls exponentiate many bases under one
// exponent. ExpBatch runs eight of them at once: each operand is l
// radix-2^52 limbs, stored limb-major (limb j of lane k at word 8·j+k)
// so one zmm register holds the same limb of all eight operands and
// the kernel (mulIFMA<bits>, nat_amd64.s) is lane-vertical
// VPMADD52LUQ/HUQ with no shuffles. R = 2^(52·l) > 4n, so the
// almost-Montgomery product of two values below 2n stays below 2n:
// nothing is subtracted inside the exponentiation, and one branch-free
// subtraction after leaving the domain gives the canonical residue.
// See DESIGN.md §7.3.

// ifmaLanes is the number of bases one kernel call multiplies.
const ifmaLanes = 8

const mask52 = 1<<52 - 1

// ifmaCtx is a Montgomery context's radix-2^52 state for the 8-lane
// kernel. The interleaved constants hold the same value in every lane.
type ifmaCtx struct {
	l    int      // radix-2^52 limbs; R = 2^(52·l)
	n    []uint64 // modulus limbs, one copy (the kernel broadcasts them)
	n0   uint64   // -n⁻¹ mod 2^52
	rr   []uint64 // R² mod n, interleaved
	one  []uint64 // R mod n (the Montgomery one), interleaved
	unit []uint64 // plain 1: multiplying by it leaves the domain

	scratch sync.Pool // *ifmaScratch
}

// ifmaScratch holds one batch's temporaries, each l·8 words.
type ifmaScratch struct {
	x, acc []uint64
	powp   [16][]uint64
	nat    []uint64 // one lane's k-limb radix-2^64 value
}

// newIFMA builds the batch state for an m whose width has an IFMA
// kernel (k = 12 or 16 limbs), or returns nil.
func newIFMA(m *Montgomery) *ifmaCtx {
	var l int
	switch m.k {
	case 768 / 64:
		l = 15
	case 1024 / 64:
		l = 20
	default:
		return nil
	}
	c := &ifmaCtx{l: l, n: make([]uint64, l), n0: m.n0 & mask52}
	spread52(c.n, 1, 0, m.n)
	r := new(big.Int).Lsh(big.NewInt(1), uint(52*l))
	broadcast := func(v *big.Int) []uint64 {
		dst := alignedLimbs(l * ifmaLanes)
		nat := natFromBig(v, m.k)
		for lane := 0; lane < ifmaLanes; lane++ {
			spread52(dst, ifmaLanes, lane, nat)
		}
		return dst
	}
	c.rr = broadcast(new(big.Int).Mod(new(big.Int).Mul(r, r), m.mod))
	c.one = broadcast(new(big.Int).Mod(r, m.mod))
	c.unit = broadcast(big.NewInt(1))
	c.scratch.New = func() any {
		sc := &ifmaScratch{
			x:   alignedLimbs(l * ifmaLanes),
			acc: alignedLimbs(l * ifmaLanes),
			nat: make([]uint64, m.k),
		}
		pows := alignedLimbs(16 * l * ifmaLanes)
		for i := range sc.powp {
			sc.powp[i] = pows[i*l*ifmaLanes : (i+1)*l*ifmaLanes]
		}
		return sc
	}
	return c
}

// alignedLimbs returns n zeroed words starting on a 64-byte boundary,
// so each zmm load of one interleaved limb is a single cache line.
func alignedLimbs(n int) []uint64 {
	buf := make([]uint64, n+7)
	off := int((64 - uintptr(unsafe.Pointer(&buf[0]))%64) % 64 / 8)
	return buf[off : off+n : off+n]
}

// spread52 writes src (radix-2^64 limbs) into lane lane of dst as
// radix-2^52 limbs, with stride words between consecutive limbs.
func spread52(dst []uint64, stride, lane int, src []uint64) {
	for j := 0; lane+j*stride < len(dst); j++ {
		w, s := 52*j/64, uint(52*j%64)
		var v uint64
		if w < len(src) {
			v = src[w] >> s
			if s > 64-52 && w+1 < len(src) {
				v |= src[w+1] << (64 - s)
			}
		}
		dst[lane+j*stride] = v & mask52
	}
}

// gather52 inverts spread52 for one lane of an interleaved operand:
// dst receives the radix-2^64 limbs. The value must fit len(dst) limbs.
func gather52(dst, src []uint64, lane int) {
	clear(dst)
	for j := 0; lane+j*ifmaLanes < len(src); j++ {
		v := src[lane+j*ifmaLanes]
		w, s := 52*j/64, uint(52*j%64)
		if w < len(dst) {
			dst[w] |= v << s
		}
		if s > 64-52 && w+1 < len(dst) {
			dst[w+1] |= v >> (64 - s)
		}
	}
}

// mul is the 8-lane almost-Montgomery product z = x·y·R⁻¹ mod n, below
// 2n in every lane for x, y below 2n. z may alias x or y.
func (c *ifmaCtx) mul(z, x, y []uint64) {
	switch c.l {
	case 15:
		mulIFMA768(&z[0], &x[0], &y[0], &c.n[0], c.n0)
	case 20:
		mulIFMA1024(&z[0], &x[0], &y[0], &c.n[0], c.n0)
	}
}

// exp raises the eight bases in sc.x to e and leaves the results, out
// of the domain but not yet canonical (at most n), in sc.x. The window
// schedule is Montgomery.exp's: fixed 4-bit windows over
// max(width, |e|) bits, four squarings and one table multiply each,
// the table entry chosen by the exponent digit alone — so every lane
// sees the same operation sequence, and its length depends only on
// the width.
func (c *ifmaCtx) exp(sc *ifmaScratch, e *big.Int, width int) {
	if w := e.BitLen(); w > width {
		width = w
	}
	windows := (width + 3) / 4
	words := e.Bits()
	pows := &sc.powp
	copy(pows[0], c.one)
	c.mul(pows[1], sc.x, c.rr)
	for i := 2; i < 16; i++ {
		c.mul(pows[i], pows[i-1], pows[1])
	}
	acc := sc.acc
	copy(acc, c.one)
	if windows > 0 {
		copy(acc, pows[nibble(words, windows-1)])
	}
	for i := windows - 2; i >= 0; i-- {
		c.mul(acc, acc, acc)
		c.mul(acc, acc, acc)
		c.mul(acc, acc, acc)
		c.mul(acc, acc, acc)
		c.mul(acc, acc, pows[nibble(words, i)])
	}
	c.mul(sc.x, acc, c.unit)
}

// ExpBatch computes base^e mod n for every base, bit-identical to
// big.Int.Exp's canonical residue, with the windows covering
// max(width, e.BitLen()) exponent bits exactly as ExpWidth does. On a
// CPU with AVX-512 IFMA and a 768- or 1024-bit-wide modulus, groups of
// eight bases share each kernel call and a short last group is padded
// with 1s whose results are discarded; otherwise each base runs
// ExpWidth. Bases outside [0, n) are reduced first.
func (m *Montgomery) ExpBatch(bases []*big.Int, e *big.Int, width int) []*big.Int {
	out := make([]*big.Int, len(bases))
	if m.BatchLanes() == 1 || e.Sign() < 0 {
		for i, base := range bases {
			out[i] = m.ExpWidth(base, e, width)
		}
		return out
	}
	c := m.ifma
	sc := c.scratch.Get().(*ifmaScratch)
	for lo := 0; lo < len(bases); lo += ifmaLanes {
		group := bases[lo:min(lo+ifmaLanes, len(bases))]
		for lane := 0; lane < ifmaLanes; lane++ {
			if lane < len(group) {
				natSetBig(sc.nat, m.reduce(group[lane]))
			} else {
				clear(sc.nat)
				sc.nat[0] = 1
			}
			spread52(sc.x, ifmaLanes, lane, sc.nat)
		}
		c.exp(sc, e, width)
		for lane := range group {
			gather52(sc.nat, sc.x, lane)
			out[lo+lane] = natToBig(m.canonical(sc.nat))
		}
	}
	c.scratch.Put(sc)
	return out
}

// canonical subtracts n from x (x ≤ n after leaving the domain) when
// x ≥ n, without branching on the value, and returns x.
func (m *Montgomery) canonical(x []uint64) []uint64 {
	var d [2048 / 64]uint64
	var b uint64
	for i := range x {
		d[i], b = bits.Sub64(x[i], m.n[i], b)
	}
	mask := b - 1 // all ones when there was no borrow: x ≥ n
	for i := range x {
		x[i] ^= mask & (x[i] ^ d[i])
	}
	return x
}

// BatchLanes reports how many bases one ExpBatch kernel call
// exponentiates together: 8 on the IFMA path, 1 where each base runs
// ExpWidth. Callers spreading a batch over goroutines hand out groups
// of this size.
func (m *Montgomery) BatchLanes() int {
	if supportIFMA && m.ifma != nil {
		return ifmaLanes
	}
	return 1
}
