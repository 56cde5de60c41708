package commutative

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"sync"

	"confaudit/internal/mathx"
)

// KeySource supplies per-session Pohlig-Hellman keys to the SMC
// protocols. The default source is a shared pool that pregenerates keys
// off the critical path; tests substitute deterministic sources.
type KeySource interface {
	// Key returns a fresh key over the group. Keys must never be
	// reused across protocol sessions.
	Key(g *mathx.Group) (*PHKey, error)
}

// shortExpBitsFor returns the bit length of pooled encryption
// exponents for a group of the given modulus width. Recovering a short
// exponent from M and M^e mod p costs ~2^(bits/2) group operations
// (Pollard lambda over the exponent interval), so the schedule sizes
// exponents at twice the modulus's index-calculus strength — the same
// matching rule RFC 7919 applies to DH private exponents. The discrete
// log of the MODULUS therefore remains the weakest link exactly as
// with full-width exponents, while modular exponentiation, whose cost
// is linear in exponent bits, stops paying for security the group
// cannot deliver (256→144 bits is ~1.7x on the 768-bit group).
//
// The decryption exponent d = e^-1 mod p-1 is full width regardless,
// so only encryption gets cheaper.
func shortExpBitsFor(groupBits int) int {
	switch {
	case groupBits <= 768:
		return 144 // ~2^72 lambda vs ~2^66 index calculus
	case groupBits <= 1024:
		return 160 // ~2^80 vs ~2^80
	case groupBits <= 1536:
		return 192 // ~2^96 vs ~2^90
	case groupBits <= 2048:
		return 224 // ~2^112 vs ~2^110
	default:
		return 256
	}
}

// NewSessionKey samples a Pohlig-Hellman key with a short encryption
// exponent, the form the pool pregenerates. The key is drawn from
// crypto/rand; use NewPHKey with an explicit reader for deterministic
// full-width keys.
func NewSessionKey(g *mathx.Group) (*PHKey, error) {
	pm1 := new(big.Int).Sub(g.P, big.NewInt(1))
	bits := min(shortExpBitsFor(g.P.BitLen()), g.P.BitLen())
	e, err := mathx.RandCoprimeBits(rand.Reader, pm1, bits)
	if err != nil {
		return nil, fmt.Errorf("commutative: sampling pooled exponent: %w", err)
	}
	d, err := mathx.InverseMod(e, pm1)
	if err != nil {
		return nil, fmt.Errorf("commutative: inverting pooled exponent: %w", err)
	}
	return &PHKey{group: g, e: e, d: d, eBits: bits}, nil
}

// Pool pregenerates session keys per group on background goroutines so
// protocol hot paths draw a ready key in O(1). It is safe for
// concurrent use. Keys are handed out exactly once; a drained pool
// generates inline and triggers an asynchronous refill.
type Pool struct {
	target int

	mu      sync.Mutex
	ready   map[string][]*PHKey // modulus (decimal) -> ready keys
	filling map[string]bool
}

// NewPool creates a pool that keeps up to target ready keys per group.
func NewPool(target int) *Pool {
	if target < 1 {
		target = 1
	}
	return &Pool{
		target:  target,
		ready:   make(map[string][]*PHKey),
		filling: make(map[string]bool),
	}
}

// SharedPool is the process-wide default key source, used by the SMC
// protocols when the caller supplies neither a Rand override nor an
// explicit KeySource.
var SharedPool = NewPool(8)

var _ KeySource = (*Pool)(nil)

// Key pops a pregenerated key for the group, generating inline if the
// pool is empty, and kicks off an asynchronous refill either way.
func (p *Pool) Key(g *mathx.Group) (*PHKey, error) {
	id := g.P.Text(10)
	p.mu.Lock()
	var key *PHKey
	if q := p.ready[id]; len(q) > 0 {
		key = q[len(q)-1]
		q[len(q)-1] = nil
		p.ready[id] = q[:len(q)-1]
	}
	p.maybeRefillLocked(id, g)
	p.mu.Unlock()
	if key != nil {
		return key, nil
	}
	return NewSessionKey(g)
}

// maybeRefillLocked starts one transient refill goroutine for the group
// unless one is already running or the pool is full. Caller holds p.mu.
func (p *Pool) maybeRefillLocked(id string, g *mathx.Group) {
	if p.filling[id] || len(p.ready[id]) >= p.target {
		return
	}
	p.filling[id] = true
	go p.refill(id, g)
}

// refill tops the group's queue up to target and exits; the goroutine
// is transient so an idle process holds no background workers.
func (p *Pool) refill(id string, g *mathx.Group) {
	for {
		p.mu.Lock()
		if len(p.ready[id]) >= p.target {
			p.filling[id] = false
			p.mu.Unlock()
			return
		}
		p.mu.Unlock()
		key, err := NewSessionKey(g)
		if err != nil {
			// Out of entropy is unrecoverable here; leave the pool
			// empty and let the next draw surface the error inline.
			p.mu.Lock()
			p.filling[id] = false
			p.mu.Unlock()
			return
		}
		p.mu.Lock()
		p.ready[id] = append(p.ready[id], key)
		p.mu.Unlock()
	}
}

// Len reports the number of ready keys for the group (tests).
func (p *Pool) Len(g *mathx.Group) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.ready[g.P.Text(10)])
}
