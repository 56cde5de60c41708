package commutative

import (
	"bytes"
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"testing"

	"confaudit/internal/mathx"
	"confaudit/internal/telemetry"
	"confaudit/internal/workpool"
)

// testKey returns a deterministic full-width key and a pooled
// short-exponent key over the group.
func testKeys(t *testing.T, g *mathx.Group) []*PHKey {
	t.Helper()
	det, err := NewPHKey(rand.New(rand.NewSource(7)), g)
	if err != nil {
		t.Fatal(err)
	}
	short, err := NewSessionKey(g)
	if err != nil {
		t.Fatal(err)
	}
	return []*PHKey{det, short}
}

func testBlocks(key *PHKey, n int) [][]byte {
	blocks := make([][]byte, n)
	for i := range blocks {
		blocks[i] = key.EncodeElement([]byte(fmt.Sprintf("element-%d", i)))
	}
	return blocks
}

// TestEncryptBlocksMatchesSerial pins the batch API to the serial loop
// byte for byte, for worker counts 1, 4, and GOMAXPROCS, for both
// full-width and pooled short-exponent keys. Run under -race by the
// pre-merge gate.
func TestEncryptBlocksMatchesSerial(t *testing.T) {
	defer func(p *workpool.Pool) { pool = p }(pool)
	g := mathx.Oakley768
	for _, key := range testKeys(t, g) {
		blocks := testBlocks(key, 37)
		want := make([][]byte, len(blocks))
		for i, b := range blocks {
			enc, err := key.Encrypt(b)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = enc
		}
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			pool = workpool.New(workers)
			got, err := key.EncryptBlocks(blocks)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("workers=%d: block %d differs from serial encryption", workers, i)
				}
			}
			dec, err := key.DecryptBlocks(got)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			for i := range blocks {
				if !bytes.Equal(dec[i], blocks[i]) {
					t.Fatalf("workers=%d: DecryptBlocks does not invert block %d", workers, i)
				}
			}
		}
	}
}

// TestPHMatchesPlainExp pins Encrypt and Decrypt on every embedded
// group to big.Int.Exp byte for byte, for full-width and short
// session keys, and checks that each modexp lands on the kernel or
// fallback counter.
func TestPHMatchesPlainExp(t *testing.T) {
	for _, g := range []*mathx.Group{mathx.Oakley768, mathx.Oakley1024, mathx.MODP1536, mathx.MODP2048} {
		kernel := telemetry.M.Counter(telemetry.CtrModexpKernel).Value()
		fallback := telemetry.M.Counter(telemetry.CtrModexpFallback).Value()
		keys := testKeys(t, g)
		blocks := testBlocks(keys[0], 3)
		for _, k := range keys {
			for i, b := range blocks {
				m := new(big.Int).SetBytes(b)
				enc, err := k.Encrypt(b)
				if err != nil {
					t.Fatal(err)
				}
				if want := k.marshalBlock(new(big.Int).Exp(m, k.e, g.P)); !bytes.Equal(enc, want) {
					t.Fatalf("%d-bit group, block %d: Encrypt differs from big.Int.Exp", g.Bits(), i)
				}
				dec, err := k.Decrypt(enc)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(dec, b) {
					t.Fatalf("%d-bit group, block %d: Decrypt does not invert Encrypt", g.Bits(), i)
				}
			}
		}
		calls := int64(2 * len(keys) * len(blocks))
		got := telemetry.M.Counter(telemetry.CtrModexpKernel).Value() - kernel +
			telemetry.M.Counter(telemetry.CtrModexpFallback).Value() - fallback
		if got != calls {
			t.Fatalf("%d-bit group: counters moved by %d, want %d", g.Bits(), got, calls)
		}
	}
}
