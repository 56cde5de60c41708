package commutative

import (
	"bytes"
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"strings"
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

// modexpCount is the sum of the three modexp counters: every
// exponentiation lands on exactly one of them.
func modexpCount() int64 {
	return telemetry.M.Counter(telemetry.CtrModexpKernel).Value() +
		telemetry.M.Counter(telemetry.CtrModexpFallback).Value() +
		telemetry.M.Counter(telemetry.CtrModexpIFMA).Value()
}

// TestPHMatchesPlainExp pins Encrypt and Decrypt on every embedded
// group to big.Int.Exp byte for byte, for full-width and short
// session keys, and the batch calls to the same values at worker
// counts 1, 4 and GOMAXPROCS (13 blocks: one full 8-lane group and a
// padded one on the IFMA path). It checks that each modexp, single or
// batched, lands on exactly one of the kernel, IFMA and fallback
// counters — pad lanes not counted.
func TestPHMatchesPlainExp(t *testing.T) {
	defer func(p *workpool.Pool) { pool = p }(pool)
	for _, g := range []*mathx.Group{mathx.Oakley768, mathx.Oakley1024, mathx.MODP1536, mathx.MODP2048} {
		before := modexpCount()
		keys := testKeys(t, g)
		blocks := testBlocks(keys[0], 13)
		for _, k := range keys {
			want := make([][]byte, len(blocks))
			for i, b := range blocks {
				m := new(big.Int).SetBytes(b)
				enc, err := k.Encrypt(b)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = k.marshalBlock(new(big.Int).Exp(m, k.e, g.P))
				if !bytes.Equal(enc, want[i]) {
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
			for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
				pool = workpool.New(workers)
				enc, err := k.EncryptBlocks(blocks)
				if err != nil {
					t.Fatal(err)
				}
				dec, err := k.DecryptBlocks(enc)
				if err != nil {
					t.Fatal(err)
				}
				for i := range blocks {
					if !bytes.Equal(enc[i], want[i]) || !bytes.Equal(dec[i], blocks[i]) {
						t.Fatalf("%d-bit group, workers=%d, block %d: batch differs from big.Int.Exp", g.Bits(), workers, i)
					}
				}
			}
		}
		calls := int64(2 * len(keys) * len(blocks) * 4) // single calls and three batch rounds
		if got := modexpCount() - before; got != calls {
			t.Fatalf("%d-bit group: counters moved by %d, want %d", g.Bits(), got, calls)
		}
	}
}

// TestPHBlocksBadBlockIndex puts one invalid block at every position
// of a batch spanning three 8-block groups: the batch must fail and
// name that block's own index, whichever group or lane it sits in.
func TestPHBlocksBadBlockIndex(t *testing.T) {
	g := mathx.Oakley768
	for _, key := range testKeys(t, g) {
		blocks := testBlocks(key, 20)
		for bad := 0; bad < len(blocks); bad++ {
			in := append([][]byte(nil), blocks...)
			in[bad] = make([]byte, key.BlockSize()) // zero: not a group element
			if bad%3 == 0 {
				in[bad] = in[bad][1:] // wrong width
			}
			for name, op := range map[string]func([][]byte) ([][]byte, error){
				"encrypting": key.EncryptBlocks, "decrypting": key.DecryptBlocks,
			} {
				_, err := op(in)
				if err == nil {
					t.Fatalf("%s: bad block %d accepted", name, bad)
				}
				if want := fmt.Sprintf("%s block %d:", name, bad); !strings.Contains(err.Error(), want) {
					t.Fatalf("%s: bad block %d: error %q does not name it", name, bad, err)
				}
			}
		}
	}
}

// BenchmarkPHEncryptBlocks768 times the batch call the ring relay
// runs: 64 blocks under a pooled short-exponent session key, on the
// shared worker pool. It reports µs per element.
func BenchmarkPHEncryptBlocks768(b *testing.B) {
	k, err := NewSessionKey(mathx.Oakley768)
	if err != nil {
		b.Fatal(err)
	}
	blocks := testBlocks(k, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.EncryptBlocks(blocks); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(blocks)), "us/elem")
}
