package intersect

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"confaudit/internal/mathx"
	"confaudit/internal/smc"
	"confaudit/internal/transport"
)

// TestForgedFinalRejected has a malicious party publish a final set
// claiming another node's origin; the receiver must reject it instead
// of folding forged data into the intersection.
func TestForgedFinalRejected(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	net := transport.NewMemNetwork()
	defer net.Close() //nolint:errcheck

	cfg := Config{
		Group:     mathx.Oakley768,
		Ring:      []string{"P1", "P2"},
		Receivers: []string{"P1"},
		Session:   "forge",
	}
	mbs := make(map[string]*transport.Mailbox)
	for _, id := range []string{"P1", "P2", "M"} {
		ep, err := net.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		mbs[id] = transport.NewMailbox(ep)
		defer mbs[id].Close() //nolint:errcheck
	}

	// Mallory plants a forged "final" claiming to be P2's set before
	// the parties start, so it is parked in P1's mailbox ahead of P2's
	// real final whatever the scheduling.
	forged, err := transport.NewMessage("P1", "intersect.final", "forge", &finalBody{
		Origin:   "P2",
		BlockLen: 12,
		Packed:   []byte("forged-block"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mbs["M"].Send(ctx, forged); err != nil {
		t.Fatal(err)
	}
	var (
		wg    sync.WaitGroup
		p1Err error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, p1Err = Run(ctx, mbs["P1"], cfg, [][]byte{[]byte("a")})
	}()
	go func() {
		defer wg.Done()
		if _, err := Run(ctx, mbs["P2"], cfg, [][]byte{[]byte("a")}); err != nil {
			t.Errorf("P2: %v", err)
		}
	}()
	wg.Wait()
	if p1Err == nil {
		t.Fatal("receiver accepted a final set whose sender does not match its claimed origin")
	}
}

// TestWrongHopCountRejected delivers a relay that claims to have been
// fully encrypted after too few hops; the origin must reject it.
func TestWrongHopCountRejected(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	net := transport.NewMemNetwork()
	defer net.Close() //nolint:errcheck
	mbs := make(map[string]*transport.Mailbox)
	for _, id := range []string{"P1", "M"} {
		ep, err := net.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		mbs[id] = transport.NewMailbox(ep)
		defer mbs[id].Close() //nolint:errcheck
	}
	cfg := Config{
		Group:     mathx.Oakley768,
		Ring:      []string{"P1", "M"},
		Receivers: []string{"P1"},
		Session:   "hops",
	}
	errc := make(chan error, 1)
	go func() {
		_, err := Run(ctx, mbs["P1"], cfg, [][]byte{[]byte("x")})
		errc <- err
	}()
	// Mallory (the ring peer) "returns" P1's set claiming only 1 hop.
	msg, err := mbs["M"].Expect(ctx, "intersect.relay", "hops")
	if err != nil {
		t.Fatal(err)
	}
	var body smc.RelayWire
	if err := transport.Unmarshal(msg.Payload, &body); err != nil {
		t.Fatal(err)
	}
	// Bounce the body back with Hops not incremented: it claims a full
	// circle too early.
	reply, err := transport.NewMessage("P1", "intersect.relay", "hops", &body)
	if err != nil {
		t.Fatal(err)
	}
	if err := mbs["M"].Send(ctx, reply); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("origin accepted an under-encrypted returning set")
		}
	case <-time.After(8 * time.Second):
		t.Fatal("origin never decided")
	}
}

// runAgainstRingPeer starts P1 in a two-party ring with Mallory as its
// peer, hands Mallory P1's first relay chunk, lets inject send Mallory's
// reply, and returns the error P1's run ended with.
func runAgainstRingPeer(t *testing.T, session string, inject func(ctx context.Context, m *transport.Mailbox, p1Chunk *smc.RelayWire)) error {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	net := transport.NewMemNetwork()
	defer net.Close() //nolint:errcheck
	mbs := make(map[string]*transport.Mailbox)
	for _, id := range []string{"P1", "M"} {
		ep, err := net.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		mbs[id] = transport.NewMailbox(ep)
		defer mbs[id].Close() //nolint:errcheck
	}
	cfg := Config{
		Group:     mathx.Oakley768,
		Ring:      []string{"P1", "M"},
		Receivers: []string{"P1"},
		Session:   session,
	}
	errc := make(chan error, 1)
	go func() {
		_, err := Run(ctx, mbs["P1"], cfg, [][]byte{[]byte("x")})
		errc <- err
	}()
	msg, err := mbs["M"].Expect(ctx, msgRelay, session)
	if err != nil {
		t.Fatal(err)
	}
	var body smc.RelayWire
	if err := transport.Unmarshal(msg.Payload, &body); err != nil {
		t.Fatal(err)
	}
	inject(ctx, mbs["M"], &body)
	select {
	case err := <-errc:
		return err
	case <-time.After(8 * time.Second):
		t.Fatal("P1 never decided")
		return nil
	}
}

// TestUnframedRelayRejected has the ring peer send its set without
// chunk framing (Total 0, the pre-chunking layout, which no sender
// emits any more); the receiving party must fail the run with a
// protocol violation rather than treat it as one complete set.
func TestUnframedRelayRejected(t *testing.T) {
	err := runAgainstRingPeer(t, "unframed", func(ctx context.Context, m *transport.Mailbox, p1Chunk *smc.RelayWire) {
		blocks, err := p1Chunk.Unpack()
		if err != nil {
			t.Fatal(err)
		}
		body, err := smc.PackRelay(smc.RelayWire{Origin: "M", Hops: 1}, blocks)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Send(ctx, transport.NewBinaryMessage("P1", msgRelay, "unframed", body)); err != nil {
			t.Fatal(err)
		}
	})
	if !errors.Is(err, smc.ErrProtocol) {
		t.Fatalf("unframed relay: error %v, want ErrProtocol", err)
	}
}

// TestElementWiseRelayRejected has the ring peer send its set as the
// retired element-wise JSON relay body; the receiving party must fail
// the run on the undecodable body instead of waiting for a valid one.
func TestElementWiseRelayRejected(t *testing.T) {
	err := runAgainstRingPeer(t, "element-wise", func(ctx context.Context, m *transport.Mailbox, _ *smc.RelayWire) {
		msg, err := transport.NewMessage("P1", msgRelay, "element-wise", map[string]any{
			"origin": "M",
			"hops":   1,
			"blocks": [][]byte{[]byte("b0"), []byte("b1")},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Send(ctx, msg); err != nil {
			t.Fatal(err)
		}
	})
	if err == nil || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("element-wise relay body: error %v, want a decode failure", err)
	}
}
