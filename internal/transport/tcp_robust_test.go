package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"testing"
	"time"
)

func contextWithTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}

// TestTCPRejectsOversizedFrame sends a hostile length prefix and
// verifies the node drops the connection rather than allocating 4 GiB.
func TestTCPRejectsOversizedFrame(t *testing.T) {
	tn := NewTCPNetwork(map[string]string{"A": "127.0.0.1:0"})
	a, err := tn.Endpoint("A")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close() //nolint:errcheck
	addr := a.(*tcpEndpoint).Addr()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close() //nolint:errcheck
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 0xFFFFFFFF)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	// The server must close the connection; a subsequent read returns
	// EOF rather than blocking.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("connection stayed open after hostile frame")
	}
}

// TestTCPDropsGarbageFrame sends a well-sized frame whose body is not
// a binary envelope; the read loop must drop the connection and keep
// serving others.
func TestTCPDropsGarbageFrame(t *testing.T) {
	tn := NewTCPNetwork(map[string]string{"A": "127.0.0.1:0", "B": "127.0.0.1:0"})
	a, err := tn.Endpoint("A")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close() //nolint:errcheck
	b, err := tn.Endpoint("B")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close() //nolint:errcheck

	// Hostile raw connection.
	conn, err := net.Dial("tcp", a.(*tcpEndpoint).Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close() //nolint:errcheck
	garbage := []byte(`{"from":"M","to":"A","type":"not a binary envelope"}`)
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(garbage)))
	if _, err := conn.Write(append(hdr[:], garbage...)); err != nil {
		t.Fatal(err)
	}

	// A legitimate peer still gets through.
	ctx := testCtx(t)
	if err := b.Send(ctx, Message{To: "A", Type: "ok"}); err != nil {
		t.Fatal(err)
	}
	got, err := a.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != "ok" {
		t.Fatalf("got %+v", got)
	}
}

// TestFrameRoundTripUnit exercises the codec directly: a deferred
// binary body is encoded into the frame and decodes on the far side.
func TestFrameRoundTripUnit(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	msg := NewBinaryMessage("B", "t", "s", &testBody{Origin: "A", Packed: []byte{7, 8}})
	msg.From = "A"
	if err := writeFrame(bw, &msg); err != nil {
		t.Fatal(err)
	}
	got, err := readFrame(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	var out testBody
	if err := Unmarshal(got.Payload, &out); err != nil {
		t.Fatal(err)
	}
	if got.From != "A" || got.To != "B" || out.Origin != "A" || !bytes.Equal(out.Packed, []byte{7, 8}) {
		t.Fatalf("round trip %+v carrying %+v", got, out)
	}
}

func TestFrameTooLargeOnWrite(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	msg := Message{To: "B", Payload: make([]byte, maxFrame+1)}
	if err := writeFrame(bw, &msg); err == nil {
		t.Fatal("oversized frame written")
	}
}

// TestTCPSendRecoversFromStaleCachedConn breaks the cached outbound
// connection under the sender's feet and verifies the next Send
// transparently redials and delivers instead of surfacing the write
// error.
func TestTCPSendRecoversFromStaleCachedConn(t *testing.T) {
	ctx := testCtx(t)
	tn := NewTCPNetwork(map[string]string{"A": "127.0.0.1:0", "B": "127.0.0.1:0"})
	a, err := tn.Endpoint("A")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close() //nolint:errcheck
	b, err := tn.Endpoint("B")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close() //nolint:errcheck

	if err := a.Send(ctx, Message{To: "B", Type: "first"}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(ctx); err != nil {
		t.Fatal(err)
	}

	// Sever the cached connection so the next write fails.
	ae := a.(*tcpEndpoint)
	ae.connMu.Lock()
	sc, ok := ae.conns["B"]
	ae.connMu.Unlock()
	if !ok {
		t.Fatal("no cached connection after first send")
	}
	sc.conn.Close() //nolint:errcheck

	if err := a.Send(ctx, Message{To: "B", Type: "second"}); err != nil {
		t.Fatalf("send over severed cached conn: %v", err)
	}
	got, err := b.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != "second" {
		t.Fatalf("got %+v", got)
	}
}

// TestTCPReconnectAfterPeerRestart restarts a peer endpoint on the same
// address and verifies senders recover (the stale-connection redial
// path).
func TestTCPReconnectAfterPeerRestart(t *testing.T) {
	ctx := testCtx(t)
	tn := NewTCPNetwork(map[string]string{"A": "127.0.0.1:0", "B": "127.0.0.1:0"})
	a, err := tn.Endpoint("A")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close() //nolint:errcheck
	b1, err := tn.Endpoint("B")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(ctx, Message{To: "B", Type: "first"}); err != nil {
		t.Fatal(err)
	}
	if _, err := b1.Recv(ctx); err != nil {
		t.Fatal(err)
	}
	// B restarts (possibly on the same port, since the old one is free).
	if err := b1.Close(); err != nil {
		t.Fatal(err)
	}
	b2, err := tn.Endpoint("B")
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close() //nolint:errcheck

	// A's EOF watchdog reaps the dead cached connection; give it a
	// moment, then sends must transparently redial.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := a.Send(ctx, Message{To: "B", Type: "second"}); err == nil {
			recvCtx, cancel := contextWithTimeout(200 * time.Millisecond)
			got, err := b2.Recv(recvCtx)
			cancel()
			if err == nil {
				if got.Type != "second" {
					t.Fatalf("got %+v", got)
				}
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("send never recovered after peer restart")
		}
		time.Sleep(50 * time.Millisecond)
	}
}
