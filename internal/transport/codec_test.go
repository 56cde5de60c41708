package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"net"
	"testing"
	"time"
)

func sameEnvelope(got, want Message) bool {
	return got.From == want.From && got.To == want.To && got.Type == want.Type &&
		got.Session == want.Session && got.ReplyAddr == want.ReplyAddr &&
		got.TraceSession == want.TraceSession &&
		got.TraceSpan == want.TraceSpan && bytes.Equal(got.Payload, want.Payload)
}

func TestBinaryEnvelopeRoundTrip(t *testing.T) {
	cases := []Message{
		{},
		{From: "A", To: "B", Type: "intersect.relay", Session: "s1", Payload: []byte(`{"x":1}`)},
		{From: "P1", To: "P2", Type: "t", Session: "s", ReplyAddr: "127.0.0.1:9000", Payload: bytes.Repeat([]byte{0x00, 0xFF, 0x7B, 0xD1}, 64)},
		{Type: "only-type"},
		{Payload: []byte{binMagic}},
		{From: "A", To: "B", Type: "audit.exec", Session: "q1", TraceSession: "q1", TraceSpan: "A:7"},
	}
	for i, want := range cases {
		body := appendBinaryMessage(nil, &want)
		got, err := decodeBinaryMessage(body)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !sameEnvelope(got, want) {
			t.Fatalf("case %d: round trip %+v != %+v", i, got, want)
		}
	}
}

// TestEarlierFrameVersionsRejected pins that frame versions 1 and 2,
// whose layouts carried a codec advertisement, are rejected rather than
// misparsed.
func TestEarlierFrameVersionsRejected(t *testing.T) {
	for _, version := range []byte{1, 2} {
		body := appendBinaryMessage(nil, &Message{From: "A", To: "B", Type: "t", TraceSpan: "A:1", Payload: []byte("p")})
		body[1] = version
		if got, err := decodeBinaryMessage(body); err == nil {
			t.Fatalf("v%d frame accepted as %+v", version, got)
		}
	}
}

// TestJSONFrameRejected pins that a frame whose body is a JSON-encoded
// Message, the retired frame encoding, is an error at the reader.
func TestJSONFrameRejected(t *testing.T) {
	body, err := json.Marshal(Message{From: "A", To: "B", Type: "t", Payload: []byte(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	buf.Write(hdr[:])
	buf.Write(body)
	if got, err := readFrame(bufio.NewReader(&buf)); err == nil {
		t.Fatalf("JSON frame accepted as %+v", got)
	}
}

func TestBinaryEnvelopeRejectsMalformed(t *testing.T) {
	good := appendBinaryMessage(nil, &Message{From: "A", To: "B", Type: "t", Session: "s", Payload: []byte("p")})
	cases := map[string][]byte{
		"empty":          {},
		"magic only":     {binMagic},
		"wrong magic":    {0x7B, binVersion},
		"wrong version":  {binMagic, 99},
		"truncated":      good[:len(good)-1],
		"trailing bytes": append(append([]byte{}, good...), 0x00),
		"length overrun": {binMagic, binVersion, 0xFF},
	}
	for name, body := range cases {
		if _, err := decodeBinaryMessage(body); err == nil {
			t.Errorf("%s: malformed frame accepted", name)
		}
	}
}

func TestBinaryFrameWireRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	msg := Message{From: "A", To: "B", Type: "t", Session: "s", TraceSession: "s", TraceSpan: "A:3", Payload: []byte("raw \x00 bytes")}
	if err := writeFrame(bw, &msg); err != nil {
		t.Fatal(err)
	}
	got, err := readFrame(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.From != "A" || string(got.Payload) != "raw \x00 bytes" || got.TraceSpan != "A:3" {
		t.Fatalf("round trip %+v", got)
	}
}

// TestBinaryFrameTooLargeOnWrite sizes the frame from a deferred body:
// an oversized body is refused before anything is written.
func TestBinaryFrameTooLargeOnWrite(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	msg := NewBinaryMessage("B", "t", "s", &testBody{Packed: make([]byte, maxFrame)})
	if err := writeFrame(bw, &msg); err == nil {
		t.Fatal("oversized binary frame written")
	}
	if buf.Len() != 0 || bw.Buffered() != 0 {
		t.Fatalf("oversized frame left %d bytes written, %d buffered", buf.Len(), bw.Buffered())
	}
}

// TestTCPFirstMessageBinary pins the single wire format: over a fresh
// TCPNetwork, an endpoint's first message to a peer it has never heard
// from arrives as a binary frame carrying a binary payload, and the
// trace context survives in both directions.
func TestTCPFirstMessageBinary(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	netA := NewTCPNetwork(map[string]string{"A": "127.0.0.1:0", "B": "127.0.0.1:0"})
	epA, err := netA.Endpoint("A")
	if err != nil {
		t.Fatal(err)
	}
	defer epA.Close()
	// B is a raw listener, so the test sees the exact bytes A frames.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	netA.Register("B", ln.Addr().String())

	if err := epA.Send(ctx, NewBinaryMessage("B", "t1", "s", &testBody{Origin: "A", Packed: []byte{1, 2, 3}})); err != nil {
		t.Fatal(err)
	}
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	br := bufio.NewReader(conn)
	head, err := br.Peek(6)
	if err != nil {
		t.Fatal(err)
	}
	if head[4] != binMagic || head[5] != binVersion {
		t.Fatalf("first frame opens % x, want binary magic and version", head[4:])
	}
	got, err := readFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	if !IsBinaryPayload(got.Payload) {
		t.Fatalf("first payload is not binary: % x", got.Payload)
	}
	var out testBody
	if err := Unmarshal(got.Payload, &out); err != nil || out.Origin != "A" || !bytes.Equal(out.Packed, []byte{1, 2, 3}) {
		t.Fatalf("decoded %+v, %v", out, err)
	}

	// Trace context crosses real endpoints both ways.
	netB := NewTCPNetwork(map[string]string{"A": epA.(*tcpEndpoint).Addr(), "B": "127.0.0.1:0"})
	epB, err := netB.Endpoint("B")
	if err != nil {
		t.Fatal(err)
	}
	defer epB.Close()
	netA.Register("B", epB.(*tcpEndpoint).Addr())
	for _, pair := range [][2]Endpoint{{epA, epB}, {epB, epA}} {
		from, to := pair[0], pair[1]
		if err := from.Send(ctx, Message{To: to.ID(), Type: "t2", Session: "s", TraceSession: "s", TraceSpan: from.ID() + ":1", Payload: []byte(`{}`)}); err != nil {
			t.Fatal(err)
		}
		msg, err := to.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if msg.TraceSpan != from.ID()+":1" || msg.TraceSession != "s" {
			t.Fatalf("%s -> %s lost trace context: %+v", from.ID(), to.ID(), msg)
		}
	}
}

// FuzzEnvelopeRoundTrip fuzzes both directions of the binary codec:
// arbitrary envelopes must round-trip bit-exactly, and arbitrary bytes
// must never panic the decoder.
func FuzzEnvelopeRoundTrip(f *testing.F) {
	f.Add("A", "B", "intersect.relay", "s1", "127.0.0.1:9", "s1", "A:1", []byte(`{"x":1}`), []byte{})
	f.Add("", "", "", "", "", "", "", []byte(nil), []byte{binMagic, binVersion})
	f.Add("P1", "P2", "union.collect", "s", "", "", "", bytes.Repeat([]byte{0xD1}, 33), []byte{binMagic, binVersion, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, from, to, typ, session, replyAddr, traceSession, traceSpan string, payload, raw []byte) {
		want := Message{From: from, To: to, Type: typ, Session: session, ReplyAddr: replyAddr, TraceSession: traceSession, TraceSpan: traceSpan, Payload: payload}
		body := appendBinaryMessage(nil, &want)
		got, err := decodeBinaryMessage(body)
		if err != nil {
			t.Fatalf("decoding own encoding: %v", err)
		}
		if !sameEnvelope(got, want) {
			t.Fatalf("round trip %+v != %+v", got, want)
		}
		// Decoder must not panic on arbitrary input; errors are fine.
		decodeBinaryMessage(raw) //nolint:errcheck
	})
}
