package transport

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"
)

// testBody is a minimal BinaryBody mirroring the relay-body shape: a
// string field plus a packed byte run.
type testBody struct {
	Origin string `json:"origin"`
	Packed []byte `json:"packed,omitempty"`
}

func (b *testBody) BinarySize() int { return 1 + len(b.Origin) + 1 + len(b.Packed) }

func (b *testBody) AppendBinary(dst []byte) []byte {
	dst = append(dst, byte(len(b.Origin)))
	dst = append(dst, b.Origin...)
	dst = append(dst, byte(len(b.Packed)))
	return append(dst, b.Packed...)
}

func (b *testBody) DecodeBinary(src []byte) error {
	if len(src) < 1 {
		return fmt.Errorf("short body")
	}
	n := int(src[0])
	src = src[1:]
	if len(src) < n+1 {
		return fmt.Errorf("short origin")
	}
	b.Origin = string(src[:n])
	src = src[n:]
	m := int(src[0])
	src = src[1:]
	if len(src) != m {
		return fmt.Errorf("bad packed length")
	}
	b.Packed = append([]byte(nil), src...)
	return nil
}

func TestBinaryPayloadRoundTrip(t *testing.T) {
	in := &testBody{Origin: "N1", Packed: []byte{1, 2, 3, 4}}
	msg := NewBinaryMessage("B", "t", "s", in)
	msg.EncodePayload()
	if !IsBinaryPayload(msg.Payload) {
		t.Fatalf("payload not binary: % x", msg.Payload)
	}
	if want := payloadHdrLen + in.BinarySize(); len(msg.Payload) != want {
		t.Fatalf("payload %d bytes, BinarySize promised %d", len(msg.Payload), want)
	}
	var out testBody
	if err := Unmarshal(msg.Payload, &out); err != nil {
		t.Fatal(err)
	}
	if out.Origin != in.Origin || !bytes.Equal(out.Packed, in.Packed) {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

// TestBinaryBodyRejectsJSONPayload pins that a body's encoding is fixed
// by its type: a JSON payload for a BinaryBody target is an error, never
// a fallback decode, and NewMessage encodes a BinaryBody as binary.
func TestBinaryBodyRejectsJSONPayload(t *testing.T) {
	in := &testBody{Origin: "N1", Packed: []byte{9, 8}}
	legacy, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out testBody
	if err := Unmarshal(legacy, &out); err == nil {
		t.Fatalf("JSON payload decoded into a binary body: %+v", out)
	}
	msg, err := NewMessage("B", "t", "s", in)
	if err != nil {
		t.Fatal(err)
	}
	msg.EncodePayload()
	if !IsBinaryPayload(msg.Payload) {
		t.Fatalf("NewMessage of a binary body produced % x", msg.Payload)
	}
	if err := Unmarshal(msg.Payload, &out); err != nil || out.Origin != "N1" || !bytes.Equal(out.Packed, in.Packed) {
		t.Fatalf("round trip %+v, %v", out, err)
	}
}

func TestBinaryPayloadVersionRejected(t *testing.T) {
	msg := NewBinaryMessage("B", "t", "s", &testBody{Origin: "x"})
	msg.EncodePayload()
	msg.Payload[1] = payloadVersion + 1
	var out testBody
	if err := Unmarshal(msg.Payload, &out); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future payload version accepted: %v", err)
	}
}

func TestBinaryPayloadNeedsBinaryBody(t *testing.T) {
	msg := NewBinaryMessage("B", "t", "s", &testBody{Origin: "x"})
	msg.EncodePayload()
	var plain struct {
		Origin string `json:"origin"`
	}
	if err := Unmarshal(msg.Payload, &plain); err == nil {
		t.Fatal("binary payload decoded into a JSON-only target")
	}
}

// TestMemNetNoAliasingAfterSend pins the zero-copy contract on the
// in-memory transport: once Send returns, the sender may mutate the
// buffers backing the body without corrupting what the receiver sees.
func TestMemNetNoAliasingAfterSend(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	net := NewMemNetwork()
	epA, err := net.Endpoint("A")
	if err != nil {
		t.Fatal(err)
	}
	epB, err := net.Endpoint("B")
	if err != nil {
		t.Fatal(err)
	}
	packed := []byte{10, 20, 30, 40}
	body := &testBody{Origin: "A", Packed: packed}
	if err := epA.Send(ctx, NewBinaryMessage("B", "t", "s", body)); err != nil {
		t.Fatal(err)
	}
	for i := range packed {
		packed[i] = 0xFF // sender reuses the buffer immediately
	}
	got, err := epB.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var out testBody
	if err := Unmarshal(got.Payload, &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Packed, []byte{10, 20, 30, 40}) {
		t.Fatalf("receiver saw mutated buffer: % x", out.Packed)
	}
}

// TestTCPNoAliasingAfterSend pins the zero-copy contract on the TCP
// path: a deferred body is encoded straight into the frame buffer, so
// once Send returns the sender may reuse the body's buffers without any
// receiver observing the mutation.
func TestTCPNoAliasingAfterSend(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	book := map[string]string{"A": "127.0.0.1:0", "B": "127.0.0.1:0", "C": "127.0.0.1:0"}
	n := NewTCPNetwork(book)
	eps := make(map[string]Endpoint, len(book))
	for id := range book {
		ep, err := n.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		eps[id] = ep
	}

	packed := []byte{1, 2, 3, 4, 5, 6}
	want := append([]byte(nil), packed...)
	body := &testBody{Origin: "A", Packed: packed}
	for _, to := range []string{"B", "C"} {
		if err := eps["A"].Send(ctx, NewBinaryMessage(to, "t", "s", body)); err != nil {
			t.Fatal(err)
		}
	}
	for i := range packed {
		packed[i] = 0xEE
	}
	for _, id := range []string{"B", "C"} {
		got, err := eps[id].Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		var out testBody
		if err := Unmarshal(got.Payload, &out); err != nil {
			t.Fatal(err)
		}
		if out.Origin != "A" || !bytes.Equal(out.Packed, want) {
			t.Fatalf("receiver %s saw %+v", id, out)
		}
	}
}
