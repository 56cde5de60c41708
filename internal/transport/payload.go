package transport

import (
	"encoding/json"
	"fmt"
)

// Binary payload codec.
//
// A protocol body that implements BinaryBody rides the wire in a
// compact binary payload encoding and — on the TCP path — is appended
// STRAIGHT into the envelope codec's pooled frame buffer, so a packed
// relay run goes from the protocol to the socket without an
// intermediate payload allocation or copy.
//
// A body's payload encoding is fixed by its type: a BinaryBody always
// travels binary, any other body as JSON. NewMessage and
// NewBinaryMessage store a binary body un-encoded on the Message and
// the transport encodes it at send time — the in-memory network into a
// fresh payload buffer, the TCP endpoint straight into its frame
// buffer. Unmarshal picks the decoder from the target type the same
// way, so a JSON payload for a binary body (or the reverse) is an
// error, never a fallback. After Send returns the caller may freely
// reuse the buffers backing the body: every encode path copies into
// memory the sender does not retain (the aliasing regression tests pin
// this).

// BinaryBody is implemented by protocol bodies with a compact binary
// payload encoding. AppendBinary must append
// exactly BinarySize bytes and must not retain dst; DecodeBinary must
// copy what it keeps, since the source buffer is recycled.
type BinaryBody interface {
	// BinarySize returns the exact encoded size in bytes, excluding the
	// payload codec header.
	BinarySize() int
	// AppendBinary appends the encoding to dst and returns the extended
	// slice.
	AppendBinary(dst []byte) []byte
	// DecodeBinary decodes an encoding produced by AppendBinary.
	DecodeBinary(src []byte) error
}

const (
	// payloadMagic opens every binary payload; a JSON object cannot
	// start with it ('{' is 0x7B).
	payloadMagic = 0xB7
	// payloadVersion is the binary payload codec version.
	payloadVersion = 1
	// payloadHdrLen is the codec header: magic + version.
	payloadHdrLen = 2
)

// NewBinaryMessage builds a message whose binary payload encoding is
// deferred to the transport. The body must not be mutated until Send
// returns.
func NewBinaryMessage(to, typ, session string, body BinaryBody) Message {
	return Message{To: to, Type: typ, Session: session, body: body}
}

// appendBinaryPayload appends the payload codec header and body
// encoding to dst.
func appendBinaryPayload(dst []byte, body BinaryBody) []byte {
	dst = append(dst, payloadMagic, payloadVersion)
	return body.AppendBinary(dst)
}

// EncodePayload materializes a deferred body into Payload — used by the
// in-process transport and by callers that spool a message's bytes for
// later replay. No-op when no body is pending.
func (m *Message) EncodePayload() {
	if m.body == nil {
		return
	}
	buf := make([]byte, 0, payloadHdrLen+m.body.BinarySize())
	m.Payload = appendBinaryPayload(buf, m.body)
	m.body = nil
}

// IsBinaryPayload reports whether a payload carries the binary payload
// codec header.
func IsBinaryPayload(payload []byte) bool {
	return len(payload) >= payloadHdrLen && payload[0] == payloadMagic
}

// Unmarshal decodes a message payload into a protocol body. A
// BinaryBody target accepts only a binary payload; any other target
// decodes JSON.
func Unmarshal(payload []byte, v any) error {
	if bb, ok := v.(BinaryBody); ok {
		if !IsBinaryPayload(payload) {
			return fmt.Errorf("transport: %T payload is not binary", v)
		}
		if payload[1] != payloadVersion {
			return fmt.Errorf("transport: unsupported binary payload version %d", payload[1])
		}
		if err := bb.DecodeBinary(payload[payloadHdrLen:]); err != nil {
			return fmt.Errorf("transport: decoding binary payload: %w", err)
		}
		return nil
	}
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("transport: decoding payload: %w", err)
	}
	return nil
}
