package smc

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"confaudit/internal/transport"
)

func TestRelayWireRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		w    RelayWire
	}{
		{"empty", RelayWire{}},
		{"packed", RelayWire{Origin: "P1", Hops: 3, Seq: 2, Total: 7, BlockLen: 96, Packed: bytes.Repeat([]byte{0xAB}, 96*4)}},
		{"final-shaped", RelayWire{Origin: "P2", BlockLen: 8, Packed: []byte{1, 2, 3, 4, 5, 6, 7, 8}}},
		{"blocks-shaped", RelayWire{Hops: 2, BlockLen: 5, Packed: []byte("plaintexts")}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			enc := tc.w.AppendBinary(nil)
			if len(enc) != tc.w.BinarySize() {
				t.Fatalf("encoded %d bytes, BinarySize promised %d", len(enc), tc.w.BinarySize())
			}
			var got RelayWire
			if err := got.DecodeBinary(enc); err != nil {
				t.Fatal(err)
			}
			if got.Origin != tc.w.Origin || got.Hops != tc.w.Hops || got.Seq != tc.w.Seq ||
				got.Total != tc.w.Total || got.BlockLen != tc.w.BlockLen {
				t.Fatalf("scalar mismatch: %+v != %+v", got, tc.w)
			}
			if !bytes.Equal(got.Packed, tc.w.Packed) {
				t.Fatalf("packed mismatch: % x != % x", got.Packed, tc.w.Packed)
			}
		})
	}
}

// TestRelayWireDecodeCopies pins the recycled-buffer contract: mutating
// the source after decode must not change the decoded body.
func TestRelayWireDecodeCopies(t *testing.T) {
	w := RelayWire{Origin: "P1", Packed: []byte{1, 2, 3, 4}}
	enc := w.AppendBinary(nil)
	var got RelayWire
	if err := got.DecodeBinary(enc); err != nil {
		t.Fatal(err)
	}
	for i := range enc {
		enc[i] = 0xFF
	}
	if !bytes.Equal(got.Packed, []byte{1, 2, 3, 4}) {
		t.Fatalf("decode aliased the source buffer: % x", got.Packed)
	}
}

func TestRelayWireDecodeRejectsMalformed(t *testing.T) {
	good := (&RelayWire{Origin: "P1", Packed: []byte{1, 2, 3}, BlockLen: 3}).AppendBinary(nil)
	// The retired element-wise encoding appended a block count and
	// length-prefixed blocks after an empty packed run.
	elementWise := append((&RelayWire{Origin: "P1"}).AppendBinary(nil), 2, 1, 0xAA, 1, 0xBB)
	cases := map[string][]byte{
		"element-wise":       elementWise,
		"empty":              {},
		"truncated origin":   good[:1],
		"truncated packed":   good[:len(good)-2],
		"trailing garbage":   append(append([]byte(nil), good...), 0x00),
		"packed length lies": append(append([]byte(nil), good[:len(good)-4]...), 0x7F, 1, 2, 3),
		"oversized uvarint":  bytes.Repeat([]byte{0xFF}, 12),
	}
	for name, src := range cases {
		var w RelayWire
		if err := w.DecodeBinary(src); err == nil {
			t.Errorf("%s: decoded", name)
		} else if !errors.Is(err, ErrBadWireValue) {
			t.Errorf("%s: error %v is not ErrBadWireValue", name, err)
		}
	}
}

// TestPackRelayRejectsNonUniform pins the sending-side check: a batch
// whose blocks do not share one nonzero width has no packed encoding
// and never reaches the wire.
func TestPackRelayRejectsNonUniform(t *testing.T) {
	for name, blocks := range map[string][][]byte{
		"mixed widths": {{1, 2}, {3}},
		"zero width":   {{}, {}},
	} {
		if _, err := PackRelay(RelayWire{Origin: "P1"}, blocks); !errors.Is(err, ErrProtocol) {
			t.Errorf("%s: error %v, want ErrProtocol", name, err)
		}
	}
	w, err := PackRelay(RelayWire{Origin: "P1"}, nil)
	if err != nil || len(w.Packed) != 0 {
		t.Fatalf("empty batch: %+v, %v", w, err)
	}
	w, err = PackRelay(RelayWire{Origin: "P1", Hops: 2}, [][]byte{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := w.Unpack()
	if err != nil || len(got) != 2 || !bytes.Equal(got[1], []byte{3, 4}) || w.Hops != 2 {
		t.Fatalf("unpacked %v, %v from %+v", got, err, w)
	}
}

// TestUnframedRelayRejected pins the end of the pre-chunking encoding:
// a relay body without chunk framing (Total 0) fails reassembly, and the
// JSON element-wise relay body it used to travel as does not decode.
// Every sender frames its stream, the empty set included.
func TestUnframedRelayRejected(t *testing.T) {
	if _, err := (&reassembly{}).add(&RelayWire{Origin: "P9", Hops: 1}, nil); !errors.Is(err, ErrProtocol) {
		t.Fatalf("unframed relay body: error %v, want ErrProtocol", err)
	}
	payload, err := json.Marshal(map[string]any{
		"origin": "P9",
		"hops":   1,
		"blocks": [][]byte{[]byte("b0"), []byte("b1")},
	})
	if err != nil {
		t.Fatal(err)
	}
	var got RelayWire
	if err := transport.Unmarshal(payload, &got); err == nil {
		t.Fatalf("element-wise JSON relay body decoded: %+v", got)
	}
	if chunks := splitChunks(nil, 64); len(chunks) != 1 {
		t.Fatalf("empty set framed as %d chunks, want 1", len(chunks))
	}
}
