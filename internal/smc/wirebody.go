package smc

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"confaudit/internal/telemetry"
)

// Shared binary payload encoding for the ring-relay body shape.
//
// Every relay-style body in the SMC protocols (intersect/union relay
// chunks, final-set publications, union collect/decrypt/result
// batches) is the same six fields: an origin, small integer framing
// (hops, chunk seq/total, block width), and the block batch as one
// packed run. RelayWire is that shape and its binary encoding, so each
// protocol's body is a RelayWire rather than a re-derived codec.
//
// Layout (all integers uvarint):
//
//	len(Origin) ‖ Origin ‖ Hops ‖ Seq ‖ Total ‖ BlockLen ‖ len(Packed) ‖ Packed
//
// Every commutative-cipher block is exactly PHKey.BlockSize() wide
// (Encrypt and Decrypt check the input width and pad the output), so a
// batch always packs into one contiguous run. The packed run rides the
// wire raw: no per-element framing, and on the TCP path it is appended
// straight into the envelope codec's pooled frame buffer (BinarySize is
// exact, so the frame length prefix can be written first). Only block
// count and width — sizes and counts, the secondary information
// Definition 1 permits — are visible in the framing.

// RelayWire is the relay-shaped body. Fields a protocol phase does not
// use encode as zero and cost one byte each.
type RelayWire struct {
	Origin   string
	Hops     int
	Seq      int
	Total    int
	BlockLen int
	Packed   []byte
}

// PackRelay returns w carrying blocks as its packed run. A batch whose
// blocks do not share one nonzero width has no packed encoding, and no
// correct sender produces one: it is ErrProtocol, raised here on the
// sending side.
func PackRelay(w RelayWire, blocks [][]byte) (*RelayWire, error) {
	w.Packed, w.BlockLen = nil, 0
	if len(blocks) > 0 {
		w.BlockLen = len(blocks[0])
		w.Packed = make([]byte, 0, w.BlockLen*len(blocks))
	}
	for i, b := range blocks {
		if len(b) != w.BlockLen || w.BlockLen == 0 {
			return nil, fmt.Errorf("%w: block %d is %d bytes in a batch of %d-byte blocks", ErrProtocol, i, len(b), w.BlockLen)
		}
		w.Packed = append(w.Packed, b...)
	}
	telemetry.M.Counter(telemetry.CtrCodecBytesSent).Add(int64(len(w.Packed)))
	return &w, nil
}

// Unpack returns the blocks of the packed run, sub-slicing (not
// copying) Packed.
func (w *RelayWire) Unpack() ([][]byte, error) {
	if len(w.Packed) == 0 {
		return nil, nil
	}
	if w.BlockLen <= 0 || len(w.Packed)%w.BlockLen != 0 {
		return nil, fmt.Errorf("%w: packed run of %d bytes is not a multiple of block width %d", ErrProtocol, len(w.Packed), w.BlockLen)
	}
	out := make([][]byte, len(w.Packed)/w.BlockLen)
	for i := range out {
		out[i] = w.Packed[i*w.BlockLen : (i+1)*w.BlockLen : (i+1)*w.BlockLen]
	}
	return out, nil
}

// uvarintLen is the encoded size of v.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// BinarySize returns the exact encoded size in bytes.
func (w *RelayWire) BinarySize() int {
	n := uvarintLen(uint64(len(w.Origin))) + len(w.Origin)
	n += uvarintLen(uint64(w.Hops))
	n += uvarintLen(uint64(w.Seq))
	n += uvarintLen(uint64(w.Total))
	n += uvarintLen(uint64(w.BlockLen))
	return n + uvarintLen(uint64(len(w.Packed))) + len(w.Packed)
}

// AppendBinary appends the encoding to dst and returns the extended
// slice. It appends exactly BinarySize bytes and retains nothing.
func (w *RelayWire) AppendBinary(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(w.Origin)))
	dst = append(dst, w.Origin...)
	dst = binary.AppendUvarint(dst, uint64(w.Hops))
	dst = binary.AppendUvarint(dst, uint64(w.Seq))
	dst = binary.AppendUvarint(dst, uint64(w.Total))
	dst = binary.AppendUvarint(dst, uint64(w.BlockLen))
	dst = binary.AppendUvarint(dst, uint64(len(w.Packed)))
	return append(dst, w.Packed...)
}

// DecodeBinary decodes an encoding produced by AppendBinary into w,
// copying everything it keeps — the source buffer may be recycled by
// the transport after the call.
func (w *RelayWire) DecodeBinary(src []byte) error {
	rest := src
	num := func() (uint64, error) {
		v, sz := binary.Uvarint(rest)
		if sz <= 0 {
			return 0, fmt.Errorf("%w: truncated relay wire body", ErrBadWireValue)
		}
		rest = rest[sz:]
		return v, nil
	}
	run := func() ([]byte, error) {
		n, err := num()
		if err != nil {
			return nil, err
		}
		if n > uint64(len(rest)) {
			return nil, fmt.Errorf("%w: relay wire run of %d bytes exceeds remaining %d", ErrBadWireValue, n, len(rest))
		}
		b := rest[:n]
		rest = rest[n:]
		return b, nil
	}
	small := func() (int, error) {
		v, err := num()
		if err != nil {
			return 0, err
		}
		// Counts and widths are bounded by the frame they arrived in;
		// anything wider than 32 bits is a hostile encoding.
		if v > 1<<31 {
			return 0, fmt.Errorf("%w: relay wire field %d out of range", ErrBadWireValue, v)
		}
		return int(v), nil
	}

	origin, err := run()
	if err != nil {
		return err
	}
	w.Origin = string(origin)
	if w.Hops, err = small(); err != nil {
		return err
	}
	if w.Seq, err = small(); err != nil {
		return err
	}
	if w.Total, err = small(); err != nil {
		return err
	}
	if w.BlockLen, err = small(); err != nil {
		return err
	}
	packed, err := run()
	if err != nil {
		return err
	}
	w.Packed = nil
	if len(packed) > 0 {
		w.Packed = append([]byte(nil), packed...)
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after relay wire body", ErrBadWireValue, len(rest))
	}
	return nil
}
