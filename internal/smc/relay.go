package smc

import (
	"context"
	"fmt"
	"time"

	"confaudit/internal/telemetry"
	"confaudit/internal/transport"
)

// Circulate runs one party's part of the ring relay the set protocols
// share (intersection and union, §3.4): every party's set travels the
// ring and gains one commutative encryption per hop.
//
// The party streams its own blocks, encrypted under key, to the next
// ring member in chunks of chunkSize, so the next hop starts
// re-encrypting chunk 0 while this hop is still on chunk k — ring
// latency approaches T_set + (n-1)*T_chunk instead of n*T_set. The
// encryption stream runs ahead of the sends (double-buffered; see
// encryptStream), overlapping this hop's modexp work with its own wire
// time. It re-encrypts and forwards every other origin's chunks, and
// returns its own set once that has come back after n encryptions.
// Every stream carries Seq/Total framing — an empty set is one empty
// chunk — so Total is always at least 1. Chunking leaks only the set
// size, which Definition 1 treats as permitted secondary information.
// msgType names the protocol's relay message.
func Circulate(ctx context.Context, mb *transport.Mailbox, key BlockEncryptor, ring []string, session, msgType string, blocks [][]byte, chunkSize int) ([][]byte, error) {
	self := mb.ID()
	n := len(ring)
	next, err := NextInRing(ring, self)
	if err != nil {
		return nil, err
	}
	send := func(body *RelayWire) error {
		if err := mb.Send(ctx, transport.NewBinaryMessage(next, msgType, session, body)); err != nil {
			return fmt.Errorf("smc: sending %s to %s: %w", msgType, next, err)
		}
		return nil
	}

	streamCtx, cancelStream := context.WithCancel(ctx)
	defer cancelStream()
	myChunks := splitChunks(blocks, chunkSize)
	encCh := encryptStream(streamCtx, session, self, key, myChunks)
	for range myChunks {
		ec, ok := nextEncChunk(encCh)
		if !ok {
			if cerr := ctx.Err(); cerr != nil {
				return nil, fmt.Errorf("smc: encrypting local set: %w", cerr)
			}
			return nil, fmt.Errorf("%w: encryption stream ended early", ErrProtocol)
		}
		if ec.Err != nil {
			ec.Span.End(ec.Err)
			return nil, fmt.Errorf("smc: encrypting local set: %w", ec.Err)
		}
		body, err := PackRelay(RelayWire{Origin: self, Hops: 1, Seq: ec.Seq, Total: len(myChunks)}, ec.Blocks)
		if err == nil {
			err = send(body)
		}
		observeRelayChunk(ec.Span, ec.Start, next, ec.Seq, len(myChunks), ec.Blocks, err)
		if err != nil {
			return nil, err
		}
	}

	// Each party sees every origin's complete chunk stream exactly once:
	// n-1 streams from other origins and its own returning one.
	streams := make(map[string]*reassembly, n)
	for complete := 0; complete < n; {
		msg, err := mb.Expect(ctx, msgType, session)
		if err != nil {
			return nil, fmt.Errorf("smc: awaiting relay: %w", err)
		}
		var body RelayWire
		if err := transport.Unmarshal(msg.Payload, &body); err != nil {
			return nil, err
		}
		chunk, err := body.Unpack()
		if err != nil {
			return nil, err
		}
		if body.Origin == self {
			if body.Hops != n {
				return nil, fmt.Errorf("%w: own set returned after %d of %d encryptions", ErrProtocol, body.Hops, n)
			}
		} else {
			sp, _ := telemetry.StartSpan(ctx, session, self, "smc.relay_chunk")
			start := time.Now()
			enc, err := RelayCrypt(key.EncryptBlocks, chunk)
			if err != nil {
				sp.End(err)
				return nil, fmt.Errorf("smc: re-encrypting set from %s: %w", body.Origin, err)
			}
			fwd, err := PackRelay(RelayWire{Origin: body.Origin, Hops: body.Hops + 1, Seq: body.Seq, Total: body.Total}, enc)
			if err == nil {
				err = send(fwd)
			}
			observeRelayChunk(sp, start, next, body.Seq, body.Total, enc, err)
			if err != nil {
				return nil, err
			}
		}
		r := streams[body.Origin]
		if r == nil {
			r = &reassembly{}
			streams[body.Origin] = r
		}
		done, err := r.add(&body, chunk)
		if err != nil {
			return nil, err
		}
		if done {
			complete++
		}
	}
	mine := streams[self]
	if mine == nil || len(mine.chunks) != mine.total {
		return nil, fmt.Errorf("%w: own set never returned", ErrProtocol)
	}
	return mine.assemble(), nil
}

// splitChunks cuts blocks into size-block pieces; an empty set is a
// single empty chunk so every origin still injects exactly one stream.
func splitChunks(blocks [][]byte, size int) [][][]byte {
	if len(blocks) == 0 {
		return [][][]byte{nil}
	}
	out := make([][][]byte, 0, (len(blocks)+size-1)/size)
	for len(blocks) > size {
		out = append(out, blocks[:size])
		blocks = blocks[size:]
	}
	return append(out, blocks)
}

// reassembly accumulates one origin's chunks.
type reassembly struct {
	total  int
	chunks map[int][][]byte
}

// add records a chunk, validating the framing against what was already
// seen. It reports whether the origin's set is now complete.
func (r *reassembly) add(body *RelayWire, blocks [][]byte) (bool, error) {
	if r.chunks == nil {
		r.total = body.Total
		r.chunks = make(map[int][][]byte)
	}
	if body.Total != r.total {
		return false, fmt.Errorf("%w: origin %s changed chunk count %d to %d", ErrProtocol, body.Origin, r.total, body.Total)
	}
	if body.Seq < 0 || body.Seq >= r.total {
		return false, fmt.Errorf("%w: origin %s chunk %d of %d out of range", ErrProtocol, body.Origin, body.Seq, r.total)
	}
	if _, dup := r.chunks[body.Seq]; dup {
		return false, fmt.Errorf("%w: origin %s repeated chunk %d", ErrProtocol, body.Origin, body.Seq)
	}
	r.chunks[body.Seq] = blocks
	return len(r.chunks) == r.total, nil
}

// assemble concatenates the chunks in sequence order.
func (r *reassembly) assemble() [][]byte {
	var out [][]byte
	for i := 0; i < r.total; i++ {
		out = append(out, r.chunks[i]...)
	}
	return out
}
