package cluster

import (
	"context"
	"testing"

	"confaudit/internal/logmodel"
	"confaudit/internal/ticket"
	"confaudit/internal/transport"
)

// TestTCPClusterStoreBatch runs batched ingest over real TCP loopback.
// The sequencer's glsn-range round runs grant agreement across the
// roster, and every store batch fans to all four nodes — so a commit
// proves the binary glsn-range, agreement, store-batch, and ack bodies
// all cross real sockets.
func TestTCPClusterStoreBatch(t *testing.T) {
	boot := sharedBootstrap(t)
	addrs := map[string]string{"tcp-u": "127.0.0.1:0"}
	for _, id := range boot.Roster {
		addrs[id] = "127.0.0.1:0"
	}
	net := transport.NewTCPNetwork(addrs)
	nodeCtx, cancel := context.WithCancel(context.Background())
	nodes := make(map[string]*Node, len(boot.Roster))
	t.Cleanup(func() {
		cancel()
		for _, n := range nodes {
			n.Wait()
		}
	})
	for _, id := range boot.Roster {
		ep, err := net.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		mb := transport.NewMailbox(ep)
		t.Cleanup(func() { mb.Close() }) //nolint:errcheck
		if nodes[id], err = New(boot.NodeConfig(id), mb); err != nil {
			t.Fatal(err)
		}
		nodes[id].Start(nodeCtx)
	}
	ep, err := net.Endpoint("tcp-u")
	if err != nil {
		t.Fatal(err)
	}
	mb := transport.NewMailbox(ep)
	t.Cleanup(func() { mb.Close() }) //nolint:errcheck
	tk, err := boot.Issuer.Issue("TTCP", "tcp-u", ticket.OpWrite, ticket.OpRead)
	if err != nil {
		t.Fatal(err)
	}
	c, err := OpenClient(mb, ClientConfig{Roster: boot.Roster, Partition: boot.Partition, Accumulator: boot.AccParams, Ticket: tk})
	if err != nil {
		t.Fatal(err)
	}

	ctx := testCtx(t)
	if err := c.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	records := make([]map[logmodel.Attr]logmodel.Value, 10) // >= fanout threshold
	for i := range records {
		records[i] = map[logmodel.Attr]logmodel.Value{
			"id": logmodel.String("M" + string(rune('0'+i))),
			"C1": logmodel.Int(int64(1000 + i)),
			"C2": logmodel.Float(float64(i) + 0.25),
		}
	}
	gs, err := c.LogBatch(ctx, records)
	if err != nil {
		t.Fatalf("batch over TCP: %v", err)
	}
	for i, g := range gs {
		rec, err := c.Read(ctx, g)
		if err != nil {
			t.Fatalf("reading record %d back: %v", i, err)
		}
		if rec.Values["C1"].I != int64(1000+i) || rec.Values["id"].S != records[i]["id"].S {
			t.Fatalf("record %d read back %v", i, rec.Values)
		}
		// The C1 owner really stored its slice — the acks the client
		// saw were not vacuous.
		if frag, ok := nodes["P3"].Fragment(g); !ok || frag.Values["C1"].I != int64(1000+i) {
			t.Fatalf("node P3 fragment %s: %v (present %v)", g, frag.Values, ok)
		}
	}
}
