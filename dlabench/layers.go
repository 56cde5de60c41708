package main

import (
	"context"
	"fmt"
	"math/big"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"confaudit/internal/cluster"
	"confaudit/internal/crypto/commutative"
	"confaudit/internal/integrity"
	"confaudit/internal/logmodel"
	"confaudit/internal/query"
	"confaudit/internal/smc/compare"
	"confaudit/internal/smc/intersect"
	"confaudit/internal/smc/union"
	"confaudit/internal/storage"
	"confaudit/internal/ticket"
	"confaudit/internal/transport"
)

// batchRecords is the size of the batches the per-layer replays use:
// the mean batch the appenders sealed in the paced phase, or the
// appender's default bound (AppendOptions.MaxBatchRecords) when the
// registry saw no seals.
func (st *runState) batchRecords() int {
	if st.pacedBatch > 0 {
		return st.pacedBatch
	}
	return 128
}

// layers times the public entry point of each layer standalone, on the
// run's own inputs, after the workload phase (and the registry snapshot
// that brackets it) has finished. Layers that only run inside nodes are
// replayed with the inputs the nodes saw.
func (st *runState) layers(ctx context.Context) error {
	m := st.res.metrics
	recs := st.records()
	sys := st.sys

	m["logmodel.split_us"] = perCall(len(recs), func(i int) {
		for _, f := range st.in.part.Split(recs[i]) {
			_ = f.Canonical()
		}
	})
	subset := recs
	if len(subset) > 1000 {
		subset = subset[:1000]
	}
	m["accumulator.digest_us"] = perCall(len(subset), func(i int) { _ = sys.users[0].RecordDigest(subset[i]) })
	params := sys.boot.AccParams
	items := make([][][]byte, len(subset))
	digests := make([]*big.Int, len(subset))
	for i, r := range subset {
		items[i] = fragmentItems(st.in.part, r)
		digests[i] = params.AccumulateAll(items[i])
	}
	var verifyErr error
	m["accumulator.verify_us"] = perCall(len(subset), func(i int) {
		if !params.Verify(digests[i], items[i]) && verifyErr == nil {
			verifyErr = fmt.Errorf("accumulator verify rejected record %d", i)
		}
	})
	if verifyErr != nil {
		return verifyErr
	}
	if err := st.ticketLayer(); err != nil {
		return err
	}
	plan := func(crit string) error {
		e, err := query.Parse(crit)
		if err != nil {
			return err
		}
		n, err := query.Normalize(e)
		if err != nil {
			return err
		}
		_, err = query.Classify(n, st.in.part)
		return err
	}
	for _, crit := range planCriteria {
		if err := plan(crit); err != nil {
			return fmt.Errorf("planning %q: %w", crit, err)
		}
	}
	m["query.plan_us"] = perCall(2000, func(i int) { _ = plan(planCriteria[i%len(planCriteria)]) }) // each criterion planned without error above
	if err := st.cryptoLayer(); err != nil {
		return err
	}
	if err := st.smcLayer(ctx); err != nil {
		return err
	}
	if err := st.transportLayer(ctx); err != nil {
		return err
	}
	node := sys.node(sys.boot.Roster[0])
	var localErr error
	m["integrity.check_local_us"] = perCall(200, func(i int) {
		if err := integrity.CheckLocal(params, node, recs[i%len(recs)].GLSN); err != nil && localErr == nil {
			localErr = err
		}
	})
	if localErr != nil {
		return fmt.Errorf("integrity.CheckLocal: %w", localErr)
	}
	// One appender-sized LogBatch on the now idle cluster.
	var lb sample
	batchRecords := st.batchRecords()
	st.res.detail["replay_batch_records"] = batchRecords
	for k := 0; k < 5; k++ {
		batch := make([]map[logmodel.Attr]logmodel.Value, batchRecords)
		for i := range batch {
			batch[i] = recs[(k*batchRecords+i)%len(recs)].Values
		}
		t0 := time.Now()
		if _, err := sys.users[0].LogBatch(ctx, batch); err != nil {
			return fmt.Errorf("LogBatch: %w", err)
		}
		lb.addDur(time.Since(t0))
	}
	m["cluster.log_batch_ms"] = lb.median()
	if err := st.storageLayer(recs); err != nil {
		return err
	}
	return st.walLayer()
}

// planCriteria are the criteria of the audit mix, as query.plan_us
// plans them.
var planCriteria = []string{critLocal, critConj, critDisj, critXEq, critXCmp, critAgg}

// records returns the run's acked records with their glsns.
func (st *runState) records() []logmodel.Record {
	var out []logmodel.Record
	for _, ws := range [][]write{st.in.preload, st.in.paced, st.in.unpaced} {
		for i := range ws {
			if ws[i].err == nil {
				out = append(out, logmodel.Record{GLSN: ws[i].glsn, Values: ws[i].values})
			}
		}
	}
	return out
}

// fragmentItems are the accumulated items of a record: its fragments'
// canonical encodings in roster order.
func fragmentItems(part *logmodel.Partition, r logmodel.Record) [][]byte {
	frags := part.Split(r)
	var out [][]byte
	for _, id := range part.Nodes() {
		if f, ok := frags[id]; ok {
			out = append(out, f.Canonical())
		}
	}
	return out
}

// perCall runs fn(i) for i in [0,n) five times over and returns the
// median per-call time in microseconds.
func perCall(n int, fn func(i int)) float64 {
	var s sample
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		s.add(us(time.Since(t0)) / float64(n))
	}
	return s.median()
}

// ticketLayer times the access table at the grant count the ingest
// workload leaves behind, which is what serveSync walks.
func (st *runState) ticketLayer() error {
	ip, err := planFor(wlIngest, st.cfg.seconds)
	if err != nil {
		return err
	}
	grants := ip.preload + int(pacedRate*ip.pacedFor.Seconds()) + ip.unpaced
	tk := st.sys.tickets[0]
	table := ticket.NewAccessTable(st.sys.boot.IssuerPub)
	if err := table.Register(tk); err != nil {
		return err
	}
	for g := 1; g <= grants; g++ {
		if err := table.Grant(tk.ID, logmodel.GLSN(g)); err != nil {
			return err
		}
	}
	var s sample
	for k := 0; k < 9; k++ {
		t0 := time.Now()
		if got := len(table.Glsns(tk.ID)); got != grants {
			return fmt.Errorf("access table lists %d of %d grants", got, grants)
		}
		s.addDur(time.Since(t0))
	}
	st.res.metrics["ticket.glsns_ms"] = s.median()
	var authErr error
	st.res.metrics["ticket.authorize_us"] = perCall(2000, func(i int) {
		if err := table.Authorize(tk.ID, ticket.OpRead, logmodel.GLSN(1+i*7919%grants)); err != nil && authErr == nil {
			authErr = err
		}
	})
	return authErr
}

// matching returns the preload records that satisfy crit, as glsn
// strings.
func (st *runState) matching(crit string) ([]string, error) {
	glsns, err := newOracle(st.in.preload).central.Query(crit)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(glsns))
	for i, g := range glsns {
		out[i] = g.String()
	}
	return out, nil
}

// cryptoLayer times commutative encryption: one element, and a batch
// the size of the conjunction's largest candidate set.
func (st *runState) cryptoLayer() error {
	group := st.sys.boot.Group
	key, err := commutative.NewSessionKey(group)
	if err != nil {
		return err
	}
	tcp, err := st.matching(`protocl = "TCP"`)
	if err != nil {
		return err
	}
	blocks := make([][]byte, len(tcp))
	for i, g := range tcp {
		blocks[i] = key.EncodeElement([]byte(g))
	}
	var encErr error
	st.res.metrics["commutative.encrypt_us"] = perCall(200, func(i int) {
		if _, err := key.EncryptInt(new(big.Int).SetBytes(blocks[i%len(blocks)])); err != nil && encErr == nil {
			encErr = err
		}
	})
	if encErr != nil {
		return encErr
	}
	var s sample
	for k := 0; k < 3; k++ {
		t0 := time.Now()
		if _, err := key.EncryptBlocks(blocks); err != nil {
			return err
		}
		s.add(us(time.Since(t0)) / float64(len(blocks)))
	}
	st.res.metrics["commutative.blocks_us_per_elem"] = s.median()
	st.res.detail["conj_candidate_set"] = len(blocks)
	return nil
}

// smcLayer runs the secure intersection, union and batch compare on an
// in-memory network among the parties the audit plans involve, with the
// sets and keys the audit queries produce over the preload.
func (st *runState) smcLayer(ctx context.Context) error {
	group := st.sys.boot.Group
	tcp, err := st.matching(`protocl = "TCP"`)
	if err != nil {
		return err
	}
	u2, err := st.matching(`id = "U2"`)
	if err != nil {
		return err
	}
	u3, err := st.matching(`id = "U3"`)
	if err != nil {
		return err
	}
	c120, err := st.matching(`C1 = 20`)
	if err != nil {
		return err
	}
	var si, su, sc sample
	for k := 0; k < 3; k++ {
		session := fmt.Sprintf("bench-%d", k)
		d, err := onRing(ctx, []string{"P2", "P1"}, func(ctx context.Context, mb *transport.Mailbox, i int) error {
			ring := []string{"P2", "P1"}
			_, err := intersect.Run(ctx, mb, intersect.Config{Group: group, Ring: ring, Receivers: ring[:1], Session: session}, toBytes([][]string{tcp, u2}[i]))
			return err
		})
		if err != nil {
			return fmt.Errorf("intersect: %w", err)
		}
		si.addDur(d)
		d, err = onRing(ctx, []string{"P1", "P0"}, func(ctx context.Context, mb *transport.Mailbox, i int) error {
			ring := []string{"P1", "P0"}
			_, err := union.Run(ctx, mb, union.Config{Group: group, Ring: ring, Receivers: ring[:1], Session: session}, toBytes([][]string{u3, c120}[i]))
			return err
		})
		if err != nil {
			return fmt.Errorf("union: %w", err)
		}
		su.addDur(d)
		keys, left, right := st.compareInputs()
		cfg := compare.BatchConfig{Holders: [2]string{"P0", "P1"}, TTP: "P2", MaxAbs: new(big.Int).Lsh(big.NewInt(1), 62), Session: session}
		d, err = onRing(ctx, []string{"P0", "P1", "P2"}, func(ctx context.Context, mb *transport.Mailbox, i int) error {
			if i == 2 {
				return compare.ServeBatchCompare(ctx, mb, cfg)
			}
			_, err := compare.BatchCompare(ctx, mb, cfg, keys, [][]*big.Int{left, right}[i])
			return err
		})
		if err != nil {
			return fmt.Errorf("batch compare: %w", err)
		}
		sc.addDur(d)
	}
	st.res.metrics["intersect.run_ms"] = si.median()
	st.res.metrics["union.run_ms"] = su.median()
	st.res.metrics["compare.batch_ms"] = sc.median()
	st.res.detail["smc_set_sizes"] = map[string]int{"intersect": len(tcp) + len(u2), "union": len(u3) + len(c120), "compare_keys": len(st.in.preload)}
	return nil
}

// compareInputs returns the preload's glsns and the two compared
// attributes of C1 < C2, order-encoded as integers.
func (st *runState) compareInputs() (keys []string, left, right []*big.Int) {
	pre := st.in.preload
	sorted := make([]*write, len(pre))
	for i := range pre {
		sorted[i] = &pre[i]
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].glsn.String() < sorted[j].glsn.String() })
	for _, w := range sorted {
		keys = append(keys, w.glsn.String())
		left = append(left, big.NewInt(int64(w.values["C1"].F*100)))
		right = append(right, big.NewInt(int64(w.values["C2"].F*100)))
	}
	return keys, left, right
}

func toBytes(ss []string) [][]byte {
	out := make([][]byte, len(ss))
	for i, s := range ss {
		out[i] = []byte(s)
	}
	return out
}

// onRing runs one party per id on a fresh in-memory network, every
// endpoint registered before any party starts, and returns the wall time
// until the last party finished.
func onRing(ctx context.Context, ids []string, party func(ctx context.Context, mb *transport.Mailbox, i int) error) (time.Duration, error) {
	net := transport.NewMemNetwork()
	defer net.Close() //nolint:errcheck
	mbs := make([]*transport.Mailbox, len(ids))
	for i, id := range ids {
		ep, err := net.Endpoint(id)
		if err != nil {
			return 0, err
		}
		mbs[i] = transport.NewMailbox(ep)
		defer mbs[i].Close() //nolint:errcheck
	}
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = party(ctx, mbs[i], i)
		}(i)
	}
	wg.Wait()
	d := time.Since(t0)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return d, nil
}

// transportLayer echoes a small message and a store-batch-sized frame
// between two TCP loopback mailboxes.
func (st *runState) transportLayer(ctx context.Context) error {
	net := transport.NewTCPNetwork(map[string]string{"echo-a": "127.0.0.1:0", "echo-b": "127.0.0.1:0"})
	var mbs []*transport.Mailbox
	for _, id := range []string{"echo-a", "echo-b"} {
		ep, err := net.Endpoint(id)
		if err != nil {
			return err
		}
		mb := transport.NewMailbox(ep)
		defer mb.Close() //nolint:errcheck
		mbs = append(mbs, mb)
	}
	ctx, cancel := context.WithCancel(ctx)
	var echo sync.WaitGroup
	echo.Add(1)
	go func() {
		defer echo.Done()
		for {
			msg, err := mbs[1].ExpectType(ctx, "bench.echo")
			if err != nil {
				return
			}
			mbs[1].Send(ctx, transport.Message{To: msg.From, Type: "bench.reply", Session: msg.Session, Payload: msg.Payload}) //nolint:errcheck // the caller times out
		}
	}()
	defer func() { cancel(); echo.Wait() }()

	frame := st.batchFrameBytes()
	st.res.detail["rtt_batch_bytes"] = frame
	for _, c := range []struct {
		name string
		size int
	}{{"transport.rtt_small_us", 100}, {"transport.rtt_batch_us", frame}} {
		payload := []byte(strings.Repeat("x", c.size))
		var s sample
		for k := 0; k < 220; k++ {
			session := fmt.Sprintf("%s-%d", c.name, k)
			t0 := time.Now()
			if err := mbs[0].Send(ctx, transport.Message{To: "echo-b", Type: "bench.echo", Session: session, Payload: payload}); err != nil {
				return err
			}
			rctx, rcancel := context.WithTimeout(ctx, 10*time.Second)
			_, err := mbs[0].Expect(rctx, "bench.reply", session)
			rcancel()
			if err != nil {
				return fmt.Errorf("echo: %w", err)
			}
			if k >= 20 { // the first round trips dial and negotiate
				s.add(us(time.Since(t0)))
			}
		}
		st.res.metrics[c.name] = s.median()
	}
	return nil
}

// batchFrameBytes estimates one node's share of an appender-sized store
// batch: the first node's fragments of batchRecords() records plus a
// witness and digest exponent each.
func (st *runState) batchFrameBytes() int {
	recs := st.records()
	first := st.in.part.Nodes()[0]
	n := 0
	for i := 0; i < st.batchRecords() && i < len(recs); i++ {
		n += len(st.in.part.Split(recs[i])[first].Canonical()) + 2*64
	}
	return n
}

// storageLayer appends one appender-sized batch of the first node's
// fragments to a disk segment store with fsync-always, then syncs,
// in a scratch directory on the data filesystem.
func (st *runState) storageLayer(recs []logmodel.Record) error {
	dir := filepath.Join(st.cfg.workDir, "segstore")
	if err := freshDir(dir); err != nil {
		return err
	}
	store, err := storage.Open(storage.Options{Backend: storage.BackendDisk, Dir: dir, Sync: storage.SyncAlways}, st.sys.boot.AccParams, nil)
	if err != nil {
		return err
	}
	defer store.Close() //nolint:errcheck
	first := st.in.part.Nodes()[0]
	batchRecords := st.batchRecords()
	var app, syn sample
	for k := 0; k < 20; k++ {
		batch := make([]storage.Record, 0, batchRecords)
		for i := 0; i < batchRecords; i++ {
			r := recs[(k*batchRecords+i)%len(recs)]
			batch = append(batch, storage.Record{Kind: "frag", GLSN: uint64(r.GLSN), Data: st.in.part.Split(r)[first].Canonical()})
		}
		t0 := time.Now()
		if err := store.AppendBatch(batch); err != nil {
			return err
		}
		t1 := time.Now()
		if err := store.Sync(); err != nil {
			return err
		}
		app.add(us(t1.Sub(t0)))
		syn.add(us(time.Since(t1)))
	}
	st.res.metrics["storage.append_batch_us"] = app.median()
	st.res.metrics["storage.sync_us"] = syn.median()
	return nil
}

// walLayer closes the cluster and replays the first node's journal by
// constructing the node over its data directory, as a restart does.
func (st *runState) walLayer() error {
	st.sys.close()
	id := st.sys.boot.Roster[0]
	var s sample
	var stored int
	for k := 0; k < 3; k++ {
		net := transport.NewMemNetwork()
		ep, err := net.Endpoint(id)
		if err != nil {
			return err
		}
		mb := transport.NewMailbox(ep)
		cfg := st.sys.boot.NodeConfig(id)
		cfg.DataDir = filepath.Join(st.sys.dataDir, id)
		t0 := time.Now()
		node, err := cluster.New(cfg, mb)
		d := time.Since(t0)
		if err != nil {
			mb.Close() //nolint:errcheck
			return fmt.Errorf("journal replay: %w", err)
		}
		stored = len(node.GLSNs())
		node.CloseStorage() //nolint:errcheck // read-only use
		mb.Close()          //nolint:errcheck
		net.Close()         //nolint:errcheck
		s.add(us(d) / float64(stored))
	}
	st.res.metrics["wal.replay_us_per_record"] = s.median()
	st.res.detail["wal_replay_records"] = stored
	return nil
}
