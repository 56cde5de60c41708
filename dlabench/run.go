package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"confaudit/internal/logmodel"
	"confaudit/internal/telemetry"
)

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	workDir  string // scratch space for data dirs and trace output
}

// result is what one run measured. Metrics holds the reported values by
// name; detail carries samples counts and provenance for the record.
type result struct {
	attempted, failed int
	lostAcks          int
	metrics           map[string]float64
	detail            map[string]any
}

// errInvalid marks a run whose measurements must not be reported.
var errInvalid = errors.New("run invalid")

// runState carries one run between its phases.
type runState struct {
	cfg     config
	dataDir string
	p       plan
	in      *inputs
	tr      *tracer
	sys     *system
	rng     *rand.Rand
	res     *result
	ops     []auditOp // every audit-loop operation, in issue order
	ts      timings

	measuredSpans int // spans recorded in the measured phase
	pacedBatch    int // mean records per sealed batch in the paced phase (traced runs)
}

// timings gathers the raw samples behind the metrics.
type timings struct {
	setup, bootstrap, deploy, replay sample
	ackLat, appendWait, ackWait      sample
	late                             sample
	peakRPS                          float64
	measured                         time.Duration
	allocBytes                       uint64
	gcFrac                           float64
	heapPerRec, diskPerRec           float64
	stored                           int
	regBefore, regAfter              telemetry.MetricsSnapshot
}

func run(ctx context.Context, cfg config) (*result, error) {
	p, err := planFor(cfg.workload, cfg.seconds)
	if err != nil {
		return nil, err
	}
	in, err := generate(p, cfg.seed)
	if err != nil {
		return nil, err
	}
	st := &runState{
		cfg: cfg, p: p, in: in,
		rng: rand.New(rand.NewPCG(cfg.seed, 0xa0d17)),
		res: &result{metrics: map[string]float64{}, detail: map[string]any{}},
	}
	if cfg.trace {
		st.tr = newTracer()
	}
	dataDir := filepath.Join(cfg.workDir, "data")
	st.dataDir = dataDir
	defer os.RemoveAll(dataDir) //nolint:errcheck // scratch space
	baseHeap := liveHeap()

	if err := st.setup(ctx, dataDir); err != nil {
		return nil, err
	}
	defer func() { st.sys.close() }()
	if err := st.measure(ctx); err != nil {
		return nil, err
	}
	st.ts.stored = countAcked(in.preload, in.paced, in.unpaced)
	st.ts.heapPerRec = float64(int64(liveHeap())-int64(baseHeap)) / float64(st.ts.stored)
	disk, err := dirBytes(dataDir)
	if err != nil {
		return nil, err
	}
	st.ts.diskPerRec = float64(disk) / float64(st.ts.stored)
	if err := st.replay(ctx); err != nil {
		return nil, err
	}
	st.checkStored(ctx)
	st.checkAudit()
	if cfg.trace {
		if err := st.layers(ctx); err != nil {
			return nil, fmt.Errorf("per-layer replays: %w", err)
		}
		spans := filepath.Join(filepath.Dir(cfg.workDir), fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed))
		if err := st.tr.write(spans); err != nil {
			return nil, err
		}
	}
	st.report()
	return st.res, nil
}

// setup provisions, deploys and preloads setups times from scratch,
// keeping the last cluster; setup_s is the median.
func (st *runState) setup(ctx context.Context, dataDir string) error {
	for k := 0; k < setups; k++ {
		if st.sys != nil {
			st.sys.close()
		}
		if err := freshDir(dataDir); err != nil {
			return err
		}
		for i := range st.in.preload {
			st.in.preload[i] = write{values: st.in.preload[i].values}
		}
		sp := st.tr.start("core.setup", fmt.Sprintf("setup%d", k), 0)
		t0 := time.Now()
		sys, times, err := startSystem(ctx, st.in.part, dataDir)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		st.sys = sys
		apps, err := openAppenders(ctx, sys.users)
		if err != nil {
			return err
		}
		sendPhase(ctx, st.tr, sp, apps, st.in.preload, false)
		if err := closeAppenders(ctx, apps); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		st.ts.setup.addDur(time.Since(t0))
		st.tr.end(sp)
		st.ts.bootstrap.addDur(times.bootstrap)
		st.ts.deploy.addDur(times.deploy)
		if n := countAcked(st.in.preload); n != len(st.in.preload) {
			return fmt.Errorf("preload: %d of %d records acked: %v", n, len(st.in.preload), firstErr(st.in.preload))
		}
	}
	return nil
}

// measure runs the workload's measured phases: solo audit cycles over
// the preload, then the paced phase, then the unpaced phase.
func (st *runState) measure(ctx context.Context) error {
	if st.cfg.trace {
		st.ts.regBefore = telemetry.M.Snapshot()
	}
	m0 := readRuntime()
	spans0 := st.tr.len()
	t0 := time.Now()

	// One untimed cycle lets lazily built state (fixed-base tables,
	// connections, key pools) settle before the solo cycles are timed.
	warm := auditLoop(ctx, nil, 0, st.sys, st.in.preload, st.rng, func(c int) bool { return c < 1 })
	for i := range warm {
		warm[i].warmup = true
	}
	runtime.GC()
	sp := st.tr.start("phase.solo", "", 0)
	soloUntil := time.Now().Add(st.p.soloFor)
	st.ops = append(warm, auditLoop(ctx, st.tr, sp, st.sys, st.in.preload, st.rng, func(c int) bool {
		return c < st.p.soloCycles || time.Now().Before(soloUntil)
	})...)
	st.tr.end(sp)

	apps, err := openAppenders(ctx, st.sys.users)
	if err != nil {
		return err
	}
	runtime.GC()
	var pacedReg telemetry.MetricsSnapshot
	if st.cfg.trace {
		pacedReg = telemetry.M.Snapshot()
	}
	sp = st.tr.start("phase.paced", "", 0)
	sendPhase(ctx, st.tr, sp, apps, st.in.paced, true)
	st.tr.end(sp)
	if st.cfg.trace {
		seals := telemetry.M.Snapshot().Histograms["ingest.seal_wait"].Count - pacedReg.Histograms["ingest.seal_wait"].Count
		if seals > 0 {
			st.pacedBatch = max(1, int(float64(len(st.in.paced))/float64(seals)+0.5))
		}
	}

	runtime.GC()
	sp = st.tr.start("phase.unpaced", "", 0)
	sendPhase(ctx, st.tr, sp, apps, st.in.unpaced, false)
	st.tr.end(sp)
	st.ts.peakRPS = steadyRate(st.in.unpaced)
	if err := closeAppenders(ctx, apps); err != nil {
		return fmt.Errorf("closing appenders: %w", err)
	}
	st.ts.measured = time.Since(t0)
	m1 := readRuntime()
	st.measuredSpans = st.tr.len() - spans0
	if st.cfg.trace {
		st.ts.regAfter = telemetry.M.Snapshot()
	}

	st.ts.allocBytes = m1.alloc - m0.alloc
	if cpu := m1.cpu - m0.cpu; cpu > 0 {
		st.ts.gcFrac = (m1.gcCPU - m0.gcCPU) / cpu
	}
	return st.collectWrites()
}

// collectWrites turns the write phases' records into samples and
// rejects a run whose generator fell behind.
func (st *runState) collectWrites() error {
	var lastLate [2]time.Duration
	for i := range st.in.paced {
		w := &st.in.paced[i]
		late := lateness(w.due, w.sent)
		st.ts.late.addDur(late)
		lastLate[w.owner] = late
		if w.err == nil {
			st.ts.ackLat.addDur(w.ackLatency())
		}
	}
	st.res.detail["ingest_ack_p50_ms_by_second"] = windowMedians(st.in.paced, time.Second)
	for _, l := range lastLate {
		if l > maxFinalLate {
			return fmt.Errorf("%w: open-loop generator ended %v behind schedule", errInvalid, l)
		}
	}
	for _, ws := range [][]write{st.in.paced, st.in.unpaced} {
		for i := range ws {
			w := &ws[i]
			st.ts.appendWait.add(us(w.ret - w.sent))
			if w.err == nil {
				st.ts.ackWait.addDur(w.acked - w.ret)
			}
		}
	}
	return nil
}

// replay redeploys over the same data directories redeploys times;
// replay_s is the median.
func (st *runState) replay(ctx context.Context) error {
	probe := st.in.preload[0]
	for k := 0; k < redeploys; k++ {
		sp := st.tr.start("core.redeploy", fmt.Sprintf("replay%d", k), 0)
		d, err := st.sys.redeploy(ctx, probe.glsn, probe.owner)
		st.tr.end(sp)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		st.ts.replay.addDur(d)
	}
	return nil
}

// checkStored verifies durability after the last redeploy: every acked
// glsn holds a fragment on every node, a seeded sample reads back equal
// to its input, and a seeded sample passes the integrity check.
func (st *runState) checkStored(ctx context.Context) {
	all := [][]write{st.in.preload, st.in.paced, st.in.unpaced}
	var acked []*write
	for _, ws := range all {
		for i := range ws {
			st.res.attempted++
			if ws[i].err != nil {
				st.res.failed++
				continue
			}
			acked = append(acked, &ws[i])
		}
	}
	for _, w := range acked {
		for _, id := range st.sys.boot.Roster {
			if _, ok := st.sys.node(id).Fragment(w.glsn); !ok {
				st.res.lostAcks++
				break
			}
		}
	}
	st.res.failed += st.res.lostAcks
	const readSample, integritySample = 64, 16
	var glsns []logmodel.GLSN
	for i := 0; i < readSample; i++ {
		w := acked[st.rng.IntN(len(acked))]
		st.res.attempted++
		rec, err := st.sys.users[w.owner].Read(ctx, w.glsn)
		if err != nil || !sameValues(rec.Values, w.values) {
			st.res.failed++
		}
		if i < integritySample {
			glsns = append(glsns, w.glsn)
		}
	}
	st.res.attempted += len(glsns)
	rep, err := st.sys.dep.CheckIntegrity(ctx, st.sys.boot.Roster[0], glsns...)
	switch {
	case err != nil:
		st.res.failed += len(glsns)
	case !rep.Clean():
		st.res.failed += len(rep.Corrupted) + len(rep.Errors)
	}
}

// checkAudit compares every audit-loop result with the plaintext
// oracle over the preload, the store the loop ran against.
func (st *runState) checkAudit() {
	o := newOracle(st.in.preload)
	for i := range st.ops {
		st.res.attempted++
		if err := o.check(&st.ops[i]); err != nil {
			st.res.failed++
			if _, seen := st.res.detail["first_failure"]; !seen {
				st.res.detail["first_failure"] = err.Error()
			}
		}
	}
}

func countAcked(phases ...[]write) int {
	n := 0
	for _, ws := range phases {
		for i := range ws {
			if ws[i].err == nil && ws[i].glsn != 0 {
				n++
			}
		}
	}
	return n
}

func firstErr(ws []write) error {
	for i := range ws {
		if ws[i].err != nil {
			return ws[i].err
		}
	}
	return nil
}

// liveHeap returns the bytes of heap live after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// runtimeSample is the runtime/metrics state the measured phase is
// bracketed with.
type runtimeSample struct {
	alloc      uint64
	gcCPU, cpu float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{alloc: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), cpu: s[2].Value.Float64()}
}

// windowMedians returns the median ack latency of the acked writes
// scheduled in each consecutive window, to show whether the paced phase
// reached a steady state.
func windowMedians(ws []write, window time.Duration) []float64 {
	var out []float64
	var cur sample
	end := window
	for i := range ws {
		if ws[i].due >= end {
			out = append(out, cur.median())
			cur, end = sample{}, end+window
		}
		if ws[i].err == nil {
			cur.addDur(ws[i].ackLatency())
		}
	}
	if cur.n() > 0 {
		out = append(out, cur.median())
	}
	return out
}

// steadyRate is the unpaced phase's acked records per second between
// the 10th and 90th percentile ack, leaving out the pipeline filling at
// the start and draining at the end.
func steadyRate(ws []write) float64 {
	var acks []time.Duration
	for i := range ws {
		if ws[i].err == nil {
			acks = append(acks, ws[i].acked)
		}
	}
	if len(acks) < 10 {
		return math.NaN()
	}
	sort.Slice(acks, func(i, j int) bool { return acks[i] < acks[j] })
	lo, hi := len(acks)/10, len(acks)*9/10
	return float64(hi-lo) / (acks[hi] - acks[lo]).Seconds()
}
