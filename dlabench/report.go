package main

import (
	"math"
	"strings"
)

// Metric units, by name, for everything the benchmark reports. The
// end-to-end set is what an untraced run prints, the per-layer set what
// a traced run prints; both must match BENCHMARK.json.
var endToEndUnits = map[string]string{
	"setup_s":                "s",
	"disk_bytes_per_record":  "B",
	"heap_bytes_per_record":  "B",
	"query_local_p50_ms":     "ms",
	"query_conj_p50_ms":      "ms",
	"query_xeq_p50_ms":       "ms",
	"aggregate_p50_ms":       "ms",
	"integrity_check_p50_ms": "ms",
	"read_p50_ms":            "ms",
}

// unbounded are user-facing metrics too unsteady on a shared two-core
// host to carry a regression bound (see README.md). Every run reports
// them in its detail line; traced runs print them with the per-layer
// metrics.
var unbounded = []string{
	"ingest_ack_p50_ms", "ingest_ack_p99_ms", "ingest_peak_rps",
	"replay_s", "query_disj_p50_ms", "query_xcmp_p50_ms",
}

var perLayerUnits = map[string]string{
	"ingest_ack_p50_ms":              "ms",
	"ingest_ack_p99_ms":              "ms",
	"ingest_peak_rps":                "rec/s",
	"replay_s":                       "s",
	"query_disj_p50_ms":              "ms",
	"query_xcmp_p50_ms":              "ms",
	"core.bootstrap_ms":              "ms",
	"core.deploy_ms":                 "ms",
	"logmodel.split_us":              "us",
	"accumulator.digest_us":          "us",
	"accumulator.verify_us":          "us",
	"ticket.glsns_ms":                "ms",
	"ticket.authorize_us":            "us",
	"cluster.append_wait_us.p50":     "us",
	"cluster.append_wait_us.p99":     "us",
	"cluster.ack_wait_ms.p50":        "ms",
	"cluster.ack_wait_ms.p99":        "ms",
	"cluster.log_batch_ms":           "ms",
	"storage.append_batch_us":        "us",
	"storage.sync_us":                "us",
	"wal.replay_us_per_record":       "us",
	"transport.rtt_small_us":         "us",
	"transport.rtt_batch_us":         "us",
	"query.plan_us":                  "us",
	"commutative.encrypt_us":         "us",
	"commutative.blocks_us_per_elem": "us",
	"intersect.run_ms":               "ms",
	"union.run_ms":                   "ms",
	"compare.batch_ms":               "ms",
	"integrity.check_local_us":       "us",
	"go.alloc_bytes_per_op":          "B",
	"go.gc_cpu_frac":                 "ratio",
	"telemetry.overhead_frac":        "ratio",
	"gen.late_ms.p99":                "ms",
	"reconcile.blocking_sum_ms":      "ms",
	"reconcile.unexplained_ms":       "ms",
}

// opMetric maps an audit-loop operation to its end-to-end metric.
var opMetric = map[opKind]string{
	opLocal:     "query_local_p50_ms",
	opConj:      "query_conj_p50_ms",
	opDisj:      "query_disj_p50_ms",
	opXEq:       "query_xeq_p50_ms",
	opXCmp:      "query_xcmp_p50_ms",
	opAggregate: "aggregate_p50_ms",
	opIntegrity: "integrity_check_p50_ms",
	opRead:      "read_p50_ms",
}

// opSamples groups the timed, successful audit-loop latencies by kind.
func opSamples(ops []auditOp) map[opKind]*sample {
	out := map[opKind]*sample{}
	for i := range ops {
		op := &ops[i]
		if op.err != nil || op.warmup {
			continue
		}
		if out[op.kind] == nil {
			out[op.kind] = &sample{}
		}
		out[op.kind].addDur(op.took)
	}
	return out
}

// report fills the result's metrics and detail from the run's samples.
func (st *runState) report() {
	m, ts := st.res.metrics, &st.ts
	counts := map[string]int{}
	set := func(name string, v float64, n int) {
		m[name] = v
		counts[name] = n
	}
	ack := ts.ackLat.sorted()
	set("ingest_ack_p50_ms", percentile(ack, 50), len(ack))
	set("ingest_ack_p99_ms", percentile(ack, 99), len(ack))
	set("setup_s", ts.setup.median()/1000, ts.setup.n())
	set("ingest_peak_rps", ts.peakRPS, len(st.in.unpaced))
	set("disk_bytes_per_record", ts.diskPerRec, ts.stored)
	set("heap_bytes_per_record", ts.heapPerRec, ts.stored)
	set("replay_s", ts.replay.median()/1000, ts.replay.n())
	byKind := opSamples(st.ops)
	timings := map[string]summary{"ingest_ack_ms": ts.ackLat.summary()}
	for k, name := range opMetric {
		s := byKind[k]
		if s == nil {
			s = &sample{}
		}
		set(name, s.median(), s.n())
		timings[strings.TrimSuffix(name, "_p50_ms")+"_ms"] = s.summary()
	}

	loose := map[string]float64{}
	for _, name := range unbounded {
		loose[name] = m[name]
	}
	st.res.detail["unbounded"] = loose
	printed := endToEndUnits
	if st.cfg.trace {
		st.layerMetrics()
		printed = perLayerUnits
	}
	for name := range m {
		if _, ok := printed[name]; !ok {
			delete(m, name)
		}
	}
	st.res.detail["sample_counts"] = counts
	st.res.detail["timings"] = timings
	st.res.detail["lost_acks"] = st.res.lostAcks
	st.res.detail["failed_ops_frac"] = failShare(st.res.failed, st.res.attempted)
	st.res.detail["generator_late_ms"] = ts.late.summary()
	st.res.detail["measured_s"] = ts.measured.Seconds()
}

// layerMetrics adds the workload-derived per-layer metrics and the
// ingest reconciliation row; the standalone replays have already added
// theirs.
func (st *runState) layerMetrics() {
	m, ts := st.res.metrics, &st.ts
	m["core.bootstrap_ms"] = ts.bootstrap.median()
	m["core.deploy_ms"] = ts.deploy.median()
	aw, kw := ts.appendWait.sorted(), ts.ackWait.sorted()
	m["cluster.append_wait_us.p50"] = percentile(aw, 50)
	m["cluster.append_wait_us.p99"] = percentile(aw, 99)
	m["cluster.ack_wait_ms.p50"] = percentile(kw, 50)
	m["cluster.ack_wait_ms.p99"] = percentile(kw, 99)
	ops := len(st.in.paced) + len(st.in.unpaced) + len(st.ops)
	m["go.alloc_bytes_per_op"] = float64(ts.allocBytes) / float64(ops)
	m["go.gc_cpu_frac"] = ts.gcFrac
	m["gen.late_ms.p99"] = percentile(ts.late.sorted(), 99)
	// Tracing cost: spans recorded during the measured phase times the
	// measured cost of one span, over the phase's wall time.
	m["telemetry.overhead_frac"] = float64(st.measuredSpans) * float64(spanCost()) / float64(ts.measured)

	// Reconciliation: the blocking steps of one paced append, each at its
	// median, against the end-to-end ack median.
	parts := map[string]float64{
		"append_wait_ms":         percentile(aw, 50) / 1000,
		"log_batch_ms":           m["cluster.log_batch_ms"],
		"storage_append_sync_ms": (m["storage.append_batch_us"] + m["storage.sync_us"]) / 1000,
		"rtt_batch_ms":           m["transport.rtt_batch_us"] / 1000,
	}
	var sum float64
	for _, v := range parts {
		sum += v
	}
	ackP50 := m["ingest_ack_p50_ms"]
	m["reconcile.blocking_sum_ms"] = sum
	m["reconcile.unexplained_ms"] = ackP50 - sum
	st.res.detail["reconciliation"] = map[string]any{
		"ingest_ack_p50_ms": ackP50, "steps": parts, "blocking_sum_ms": sum, "unexplained_ms": ackP50 - sum,
	}
	st.res.detail["registry"] = registryDelta(st)
}

// registryDelta reports how the program's own ingest and SMC stage
// histograms moved over the measured phase, read-only.
func registryDelta(st *runState) map[string]any {
	out := map[string]any{}
	for name, after := range st.ts.regAfter.Histograms {
		if !strings.HasPrefix(name, "ingest.") && !strings.HasPrefix(name, "wal.") &&
			name != "cluster.client.glsn_round" && name != "smc.relay_chunk" {
			continue
		}
		before := st.ts.regBefore.Histograms[name]
		n := after.Count - before.Count
		if n <= 0 {
			continue
		}
		out[name] = map[string]float64{"count": float64(n), "mean_ms": (after.SumMS - before.SumMS) / float64(n)}
	}
	return out
}

// finite reports whether every metric is a real number.
func finite(m map[string]float64) bool {
	for _, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
