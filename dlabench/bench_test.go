package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"confaudit/internal/logmodel"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		// The rule itself: at least minTail samples lie beyond the percentile.
		if p := tailPercentile(c.n); p > 0 && c.n-rank(c.n, p) < minTail {
			t.Errorf("n=%d: p%v leaves fewer than %d samples beyond it", c.n, p, minTail)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 50, 99: 99, 100: 100, 1: 1, 0: 1} {
		if got := percentile(sorted, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
	var s sample
	for _, v := range []float64{3, 1, 2} {
		s.add(v)
	}
	if sum := s.summary(); sum.P50 != 2 || sum.N != 3 || sum.Tail != 0 {
		t.Errorf("summary = %+v, want median 2 of 3 with no tail", sum)
	}
}

func TestFailShare(t *testing.T) {
	for _, c := range []struct {
		failed, attempted int
		want              float64
	}{{0, 10, 0}, {3, 12, 0.25}, {5, 5, 1}, {0, 0, 1}} {
		if got := failShare(c.failed, c.attempted); got != c.want {
			t.Errorf("failShare(%d, %d) = %v, want %v", c.failed, c.attempted, got, c.want)
		}
	}
}

func TestScheduleAndLateness(t *testing.T) {
	a := schedule(rand.New(rand.NewPCG(7, 1)), 20000, 2000)
	b := schedule(rand.New(rand.NewPCG(7, 1)), 20000, 2000)
	c := schedule(rand.New(rand.NewPCG(8, 1)), 20000, 2000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different schedule at %d", i)
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("schedule goes backwards at %d", i)
		}
	}
	if a[len(a)-1] == c[len(c)-1] {
		t.Error("different seeds gave the same schedule")
	}
	// 20,000 arrivals at 2,000/s span about ten seconds.
	if span := a[len(a)-1].Seconds(); math.Abs(span-10) > 0.3 {
		t.Errorf("20000 arrivals at 2000/s span %.2fs, want about 10s", span)
	}
	if got := lateness(10*time.Millisecond, 12*time.Millisecond); got != 2*time.Millisecond {
		t.Errorf("lateness = %v, want 2ms", got)
	}
	if got := lateness(10*time.Millisecond, 9*time.Millisecond); got != 0 {
		t.Errorf("early send lateness = %v, want 0", got)
	}
	w := write{due: 5 * time.Millisecond, acked: 30 * time.Millisecond}
	if got := w.ackLatency(); got != 25*time.Millisecond {
		t.Errorf("ack latency = %v, want 25ms from the scheduled send", got)
	}
}

func TestGeneratorBehindInvalidatesRun(t *testing.T) {
	mk := func(lastLate time.Duration) *runState {
		paced := []write{
			{due: 0, sent: 0, ret: time.Millisecond, acked: 5 * time.Millisecond, glsn: 1},
			{due: time.Second, sent: time.Second + lastLate, ret: time.Second + lastLate, acked: time.Second + lastLate + time.Millisecond, glsn: 2},
		}
		unpaced := []write{{ret: time.Millisecond, acked: 100 * time.Millisecond, glsn: 3}}
		return &runState{in: &inputs{paced: paced, unpaced: unpaced}, res: &result{detail: map[string]any{}}}
	}
	if err := mk(10 * time.Millisecond).collectWrites(); err != nil {
		t.Fatalf("on-schedule run rejected: %v", err)
	}
	st := mk(10 * time.Millisecond)
	st.collectWrites() //nolint:errcheck
	if got := st.ts.late.summary().N; got != 2 {
		t.Errorf("lateness samples = %d, want 2", got)
	}
	if err := mk(maxFinalLate + time.Millisecond).collectWrites(); !errors.Is(err, errInvalid) {
		t.Fatalf("generator %v behind: err = %v, want errInvalid", maxFinalLate, err)
	}
}

func testRecord(id string, proto string, c1, c2 float64) map[logmodel.Attr]logmodel.Value {
	return map[logmodel.Attr]logmodel.Value{
		"id": logmodel.String(id), "protocl": logmodel.String(proto),
		"C1": logmodel.Float(c1), "C2": logmodel.Float(c2),
	}
}

func TestOracleFlagsWrongResults(t *testing.T) {
	pre := []write{
		{values: testRecord("U1", "TCP", 1, 2), glsn: 10},
		{values: testRecord("U1", "UDP", 3, 1), glsn: 11},
		{values: testRecord("U2", "TCP", 5, 9), glsn: 12},
	}
	o := newOracle(pre)
	check := func(op auditOp) error { return o.check(&op) }

	if err := check(auditOp{kind: opLocal, glsns: []logmodel.GLSN{10, 11}}); err != nil {
		t.Errorf("right local result flagged: %v", err)
	}
	if err := check(auditOp{kind: opLocal, glsns: []logmodel.GLSN{10}}); !errors.Is(err, errMismatch) {
		t.Errorf("missing record not flagged: %v", err)
	}
	if err := check(auditOp{kind: opLocal, glsns: []logmodel.GLSN{10, 11, 12}}); !errors.Is(err, errMismatch) {
		t.Errorf("extra record not flagged: %v", err)
	}
	if err := check(auditOp{kind: opConj, glsns: []logmodel.GLSN{12}}); err != nil {
		t.Errorf("right conjunction flagged: %v", err)
	}
	if err := check(auditOp{kind: opConj, glsns: []logmodel.GLSN{10}}); !errors.Is(err, errMismatch) {
		t.Errorf("conjunction over the wrong id not flagged: %v", err)
	}
	if err := check(auditOp{kind: opAggregate, agg: 3}); err != nil { // C1 over UDP: record 11
		t.Errorf("right aggregate flagged: %v", err)
	}
	if err := check(auditOp{kind: opAggregate, agg: 3.5}); !errors.Is(err, errMismatch) {
		t.Errorf("wrong aggregate not flagged: %v", err)
	}

}

// benchmarkSpec is the part of BENCHMARK.json the benchmark must agree
// with.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func unitsOf(list []struct{ Name, Unit string }) map[string]string {
	out := map[string]string{}
	for _, m := range list {
		out[m.Name] = m.Unit
	}
	return out
}

func sameUnits(t *testing.T, what string, got, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		if got[name] != unit {
			t.Errorf("%s metric %q: benchmark emits unit %q, BENCHMARK.json says %q", what, name, got[name], unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s metric %q is emitted but not in BENCHMARK.json", what, name)
		}
	}
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	sameUnits(t, "end-to-end", endToEndUnits, unitsOf(spec.EndToEnd))
	sameUnits(t, "per-layer", perLayerUnits, unitsOf(spec.PerLayer))
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if _, err := planFor(w.Name, 20); err != nil {
			t.Errorf("workload %q: %v", w.Name, err)
		}
	}
	want := append([]string(nil), workloadNames...)
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
		}
	}
}

// TestShortRunsEmitEveryMetric runs every workload briefly against a
// real cluster, untraced and traced, and checks that each run is correct
// and prints exactly the metrics BENCHMARK.json names.
func TestShortRunsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real clusters")
	}
	spec := loadSpec(t)
	for _, wl := range workloadNames {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: wl, seed: 3, seconds: 2, trace: trace, workDir: t.TempDir()}
			res, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, trace, err)
			}
			if res.failed != 0 || res.lostAcks != 0 || res.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d failed, %d lost acks: %v", wl, trace, res.failed, res.attempted, res.lostAcks, res.detail["first_failure"])
			}
			want := unitsOf(spec.EndToEnd)
			if trace {
				want = unitsOf(spec.PerLayer)
			}
			got := map[string]string{}
			for name := range res.metrics {
				got[name] = want[name]
			}
			sameUnits(t, wl, got, want)
			if !finite(res.metrics) {
				t.Errorf("%s trace=%v: non-finite metric in %v", wl, trace, res.metrics)
			}
		}
	}
}
