package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// row builds a complete artifact row.
func row(name string, ns float64) map[string]any {
	return map[string]any{"name": name, "ns_op": ns, "b_op": 100.0, "allocs_op": 10.0}
}

// headlines returns both headline rows at the given ns/op.
func headlines(fig2, logTput float64) []map[string]any {
	return []map[string]any{row("BenchmarkFigure2DLAQuery", fig2), row("BenchmarkClusterLogThroughput", logTput)}
}

// without returns the headline rows with field dropped from the second.
func without(field string) []map[string]any {
	rows := headlines(1000, 1000)
	delete(rows[1], field)
	return rows
}

// knee is an ingest section whose best achieved rate is rps.
func knee(rps float64) map[string]any {
	return map[string]any{"points": []map[string]any{
		{"offered_rps": 2000.0, "achieved_rps": rps / 2},
		{"offered_rps": 0.0, "achieved_rps": rps},
	}}
}

// withKnees adds ingest sections (head and same-run baseline knees, and
// the scaling rows unless scaling is false) to an artifact.
func withKnees(art map[string]any, head, base float64, scaling bool) map[string]any {
	art["ingest"], art["ingest_baseline"] = knee(head), knee(base)
	if scaling {
		art["ingest_scaling"] = map[string]any{"gomaxprocs1": knee(9000), "gomaxprocs4": knee(9100)}
	}
	return art
}

// writeArtifact writes an artifact to a temp file and returns its path.
func writeArtifact(t *testing.T, art map[string]any) string {
	t.Helper()
	raw, err := json.Marshal(art)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := os.WriteFile(path, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunBenchDiffGate(t *testing.T) {
	art := func(base, after []map[string]any) map[string]any {
		return map[string]any{"baseline": base, "after": after}
	}
	even := func() map[string]any { return art(headlines(1000, 1000), headlines(1000, 1000)) }
	cases := []struct {
		name    string
		art     map[string]any
		wantErr string // "" means the gate passes
	}{
		{"at the tolerance bound", art(headlines(1000, 1000), headlines(1000*regressionTolerance, 1000)), ""},
		{"just under the bound", art(headlines(1000, 1000), headlines(1099, 1099)), ""},
		{"just over the bound", art(headlines(1000, 1000), headlines(1000, 1101)), "BenchmarkClusterLogThroughput regressed"},
		{"after row missing b_op", art(headlines(1000, 1000), without("b_op")), "missing ns_op, b_op, or allocs_op"},
		{"after row missing allocs_op", art(headlines(1000, 1000), without("allocs_op")), "missing ns_op, b_op, or allocs_op"},
		{"baseline row missing b_op", art(without("b_op"), headlines(1000, 1000)), "missing ns_op, b_op, or allocs_op"},
		{"rows in only one section are skipped", art(
			append(headlines(1000, 1000), row("BenchmarkRetired", 1)),
			append(headlines(1000, 1000), row("BenchmarkNew", 1e9))), ""},
		{"headline missing from one section", art(headlines(1000, 1000)[:1], headlines(1000, 1000)), "headline benchmark BenchmarkClusterLogThroughput absent"},
		{"ingest knee within tolerance", withKnees(even(), 9500, 10000, true), ""},
		{"ingest knee regressed", withKnees(even(), 8000, 10000, true), "ingest knee regressed"},
		{"ingest scaling rows missing", withKnees(even(), 10000, 10000, false), "ingest_scaling rows missing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := runBenchDiff(writeArtifact(t, tc.art))
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("gate failed: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("gate passed, want an error containing %q", tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestRunBenchDiffTwoArtifacts covers the cross-artifact form, which
// compares the two "after" sections.
func TestRunBenchDiffTwoArtifacts(t *testing.T) {
	oldPath := writeArtifact(t, map[string]any{"after": headlines(1000, 1000)})
	for _, tc := range []struct {
		ns      float64
		wantErr bool
	}{{1050, false}, {1200, true}} {
		newPath := writeArtifact(t, map[string]any{"after": headlines(tc.ns, 1000)})
		if err := runBenchDiff(oldPath + "," + newPath); (err != nil) != tc.wantErr {
			t.Errorf("after %.0f ns/op: error %v, want error %v", tc.ns, err, tc.wantErr)
		}
	}
	if err := runBenchDiff("a.json,"); err == nil {
		t.Error("malformed spec accepted")
	}
}
