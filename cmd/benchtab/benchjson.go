package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// Bench artifact comparison: `benchtab -benchdiff old.json,new.json`
// loads two BENCH_PR*.json artifacts written by scripts/bench.sh,
// prints the ratio table between the two "after" sections, and fails
// when either headline benchmark regressed by more than the tolerance.
// `benchtab -benchdiff file.json` (one path) instead diffs the
// artifact's embedded "baseline" section against its "after" section —
// the two sides of a single bench.sh run's comparison, measured on the
// same box in the same period. Prefer the single-file form for the
// pre-merge gate: the hosting box's absolute speed drifts between PRs
// (shared vCPUs), so cross-artifact ns/op ratios conflate machine drift
// with code changes, while the embedded baseline is re-measured from
// the previous PR's tree on the SAME box whenever the artifact is
// regenerated. Rows with missing or null fields are refused outright —
// a silently skipped row is how an alloc regression hides — so
// artifacts must be regenerated with the current bench.sh before they
// can be compared.

type benchRow struct {
	Name     string   `json:"name"`
	NsOp     *float64 `json:"ns_op"`
	BOp      *float64 `json:"b_op"`
	AllocsOp *float64 `json:"allocs_op"`
}

type benchFile struct {
	Benchtime string     `json:"benchtime"`
	Baseline  []benchRow `json:"baseline"`
	After     []benchRow `json:"after"`

	// Ingest knee sections (dlaload burst sweeps). Ingest is the head
	// tree, IngestBaseline the same sweep from the BASE_REF worktree in
	// the same bench.sh run; IngestScaling holds the unpaced run at
	// pinned GOMAXPROCS values. Older artifacts may lack all three.
	Ingest         *ingestSection            `json:"ingest"`
	IngestBaseline *ingestSection            `json:"ingest_baseline"`
	IngestScaling  map[string]*ingestSection `json:"ingest_scaling"`
}

type ingestSection struct {
	Points []ingestPoint `json:"points"`
}

type ingestPoint struct {
	OfferedRPS  float64 `json:"offered_rps"`
	AchievedRPS float64 `json:"achieved_rps"`
}

// knee is the headline rec/s row: the best achieved throughput across
// the sweep's offered-load points.
func (s *ingestSection) knee() float64 {
	if s == nil {
		return 0
	}
	var best float64
	for _, p := range s.Points {
		if p.AchievedRPS > best {
			best = p.AchievedRPS
		}
	}
	return best
}

// headlineBenches are the two gate benchmarks: more than
// regressionTolerance on either fails the diff.
var headlineBenches = []string{
	"BenchmarkFigure2DLAQuery",
	"BenchmarkClusterLogThroughput",
}

const regressionTolerance = 1.10

func loadBenchFile(path string) (*benchFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.After) == 0 {
		return nil, fmt.Errorf("%s: no \"after\" rows", path)
	}
	for _, r := range append(f.Baseline, f.After...) {
		if r.Name == "" {
			return nil, fmt.Errorf("%s: row with empty name", path)
		}
		if r.NsOp == nil || r.BOp == nil || r.AllocsOp == nil {
			return nil, fmt.Errorf("%s: row %q is missing ns_op, b_op, or allocs_op — regenerate with scripts/bench.sh", path, r.Name)
		}
	}
	return &f, nil
}

func runBenchDiff(spec string) error {
	parts := strings.Split(spec, ",")
	var oldRowsSrc []benchRow
	var title string
	switch {
	case len(parts) == 1 && parts[0] != "":
		// Single artifact: embedded baseline vs after.
		f, err := loadBenchFile(parts[0])
		if err != nil {
			return err
		}
		if len(f.Baseline) == 0 {
			return fmt.Errorf("%s: no \"baseline\" rows to diff against", parts[0])
		}
		oldRowsSrc = f.Baseline
		title = fmt.Sprintf("Benchmark diff: %s baseline -> after", parts[0])
	case len(parts) == 2 && parts[0] != "" && parts[1] != "":
		oldF, err := loadBenchFile(parts[0])
		if err != nil {
			return err
		}
		oldRowsSrc = oldF.After
		title = fmt.Sprintf("Benchmark diff: %s -> %s", parts[0], parts[1])
	default:
		return fmt.Errorf("-benchdiff wants file.json or old.json,new.json, got %q", spec)
	}
	newF, err := loadBenchFile(parts[len(parts)-1])
	if err != nil {
		return err
	}
	oldRows := make(map[string]benchRow, len(oldRowsSrc))
	for _, r := range oldRowsSrc {
		oldRows[r.Name] = r
	}

	section(title)
	fmt.Printf("%-45s %14s %14s %7s %9s %9s\n", "benchmark", "old ns/op", "new ns/op", "speedup", "B/op Δ", "allocs Δ")
	var failures []string
	for _, nr := range newF.After {
		or, ok := oldRows[nr.Name]
		if !ok {
			fmt.Printf("%-45s %14s %14.0f %7s %9s %9s\n", nr.Name, "-", *nr.NsOp, "new", "-", "-")
			continue
		}
		speedup := *or.NsOp / *nr.NsOp
		fmt.Printf("%-45s %14.0f %14.0f %6.2fx %+8.0f %+8.0f\n",
			nr.Name, *or.NsOp, *nr.NsOp, speedup, *nr.BOp-*or.BOp, *nr.AllocsOp-*or.AllocsOp)
	}
	for _, name := range headlineBenches {
		or, okOld := oldRows[name]
		var nr *benchRow
		for i := range newF.After {
			if newF.After[i].Name == name {
				nr = &newF.After[i]
			}
		}
		if !okOld || nr == nil {
			failures = append(failures, fmt.Sprintf("headline benchmark %s absent from both artifacts' after sections", name))
			continue
		}
		if *nr.NsOp > *or.NsOp*regressionTolerance {
			failures = append(failures, fmt.Sprintf("%s regressed: %.0f -> %.0f ns/op (> %.0f%% tolerance)",
				name, *or.NsOp, *nr.NsOp, (regressionTolerance-1)*100))
		}
	}
	// Ingest knee gate: the artifact's same-run dlaload sweep against
	// the BASE_REF worktree's. Only artifacts carrying both sections are
	// gated (older ones predate the sections); a head knee more than the
	// tolerance below the baseline knee fails like a headline ns/op row.
	if newF.Ingest != nil && newF.IngestBaseline != nil {
		head, base := newF.Ingest.knee(), newF.IngestBaseline.knee()
		if base <= 0 {
			failures = append(failures, "ingest_baseline section has no achieved_rps rows")
		} else {
			fmt.Printf("\n%-45s %14.0f %14.0f %6.2fx\n", "ingest knee (rec/s, same-run baseline)", base, head, head/base)
			if head*regressionTolerance < base {
				failures = append(failures, fmt.Sprintf("ingest knee regressed: %.0f -> %.0f rec/s (> %.0f%% tolerance)",
					base, head, (regressionTolerance-1)*100))
			}
		}
		g1, g4 := newF.IngestScaling["gomaxprocs1"], newF.IngestScaling["gomaxprocs4"]
		if g1.knee() <= 0 || g4.knee() <= 0 {
			failures = append(failures, "ingest_scaling rows missing (want gomaxprocs1 and gomaxprocs4)")
		} else {
			// Informational on a 1-vCPU box, where the two rows tie; on
			// multi-core hosts the ratio shows the node-side fan-out.
			fmt.Printf("%-45s %14.0f %14.0f %6.2fx\n", "ingest scaling (GOMAXPROCS 1 -> 4)", g1.knee(), g4.knee(), g4.knee()/g1.knee())
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("benchdiff: %s", strings.Join(failures, "; "))
	}
	fmt.Printf("\nheadline benchmarks within %.0f%% tolerance\n", (regressionTolerance-1)*100)
	return nil
}
