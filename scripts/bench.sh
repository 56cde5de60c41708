#!/bin/sh
# bench.sh — run the acceptance benchmarks and emit BENCH_<head>.json,
# named after the short hash of the commit the working tree sits on.
#
# Usage: scripts/bench.sh [benchtime] [profile-dir]
#   benchtime defaults to 3s; pass e.g. 1x for a smoke run.
#   profile-dir, when given, additionally captures a CPU profile per
#   headline benchmark (go test -cpuprofile) into that directory, so a
#   regression flagged by benchdiff can be attributed to a function
#   without re-running anything.
#   BASE_REF (env) overrides the baseline commit; defaults to HEAD's
#   parent, so the working tree is measured against the commit it
#   builds on.
#
# The JSON records ns/op, B/op and allocs/op for every benchmark in the
# hot-path set, next to a baseline the script itself re-measures from
# the BASE_REF tree: it checks BASE_REF out into a throwaway git
# worktree and runs the identical sweep there, back to back with the
# after sweep on the same box (Intel Xeon @ 2.10 GHz, 1 vCPU, Go 1.24).
# The improvement ratio is therefore auditable from the artifact alone
# and free of machine drift: the hosting vCPU's absolute speed moves
# between PRs — and even between runs minutes apart — so comparing
# against a weeks-old artifact, or against numbers pasted in by hand
# earlier the same day, would conflate that drift with code changes.
# The two sweeps run as $BENCHCOUNT INTERLEAVED passes — baseline,
# after, baseline, after, … — and each side keeps its per-row MINIMUM
# ns/op. Interleaving matters as much as the minimum: the box's speed
# drifts on a minutes scale (the same tree re-measured ten minutes
# apart moves +/-15%), so two back-to-back mega-sweeps hand one side
# the faster window and a 10% gate flags phantom regressions; with
# alternating passes both sides sample every window, and the minimum
# additionally discards the 1.5-2x contention spikes within them.
# `benchtab -benchdiff BENCH_PR8.json` diffs the two embedded sections
# and gates the headline rows. Every row must carry all three fields: a
# row with a missing B/op or allocs/op (a benchmark that forgot
# ReportAllocs, or a -benchmem drop) fails the run instead of silently
# emitting null. New-in-this-PR benchmarks (the streaming Appender row)
# have no baseline counterpart; benchdiff gates only rows present in
# both sections.
#
# The "ingest" section is the PR 8 knee of curve: a dlaload burst sweep
# (>=3 offered-load points plus the synchronous per-event LogBatch
# baseline measured in the same run) and a crash-scenario run whose
# lost_acks row must be zero. benchtab ignores keys it does not know,
# so the section rides in the same artifact the benchdiff gate reads.
#
# PR 9 adds two sections benchdiff does gate:
#   "ingest_baseline" — the identical dlaload knee sweep run from the
#     BASE_REF worktree, back to back with the head sweep, so the
#     binary-ingest-plane speedup is same-box/same-run auditable the
#     way the ns/op rows already are. benchdiff fails if the head knee
#     (max achieved_rps) regresses against it.
#   "ingest_scaling" — the unpaced burst run at GOMAXPROCS=1 and =4 on
#     the head tree. On a multi-core box the ratio shows the node-side
#     fan-out scaling; on this 1-vCPU host the two rows are expected to
#     tie (GOMAXPROCS cannot exceed the core count), so benchdiff
#     prints the ratio but only enforces presence.
set -eu
cd "$(dirname "$0")/.."

BENCHTIME="${1:-2s}"
PROFILE_DIR="${2:-}"
BASE_REF="${BASE_REF:-$(git rev-parse --short HEAD^)}"
BENCHCOUNT="${BENCHCOUNT:-3}"
OUT="BENCH_$(git rev-parse --short HEAD).json"
BENCHES='BenchmarkFigure2DLAQuery|BenchmarkClusterLogThroughput|BenchmarkAppenderThroughput|BenchmarkQueryShapes|BenchmarkTelemetryOverhead|BenchmarkWitnessMaintain'

# parse_rows turns `go test -bench -count=N` output into JSON row
# objects, keeping the minimum-ns/op sample per benchmark (with that
# sample's alloc fields) and failing loudly on any row missing them.
parse_rows() {
    awk '
    /^Benchmark/ {
        name = $1
        sub(/-[0-9]+$/, "", name)       # strip -GOMAXPROCS suffix
        ns = ""; bytes = ""; allocs = ""
        for (i = 2; i <= NF; i++) {
            if ($(i) == "ns/op")     ns = $(i - 1)
            if ($(i) == "B/op")      bytes = $(i - 1)
            if ($(i) == "allocs/op") allocs = $(i - 1)
        }
        if (ns == "") next
        if (bytes == "" || allocs == "") {
            printf "bench.sh: %s is missing B/op or allocs/op (run with -benchmem and ReportAllocs)\n", name > "/dev/stderr"
            exit 1
        }
        if (!(name in best_ns)) {
            order[++n] = name
            best_ns[name] = ns; best_b[name] = bytes; best_a[name] = allocs
        } else if (ns + 0 < best_ns[name] + 0) {
            best_ns[name] = ns; best_b[name] = bytes; best_a[name] = allocs
        }
    }
    END {
        if (n == 0) {
            print "bench.sh: no benchmark rows parsed" > "/dev/stderr"
            exit 1
        }
        for (i = 1; i <= n; i++) {
            name = order[i]
            row = sprintf("    {\"name\": \"%s\", \"ns_op\": %s, \"b_op\": %s, \"allocs_op\": %s}",
                          name, best_ns[name], best_b[name], best_a[name])
            rows = rows (rows == "" ? "" : ",\n") row
        }
        print rows
    }'
}

# Baseline sweep: the BASE_REF tree, in a throwaway worktree,
# immediately before the after sweep so both see the same box speed.
BASE_DIR="$(mktemp -d)/base"
git worktree add --detach "$BASE_DIR" "$BASE_REF" >&2
trap 'git worktree remove --force "$BASE_DIR" >/dev/null 2>&1 || true' EXIT INT TERM
BASE_RAW=""
AFTER_RAW=""
i=1
while [ "$i" -le "$BENCHCOUNT" ]; do
    echo "bench.sh: pass $i/$BENCHCOUNT baseline sweep ($BASE_REF)" >&2
    PASS="$(cd "$BASE_DIR" && go test -run '^$' -bench "$BENCHES" -benchmem -benchtime "$BENCHTIME" -count 1 .)"
    printf '%s\n' "$PASS" >&2
    BASE_RAW="$BASE_RAW$PASS
"
    echo "bench.sh: pass $i/$BENCHCOUNT after sweep (working tree)" >&2
    PASS="$(go test -run '^$' -bench "$BENCHES" -benchmem -benchtime "$BENCHTIME" -count 1 . ./internal/crypto/accumulator/)"
    printf '%s\n' "$PASS" >&2
    AFTER_RAW="$AFTER_RAW$PASS
"
    i=$((i + 1))
done
BASE_ROWS="$(printf '%s\n' "$BASE_RAW" | parse_rows)"
AFTER_ROWS="$(printf '%s\n' "$AFTER_RAW" | parse_rows)"

# Ingest knee of curve: a dlaload burst sweep (paced points plus the
# unpaced right-hand end, with the synchronous per-event baseline in the
# same run) and a crash-scenario run auditing acked-record loss. The
# knee gets the same interleaved best-of-N treatment as the ns/op rows:
# a single dlaload run swings +/-15% with the box's minute-scale drift,
# so each side keeps the run with the highest achieved knee.
knee_of() {
    printf '%s' "$1" | grep -o '"achieved_rps": *[0-9.]*' | \
        awk -F': *' 'BEGIN{m=0} {if ($2+0 > m) m=$2+0} END{print m}'
}
INGEST_JSON=""
INGEST_BASE_JSON=""
i=1
while [ "$i" -le "$BENCHCOUNT" ]; do
    echo "bench.sh: pass $i/$BENCHCOUNT ingest knee sweep (dlaload burst, head tree)" >&2
    RUN="$(go run ./cmd/dlaload -scenario burst -nodes 3 -producers 2 \
        -records 2000 -rates 2000,6000,0 -json)"
    if [ -z "$INGEST_JSON" ] || \
       [ "$(knee_of "$RUN" | cut -d. -f1)" -gt "$(knee_of "$INGEST_JSON" | cut -d. -f1)" ]; then
        INGEST_JSON="$RUN"
    fi
    echo "bench.sh: pass $i/$BENCHCOUNT ingest knee sweep (dlaload burst, $BASE_REF worktree)" >&2
    RUN="$(cd "$BASE_DIR" && go run ./cmd/dlaload -scenario burst -nodes 3 -producers 2 \
        -records 2000 -rates 2000,6000,0 -json)"
    if [ -z "$INGEST_BASE_JSON" ] || \
       [ "$(knee_of "$RUN" | cut -d. -f1)" -gt "$(knee_of "$INGEST_BASE_JSON" | cut -d. -f1)" ]; then
        INGEST_BASE_JSON="$RUN"
    fi
    i=$((i + 1))
done
echo "bench.sh: ingest scaling rows (unpaced burst, GOMAXPROCS=1 and =4)" >&2
INGEST_GOMAX1_JSON="$(GOMAXPROCS=1 go run ./cmd/dlaload -scenario burst -nodes 3 -producers 2 \
    -records 2000 -rates 0 -json)"
INGEST_GOMAX4_JSON="$(GOMAXPROCS=4 go run ./cmd/dlaload -scenario burst -nodes 3 -producers 2 \
    -records 2000 -rates 0 -json)"
echo "bench.sh: ingest crash run (dlaload burst -crash)" >&2
CRASH_ROOT="$(mktemp -d)"
INGEST_CRASH_JSON="$(go run ./cmd/dlaload -scenario burst -nodes 3 -producers 2 \
    -records 800 -rates 0 -crash P1 -dataroot "$CRASH_ROOT" -json)"
rm -rf "$CRASH_ROOT"

{
    printf '{\n'
    printf '  "benchtime": "%s",\n' "$BENCHTIME"
    printf '  "baseline_ref": "%s",\n' "$BASE_REF"
    printf '  "baseline": [\n%s\n  ],\n' "$BASE_ROWS"
    printf '  "after": [\n%s\n  ],\n' "$AFTER_ROWS"
    printf '  "ingest": %s,\n' "$INGEST_JSON"
    printf '  "ingest_baseline": %s,\n' "$INGEST_BASE_JSON"
    printf '  "ingest_scaling": {"gomaxprocs1": %s, "gomaxprocs4": %s},\n' \
        "$INGEST_GOMAX1_JSON" "$INGEST_GOMAX4_JSON"
    printf '  "ingest_crash": %s\n' "$INGEST_CRASH_JSON"
    printf '}\n'
} >"$OUT"

echo "wrote $OUT" >&2

# Optional per-headline CPU profiles. One go test invocation per
# benchmark: -cpuprofile only works against a single package, and
# separate runs keep each profile attributable to one benchmark.
if [ -n "$PROFILE_DIR" ]; then
    mkdir -p "$PROFILE_DIR"
    for b in BenchmarkFigure2DLAQuery BenchmarkClusterLogThroughput; do
        go test -run '^$' -bench "^${b}\$" -benchtime "$BENCHTIME" \
            -cpuprofile "$PROFILE_DIR/$b.pprof" -o "$PROFILE_DIR/$b.test" . >&2
    done
    echo "wrote CPU profiles to $PROFILE_DIR (inspect: go tool pprof <bench>.test <bench>.pprof)" >&2
fi
