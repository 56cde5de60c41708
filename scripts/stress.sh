#!/bin/sh
# stress.sh — hunt for flakes in the suites most exposed to scheduling:
# the SMC ring protocols (sum, union, intersect, compare), the cluster
# package, and the load generator. Four processes run the same sweep
# at once, so every test run competes for CPU with the others, and each
# sweep repeats the suites at high -count. Test deadlines are the
# suites' own; nothing here relaxes them.
#
# Usage: scripts/stress.sh   (or: make stress)
# Exits nonzero if any run failed, after printing every failing test
# line and panic; the full logs stay in the printed directory.
set -u
cd "$(dirname "$0")/.."

SMC='./internal/smc/sum/ ./internal/smc/union/ ./internal/smc/intersect/ ./internal/smc/compare/'
LOGS="$(mktemp -d)"

# Build every test binary once so the parallel sweeps measure tests,
# not four concurrent compiles.
# shellcheck disable=SC2086
go test -count=1 -run '^$' $SMC ./internal/cluster/ ./internal/loadgen/ >/dev/null || exit 1

sweep() {
    status=0
    # shellcheck disable=SC2086
    go test -count=200 $SMC || status=1
    go test -count=30 ./internal/cluster/ || status=1
    go test -count=10 ./internal/loadgen/ || status=1
    return $status
}

echo "stress.sh: 4 parallel sweeps, logs in $LOGS" >&2
pids=""
for i in 1 2 3 4; do
    sweep >"$LOGS/sweep$i.log" 2>&1 &
    pids="$pids $!"
done
failed=0
for p in $pids; do
    wait "$p" || failed=1
done
grep -h -e '--- FAIL' -e '^FAIL' -e '^panic:' "$LOGS"/sweep*.log
if [ "$failed" -ne 0 ]; then
    echo "stress.sh: failures above; full logs in $LOGS" >&2
    exit 1
fi
echo "stress.sh: every sweep passed" >&2
