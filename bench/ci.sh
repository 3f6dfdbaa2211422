#!/bin/sh
# CI gate: format check, full build, the test suite with a pinned
# QCheck seed, the approx suite under QCheck seeds 1..40, the sql,
# to_sql, differential, parallel, parallel_delta and monitor suites
# under QCheck seeds 1..20, a daemon smoke test (its -j 2 daemon must
# keep two-constraint passes that cost less than its worker pool on the
# calling domain: fcv client stats shows the pool never started), a
# node-budget smoke test (a
# negative --max-nodes and a -j outside 1..128 are usage errors; a
# budget the indices exceed is one message and exit 2), a bad-constraint smoke test (fcv check
# reports each bad constraint in its input position, identically at
# -j 1 and -j 2, and exits 2, as do fcv monitor, explain and bench; a
# parse error names its line), a
# 200-schedule fault-injection sweep (fcv sim), the
# parallel-validation scaling benchmark, the
# planner vs Forced Auto benchmark with its verdict-exactness and never-
# slower gate, the memory-lifecycle churn benchmark with its peak-node
# bound, the
# sharded serving-tier benchmark (pipelined clients + group commit)
# with its verdict-exactness and throughput-floor gate, the repair-
# planner benchmark with its quality gate (complete plans, exact
# minimality, greedy/exact ratio vs bench/baseline_repair.json), the
# approximate-constraint benchmark with its exact-rate gate
# (bench/baseline_approx.json), the repository benchmark's output
# checks (perfbench/run.py, both workloads, untraced and traced, 5 s
# each), and the perf-regression gate against bench/baseline.json.
#
# FCV_CI=1 hardens the gate for CI runners: a missing ocamlformat, a
# perf regression, a churn memory-bound violation and a serving-tier
# gate failure become failures instead of skips/warnings.  On failure
# the workspace keeps _ci/ (smoke-test state dir) and every
# BENCH_*.json (parallel, churn, serve, repair) for artifact upload.
set -eu

cd "$(dirname "$0")/.."

: "${FCV_CI:=0}"

# Pinned seed: property tests (including the 3-way differential
# oracle and the parallel-vs-sequential differential) replay the same
# cases in CI; override by exporting QCHECK_SEED before calling.
: "${QCHECK_SEED:=20070415}"
export QCHECK_SEED

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== dune build @fmt (ocamlformat $(ocamlformat --version))"
  dune build @fmt
elif [ "$FCV_CI" = "1" ]; then
  echo "FAIL: FCV_CI=1 but ocamlformat is not installed (CI must install the" >&2
  echo "      version pinned in .ocamlformat so the format check actually runs)" >&2
  exit 1
else
  echo "== skipping format check (ocamlformat not installed; fatal under FCV_CI=1)"
fi

echo "== dune build"
dune build

echo "== dune runtest (QCHECK_SEED=$QCHECK_SEED)"
dune runtest --force

# sweep SUITES N: run the test suites SUITES names (a suite-name
# regex) under QCHECK_SEED=1..N; fatal at the first failing seed, whose
# output is then shown.
sweep() {
  echo "== suites $1 under QCHECK_SEED=1..$2"
  seed=1
  while [ "$seed" -le "$2" ]; do
    if ! QCHECK_SEED=$seed dune exec test/test_main.exe -- test "$1" >/dev/null 2>&1; then
      echo "FAIL: suites $1 fail under QCHECK_SEED=$seed:" >&2
      QCHECK_SEED=$seed dune exec test/test_main.exe -- test "$1" >&2 || true
      exit 1
    fi
    seed=$((seed + 1))
  done
}

# The soft-constraint differential reaches rare formula shapes only
# under some seeds, so the approx suite also runs under forty more.
sweep approx 40
# The SQL-facing property suites (the executor against its list-based
# reference, the translation, and the three-way differential whose SQL
# side runs the executor), the pooled batch's differentials against
# the sequential run (parallel, parallel_delta) and the monitor's
# cached verdicts against fresh checks after mutation bursts (monitor)
# sweep twenty more seeds, about 2 s each.
sweep '^(sql|to_sql|differential|parallel|parallel_delta|monitor)$' 20

echo "== daemon smoke test (fcv serve / fcv client)"
FCV=./_build/default/bin/fcv.exe
# Keep the smoke dir inside the workspace: on failure CI uploads it
# (WAL + snapshot generations) as a debugging artifact.
SMOKE="$PWD/_ci/smoke"
rm -rf "$SMOKE"
mkdir -p "$SMOKE"
SERVE_PID=""
SMOKE_DONE=0
cleanup() {
  # capture the in-flight exit status FIRST: every command below must
  # not clobber what we propagate
  rc=$?
  if [ -n "$SERVE_PID" ] && kill -0 "$SERVE_PID" 2>/dev/null; then
    kill "$SERVE_PID" 2>/dev/null || true
    wait "$SERVE_PID" 2>/dev/null || true
  fi
  # only discard the state dir after a fully successful run
  if [ "$rc" = "0" ] && [ "$SMOKE_DONE" = "1" ]; then
    rm -rf "$PWD/_ci"
  else
    echo "(keeping $SMOKE for inspection)" >&2
  fi
  exit "$rc"
}
trap cleanup EXIT INT TERM

"$FCV" gen university -o "$SMOKE/data" -n 200 >/dev/null

SOCK="$SMOKE/fcv.sock"
"$FCV" serve -d "$SMOKE/data" --sock "$SOCK" --state "$SMOKE/state" \
  --snapshot-every 500 -j 2 &
SERVE_PID=$!

# wait for the daemon to bind its socket
i=0
while [ ! -S "$SOCK" ]; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "daemon did not come up" >&2
    exit 1
  fi
  if ! kill -0 "$SERVE_PID" 2>/dev/null; then
    echo "daemon exited before binding $SOCK" >&2
    exit 1
  fi
  sleep 0.1
done

"$FCV" client --sock "$SOCK" ping >/dev/null
# two constraints over takes, so a pass that re-checks both holds two
# stale constraints
"$FCV" client --sock "$SOCK" register \
  'forall s, c . takes(s, c) -> (exists a . course(c, a))' >/dev/null
"$FCV" client --sock "$SOCK" register \
  'forall s, c . takes(s, c) -> (exists d, k . student(s, d, k))' >/dev/null

# 1k interleaved updates (net zero: every insert is deleted again),
# then an in-stream validation; then a row with neither partner, which
# reaches both constraints, and a second validation
{
  i=0
  while [ "$i" -lt 500 ]; do
    echo "insert takes,$((i % 200)),$((i % 100))"
    echo "delete takes,$((i % 200)),$((i % 100))"
    i=$((i + 1))
  done
  echo "validate"
  echo "insert takes,999,999"
  echo "delete takes,999,999"
  echo "validate"
} >"$SMOKE/updates.txt"
"$FCV" client --sock "$SOCK" updates "$SMOKE/updates.txt" >/dev/null 2>&1

"$FCV" client --sock "$SOCK" validate >/dev/null
# both two-constraint passes cost far less than starting the worker
# pool, so the -j 2 daemon must have kept them on its calling domain
"$FCV" client --sock "$SOCK" stats >"$SMOKE/stats.json"
if ! python3 - "$SMOKE/stats.json" <<'EOF'
import json, sys
st = json.load(open(sys.argv[1]))
pool = st["pool"]
ok = (st["jobs"] == 2 and not pool["started"] and pool["pooled_passes"] == 0
      and pool["sequential_passes"] >= 2 and st["hydration"] is None)
sys.exit(0 if ok else 1)
EOF
then
  echo "FAIL: the -j 2 daemon started its pool for cheap passes:" >&2
  cat "$SMOKE/stats.json" >&2
  exit 1
fi
"$FCV" client --sock "$SOCK" shutdown >/dev/null
wait "$SERVE_PID"
SERVE_PID=""
echo "daemon smoke test passed"

echo "== node-budget smoke test (fcv check --max-nodes)"
echo 'forall s, c . takes(s, c) -> (exists a . course(c, a))' >"$SMOKE/policy.txt"
rc=0
"$FCV" check -d "$SMOKE/data" -c "$SMOKE/policy.txt" --max-nodes=-1 \
  >/dev/null 2>"$SMOKE/budget.err" || rc=$?
if [ "$rc" != 124 ]; then
  echo "FAIL: --max-nodes=-1 exited $rc, expected the usage-error code 124" >&2
  exit 1
fi
rc=0
"$FCV" check -d "$SMOKE/data" -c "$SMOKE/policy.txt" --max-nodes 10 \
  >/dev/null 2>"$SMOKE/budget.err" || rc=$?
if [ "$rc" != 2 ] || [ "$(wc -l <"$SMOKE/budget.err")" != 1 ] ||
  ! grep -q "node budget of 10 BDD nodes.*0 = unlimited" "$SMOKE/budget.err"; then
  echo "FAIL: --max-nodes 10 exited $rc, expected 2 and one budget line:" >&2
  cat "$SMOKE/budget.err" >&2
  exit 1
fi
# A -j outside 1..128 is a usage error too, rejected before any worker
# domain starts (serve would otherwise record the width and fail its
# first validate pass that pays for a pool).
bad_jobs() {
  j=$1
  shift
  rc=0
  "$FCV" "$@" -d "$SMOKE/data" -j "$j" >/dev/null 2>"$SMOKE/jobs.err" || rc=$?
  if [ "$rc" != 124 ] || ! grep -q "invalid value '$j'" "$SMOKE/jobs.err"; then
    echo "FAIL: fcv $1 -j $j exited $rc, expected the usage-error code 124:" >&2
    cat "$SMOKE/jobs.err" >&2
    exit 1
  fi
}
for j in 0 129; do
  bad_jobs "$j" check -c "$SMOKE/policy.txt"
  bad_jobs "$j" bench -c "$SMOKE/policy.txt"
  bad_jobs "$j" serve --sock "$SMOKE/jobs.sock"
done
echo "node-budget smoke test passed"

echo "== bad-constraint smoke test (fcv check -j 1 and -j 2, monitor, explain, bench)"
# One good constraint, then an unknown relation, a free variable and an
# arity error: each bad one is an [ERROR line in its input position,
# the good one still gets its verdict, and the run exits 2.
printf '%s\n' 'forall s, c . takes(s, c) -> (exists a . course(c, a))' \
  'forall x . nosuch(x) -> nosuch(x)' \
  'forall s . takes(s, c)' \
  'forall s, c . takes(s, c, s) -> takes(s, c)' >"$SMOKE/bad.txt"
for j in 1 2; do
  rc=0
  "$FCV" check -d "$SMOKE/data" -c "$SMOKE/bad.txt" -j "$j" >"$SMOKE/bad.j$j" || rc=$?
  grep '^\[' "$SMOKE/bad.j$j" | cut -c2-6 >"$SMOKE/bad.kinds"
  grep '^\[ERROR' "$SMOKE/bad.j$j" | sed 's/: .*//' >"$SMOKE/bad.errors"
  if [ "$rc" != 2 ] || [ "$(tr '\n' ' ' <"$SMOKE/bad.kinds")" != "SATIS ERROR ERROR ERROR " ] ||
    ! sed 1d "$SMOKE/bad.txt" | sed 's/^/[ERROR    ] /' | cmp -s - "$SMOKE/bad.errors"; then
    echo "FAIL: fcv check -j $j on bad constraints exited $rc, expected 2 with one verdict" >&2
    echo "      and three [ERROR lines in input order:" >&2
    cat "$SMOKE/bad.j$j" >&2
    exit 1
  fi
  # timings differ run to run; nothing else may
  sed -E 's/[0-9]+\.[0-9]+ ms/T ms/' "$SMOKE/bad.j$j" >"$SMOKE/bad.j$j.norm"
done
if ! cmp -s "$SMOKE/bad.j1.norm" "$SMOKE/bad.j2.norm"; then
  echo "FAIL: fcv check prints differently at -j 1 and -j 2:" >&2
  diff "$SMOKE/bad.j1.norm" "$SMOKE/bad.j2.norm" >&2 || true
  exit 1
fi
# bad_run NAME ARGS...: fcv ARGS on bad.txt must exit 2 and print the
# three [ERROR lines in input order, as fcv check does; its output is
# left in bad.NAME.
bad_run() {
  name=$1
  shift
  rc=0
  "$FCV" "$@" -d "$SMOKE/data" -c "$SMOKE/bad.txt" >"$SMOKE/bad.$name" || rc=$?
  grep '^\[ERROR' "$SMOKE/bad.$name" | sed 's/: .*//' >"$SMOKE/bad.errors"
  if [ "$rc" != 2 ] ||
    ! sed 1d "$SMOKE/bad.txt" | sed 's/^/[ERROR    ] /' | cmp -s - "$SMOKE/bad.errors"; then
    echo "FAIL: fcv $name on bad constraints exited $rc, expected 2 and three" >&2
    echo "      [ERROR lines in input order:" >&2
    cat "$SMOKE/bad.$name" >&2
    exit 1
  fi
}
# monitor, explain and bench load constraints as check does; monitor
# and explain still report the good constraint
echo validate >"$SMOKE/validate.txt"
bad_run monitor monitor -u "$SMOKE/validate.txt"
if ! grep -q '^  \[SATISFIED\] (fresh' "$SMOKE/bad.monitor"; then
  echo "FAIL: fcv monitor did not validate the good constraint:" >&2
  cat "$SMOKE/bad.monitor" >&2
  exit 1
fi
bad_run explain explain --warm 0
if [ "$(grep -c '^Plan: ' "$SMOKE/bad.explain")" != 1 ]; then
  echo "FAIL: fcv explain did not explain the good constraint:" >&2
  cat "$SMOKE/bad.explain" >&2
  exit 1
fi
bad_run bench bench -r 1
printf '%s\n' 'forall s, c . takes(s, c) -> (exists a . course(c, a))' \
  'forall s c . takes(s, c)' >"$SMOKE/parse.txt"
rc=0
"$FCV" check -d "$SMOKE/data" -c "$SMOKE/parse.txt" >/dev/null 2>"$SMOKE/parse.err" || rc=$?
if [ "$rc" != 2 ] || [ "$(wc -l <"$SMOKE/parse.err")" != 1 ] ||
  ! grep -q ':2:' "$SMOKE/parse.err"; then
  echo "FAIL: a parse error on line 2 exited $rc, expected 2 and one line naming :2:" >&2
  cat "$SMOKE/parse.err" >&2
  exit 1
fi
SMOKE_DONE=1
echo "bad-constraint smoke test passed"

# gate FAIL WARN CMD...: run CMD; when it fails, print FAIL and exit 1
# under FCV_CI=1, print WARN and carry on otherwise.  Exiting through
# the cleanup trap keeps the BENCH_*.json written so far for artifact
# upload.
gate() {
  fail=$1
  warn=$2
  shift 2
  if "$@"; then
    :
  elif [ "$FCV_CI" = "1" ]; then
    printf '%s\n' "$fail" >&2
    exit 1
  else
    printf '%s\n' "$warn" >&2
  fi
}

echo "== fault-injection sim (200 schedules, fixed seed; fatal under FCV_CI=1)"
gate "FAIL: fcv sim found a durability violation (repro line above)" \
  "WARNING: fcv sim found a durability violation (fatal under FCV_CI=1)" \
  "$FCV" sim --seed 1 --schedules 200

echo "== parallel-validation scaling benchmark"
gate "FAIL: parallel scaling benchmark failed (verdict drift across j, or a crash
      in the pooled checker — see output above)" \
  "WARNING: parallel scaling benchmark failed (fatal under FCV_CI=1)" \
  dune exec bench/parallel.exe

# Surface the j-scaling curve on the Actions run page when GitHub
# gives us a step summary to append to.
if [ -n "${GITHUB_STEP_SUMMARY:-}" ] && [ -f BENCH_parallel.json ]; then
  dune exec bench/scaling_table.exe >>"$GITHUB_STEP_SUMMARY" || true
fi

echo "== planner vs Forced Auto benchmark (verdict exactness + <=10% slack gate, fatal under FCV_CI=1)"
gate "FAIL: planner gate (verdict drift between planned and legacy validation, the
      planner >10% slower than legacy on a workload, or the pathological
      budget-trip plant never tripped — see BENCH_plan.json)" \
  "WARNING: planner gate failed (fatal under FCV_CI=1; see BENCH_plan.json)" \
  dune exec bench/plan.exe

echo "== memory-lifecycle churn benchmark (peak-node bound fatal under FCV_CI=1)"
gate "FAIL: churn gate violated its memory bounds (see BENCH_churn.json)" \
  "WARNING: churn gate violated its memory bounds (fatal under FCV_CI=1)" \
  dune exec bench/churn.exe

echo "== sharded serving-tier benchmark (pipelined clients up to N=8, shards up to 4;"
echo "   verdict exactness + throughput floor vs bench/baseline_serve.json, fatal under FCV_CI=1)"
gate "FAIL: serving-tier gate (non-exact verdict, reply reordering, or a throughput
      regression vs bench/baseline_serve.json — see BENCH_serve.json)" \
  "WARNING: serving-tier gate failed (fatal under FCV_CI=1; see BENCH_serve.json)" \
  dune exec bench/serve.exe

echo "== repair-planner benchmark (quality gate: complete plans, exact minimality,"
echo "   greedy/exact ratio vs bench/baseline_repair.json, fatal under FCV_CI=1)"
gate "FAIL: repair gate (incomplete plan, non-minimum exact repair, or greedy
      quality over the baseline ratio — see BENCH_repair.json)" \
  "WARNING: repair gate failed (fatal under FCV_CI=1; see BENCH_repair.json)" \
  dune exec bench/repair.exe

echo "== approximate-constraint benchmark (exact-rate gate vs row-scan recount,"
echo "   soft/hard latency ratio vs bench/baseline_approx.json, fatal under FCV_CI=1)"
gate "FAIL: approx gate (a soft rate diverged from the independent recount, a
      threshold verdict flipped, or soft checks exceeded the baseline
      soft/hard latency ratio — see BENCH_approx.json)" \
  "WARNING: approx gate failed (fatal under FCV_CI=1; see BENCH_approx.json)" \
  dune exec bench/approx.exe

# The repository benchmark checks its own outputs on every run (audit:
# each verdict and soft count against the SQL and naive engines;
# watch: in-order replies and final verdicts against an in-process
# replay) and fails a run that misses or adds a metric BENCHMARK.json
# lists, so a short run of each workload catches a change that breaks
# it before the post-merge benchmark does.
perfbench_checks() {
  for workload in audit watch; do
    for trace in 0 1; do
      python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 5 \
        --trace "$trace" || return 1
    done
  done
}

echo "== repository benchmark output checks (audit and watch, untraced and traced,"
echo "   5 s each; fatal under FCV_CI=1)"
gate "FAIL: perfbench run failed (a wrong output, a missing or unlisted metric, or a
      crash — see the perfbench output above)" \
  "WARNING: perfbench run failed (fatal under FCV_CI=1)" \
  perfbench_checks

echo "== perf-regression gate (tolerance 25%, fatal under FCV_CI=1)"
gate "FAIL: perf regression against bench/baseline.json" \
  "WARNING: perf regression against bench/baseline.json (fatal under FCV_CI=1)" \
  dune exec bench/check_regression.exe

echo "CI gate passed"
