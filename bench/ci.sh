#!/bin/sh
# CI gate: format check, full build, the test suite with a pinned
# QCheck seed, a daemon smoke test, a 200-schedule fault-injection
# sweep (fcv sim), the parallel-validation scaling benchmark, the
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
"$FCV" client --sock "$SOCK" register \
  'forall s, c . takes(s, c) -> (exists a . course(c, a))' >/dev/null

# 1k interleaved updates (net zero: every insert is deleted again),
# then an in-stream validation
{
  i=0
  while [ "$i" -lt 500 ]; do
    echo "insert takes,$((i % 200)),$((i % 100))"
    echo "delete takes,$((i % 200)),$((i % 100))"
    i=$((i + 1))
  done
  echo "validate"
} >"$SMOKE/updates.txt"
"$FCV" client --sock "$SOCK" updates "$SMOKE/updates.txt" >/dev/null 2>&1

"$FCV" client --sock "$SOCK" validate >/dev/null
"$FCV" client --sock "$SOCK" stats >/dev/null
"$FCV" client --sock "$SOCK" shutdown >/dev/null
wait "$SERVE_PID"
SERVE_PID=""
SMOKE_DONE=1
echo "daemon smoke test passed"

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
