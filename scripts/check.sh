#!/usr/bin/env bash
# Tier-1 verification for the repo: plain build + full test suite, a
# ThreadSanitizer build running the concurrency suites (the batch-query
# kernels issued from concurrent threads, the worker-thread join
# executor, the epoch reader/writer protocol, and the snapshot/service
# layer), a
# durability leg (the fault-injection suite, a crash-recovery soak with
# real mid-stream process kills, and a fault-matrix sweep over several
# workload seeds), and a service leg (query_server over a Unix socket
# with a live background writer: client smoke battery, an EXPLAIN smoke
# of the plan compiler and of the order windows on both a sealed and a
# journaled view, result-cache invalidation-on-checkpoint, SIGKILL
# mid-request, clean writer recovery, and the bench_service numbers), and
# a chaos leg (the socket fault-injection sweep across several seeds, the
# malformed-wire fuzz battery, and a SIGTERM-graceful-drain vs SIGKILL
# comparison under a client storm — both must leave a recoverable store,
# only SIGTERM gets to answer everything in flight first), and an
# AddressSanitizer + UndefinedBehaviorSanitizer tree rerunning the full
# suite, and last a bench-smoke leg (bench_micro_ops --quick against the
# committed baseline).
#
# Usage: scripts/check.sh [--no-tsan] [--no-asan] [--no-durability]
#                          [--no-service] [--no-bench] [--no-chaos]
#   --no-tsan        skip the ThreadSanitizer tree (e.g. toolchains without TSan)
#   --no-asan        skip the ASan+UBSan tree
#   --no-durability  skip the durability suite + crash loop
#   --no-service     skip the query-server smoke + kill + bench leg
#   --no-bench       skip the bench-smoke leg (quick run + JSON checks)
#   --no-chaos       skip the socket chaos sweep + drain comparison
set -euo pipefail
cd "$(dirname "$0")/.."

run_tsan=1
run_asan=1
run_durability=1
run_service=1
run_bench=1
run_chaos=1
for arg in "$@"; do
  case "$arg" in
    --no-tsan) run_tsan=0 ;;
    --no-asan) run_asan=0 ;;
    --no-durability) run_durability=0 ;;
    --no-service) run_service=0 ;;
    --no-bench) run_bench=0 ;;
    --no-chaos) run_chaos=0 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

jobs=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)

echo "== tier 1: configure + build + ctest (build/) =="
cmake -B build -S . >/dev/null
cmake --build build -j "$jobs"
ctest --test-dir build --output-on-failure -j "$jobs"

echo "== catalog compat: v2/v3/v4 fixtures -> v5 oracle diff (build/) =="
# Open the committed v2/v3/v4 fixtures as documents, as converted
# in-memory v5 images and as mmapped v5 re-saves, and diff-verify that
# every oracle answer and every adopted fingerprint is bit-identical
# across formats and opens.
build/examples/catalog_compat

if [[ "$run_durability" == "1" ]]; then
  echo "== durability: fault-injection suite + crash-recovery soak =="
  ctest --test-dir build --output-on-failure -R Durability
  scripts/crash_loop.sh 10 build
  echo "== durability: fault-matrix seed sweep =="
  # The fault matrix derives its workload from PRIMELABEL_FAULT_SEED, so
  # each seed drives faults into different syscall ordinals.
  for seed in 1 7 13; do
    PRIMELABEL_FAULT_SEED="$seed" \
      ctest --test-dir build --output-on-failure -R FaultMatrix
  done
fi

if [[ "$run_service" == "1" ]]; then
  echo "== service: query_server smoke battery + mid-request kill + bench =="
  # Order-window smoke: the anchored descendant step at the end of this
  # query must probe fewer rows than its tag list holds — its label tests
  # plus order lookups below its candidate count. A live writer moves the
  # counts, so the check compares values within one EXPLAIN line (which
  # prints tests= and ord= only when nonzero).
  check_window_explain() {
    local line last cand tests ord
    line=$(build/examples/query_client "$svc_sock" --explain "/play/act[2]/scene[1]//line")
    echo "$line"
    last=${line##*| }
    [[ "$last" == *DescendantJoin* ]] \
      || { echo "EXPLAIN: last operator is not the descendant join: $last" >&2; exit 1; }
    cand=$(sed -n 's/.* cand=\([0-9]*\).*/\1/p' <<<"$last")
    tests=$(sed -n 's/.* tests=\([0-9]*\).*/\1/p' <<<"$last")
    ord=$(sed -n 's/.* ord=\([0-9]*\).*/\1/p' <<<"$last")
    (( ${tests:-0} + ${ord:-0} < ${cand:-0} )) \
      || { echo "EXPLAIN: window made tests=${tests:-0} ord=${ord:-0}, not below cand=${cand:-0}" >&2; exit 1; }
  }
  svc_dir=$(mktemp -d)
  svc_store="$svc_dir/store"
  svc_sock="$svc_dir/query.sock"
  build/examples/query_server init "$svc_store"
  # The only catalog format written is v5.
  magic=$(head -c 8 "$svc_store/snapshot-0.plc")
  [[ "$magic" == PLCATLG5 ]] \
    || { echo "snapshot-0.plc starts with '$magic', expected PLCATLG5" >&2; exit 1; }
  # First: a quiescent server (no writer). Epoch 0 of a fresh store is
  # sealed — full v5 snapshot, empty journal — so the view is the mapped
  # snapshot and the smoke battery's repeated query must hit the result
  # cache.
  build/examples/query_server serve "$svc_store" "$svc_sock" 0 &
  svc_pid=$!
  for _ in $(seq 1 100); do [[ -S "$svc_sock" ]] && break; sleep 0.1; done
  [[ -S "$svc_sock" ]] || { echo "query_server never bound $svc_sock" >&2; exit 1; }
  build/examples/query_client "$svc_sock" --smoke
  # Planner EXPLAIN smoke: the compiled operator tree for a position
  # query must surface the scan, the join, the position filter and the
  # order restore, each with cardinalities.
  explain_out=$(build/examples/query_client "$svc_sock" --explain "/play//act[2]")
  echo "$explain_out"
  for op in TagScan DescendantJoin PositionSelect OrderSort out=; do
    grep -q "$op" <<<"$explain_out" \
      || { echo "EXPLAIN output missing $op" >&2; exit 1; }
  done
  check_window_explain
  kill "$svc_pid" 2>/dev/null || true
  wait "$svc_pid" 2>/dev/null || true
  rm -f "$svc_sock"
  # Then: a background writer committing and checkpointing while clients
  # read pinned snapshots (views of a journal tail are images built from
  # the replayed document).
  build/examples/query_server serve "$svc_store" "$svc_sock" 200 2 &
  svc_pid=$!
  for _ in $(seq 1 100); do [[ -S "$svc_sock" ]] && break; sleep 0.1; done
  [[ -S "$svc_sock" ]] || { echo "query_server never bound $svc_sock" >&2; exit 1; }
  build/examples/query_client "$svc_sock" --smoke
  check_window_explain
  # Planner cache-invalidation check: seed the result cache, then wait
  # for the live writer's next checkpoint publish to sweep it
  # (RESINVALIDATIONS in STATS must rise).
  build/examples/query_client "$svc_sock" --plansmoke
  # Kill the server mid-request storm (SIGKILL: no destructors, no flush),
  # then prove the writer's store recovers cleanly.
  ( while true; do
      build/examples/query_client "$svc_sock" XPATH //speech >/dev/null 2>&1 || break
    done ) &
  storm_pid=$!
  sleep 1
  kill -9 "$svc_pid" 2>/dev/null || true
  wait "$svc_pid" 2>/dev/null || true
  wait "$storm_pid" 2>/dev/null || true
  build/examples/durable_store_demo verify "$svc_store"
  # Every checkpoint the live writer left is in the formats this build
  # writes: v5 snapshots and PLDELTA2 deltas.
  for f in "$svc_store"/snapshot-*.plc "$svc_store"/delta-*.pld; do
    [[ -e "$f" ]] || continue
    want=PLCATLG5
    [[ "$f" == *.pld ]] && want=PLDELTA2
    magic=$(head -c 8 "$f")
    [[ "$magic" == "$want" ]] \
      || { echo "$f starts with '$magic', expected $want" >&2; exit 1; }
  done
  rm -rf "$svc_dir"
  echo "== service: bench_service -> BENCH_query_service.json =="
  (cd build/bench && ./bench_service)
  python3 scripts/check_bench_json.py --schema build/bench/BENCH_query_service.json
  # Throughput gate against the committed baseline, per report row. The
  # tolerance is deliberately loose: a few hundred requests through a
  # Unix socket on a shared machine jitter far more than the pinned
  # microbenchmark medians, and this gate exists to catch collapses
  # (a lost cache, an accidental materialization per request), not
  # single-digit noise.
  python3 scripts/check_bench_json.py --regress \
    build/bench/BENCH_query_service.json BENCH_query_service.json \
    --tolerance 40
fi

if [[ "$run_chaos" == "1" ]]; then
  echo "== chaos: seeded socket fault sweep + malformed-wire fuzz =="
  # The sweep arms one FaultInjectingTransport fault per round (every
  # kind x 10 ordinals derived from the seed) inside a live server and
  # requires a typed outcome plus a clean follow-up request; different
  # seeds land the faults on different I/O ordinals.
  for seed in 1 5 9; do
    PRIMELABEL_FAULT_SEED="$seed" \
      ctest --test-dir build --output-on-failure -R 'ServiceChaosSweep'
  done
  ctest --test-dir build --output-on-failure -R 'ServiceChaosFuzz'

  echo "== chaos: SIGTERM graceful drain vs SIGKILL under client storm =="
  chaos_dir=$(mktemp -d)
  chaos_store="$chaos_dir/store"
  chaos_sock="$chaos_dir/query.sock"
  chaos_log="$chaos_dir/server.log"
  build/examples/query_server init "$chaos_store" >/dev/null
  for sig in TERM KILL; do
    build/examples/query_server serve "$chaos_store" "$chaos_sock" 200 2 \
      >"$chaos_log" 2>&1 &
    chaos_pid=$!
    for _ in $(seq 1 100); do [[ -S "$chaos_sock" ]] && break; sleep 0.1; done
    [[ -S "$chaos_sock" ]] || { echo "query_server never bound $chaos_sock" >&2; exit 1; }
    ( while true; do
        build/examples/query_client "$chaos_sock" XPATH //speech >/dev/null 2>&1 || break
      done ) &
    chaos_storm=$!
    sleep 1
    kill -s "$sig" "$chaos_pid" 2>/dev/null || true
    chaos_exit=0
    wait "$chaos_pid" 2>/dev/null || chaos_exit=$?
    wait "$chaos_storm" 2>/dev/null || true
    if [[ "$sig" == "TERM" ]]; then
      # Graceful: the server drains (in-flight requests answered), exits
      # zero, and says so.
      [[ "$chaos_exit" == "0" ]] \
        || { echo "SIGTERM drain exited $chaos_exit" >&2; cat "$chaos_log" >&2; exit 1; }
      grep -q "drained" "$chaos_log" \
        || { echo "SIGTERM path never drained" >&2; cat "$chaos_log" >&2; exit 1; }
    fi
    # Both paths — graceful and abrupt — must leave a recoverable store.
    rm -f "$chaos_sock"
    build/examples/durable_store_demo verify "$chaos_store"
  done
  rm -rf "$chaos_dir"
fi

if [[ "$run_tsan" == "1" ]]; then
  echo "== tsan: parallel suites under ThreadSanitizer (build-tsan/) =="
  cmake -B build-tsan -S . -DPRIMELABEL_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$jobs"
  ctest --test-dir build-tsan --output-on-failure -j "$jobs" \
    -R 'Parallel|Epoch|Concurrent|Service|Snapshot|Planner|Chaos|Drain|Deadline'
fi

if [[ "$run_asan" == "1" ]]; then
  echo "== asan: full suite under AddressSanitizer + UBSan (build-asan/) =="
  cmake -B build-asan -S . -DPRIMELABEL_SANITIZE=address,undefined >/dev/null
  cmake --build build-asan -j "$jobs"
  # UBSan reports are recoverable by default; halt so any report fails
  # the test that triggered it.
  UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
    ctest --test-dir build-asan --output-on-failure -j "$jobs"
fi

if [[ "$run_bench" == "1" ]]; then
  echo "== bench smoke: bench_micro_ops --quick + JSON schema/regression check =="
  # Last of all legs: a timing gate tripped by host noise must not stop
  # the sanitizer legs from running.
  # The quick run covers the BM_IsAncestorBatch family and the
  # planned/walked XPath pair — enough to validate the emitted JSON end
  # to end and to catch a gross headline regression without paying for
  # the full suite.
  (cd build/bench && ./bench_micro_ops --quick >/dev/null)
  python3 scripts/check_bench_json.py --schema build/bench/BENCH_*.json
  # BENCH_micro_ops.json at the repo root is the committed baseline; the
  # headline batch-ancestry benchmark's median over the --quick
  # repetitions must stay within 10% of it (the median-of-7 at 0.1s
  # reproduces the full-run number within ~3% on an idle machine;
  # sub-0.1s repetitions are 30% noisy and must not be used here).
  python3 scripts/check_bench_json.py --regress \
    build/bench/BENCH_micro_ops.json BENCH_micro_ops.json
  # The planned-execution row is the planner's acceptance number (it must
  # also stay ahead of BM_XPathPlannedVsWalked/walked in the committed
  # baseline). Full-query latencies jitter more than the batch kernel
  # medians, so the gate is a little looser.
  python3 scripts/check_bench_json.py --regress \
    build/bench/BENCH_micro_ops.json BENCH_micro_ops.json \
    --benchmark BM_XPathPlannedVsWalked/planned --tolerance 15
fi

echo "All checks passed."
