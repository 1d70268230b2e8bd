#!/usr/bin/env bash
# Correctness gate for AutoIndex: static analysis (lint framework +
# analyzer self-test + clang-tidy + Clang thread-safety analysis), a
# hardened (-Werror) build, the tier-1 suite on it and on a build with
# metrics compiled out, and the tier-1 suite under
# AddressSanitizer + UndefinedBehaviorSanitizer and ThreadSanitizer.
#
# Usage: scripts/check.sh [--fast]
#   --fast   skip the sanitizer builds/runs (static analysis + plain
#            -Werror build only)
#
# Exits non-zero on the first failing stage.

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${REPO_ROOT}"

FAST=0
if [[ "${1:-}" == "--fast" ]]; then
  FAST=1
fi

JOBS="$(nproc 2>/dev/null || echo 4)"

step() { printf '\n==== %s ====\n' "$*"; }

step "lint (python3 scripts/analysis)"
python3 scripts/analysis src

step "lint self-test (analyzer corpus)"
python3 tests/analysis/run_corpus_test.py

step "clang-tidy"
if command -v clang-tidy >/dev/null 2>&1; then
  cmake -B build-tidy -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  # Library sources only; tests/benches inherit the same headers anyway.
  # Any tidy diagnostic fails the gate.
  find src -name '*.cc' | xargs clang-tidy -p build-tidy --quiet \
    --warnings-as-errors='*'
else
  echo "SKIPPED: clang-tidy not installed (lint framework rules still enforced)"
fi

step "thread-safety analysis (clang -Wthread-safety)"
CLANGXX=""
for cand in clang++ clang++-19 clang++-18 clang++-17 clang++-16 clang++-15; do
  if command -v "${cand}" >/dev/null 2>&1; then
    CLANGXX="${cand}"
    break
  fi
done
if [[ -n "${CLANGXX}" ]]; then
  # A dedicated clang build with -Wthread-safety promoted to an error:
  # the capability annotations in src/util/thread_annotations.h only
  # expand under clang, so this is the one stage that proves the lock
  # discipline (GUARDED_BY/REQUIRES/EXCLUDES) at compile time.
  cmake -B build-tsa -S . \
    -DCMAKE_CXX_COMPILER="${CLANGXX}" \
    -DAUTOINDEX_THREAD_SAFETY=ON \
    -DAUTOINDEX_WERROR=ON >/dev/null
  cmake --build build-tsa -j "${JOBS}"
else
  echo "SKIPPED: no clang++ found — thread-safety annotations compile to"
  echo "         nothing under this toolchain, so the lock discipline is"
  echo "         NOT being verified at compile time on this machine."
fi

step "hardened build (-Werror)"
cmake -B build-werror -S . -DAUTOINDEX_WERROR=ON >/dev/null
cmake --build build-werror -j "${JOBS}"

step "tier-1 tests (plain build)"
ctest --test-dir build-werror -L tier1 --output-on-failure

step "index lifecycle tests (plain build)"
ctest --test-dir build-werror -L lifecycle --output-on-failure

step "bench smoke (micro benchmarks, short deterministic mode)"
ctest --test-dir build-werror -L bench-smoke --output-on-failure

step "recovery tests (snapshot/WAL crash matrix, plain build)"
ctest --test-dir build-werror -L recovery --output-on-failure

step "net tests (wire protocol + server, plain build)"
ctest --test-dir build-werror -L net --output-on-failure

step "tier-1 tests (metrics compiled out, -DAUTOINDEX_METRICS=OFF)"
# With metrics compiled out every metric update and trace span is a
# no-op. Tier-1 must hold there too: tests assert recorded values only
# when util::kMetricsEnabled, and check the empty recorder otherwise.
cmake -B build-nometrics -S . -DAUTOINDEX_METRICS=OFF \
  -DAUTOINDEX_WERROR=ON >/dev/null
cmake --build build-nometrics -j "${JOBS}"
ctest --test-dir build-nometrics -L tier1 --output-on-failure

# Prints `count` point statements on TPC-C's customer table (SELECTs and
# UPDATEs over the default population: warehouse 1, districts 1-5,
# customers 1-300), seeded so each client sends its own stream.
customer_statements() {
  awk -v seed="$1" -v count="$2" 'BEGIN {
    srand(seed)
    for (i = 0; i < count; ++i) {
      d = 1 + int(rand() * 5); c = 1 + int(rand() * 300)
      if (i % 2 == 0) {
        printf "SELECT c_last, c_credit FROM customer WHERE c_w_id = 1 " \
               "AND c_d_id = %d AND c_id = %d\n", d, c
      } else {
        printf "UPDATE customer SET c_balance = %.2f WHERE c_w_id = 1 " \
               "AND c_d_id = %d AND c_id = %d\n", rand() * 1000, d, c
      }
    }
  }'
}

# End-to-end service drill (DESIGN.md §12): boot autoindex_server on an
# ephemeral port, drive it with concurrent autoindex_shell --connect
# clients piping reads and writes, stop it with the shell's \shutdown, and
# demand a clean drain. Every shell must exit 0 and answer every statement
# with no `error:` line; the server exits non-zero when any connection
# leaked or an admitted statement got no response, so `wait` enforces
# that invariant.
NET_E2E_CLIENTS=3
NET_E2E_STATEMENTS=300
net_e2e() {
  local bindir="$1"
  local log
  log="$(mktemp)"
  "${bindir}/examples/autoindex_server" --workload tpcc --port 0 \
    >"${log}" 2>&1 &
  local srv=$!
  local port=""
  for _ in $(seq 1 150); do
    port="$(awk '/^LISTENING/ {print $2}' "${log}")"
    [[ -n "${port}" ]] && break
    sleep 0.2
  done
  if [[ -z "${port}" ]]; then
    echo "FAIL: server never reported LISTENING"
    cat "${log}"
    kill "${srv}" 2>/dev/null || true
    return 1
  fi
  local outs=() pids=() out i answered failed=0
  for i in $(seq 1 "${NET_E2E_CLIENTS}"); do
    out="$(mktemp)"
    outs+=("${out}")
    customer_statements "${i}" "${NET_E2E_STATEMENTS}" | \
      "${bindir}/examples/autoindex_shell" --connect "127.0.0.1:${port}" \
      >"${out}" 2>&1 &
    pids+=($!)
  done
  for i in "${!pids[@]}"; do
    if ! wait "${pids[${i}]}"; then
      echo "FAIL: remote shell $((i + 1)) exited non-zero"
      failed=1
    fi
    answered="$(grep -c ' rows, cost ' "${outs[${i}]}" || true)"
    if [[ "${answered}" != "${NET_E2E_STATEMENTS}" ]]; then
      echo "FAIL: remote shell $((i + 1)) answered ${answered} of" \
           "${NET_E2E_STATEMENTS} statements"
      failed=1
    fi
  done
  if grep -h 'error:' "${outs[@]}"; then
    echo "FAIL: a remote statement failed"
    failed=1
  fi
  rm -f "${outs[@]}"
  printf '\\shutdown\n' | \
    "${bindir}/examples/autoindex_shell" --connect "127.0.0.1:${port}"
  if ! wait "${srv}"; then
    echo "FAIL: server exited dirty (leaked connection or lost statement)"
    cat "${log}"
    return 1
  fi
  grep '^SHUTDOWN clean' "${log}"
  rm -f "${log}"
  return "${failed}"
}

step "net end-to-end (server + ${NET_E2E_CLIENTS} remote shells + \\shutdown over loopback)"
net_e2e build-werror

step "metrics overhead gate (wallbench tpcds_tune, metrics ON vs compiled out)"
# The observability layer's budget (DESIGN.md §11): with metrics and
# request-scoped tracing compiled in, tpcds_tune throughput stays within
# 5% of a build configured with -DAUTOINDEX_METRICS=OFF (every
# ScopedTrace/ScopedSpan in the hot path becomes a no-op). The unchanged
# wallbench harness is configured here into two build trees, each time
# with the option set explicitly and CMAKE_CXX_FLAGS cleared, so a tree
# left configured the other way cannot turn the comparison into ON vs ON;
# wallbench/run.py then only builds and runs them.
#
# On a shared machine one CPU's speed drifts by up to 30% within seconds,
# so two runs taken one after the other differ by more than the budget.
# Each pair therefore runs both builds at once, pinned to the same CPU:
# the scheduler splits that CPU evenly between them and both see its
# speed at the same moments, so their throughput ratio is the ratio of
# their per-statement costs. Pairs rotate over the CPUs and alternate
# which build starts first. The gate fails when the median of the
# per-pair ON/OFF ratios is below 1/1.05. If it flakes, add pairs, never
# raise the 5%.
OVERHEAD_PAIRS=8
if ! command -v taskset >/dev/null 2>&1; then
  echo "FAIL: taskset (util-linux) is needed to pin the paired runs"
  exit 1
fi
for tree in build-wallbench:ON build-wallbench-nometrics:OFF; do
  cmake -S wallbench -B "${tree%%:*}/wallbench" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS= -DAUTOINDEX_METRICS="${tree##*:}" >/dev/null
  cmake --build "${tree%%:*}/wallbench" -j "${JOBS}"
done
# Runs the harness built in $1 pinned to CPU $2; stdout to $3, log to $3.log.
wallbench_pinned() {
  CARGO_TARGET_DIR="$1" taskset -c "$2" python3 wallbench/run.py \
    --workload tpcds_tune --seed 1 --seconds 2 --trace 0 >"$3" 2>"$3.log"
}
# Prints the throughput of the JSON result that ends file $1.
throughput_of() {
  python3 -c 'import json, sys
result = json.loads(open(sys.argv[1]).read().splitlines()[-1])
assert result["correct"], "wallbench output check failed"
print(result["metrics"]["throughput_sps"]["value"])' "$1"
}
OVERHEAD_DIR="$(mktemp -d)"
RATIOS=()
for i in $(seq 1 "${OVERHEAD_PAIRS}"); do
  cpu=$(( (i - 1) % JOBS ))
  on="${OVERHEAD_DIR}/on.${i}"
  off="${OVERHEAD_DIR}/off.${i}"
  if (( i % 2 == 1 )); then
    wallbench_pinned build-wallbench "${cpu}" "${on}" & first=$!
    wallbench_pinned build-wallbench-nometrics "${cpu}" "${off}" & second=$!
  else
    wallbench_pinned build-wallbench-nometrics "${cpu}" "${off}" & first=$!
    wallbench_pinned build-wallbench "${cpu}" "${on}" & second=$!
  fi
  pair_ok=1
  wait "${first}" || pair_ok=0
  wait "${second}" || pair_ok=0
  if (( ! pair_ok )); then
    echo "FAIL: a wallbench run of pair ${i} exited non-zero"
    cat "${on}.log" "${off}.log"
    exit 1
  fi
  on_sps="$(throughput_of "${on}")"
  off_sps="$(throughput_of "${off}")"
  echo "pair ${i} (cpu ${cpu}): ON ${on_sps}/s OFF ${off_sps}/s"
  RATIOS+=("$(python3 -c 'import sys; print(float(sys.argv[1]) / float(sys.argv[2]))' \
    "${on_sps}" "${off_sps}")")
done
rm -rf "${OVERHEAD_DIR}"
python3 - "${RATIOS[@]}" <<'EOF'
import statistics, sys
ratios = [float(r) for r in sys.argv[1:]]
median = statistics.median(ratios)
floor = 1 / 1.05
pairs = " ".join(f"{r:.3f}" for r in ratios)
if median < floor:
    sys.exit(f"FAIL: median ON/OFF throughput ratio {median:.3f} is below "
             f"{floor:.3f} (5% budget; pairs {pairs})")
print(f"OK: median ON/OFF throughput ratio {median:.3f} "
      f"({(median - 1) * 100:+.1f}%, floor {floor:.3f}; pairs {pairs})")
EOF

if [[ "${FAST}" == "1" ]]; then
  step "OK (fast mode: sanitizer stages skipped)"
  exit 0
fi

step "sanitizer build (ASan + UBSan, -Werror)"
cmake -B build-asan -S . \
  -DAUTOINDEX_SANITIZE=address,undefined -DAUTOINDEX_WERROR=ON >/dev/null
cmake --build build-asan -j "${JOBS}"

step "tier-1 tests under ASan + UBSan"
ASAN_OPTIONS=detect_leaks=1:strict_string_checks=1 \
UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1 \
  ctest --test-dir build-asan -L tier1 --output-on-failure

step "fuzz + property tests under ASan + UBSan"
ASAN_OPTIONS=detect_leaks=1:strict_string_checks=1 \
UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1 \
  ctest --test-dir build-asan -L 'property|fuzz' --output-on-failure

step "recovery tests under ASan + UBSan"
ASAN_OPTIONS=detect_leaks=1:strict_string_checks=1 \
UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1 \
  ctest --test-dir build-asan -L recovery --output-on-failure

step "net tests under ASan + UBSan"
ASAN_OPTIONS=detect_leaks=1:strict_string_checks=1 \
UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1 \
  ctest --test-dir build-asan -L net --output-on-failure

step "net end-to-end under ASan + UBSan"
ASAN_OPTIONS=detect_leaks=1:strict_string_checks=1 \
UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1 \
  net_e2e build-asan

step "sanitizer build (TSan, -Werror)"
cmake -B build-tsan -S . \
  -DAUTOINDEX_SANITIZE=thread -DAUTOINDEX_WERROR=ON >/dev/null
cmake --build build-tsan -j "${JOBS}"

step "tier-1 + concurrency + lifecycle tests under TSan"
TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1 \
  ctest --test-dir build-tsan -L 'tier1|concurrency|lifecycle' \
  --output-on-failure

step "OK"
