#!/usr/bin/env bash
# Runs the paper benches (fig01-fig10, table1-3, ext_partition_ablation)
# from two build directories and diffs their output. The benches print
# deterministic cost units, so a change meant to keep the tuner's
# decisions shows no difference. Wall-clock fields are masked:
#   - every "<number> ms",
#   - fig08's "(<number>% less)" overhead reductions,
#   - fig09's "mgmt ms (G/A)" column ("<ms>/<ms>" at the end of a row).
#
#   scripts/paper_bench_diff.sh BUILD_A BUILD_B
#
# Exits 0 when every bench matches, 1 on any difference (printed as a
# unified diff), 2 on bad usage, a missing binary or a failed bench. Run a
# build against itself to check that the masks cover every timing field.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 BUILD_A BUILD_B" >&2
  exit 2
fi

BENCHES=(
  fig01_banking_removal fig05_tpcc_comparison fig06_tpcds_reduction
  fig07_tpcds_optimized fig08_template_ablation fig09_dynamic_workload
  fig10_storage_limits table1_added_indexes table2_banking_creation
  table3_example_indexes ext_partition_ablation
)

for build in "$1" "$2"; do
  for bench in "${BENCHES[@]}"; do
    if [[ ! -x "$build/bench/$bench" ]]; then
      echo "$0: $build/bench/$bench not found; build it first" >&2
      exit 2
    fi
  done
done

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

mask() {
  sed -E \
    -e 's/[[:space:]]*[0-9]+(\.[0-9]+)? ms/ N ms/g' \
    -e 's/\([0-9]+(\.[0-9]+)?% less\)/(N% less)/g' \
    -e 's/[0-9]+\/[0-9]+[[:space:]]*$/N\/N/'
}

# One bench at a time, its two builds side by side: two processes at most.
status=0
for bench in "${BENCHES[@]}"; do
  "$1/bench/$bench" > "$out/a.raw" 2>&1 &
  pid_a=$!
  "$2/bench/$bench" > "$out/b.raw" 2>&1 &
  pid_b=$!
  if ! wait "$pid_a" || ! wait "$pid_b"; then
    wait || true
    echo "$0: $bench failed" >&2
    exit 2
  fi
  mask < "$out/a.raw" > "$out/a.txt"
  mask < "$out/b.raw" > "$out/b.txt"
  if diff -u --label "$1/$bench" --label "$2/$bench" \
      "$out/a.txt" "$out/b.txt"; then
    echo "same: $bench"
  else
    status=1
  fi
done
exit "$status"
