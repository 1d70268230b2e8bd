#!/usr/bin/env bash
# Runs bench/plan_dump from two build directories over the same seeds and
# compares what they executed: the tuning rounds and tuned index set, each
# query's result digest, and each query's executed operator tree with its
# counters. The planner's estimates ("(est. R rows, cost C)") are masked,
# so a change that only moves estimates shows no difference.
#
#   scripts/plan_diff.sh BUILD_A BUILD_B [SEED...]   (default seeds 1-10)
#
# Prints a summary (tuning, results, plans), then a unified diff of the
# masked dumps. Exits 0 when the dumps match, 1 on any difference, 2 on bad
# usage, a missing binary or a failed dump.
set -euo pipefail

if [[ $# -lt 2 ]]; then
  echo "usage: $0 BUILD_A BUILD_B [SEED...]" >&2
  exit 2
fi
a=$1
b=$2
shift 2
seeds=("$@")
if [[ ${#seeds[@]} -eq 0 ]]; then seeds=(1 2 3 4 5 6 7 8 9 10); fi

for build in "$a" "$b"; do
  if [[ ! -x "$build/bench/plan_dump" ]]; then
    echo "$0: $build/bench/plan_dump not found; build it first" >&2
    exit 2
  fi
done

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# Two processes at most: the two builds side by side.
"$a/bench/plan_dump" "${seeds[@]}" > "$out/a.raw" &
pid_a=$!
"$b/bench/plan_dump" "${seeds[@]}" > "$out/b.raw" &
pid_b=$!
if ! wait "$pid_a" || ! wait "$pid_b"; then
  wait || true
  echo "$0: plan_dump failed" >&2
  exit 2
fi

for side in a b; do
  sed -E 's/\(est\. [-0-9.e+a-z]+ rows, cost [-0-9.e+a-z]+\)/(est. N rows, cost N)/' \
    "$out/$side.raw" > "$out/$side.txt"
  # One line per query: "seed S side qN<TAB>result ...<TAB>tree".
  awk -F'\n' '
    /^=== seed / { seed = $0; sub(/^=== seed /, "", seed); next }
    /^-- / {
      split($0, w, " ")
      key = "seed " seed " " w[2] " " w[3]
      sub(/:$/, "", key)
      tree = ""
      next
    }
    key != "" && /^result: / { print key "\t" $0 "\t" tree; key = ""; next }
    key != "" { tree = tree $0 " / " }
  ' "$out/$side.txt" > "$out/$side.queries"
  grep -E '^(=== seed|round |  [+-] |  apply error|tuning:|tuned set:)' \
    "$out/$side.txt" > "$out/$side.tuning" || true
done

# Queries whose column 2 (result) or 3 (tree) differs between the sides.
differing() {
  paste "$out/a.queries" "$out/b.queries" |
    awk -F'\t' -v col="$1" '$1 != $4 { print "misaligned"; exit }
                            $col != $(col + 3) { print $1 }'
}

status=0
if diff -q "$out/a.tuning" "$out/b.tuning" > /dev/null; then
  echo "tuning: same ($(grep -c '^tuning:' "$out/a.tuning") runs)"
else
  echo "tuning: DIFFERS"
  diff -u --label "$a tuning" --label "$b tuning" \
    "$out/a.tuning" "$out/b.tuning" || true
  status=1
fi
results=$(differing 2)
if [[ -z "$results" ]]; then
  echo "results: same ($(wc -l < "$out/a.queries") queries)"
else
  echo "results: DIFFER in $(wc -l <<< "$results") queries:"
  sed 's/^/  /' <<< "$results"
  status=1
fi
plans=$(differing 3)
if [[ -z "$plans" ]]; then
  echo "plans: same"
else
  echo "plans: differ in $(wc -l <<< "$plans") queries:"
  sed 's/^/  /' <<< "$plans"
  status=1
fi
if [[ $status -ne 0 ]]; then
  diff -u --label "$a/bench/plan_dump" --label "$b/bench/plan_dump" \
    "$out/a.txt" "$out/b.txt" || true
fi
exit "$status"
