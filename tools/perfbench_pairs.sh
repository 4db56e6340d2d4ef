#!/bin/sh
# Alternating-pairs comparison of the working tree against a base
# revision on one perfbench workload.
#
#   tools/perfbench_pairs.sh BASE WORKLOAD
#
# Checks BASE out into a temporary git worktree, builds perfbench on
# both sides, then runs 10 untraced 10-second pairs at seeds 1..10,
# base first on odd seeds and head first on even ones.  Prints each
# side's median, quartiles and head's win count per end-to-end metric
# of BENCHMARK.json and the seeds whose modelled metrics differ, and
# removes the worktree on exit.  Takes about
# 20 x (10 s + set-up).  A run that exits non-zero stops the script
# with that run's stderr.
set -eu

usage="usage: perfbench_pairs.sh BASE WORKLOAD"
base=${1:?$usage}
workload=${2:?$usage}
pairs=10

head=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
cleanup() {
  git -C "$head" worktree remove --force "$tmp/base" 2>/dev/null || true
  git -C "$head" worktree prune
  rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

git -C "$head" worktree add --quiet --detach "$tmp/base" "$base"
for side in "$tmp/base" "$head"; do
  (cd "$side" && dune build --root . --display quiet perfbench/main.exe)
done
(cd "$head" && dune build --root . --display quiet tools/pairs.exe)

run() { # side out seed
  if ! (cd "$1" && ./_build/default/perfbench/main.exe --workload "$workload" \
          --seed "$3" --seconds 10 --trace 0) > "$tmp/run.out" 2> "$tmp/run.err"; then
    echo "perfbench failed in $1 at seed $3:" >&2
    cat "$tmp/run.err" >&2
    exit 1
  fi
  tail -n 1 "$tmp/run.out" >> "$2"
}

: > "$tmp/base.jsonl"
: > "$tmp/head.jsonl"
seed=1
while [ "$seed" -le "$pairs" ]; do
  if [ $((seed % 2)) -eq 1 ]; then
    run "$tmp/base" "$tmp/base.jsonl" "$seed"
    run "$head" "$tmp/head.jsonl" "$seed"
  else
    run "$head" "$tmp/head.jsonl" "$seed"
    run "$tmp/base" "$tmp/base.jsonl" "$seed"
  fi
  echo "pair $seed of $pairs done" >&2
  seed=$((seed + 1))
done

echo "$workload: base $(git -C "$tmp/base" rev-parse --short HEAD) vs working tree"
"$head/_build/default/tools/pairs.exe" "$head/BENCHMARK.json" "$tmp/base.jsonl" "$tmp/head.jsonl"
