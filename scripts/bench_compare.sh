#!/bin/sh
# bench_compare.sh [REF] [RUNS] — the perf-regression gate: run the
# benchmark (BENCHMARK.json, benchmark/) RUNS times (default 3) on a base
# git ref (default HEAD~1) and on the working tree, then hold the two run
# sets against each other with `-compare`. That command folds each set to
# per-metric medians, applies BENCHMARK.json's bounds, reports `unresolved`
# where the run-to-run spread exceeds the bound (three runs are the fewest
# that give one), refuses sets taken under different nproc/GOMAXPROCS, and
# exits 1 on a regression — which is this script's exit code.
#
# Both sides run from fresh temporary directories — the base ref as a
# detached worktree, the working tree (uncommitted and untracked files
# included) as a copy — on the same machine minutes apart, so there is no
# committed baseline to go stale and the working tree is never touched.
# The copy is not a nicety: run in place, a long-lived checkout read
# ≈10 % slower on setup_s than a fresh one of the same source. Which side
# runs first alternates per pair. One full run is four workloads, measured
# then traced — about 3 minutes on two cores. Result files and the table
# stay in benchmark/out/compare/.
set -eu

REF=${1:-HEAD~1}
RUNS=${2:-3}

root=$(git rev-parse --show-toplevel)
cd "$root"
out=$root/benchmark/out/compare
rm -rf "$out"
mkdir -p "$out"
work=$(mktemp -d)
trap 'git worktree remove --force "$work/base" >/dev/null 2>&1 || true; rm -rf "$work"' EXIT
git worktree add --detach "$work/base" "$REF" >/dev/null
mkdir "$work/head"
tar --exclude=./.git --exclude=./benchmark/out -cf - . | tar -xf - -C "$work/head"
echo "== base: $REF ($(git rev-parse --short "$REF")), head: working tree, $RUNS pairs =="

a="" b=""
i=1
while [ "$i" -le "$RUNS" ]; do
	order="base head"
	[ $((i % 2)) = 1 ] || order="head base"
	for side in $order; do
		echo "== pair $i/$RUNS: $side =="
		go run -C "$work/$side/benchmark" . -out "$out/$side$i.json"
	done
	a="$a${a:+,}$out/base$i.json"
	b="$b${b:+,}$out/head$i.json"
	i=$((i + 1))
done

status=0
go run -C benchmark . -compare "$a" "$b" >"$out/compare.txt" || status=$?
cat "$out/compare.txt"
exit $status
