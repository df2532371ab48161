#!/bin/sh
# bench_compare.sh [REF] — run the benchmark suite on a base git ref and on
# the working tree, then print a benchstat-style before/after table
# (old ns/op, new ns/op, delta, plus MB/s where reported).
#
# bench_compare.sh --gate [MAX_DROP] — the CI perf-regression gate:
# regenerate the BENCH_*.json artifacts BENCH_RUNS times (default 3) into
# per-run subdirectories and compare them against the committed baselines
# in the repo root, failing (exit 1) when any tracked MB/s or req/s metric
# drops more than MAX_DROP percent (default 10). Each metric is judged on
# its median across the runs, so one noisy regeneration on a loaded host
# cannot flake the gate. A `[bench-skip]` marker anywhere in the last
# commit message skips the gate — the escape hatch for commits that
# knowingly trade throughput. The markdown delta table is printed to
# stdout and, when GITHUB_STEP_SUMMARY is set, appended there too.
#
# The base ref is checked out into a temporary git worktree, so the working
# tree (including uncommitted changes) is never touched. Environment knobs:
#   BENCH  benchmark regexp             (default: Scan|Serve|Conv|Signature)
#   COUNT  -count per side              (default: 3; best-of is compared)
#   PKGS   packages to benchmark        (default: . ./internal/qinfer/)
set -eu

if [ "${1:-}" = "--gate" ]; then
	MAX_DROP=${2:-10}
	root=$(git rev-parse --show-toplevel)
	cd "$root"
	if git log -1 --pretty=%B | grep -qF '[bench-skip]'; then
		echo "perf gate skipped: [bench-skip] in the last commit message"
		if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
			echo "Perf gate skipped (\`[bench-skip]\`)." >> "$GITHUB_STEP_SUMMARY"
		fi
		exit 0
	fi
	# BENCH_OUT keeps the fresh artifacts (CI uploads them); otherwise
	# they live in a scratch directory removed on exit.
	if [ -n "${BENCH_OUT:-}" ]; then
		fresh=$BENCH_OUT
		mkdir -p "$fresh"
	else
		fresh=$(mktemp -d)
		trap 'rm -rf "$fresh"' EXIT
	fi
	RUNS=${BENCH_RUNS:-3}
	freshflags=""
	i=1
	while [ "$i" -le "$RUNS" ]; do
		echo "== regenerating BENCH artifacts into $fresh/run$i ($i/$RUNS) =="
		mkdir -p "$fresh/run$i"
		make bench-artifacts BENCH_OUT="$fresh/run$i"
		freshflags="$freshflags -fresh $fresh/run$i"
		i=$((i + 1))
	done
	# The first run's artifacts double as the uploadable set at the root
	# of BENCH_OUT (CI's artifact glob expects them there).
	cp "$fresh"/run1/BENCH_*.json "$fresh"/
	echo "== gating against committed baselines (max drop ${MAX_DROP}%, median of $RUNS runs) =="
	status=0
	# $freshflags intentionally unquoted: it expands to repeated
	# "-fresh DIR" pairs (mktemp/CI paths carry no spaces).
	go run ./cmd/radar-bench -gate -baseline . $freshflags -max-drop "$MAX_DROP" \
		> "$fresh/gate.md" || status=$?
	cat "$fresh/gate.md"
	if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
		cat "$fresh/gate.md" >> "$GITHUB_STEP_SUMMARY"
	fi
	exit $status
fi

REF=${1:-HEAD~1}
BENCH=${BENCH:-'Scan|Serve|Conv|Signature'}
COUNT=${COUNT:-3}
PKGS=${PKGS:-'. ./internal/qinfer/'}

root=$(git rev-parse --show-toplevel)
cd "$root"
refid=$(git rev-parse --short "$REF")
work=$(mktemp -d)
old_out="$work/old.bench"
new_out="$work/new.bench"
trap 'git worktree remove --force "$work/base" >/dev/null 2>&1 || true; rm -rf "$work"' EXIT

echo "== base: $REF ($refid) =="
git worktree add --detach "$work/base" "$REF" >/dev/null
# Benchmarks need the cached checkpoints; share them with the base tree.
if [ -d testdata ] && [ ! -e "$work/base/testdata" ]; then
	rm -rf "$work/base/testdata"
	ln -s "$root/testdata" "$work/base/testdata"
fi
if ! (cd "$work/base" && go test -run '^$' -bench "$BENCH" -benchtime 1s -count "$COUNT" $PKGS) > "$old_out" 2>"$work/old.err"; then
	echo "error: benchmarks failed on base ref $REF:" >&2
	cat "$work/old.err" >&2
	exit 1
fi
grep -c '^Benchmark' "$old_out" | xargs echo "  benchmarks:"

echo "== head: working tree =="
if ! go test -run '^$' -bench "$BENCH" -benchtime 1s -count "$COUNT" $PKGS > "$new_out" 2>"$work/new.err"; then
	echo "error: benchmarks failed on the working tree:" >&2
	cat "$work/new.err" >&2
	exit 1
fi
grep -c '^Benchmark' "$new_out" | xargs echo "  benchmarks:"

# An empty side would silently skew the awk join below.
[ -s "$old_out" ] && [ -s "$new_out" ] || { echo "error: empty benchmark output" >&2; exit 1; }

echo
awk '
function best(map, name, v) { if (!(name in map) || v < map[name]) map[name] = v }
FNR == 1 { side++ }
/^Benchmark/ {
	name = $1; sub(/-[0-9]+$/, "", name)
	for (i = 2; i <= NF; i++) if ($(i+1) == "ns/op") { ns = $i + 0 }
	for (i = 2; i <= NF; i++) if ($(i+1) == "MB/s") { mb = $i + 0 }
	if (side == 1) { best(oldNs, name, ns); if (mb) { if (!(name in oldMb) || mb > oldMb[name]) oldMb[name] = mb } }
	else          { best(newNs, name, ns); if (mb) { if (!(name in newMb) || mb > newMb[name]) newMb[name] = mb }
	                if (!(name in seen)) { order[++n] = name; seen[name] = 1 } }
	mb = 0
}
END {
	printf "%-52s %14s %14s %9s %10s\n", "benchmark (best of runs)", "old ns/op", "new ns/op", "delta", "new MB/s"
	for (i = 1; i <= n; i++) {
		name = order[i]
		if (!(name in oldNs)) { printf "%-52s %14s %14.0f %9s %10s\n", name, "-", newNs[name], "new", newMb[name] ? sprintf("%.0f", newMb[name]) : ""; continue }
		d = (oldNs[name] - newNs[name]) / oldNs[name] * 100
		printf "%-52s %14.0f %14.0f %+8.1f%% %10s\n", name, oldNs[name], newNs[name], d, (name in newMb) ? sprintf("%.0f", newMb[name]) : ""
	}
}' "$old_out" "$new_out"
