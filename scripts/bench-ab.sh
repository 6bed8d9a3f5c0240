#!/usr/bin/env bash
# Paired A/B runs of the end-to-end benchmark: a reference commit against
# the working tree.
#
#   make bench-ab REF=<commit> [WORKLOAD=figures] [SEED=1] [PAIRS=10]
#   REF=<commit> bash scripts/bench-ab.sh
#
# Run it from the repository root. REF is exported with `git archive` into
# a temporary directory, a clean tree that leaves no worktree entry behind
# in .git if the run is interrupted. Each pair runs
# `bash perfbench/run.sh --workload W --seed S --seconds N --trace 0` once
# in each tree, and the side that runs first alternates from pair to pair.
# N is BENCHMARK.json's run_seconds.
#
# For each end-to-end metric in BENCHMARK.json the report gives each
# side's median and quartiles, the change's wins out of the pairs (ties
# count for neither), and a verdict: a gap is "resolved" only over at
# least 10 pairs, when one side wins at least 9 in 10 of them and the
# medians differ by more than the reference's interquartile range;
# anything else is "unresolved". "bound"
# says whether the change's median is within the metric's bound of the
# reference's, in its worse direction. Every run's output is kept under
# .bench_build/ab/.
set -euo pipefail

ref="${REF:-}"
if [ -z "$ref" ]; then
	echo "usage: make bench-ab REF=<commit> [WORKLOAD=figures] [SEED=1] [PAIRS=10]" >&2
	exit 2
fi
workload="${WORKLOAD:-figures}"
seed="${SEED:-1}"
pairs="${PAIRS:-10}"
root="$(pwd)"
[ -f "$root/BENCHMARK.json" ] || { echo "bench-ab: run from the repository root" >&2; exit 2; }
secs="$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' "$root/BENCHMARK.json")"
[ -n "$secs" ] || { echo "bench-ab: no run_seconds in BENCHMARK.json" >&2; exit 2; }
sha="$(git rev-parse --verify "$ref^{commit}")"

tmp="$(mktemp -d "${TMPDIR:-/tmp}/bench-ab.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT
git archive "$sha" | tar -x -C "$tmp"
out="$root/.bench_build/ab/$(date -u +%Y%m%dT%H%M%SZ)-$workload-s$seed"
mkdir -p "$out"

# run SIDE DIR PAIR: one benchmark run; its last output line is the JSON
# summary.
run() {
	echo "bench-ab: pair $3/$pairs: $1" >&2
	(cd "$2" && bash perfbench/run.sh --workload "$workload" --seed "$seed" --seconds "$secs" --trace 0) \
		>"$out/$1-$3.txt" 2>"$out/$1-$3.err" || {
		echo "bench-ab: $1 run $3 failed; see $out/$1-$3.err" >&2
		exit 1
	}
	tail -n 1 "$out/$1-$3.txt" >>"$out/$1.jsonl"
}
for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		run ref "$tmp" "$i"
		run change "$root" "$i"
	else
		run change "$root" "$i"
		run ref "$tmp" "$i"
	fi
done

# values SIDE METRIC: the metric's value in each of SIDE's runs, one a line.
values() {
	sed -n 's/.*"'"$2"'":{"value":\([^,}]*\).*/\1/p' "$out/$1.jsonl"
}

echo "workload $workload, seed $seed, $pairs pairs of ${secs}-s runs: ref $(git rev-parse --short "$sha") vs working tree $(git describe --always --dirty)"
for side in ref change; do
	awk -v side="$side" '
		/"correct":false/ { bad++ }
		{ if (match($0, /"failed":[0-9]+/)) failed += substr($0, RSTART + 9, RLENGTH - 9)
		  if (match($0, /"attempted":[0-9]+/)) attempted += substr($0, RSTART + 12, RLENGTH - 12) }
		END { printf "%s: %d attempted, %d failed, %d incorrect runs\n", side, attempted, failed, bad }
	' "$out/$side.jsonl"
done
printf '%-15s %-6s %-28s %-28s %8s %6s %-11s %s\n' metric better "ref median [q1, q3]" "change median [q1, q3]" delta wins bound verdict
sed -n 's/.*"name": *"\([^"]*\)".*"better": *"\([a-z]*\)".*"bound": *\([0-9.]*\).*/\1 \2 \3/p' "$root/BENCHMARK.json" |
	while read -r name better bound; do
		paste -d ' ' <(values ref "$name") <(values change "$name") |
			awk -v name="$name" -v better="$better" -v bound="$bound" '
			function sort(a, n,   i, j, t) {
				for (i = 2; i <= n; i++)
					for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
			}
			# q: the p-quantile of sorted a[1..n], linearly interpolated.
			function q(a, n, p,   h, k) {
				h = (n - 1) * p + 1; k = int(h)
				return k >= n ? a[n] : a[k] + (h - k) * (a[k+1] - a[k])
			}
			function f(x) { return sprintf(x >= 1000 ? "%.0f" : "%.4g", x) }
			{ n++; r[n] = $1; c[n] = $2
			  if (better == "lower" ? $2 < $1 : $2 > $1) win++
			  else if ($1 != $2) loss++ }
			END {
				if (n == 0) exit
				sort(r, n); sort(c, n)
				rm = q(r, n, .5); cm = q(c, n, .5); iqr = q(r, n, .75) - q(r, n, .25)
				gap = cm - rm; if (gap < 0) gap = -gap
				verdict = "unresolved"
				if (n >= 10 && gap > iqr && win * 10 >= 9 * n) verdict = "resolved: better"
				if (n >= 10 && gap > iqr && loss * 10 >= 9 * n) verdict = "resolved: worse"
				worse = better == "lower" ? cm - rm : rm - cm
				within = (worse > bound * rm) ? "over " bound : "within " bound
				delta = (rm == 0) ? 0 : 100 * (cm - rm) / rm
				printf "%-15s %-6s %-28s %-28s %+7.1f%% %3d/%-2d %-11s %s\n", name, better,
					f(rm) " [" f(q(r, n, .25)) ", " f(q(r, n, .75)) "]",
					f(cm) " [" f(q(c, n, .25)) ", " f(q(c, n, .75)) "]",
					delta, win + 0, n, within, verdict
			}'
	done
echo "runs: $out"
