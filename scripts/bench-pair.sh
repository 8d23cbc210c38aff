#!/usr/bin/env bash
# Paired benchmark runs of this checkout against a reference commit, judged by
# the rule perf PRs are held to (/opt/skills/guides/choosing-metrics §8):
# ten pairs, alternating which side runs first, a fresh seed per pair (both
# sides of a pair get the same one); a gain counts only if the change wins at
# least nine tenths of the pairs and the medians differ by more than the
# reference's own interquartile range.
#
#   scripts/bench-pair.sh <workload> <ref-commit> [pairs]
#   make bench-pair W=t1_large REF=HEAD~1
#
# The reference is checked out into a temporary git worktree (removed on
# exit); REF_DIR=<dir> uses an existing checkout of it instead. SECS
# overrides the run length (default 28, what BENCHMARK.json gates on) and
# SEED the first seed (default: the clock).
set -euo pipefail

if [ $# -lt 2 ]; then
	sed -n '2,16p' "$0" >&2
	exit 2
fi
workload=$1 ref=$2 pairs=${3:-10}
secs=${SECS:-28}
seed0=${SEED:-$(date +%s)}
root=$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)

ref_dir=${REF_DIR:-}
tmp=$(mktemp -d)
cleanup() {
	if [ -z "${REF_DIR:-}" ]; then
		git -C "$root" worktree remove --force "$tmp/ref" >/dev/null 2>&1 || true
	fi
	rm -rf "$tmp"
}
trap cleanup EXIT
if [ -z "$ref_dir" ]; then
	ref_dir=$tmp/ref
	git -C "$root" worktree add --detach "$ref_dir" "$ref" >&2
fi

# run <checkout> <seed>: the run's result line (the last line of stdout).
run() {
	(cd "$1" && bash benchmark/run.sh --workload "$workload" --seed "$2" --seconds "$secs" --trace 0 2>/dev/null | tail -n 1)
}

echo "workload $workload, $pairs pairs of $secs s: change = $root, reference = $ref ($ref_dir)" >&2
for i in $(seq 1 "$pairs"); do
	seed=$((seed0 + i))
	if [ $((i % 2)) -eq 1 ]; then
		run "$ref_dir" "$seed" >>"$tmp/ref.jsonl"
		run "$root" "$seed" >>"$tmp/new.jsonl"
	else
		run "$root" "$seed" >>"$tmp/new.jsonl"
		run "$ref_dir" "$seed" >>"$tmp/ref.jsonl"
	fi
	echo "pair $i (seed $seed) done" >&2
done

# value <file> <metric>: one value per run.
value() {
	sed -E "s/.*\"$2\":\\{\"value\":([0-9.eE+-]+).*/\\1/" "$1"
}

status=0
for side in ref new; do
	if grep -vq '"correct":true' "$tmp/$side.jsonl"; then
		echo "WARNING: a $side run failed an operation or an answer check:" >&2
		grep -v '"correct":true' "$tmp/$side.jsonl" >&2
		status=1
	fi
done

printf '%-18s %-6s %12s %12s %12s   %s\n' metric side q1 median q3 verdict
for spec in throughput_ops_s:higher p50_us:lower p99_us:lower setup_s:lower; do
	metric=${spec%%:*} better=${spec##*:}
	paste <(value "$tmp/ref.jsonl" "$metric") <(value "$tmp/new.jsonl" "$metric") |
		awk -v metric="$metric" -v better="$better" '
		function sorted(a, n,    i, j, v) {
			for (i = 2; i <= n; i++) {
				v = a[i]
				for (j = i - 1; j >= 1 && a[j] > v; j--) a[j + 1] = a[j]
				a[j + 1] = v
			}
		}
		function quantile(a, n, p,    h, lo) {
			h = (n - 1) * p + 1; lo = int(h)
			return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
		}
		{
			n++; r[n] = $1; c[n] = $2
			if (better == "higher" ? $2 > $1 : $2 < $1) wins++
			else if ($2 != $1) losses++
		}
		END {
			sorted(r, n); sorted(c, n)
			rq1 = quantile(r, n, .25); rmed = quantile(r, n, .5); rq3 = quantile(r, n, .75)
			cq1 = quantile(c, n, .25); cmed = quantile(c, n, .5); cq3 = quantile(c, n, .75)
			gain = better == "higher" ? cmed - rmed : rmed - cmed
			iqr = rq3 - rq1
			verdict = sprintf("change won %d of %d pairs (lost %d); medians %+.1f%% apart, reference IQR %.1f%% of its median: ",
				wins, n, losses, 100 * (cmed - rmed) / rmed, 100 * iqr / rmed)
			if (10 * wins >= 9 * n && gain > iqr) verdict = verdict "GAIN"
			else if (10 * losses >= 9 * n && -gain > iqr) verdict = verdict "LOSS"
			else verdict = verdict "no resolved difference"
			printf "%-18s %-6s %12.3f %12.3f %12.3f\n", metric, "ref", rq1, rmed, rq3
			printf "%-18s %-6s %12.3f %12.3f %12.3f   %s\n", metric, "change", cq1, cmed, cq3, verdict
		}'
done
exit $status
