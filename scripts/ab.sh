#!/usr/bin/env bash
# Same-machine A/B run of the repository benchmark (BENCHMARK.json,
# bench/). Builds two commits in git worktrees under .verify/, runs one
# workload on each for ten interleaved pairs at BENCHMARK.json's
# run_seconds, alternating which side runs first, and prints, for every
# end-to-end metric, each side's median and quartiles and how many pairs
# each side won (ties count for neither).
#
# Usage: scripts/ab.sh BASE HEAD WORKLOAD SEED
#
#   scripts/ab.sh HEAD~1 HEAD serve-cold 1
#
# Every run uses SEED, so both sides see the same inputs. The script
# exits 1 as soon as a run reports correct:false or failed>0, or prints
# no result line. The worktrees are removed on every exit.
set -euo pipefail

if [ $# -ne 4 ]; then
	echo "usage: scripts/ab.sh BASE HEAD WORKLOAD SEED" >&2
	exit 2
fi
cd "$(git rev-parse --show-toplevel)"
base=$(git rev-parse --verify "$1^{commit}")
head=$(git rev-parse --verify "$2^{commit}")
workload=$3
seed=$4
pairs=10

seconds=$(sed -n 's/^ *"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)
# One end-to-end metric per line of BENCHMARK.json: name, better, bound.
# A metric line without all three (say, after a reformat that splits
# the objects over several lines) is an error, not a guess.
metrics=$(awk '
	/"end_to_end"/ { on = 1 }
	on && /"name"/ {
		match($0, /"name": *"[^"]*"/); n = substr($0, RSTART, RLENGTH); sub(/.*: *"/, "", n); sub(/"$/, "", n)
		match($0, /"better": *"[^"]*"/); b = substr($0, RSTART, RLENGTH); sub(/.*: *"/, "", b); sub(/"$/, "", b)
		match($0, /"bound": *[0-9.]+/); d = substr($0, RSTART, RLENGTH); sub(/.*: */, "", d)
		if (n == "" || (b != "lower" && b != "higher") || d !~ /^[0-9]*\.?[0-9]+$/) {
			print "ab: end_to_end metric without a name, a better of lower or higher, and a numeric bound on one line of BENCHMARK.json: " $0 > "/dev/stderr"
			exit 1
		}
		print n, b, d
	}
	on && /\]/ { exit }' BENCHMARK.json)
if [ -z "$seconds" ] || [ -z "$metrics" ]; then
	echo "ab: cannot read run_seconds and end_to_end from BENCHMARK.json" >&2
	exit 1
fi

wt=.verify
remove_worktrees() {
	for side in base head; do
		if [ -d "$wt/ab-$side" ]; then
			chmod -R u+w "$wt/ab-$side" 2>/dev/null || true
			rm -rf "$wt/ab-$side"
		fi
	done
	git worktree prune
	rmdir "$wt" 2>/dev/null || true
}
tmp=$(mktemp -d)
trap 'remove_worktrees; rm -rf "$tmp"' EXIT
remove_worktrees # a killed earlier run may have left its worktrees behind
echo "$metrics" >"$tmp/metrics"
git worktree add --quiet --detach "$wt/ab-base" "$base"
git worktree add --quiet --detach "$wt/ab-head" "$head"

echo "ab: $workload seed $seed, $pairs pairs of ${seconds}s runs" >&2
echo "ab: base $base" >&2
echo "ab: head $head" >&2

# run PAIR SIDE appends "pair side metric value" lines to $tmp/values.
run() {
	local pair=$1 side=$2 line name value
	line=$(cd "$wt/ab-$side" &&
		bash bench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
			2>"$tmp/$side.log" | tail -n 1) || true
	if ! [[ $line == *'"correct":true'* && $line =~ \"failed\":0[,}] ]]; then
		echo "ab: pair $((pair + 1)) $side failed: ${line:-no result line}" >&2
		tail -n 20 "$tmp/$side.log" >&2
		exit 1
	fi
	while read -r name _; do
		value=$(sed -n "s/.*[{,]\"$name\":{\"value\":\([^,}]*\).*/\1/p" <<<"$line")
		if [ -z "$value" ]; then
			echo "ab: pair $((pair + 1)) $side: no $name in the result line" >&2
			exit 1
		fi
		echo "$pair $side $name $value" >>"$tmp/values"
	done <<<"$metrics"
	echo "ab: pair $((pair + 1))/$pairs $side done" >&2
}

for ((i = 0; i < pairs; i++)); do
	if ((i % 2 == 0)); then
		run "$i" base
		run "$i" head
	else
		run "$i" head
		run "$i" base
	fi
done

# Quartiles are statistics.quantiles(values, n=4) (the exclusive method),
# as in bench/README.md.
awk -v pairs="$pairs" '
function sortn(a, n,    i, j, v) {
	for (i = 2; i <= n; i++) {
		v = a[i]
		for (j = i - 1; j >= 1 && a[j] > v; j--) a[j + 1] = a[j]
		a[j + 1] = v
	}
}
function quart(a, n, i,    m, j, d) {
	m = n + 1
	j = int(i * m / 4)
	if (j < 1) j = 1
	if (j > n - 1) j = n - 1
	d = i * m - j * 4
	return (a[j] * (4 - d) + a[j + 1] * d) / 4
}
NR == FNR { name[++nm] = $1; better[nm] = $2; bound[nm] = $3; next }
{ v[$3, $2, $1] = $4 }
END {
	printf "%-15s %-7s %-34s %-34s %9s %6s %10s\n", "metric", "better", "base median [q1, q3]", "head median [q1, q3]", "change", "bound", "head wins"
	for (k = 1; k <= nm; k++) {
		wins = 0
		for (p = 0; p < pairs; p++) {
			b[p + 1] = v[name[k], "base", p] + 0
			h[p + 1] = v[name[k], "head", p] + 0
			if (h[p + 1] != b[p + 1] && (better[k] == "lower") == (h[p + 1] < b[p + 1])) wins++
		}
		sortn(b, pairs); sortn(h, pairs)
		bm = quart(b, pairs, 2); hm = quart(h, pairs, 2)
		change = bm != 0 ? sprintf("%+.1f%%", 100 * (hm - bm) / bm) : "n/a"
		printf "%-15s %-7s %-34s %-34s %9s %6s %10s\n", name[k], better[k],
			sprintf("%.4g [%.4g, %.4g]", bm, quart(b, pairs, 1), quart(b, pairs, 3)),
			sprintf("%.4g [%.4g, %.4g]", hm, quart(h, pairs, 1), quart(h, pairs, 3)),
			change, bound[k], sprintf("%d/%d", wins, pairs)
	}
}' "$tmp/metrics" "$tmp/values"
