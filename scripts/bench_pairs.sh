#!/usr/bin/env bash
# Paired benchmark comparison of the working tree against a base commit:
#
#   scripts/bench_pairs.sh <base-ref> <workload> [pairs=10]
#
# Extracts <base-ref> with git archive under .bench_build/ (removed again
# on exit, so no second source tree lingers in the checkout), then runs
# perfbench/run.sh for the base and for the working tree alternately, one
# pair per seed 1..pairs, flipping which side runs first on every pair so
# drift on a shared host falls on both sides alike. For each end-to-end
# metric BENCHMARK.json declares it prints both sides' median and
# quartiles and the number of pairs the working tree won (strictly better
# in the metric's declared direction). Nothing under perfbench/ is changed.
# The raw perfbench output of every run stays in .bench_build/pairs-*/.
# Both sides run for perfbench's own default run length.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ]; then
	echo "usage: $0 <base-ref> <workload> [pairs=10]" >&2
	exit 2
fi
ref=$1
workload=$2
pairs=${3:-10}

root=$(pwd)
sha=$(git rev-parse --verify "$ref^{commit}")
base="$root/.bench_build/base-$sha"
rm -rf "$base"
mkdir -p "$base"
trap 'rm -rf "$base"' EXIT
trap 'exit 1' INT TERM
git archive "$sha" | tar -x -C "$base"
out="$root/.bench_build/pairs-$workload-$(date +%Y%m%d-%H%M%S)"
mkdir -p "$out"

# run SIDE SEED: one perfbench run; its JSON line goes to $out/SIDE.jsonl.
run() {
	local dir=$root
	if [ "$1" = base ]; then
		dir=$base
	fi
	local log="$out/$1-seed$2.log"
	if ! (cd "$dir" && bash perfbench/run.sh --workload "$workload" --seed "$2" \
		--trace 0) >"$log" 2>&1; then
		echo "$1 seed $2: perfbench failed, see $log" >&2
		exit 1
	fi
	tail -n 1 "$log" >>"$out/$1.jsonl"
	echo "$1 seed $2: $(tail -n 1 "$log")"
}

for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		run base "$i"
		run change "$i"
	else
		run change "$i"
		run base "$i"
	fi
done

# Summarize. Directions come from BENCHMARK.json's end_to_end entries;
# values from each run's {"metrics":{"name":{"value":v,...}}} line.
awk -v out="$out" '
function quant(a, n, q,    x, lo) {
	x = (n - 1) * q
	lo = int(x)
	return lo + 1 < n ? a[lo] + (x - lo) * (a[lo + 1] - a[lo]) : a[lo]
}
function sortn(a, n,    i, j, t) {
	for (i = 1; i < n; i++)
		for (j = i; j > 0 && a[j - 1] > a[j]; j--) {
			t = a[j]; a[j] = a[j - 1]; a[j - 1] = t
		}
}
FILENAME ~ /BENCHMARK.json$/ {
	if ($0 ~ /"end_to_end"/) inE2E = 1
	else if (inE2E && $0 ~ /^  \]/) inE2E = 0
	if (inE2E && match($0, /"name": *"[^"]*"/)) {
		name = substr($0, RSTART, RLENGTH); sub(/"name": *"/, "", name); sub(/"$/, "", name)
		names[nn++] = name
	}
	if (inE2E && match($0, /"better": *"[a-z]*"/)) {
		b = substr($0, RSTART, RLENGTH); sub(/"better": *"/, "", b); sub(/"$/, "", b)
		better[name] = b
	}
	next
}
{
	side = FILENAME ~ /base\.jsonl$/ ? "base" : "change"
	row = count[side]++
	for (k = 0; k < nn; k++) {
		pat = "\"" names[k] "\":\\{\"value\":[-0-9.eE+]*"
		if (match($0, pat)) {
			v = substr($0, RSTART, RLENGTH); sub(/.*"value":/, "", v)
			val[side, names[k], row] = v + 0
		}
	}
	if (match($0, /"failed":[0-9]+/)) { f = substr($0, RSTART, RLENGTH); sub(/.*:/, "", f); failed[side] += f }
}
END {
	printf "%d pairs (%s)\n", count["base"], out
	printf "%-18s %-6s %12s %12s %12s   %12s %12s %12s  %s\n", "metric", "better", "base q1", "base med", "base q3", "change q1", "change med", "change q3", "change wins"
	for (k = 0; k < nn; k++) {
		m = names[k]; np = count["base"] < count["change"] ? count["base"] : count["change"]
		wins = 0
		for (r = 0; r < np; r++) {
			bv = val["base", m, r]; cv = val["change", m, r]
			if (better[m] == "lower" ? cv < bv : cv > bv) wins++
		}
		for (r = 0; r < np; r++) { bs[r] = val["base", m, r]; cs[r] = val["change", m, r] }
		sortn(bs, np); sortn(cs, np)
		printf "%-18s %-6s %12.5g %12.5g %12.5g   %12.5g %12.5g %12.5g  %d/%d\n", m, better[m], \
			quant(bs, np, 0.25), quant(bs, np, 0.5), quant(bs, np, 0.75), \
			quant(cs, np, 0.25), quant(cs, np, 0.5), quant(cs, np, 0.75), wins, np
	}
	printf "failed operations: base %d, change %d\n", failed["base"], failed["change"]
}' BENCHMARK.json "$out/base.jsonl" "$out/change.jsonl"
