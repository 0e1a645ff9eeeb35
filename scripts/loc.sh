#!/usr/bin/env sh
# Prints the three size figures the design is held to: non-test Go lines
# (excluding the perfbench/ module and the .bench_build/ scratch tree, where
# scripts/bench_pairs.sh extracts its base commit), the number of internal/
# packages, and the length of TrainE in lines. Exits 1 if the non-test lines
# reach MAX_LINES or TrainE reaches MAX_TRAINE lines, so neither the tree nor
# the training loop can grow back unnoticed.
set -eu

MAX_LINES=20000
MAX_TRAINE=150

cd "$(dirname "$0")/.."

lines="$(find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' ! -path './.bench_build/*' -exec cat {} + | wc -l)"
pkgs="$(go list ./internal/... | wc -l)"
traine="$(awk '/^func TrainE\(/ { start = NR } start && /^}/ { print NR - start + 1; exit }' trainer.go)"

echo "non-test Go lines (excluding perfbench/): $lines"
echo "internal/ packages: $pkgs"
echo "TrainE lines: $traine"

if [ "$lines" -ge "$MAX_LINES" ]; then
	echo "$lines non-test Go lines; they must stay under $MAX_LINES"
	exit 1
fi
if [ -z "$traine" ]; then
	echo "TrainE not found in trainer.go"
	exit 1
fi
if [ "$traine" -ge "$MAX_TRAINE" ]; then
	echo "TrainE is $traine lines; it must stay under $MAX_TRAINE"
	exit 1
fi
