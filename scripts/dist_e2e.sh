#!/usr/bin/env bash
# Multi-node training end-to-end test over real processes and real sockets,
# run by CI's dist-e2e job and `make dist-e2e`:
#
#   1. train a DropBack model sequentially and save a dense checkpoint;
#   2. train the identical configuration as a 2-process cluster on loopback
#      TCP (two OS processes, a real mesh, real frames — not the in-process
#      loopback the unit suite uses), each node saving its checkpoint;
#   3. require every node's checkpoint to be byte-identical to the
#      sequential one — the tentpole bit-identity claim, end to end;
#   4. rerun the cluster with the nodes at different local worker counts
#      (node 0 at -train-workers 2, node 1 at -train-workers 3): a node's
#      worker count is its own execution detail, so the checkpoints must
#      still be byte-identical to the sequential one;
#   5. rerun all of it with the tracked set frozen from epoch 0 so the
#      exchange runs in its O(k) phase, and require byte-identity again;
#   6. storage leg: in both cases, rerun as one process with -sparse-train,
#      which keeps the weight matrices on the DropBack engine's CSR storage
#      instead of dense storage, and require its checkpoint to be
#      byte-identical to the sequential dense one — one engine, two
#      storages, proven at the CLI.
#
# The CLI processes build their synthetic dataset from -samples/-seed, so
# every process sees identical data with no files to distribute.
set -euo pipefail
cd "$(dirname "$0")/.."

TMP="$(mktemp -d)"
NODE1_PID=""
cleanup() {
    [ -n "$NODE1_PID" ] && kill "$NODE1_PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

echo "==> building cmd/dropback"
go build -o "$TMP/dropback" ./cmd/dropback

# PID-derived ports keep concurrent CI jobs on the same host from colliding.
P0=$((20000 + $$ % 20000))
P1=$((P0 + 1))
PEERS="127.0.0.1:$P0,127.0.0.1:$P1"

# cluster NAME W0 W1 ARGS...: a 2-process cluster with node r at
# -train-workers W<r>; both checkpoints must equal the sequential one.
cluster() {
    name="$1"; w0="$2"; w1="$3"; shift 3
    tag="$name-w$w0-w$w1"
    echo "==> [$name] 2-process cluster on $PEERS, node 0 at $w0 workers, node 1 at $w1"
    "$TMP/dropback" "$@" -train-workers "$w1" -dist-rank 1 -dist-peers "$PEERS" \
        -save-checkpoint "$TMP/$tag-node1.ckpt" >"$TMP/$tag-node1.log" 2>&1 &
    NODE1_PID=$!
    "$TMP/dropback" "$@" -train-workers "$w0" -dist-rank 0 -dist-peers "$PEERS" \
        -save-checkpoint "$TMP/$tag-node0.ckpt" >"$TMP/$tag-node0.log"
    wait "$NODE1_PID"
    NODE1_PID=""

    echo "==> [$name] checkpoints must be byte-identical to the sequential run"
    cmp "$TMP/$name-seq.ckpt" "$TMP/$tag-node0.ckpt"
    cmp "$TMP/$name-seq.ckpt" "$TMP/$tag-node1.ckpt"
}

run_case() {
    name="$1"; shift
    echo "==> [$name] sequential reference"
    "$TMP/dropback" "$@" -save-checkpoint "$TMP/$name-seq.ckpt" >"$TMP/$name-seq.log"

    cluster "$name" 1 1 "$@"
    cluster "$name" 2 3 "$@"

    echo "==> [$name] CSR storage (-sparse-train) must match dense storage"
    "$TMP/dropback" "$@" -sparse-train \
        -save-checkpoint "$TMP/$name-sparse.ckpt" >"$TMP/$name-sparse.log"
    cmp "$TMP/$name-seq.ckpt" "$TMP/$name-sparse.ckpt"
    echo "==> [$name] OK ($(wc -c <"$TMP/$name-seq.ckpt") byte checkpoint)"
}

COMMON=(-model mnist100 -method dropback -budget 10000 -epochs 2 -samples 400 -batch 32 -seed 11)

# Dense-exchange phase: the tracked set is live, full gradient rows cross.
run_case dense "${COMMON[@]}"

# Frozen O(k) phase: the set freezes after epoch 0, so epoch 1 exchanges
# k-value frames.
run_case frozen "${COMMON[@]}" -freeze 0

echo "==> dist e2e passed"
