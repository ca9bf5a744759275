#!/usr/bin/env bash
# Same-host A/B of two git revisions with the benchmark in this checkout.
#
#   benchmark/ab.sh PARENT CHANGE [PAIRS] [COMPARE-FLAGS...]
#   SEED=7 benchmark/ab.sh HEAD~1 HEAD 10 --claim wall_s@sweep-cold
#
# Clones this repository twice under .bench_work/ab/ and checks out
# PARENT and CHANGE (commits reachable from a branch or tag), copies this
# checkout's benchmark/ and BENCHMARK.json into both so one benchmark
# measures both trees,
# and builds each once. Then runs PAIRS pairs (default and minimum 10),
# each one untraced round of every workload per side, alternating which
# side runs first. Finally runs `sop-benchmark compare` with the parent
# as A and the change as B, passing COMPARE-FLAGS on, and exits with its
# status. The per-pair results files stay in .bench_work/ab/*-results/.
set -euo pipefail

if [[ $# -lt 2 ]]; then
    echo "usage: benchmark/ab.sh PARENT CHANGE [PAIRS] [COMPARE-FLAGS...]" >&2
    exit 2
fi
parent=$1
change=$2
pairs=${3:-10}
shift $(($# < 3 ? $# : 3))
seed=${SEED:-42}
if ! [[ $pairs =~ ^[0-9]+$ ]] || ((pairs < 10)); then
    echo "ab.sh: PAIRS must be a number of at least 10, not '$pairs'" >&2
    exit 2
fi

repo=$(git rev-parse --show-toplevel)
work=$repo/.bench_work/ab
rm -rf "$work"
mkdir -p "$work"

for side in parent change; do
    rev=$parent
    [[ $side == change ]] && rev=$change
    commit=$(git -C "$repo" rev-parse --verify "$rev^{commit}")
    git clone --quiet --no-checkout "$repo" "$work/$side"
    git -C "$work/$side" checkout --quiet --detach "$commit"
    rm -rf "$work/$side/benchmark"
    cp -r "$repo/benchmark" "$work/$side/benchmark"
    cp "$repo/BENCHMARK.json" "$work/$side/BENCHMARK.json"
    rm -rf "$work/$side/benchmark/target"
    echo "building $side ($rev = $commit)" >&2
    CARGO_TARGET_DIR="$work/$side-target" cargo build --quiet --offline --release \
        --manifest-path "$work/$side/benchmark/Cargo.toml"
    mkdir -p "$work/$side-results"
done

run_side() {
    local side=$1 pair=$2
    echo "pair $pair: $side" >&2
    (cd "$work/$side" &&
        "$work/$side-target/release/sop-benchmark" run --workload all --seed "$seed" \
            --samples 1 --out "$work/$side-results/pair-$pair.json" >/dev/null)
}

for i in $(seq -w 1 "$pairs"); do
    if ((10#$i % 2)); then
        run_side parent "$i"
        run_side change "$i"
    else
        run_side change "$i"
        run_side parent "$i"
    fi
done

"$work/change-target/release/sop-benchmark" compare \
    "$work/parent-results" "$work/change-results" "$@"
