#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it.
#
#   benchmark/run.sh                      every workload, untraced then traced
#   benchmark/run.sh all --seed 7         the same at another base seed
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#                                         one run, as the driver calls it
#   benchmark/run.sh compare A.json B.json | --list | check-pools
#
# Run it from the repository root or from anywhere else: paths are taken
# from this file's location. Build products go to $CARGO_TARGET_DIR when
# the caller sets it, else to benchmark/target; results to benchmark/out.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
    /*) ;;
    # cargo resolves a relative target directory against the caller's
    # working directory; do the same for the path to the binary.
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Cargo's progress goes to stderr; stdout stays the benchmark's.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"

export SCUP_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
if [ "$#" -eq 0 ]; then
    set -- all
fi
# Results go next to this file unless the caller names another --out.
case "$1" in
    compare|--list|-h|--help|check-pools) exec "$target/release/scup-benchmark" "$@" ;;
    all) shift; exec "$target/release/scup-benchmark" all --out "$here/out" "$@" ;;
    *) exec "$target/release/scup-benchmark" --out "$here/out" "$@" ;;
esac
