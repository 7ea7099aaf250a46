#!/usr/bin/env bash
# Profiles one benchmark run with the LD_PRELOAD sampler and prints its
# profile: one command, from a fresh build to per-line self time.
#
#   tools/profile/run.sh --workload scale_n --seed 1 --seconds 15 --trace 0 \
#       [--function NAME]... [--top N] [--dir DIR]
#
# `--function` and `--top` go to symbolise.py; every other argument goes
# to `scup-benchmark`. The benchmark is built with line tables
# (CARGO_PROFILE_RELEASE_DEBUG=1) into its own target directory,
# target/profile under the repository root unless CARGO_TARGET_DIR is
# set, so the build of `benchmark/run.sh` is left alone. The raw dumps and
# the benchmark's results go to DIR (default target/profile/run); the
# dumps stay there for re-symbolising with other `--function`s.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
target="${CARGO_TARGET_DIR:-$root/target/profile}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
dir="$target/run"

bench_args=()
report_args=()
while [ "$#" -gt 0 ]; do
    case "$1" in
        --function|--top) report_args+=("$1" "$2"); shift 2 ;;
        --dir) dir="$2"; shift 2 ;;
        *) bench_args+=("$1"); shift ;;
    esac
done

CARGO_TARGET_DIR="$target" CARGO_PROFILE_RELEASE_DEBUG=1 \
    cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml"
mkdir -p "$dir"
gcc -O2 -shared -fPIC -o "$target/libsampler.so" "$here/sampler.c"

dir="$(cd "$dir" && pwd)"
rm -f "$dir"/sampler.*.raw
(
    cd "$dir"
    LD_PRELOAD="$target/libsampler.so" \
        "$target/release/scup-benchmark" --out "$dir" "${bench_args[@]}" >/dev/null
)
python3 "$here/symbolise.py" "$dir"/sampler.*.raw "${report_args[@]}"
