#!/usr/bin/env bash
# The one command of the repo benchmark: builds the released `valley`
# CLI and the benchmark (release, offline), then runs it.
#
#   benchmark/run.sh [--workload W] --seed N --seconds S --trace 0|1
#   benchmark/run.sh compare A.jsonl B.jsonl
#
# Without --workload all four workloads run one after another. Every run
# is appended to benchmark/out/results.jsonl; see benchmark/README.md.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")

# One target directory for both builds, absolute so that cargo resolves
# it the same from either manifest.
target=${CARGO_TARGET_DIR:-$root/target}
case $target in /*) ;; *) target=$PWD/$target ;; esac
export CARGO_TARGET_DIR=$target

build_start=$(date +%s%N)
cargo build --release --offline --manifest-path "$root/Cargo.toml" -p valley-fabric --bin valley >&2
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
build_ns=$(($(date +%s%N) - build_start))

bench=$target/release/valley-benchmark
if [ "${1:-}" = compare ]; then
    shift
    exec "$bench" compare --root "$root" "$@"
fi
exec "$bench" run --root "$root" --valley "$target/release/valley" --build-ns "$build_ns" "$@"
