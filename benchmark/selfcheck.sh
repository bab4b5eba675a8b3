#!/usr/bin/env bash
# Self-agreement check: two sets of three `run`s of one build must agree
# within the bounds of BENCHMARK.json. The sets are interleaved (A B A B A B)
# so slow host drift lands on both. Writes benchmark/out/selfcheck.json and
# exits non-zero when a metric regressed or a simulated metric differs.
#
#   benchmark/selfcheck.sh [--seed N] [--seconds S] [--smoke]
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
mkdir -p "$out"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/splitbeam-benchmark"

a=() b=()
for i in 1 2 3; do
    "$bin" run "$@" --out "$out/selfcheck.a$i.json" >/dev/null
    "$bin" run "$@" --out "$out/selfcheck.b$i.json" >/dev/null
    a+=("$out/selfcheck.a$i.json")
    b+=("$out/selfcheck.b$i.json")
    echo "pair $i of 3 done"
done

join() { local IFS=,; echo "$*"; }
"$bin" compare "$(join "${a[@]}")" "$(join "${b[@]}")" --out "$out/selfcheck.json"
