#!/usr/bin/env bash
# The repdir benchmark's one command. Builds the benchmark crate (and, through
# its path dependency, the repository) offline, then runs it.
#
#   benchmark/run.sh [--seed N] [--workload NAME|all] [--seconds S] [--smoke] [--repeat K]
#       every requested workload, untraced then traced, each in its own
#       process; prints `workload metric value unit` for every metric, the
#       repeatability report when K >= 2, and writes benchmark/out/results.json.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run (the form BENCHMARK.json's command takes); the last line of
#       standard output is the JSON result.
#
# See benchmark/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."

# Never --locked: the lock file is generated, not committed.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

# The ceiling keeps git from looking for a repository above this one.
BENCH_COMMIT="$(GIT_CEILING_DIRECTORIES="$(dirname "$PWD")" git rev-parse --short HEAD 2>/dev/null || echo unknown)"
BENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
export BENCH_COMMIT BENCH_RUSTC

exec "${CARGO_TARGET_DIR:-benchmark/target}/release/repdir-benchmark" "$@"
