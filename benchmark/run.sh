#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it. With `--trace 0|1` this is
# one run of one workload, the form BENCHMARK.json's command takes; without it,
# the whole suite: every workload untraced, then traced. See README.md.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
# glibc malloc, as the benchmark runs it: freed memory stays in the heap and
# buffers up to 32 MiB (the largest value glibc takes) come from there. By
# default every large buffer goes back to the kernel and is faulted in again,
# 4.8 million page faults in a 20 s run of steady-simple, and what a fault
# costs in a guest is the host's business (README.md, "Steadiness").
export MALLOC_TRIM_THRESHOLD_=2147483647 MALLOC_MMAP_THRESHOLD_=33554432
exec "${CARGO_TARGET_DIR:-$here/target}/release/sysbench" "$@"
