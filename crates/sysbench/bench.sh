#!/usr/bin/env bash
# Builds `sysbench` (release) and runs it with the given arguments; this is
# the `command` of BENCHMARK.json, run from the repository root.
#
# The hosts that run the benchmark cannot reach a registry, so the external
# crates the workspace names are patched to the std-only stand-ins under
# stubs/ (see README.md, "Building offline"). Every run on such a host, the
# parent commit's and the change's alike, measures the same stand-ins.
set -euo pipefail
here=crates/sysbench
patches=()
for crate in parking_lot crossbeam rand proptest criterion; do
  patches+=(--config "patch.crates-io.$crate.path='$here/stubs/$crate'")
done
cargo build --manifest-path Cargo.toml --release --offline --quiet -p eca-sysbench "${patches[@]}" >&2
exec "${CARGO_TARGET_DIR:-target}/release/sysbench" "$@"
