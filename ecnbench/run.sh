#!/usr/bin/env bash
# Build ecnbench from source (offline, release profile) and run it with
# the given arguments, from the root of a checkout:
#
#   bash ecnbench/run.sh --workload paper2015 --seed 2015 --seconds 15 --trace 0
#
# Build output goes to stderr, so the last line of stdout stays the
# benchmark's result line. Binaries land in $CARGO_TARGET_DIR when it is
# set, else in ecnbench/target.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --offline --release --quiet --manifest-path "$here/Cargo.toml" --bins >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/ecnbench" "$@"
