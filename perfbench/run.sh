#!/usr/bin/env bash
# Builds the benchmark in release mode and runs it; every argument is passed
# through (see src/main.rs). Build output goes to stderr, so the last line
# of stdout is the benchmark's result object.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/kratt-perfbench" "$@"
