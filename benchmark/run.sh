#!/usr/bin/env bash
# Builds the step benchmark (release, offline) and runs it with the arguments
# given; see README.md beside this file. Build time is printed on its own and
# is no part of any metric.
set -euo pipefail
dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$dir/target}"
SECONDS=0
cargo build --release --offline --quiet --manifest-path "$dir/Cargo.toml"
echo "build: ${SECONDS} s"
exec "$target/release/stepbench" "$@"
