#!/usr/bin/env bash
# `optimus-cli repro all`, run from an empty directory, reproduces results/:
# its stdout is results/repro_output.txt and it writes every committed CSV,
# and only those, byte for byte. Run from the repository root:
#
#   bash .github/repro-check.sh
set -euo pipefail
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
cargo build -q --release -p bench --bin optimus-cli
cli="${CARGO_TARGET_DIR:-$PWD/target}/release/optimus-cli"
(cd "$out" && "$cli" repro all >repro_output.txt)
diff results/repro_output.txt "$out/repro_output.txt"
for f in results/*.csv; do diff "$f" "$out/$f"; done
test "$(ls "$out"/results/*.csv | wc -l)" -eq "$(ls results/*.csv | wc -l)"
