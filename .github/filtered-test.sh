#!/usr/bin/env bash
# `cargo test` with a name filter. A filter that matches nothing makes cargo
# exit 0 having run no test, so a moved or renamed test silently drops out of
# CI; this fails unless at least one test binary ran at least one test.
set -euo pipefail
cargo test "$@" 2>&1 | tee /dev/stderr | grep -E 'test result: ok\. [1-9]' >/dev/null
