#!/usr/bin/env bash
# Fails when a name that .github/retired.txt lists as retired comes back:
# every row's `grep -rnE PATTERN PATHS` must match nothing. Run from the
# repository root.
set -u
bad=0
while IFS= read -r row; do
  case $row in '' | '#'*) continue ;; esac
  pattern=${row%% @@ *}
  rest=${row#* @@ }
  paths=${rest%% @@ *}
  reason=${rest#* @@ }
  # $paths is left unquoted: it holds several paths and globs.
  if grep -rnE -- "$pattern" $paths; then
    echo "retired: $reason" >&2
    bad=1
  fi
done < .github/retired.txt
exit $bad
