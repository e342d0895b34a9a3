#!/usr/bin/env bash
# Proves that every gate in .github/mutants.txt can fail. A row is
#
#   file @@ line substring @@ replacement @@ command
#
# where the substring occurs exactly once in the file; a `#` line names a
# gate that has no row and says why. On one copy of the checkout's files
# (tracked, and untracked but not ignored), with one cargo target directory,
# each row in turn:
#   1. runs its command on the unmutated copy, which must pass;
#   2. replaces the substring and builds: a `cargo test` command with
#      `--no-run`, any other with `cargo check --workspace --all-targets`
#      (a mutant that does not build is a harness error, not a kill);
#   3. runs the command, which must now fail: the mutant is killed;
#   4. restores the file.
# Each row's verdict and time are printed. The script exits non-zero on a
# mutant that survives or on a harness error. It never mutates benchmark/ or
# BENCHMARK.json, and leaves the working tree it was run from untouched.
#
#   bash .github/mutants.sh
set -uo pipefail
shopt -u patsub_replacement 2>/dev/null || true
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
(cd "$root" && git ls-files -z --cached --others --exclude-standard |
  tar --null --ignore-failed-read -T - -cf -) | tar -xf - -C "$work" ||
  { echo "harness error: cannot copy the tracked files" >&2; exit 2; }
mkdir "$work/tree.logs"
export CARGO_TARGET_DIR="$work/target"
cd "$work" || exit 2

# Runs a row's command (or build) in the copy, its output to $log; a run
# still going after 20 minutes fails.
run() { timeout 1200 bash -o pipefail -c "$1" </dev/null >>"$log" 2>&1; }

bad=0 n=0 start=$SECONDS
while IFS= read -r row <&3; do
  case $row in '' | '#'*) continue ;; esac
  n=$((n + 1))
  log="$work/tree.logs/row$n.log"
  : >"$log"
  t0=$SECONDS
  seps=${row//' @@ '/}
  file=${row%% @@ *} rest=${row#* @@ }
  find=${rest%% @@ *} rest=${rest#* @@ }
  with=${rest%% @@ *} cmd=${rest#* @@ }
  case $cmd in
    "cargo test "*) build="$cmd --no-run" ;;
    *) build="cargo check -q --workspace --all-targets" ;;
  esac
  verdict=
  if (((${#row} - ${#seps}) != 12)) || [[ -z $find ]]; then
    verdict="harness error: a row is four fields split by ' @@ '"
  elif [[ $file == benchmark/* || $file == BENCHMARK.json || ! -f $file ]]; then
    verdict="harness error: $file is not a file a row may mutate"
  else
    text=$(<"$file")
    rest=${text//"$find"/}
    if (((${#text} - ${#rest}) != ${#find})); then
      verdict="harness error: the substring is not in $file exactly once"
    elif ! run "$cmd"; then
      verdict="harness error: the command fails unmutated"
    else
      cp "$file" "$work/tree.logs/original"
      printf '%s\n' "${text/"$find"/"$with"}" >"$file"
      if ! run "$build"; then
        verdict="harness error: the mutant does not build"
      elif run "$cmd"; then
        verdict="SURVIVED"
      else
        verdict="killed"
      fi
      # A fresh mtime: cargo rebuilds the restored file.
      cp "$work/tree.logs/original" "$file"
    fi
  fi
  printf '%-13s %4ss  %s: %s\n' "${verdict%%:*}" $((SECONDS - t0)) "$file" "$cmd"
  if [[ $verdict != killed ]]; then
    bad=1
    echo "  $verdict; the end of its output:"
    tail -n 15 "$log" | sed 's/^/    /'
  fi
done 3<.github/mutants.txt
echo "$n rows in $((SECONDS - start)) s"
if ((n == 0)); then
  echo "harness error: .github/mutants.txt has no row" >&2
  bad=1
fi
exit $bad
