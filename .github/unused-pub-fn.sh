#!/usr/bin/env bash
# Lists every `pub fn` under crates/*/src whose name appears in no non-test
# code except its own definition, and checks the list against
# .github/unused-pub-fn.allow (one `path name # reason` per line).
#
# Non-test code is each Rust file of crates/*/src, src/, benchmark/src and
# examples/ above its first `#[cfg(test)]`, with comment lines left out: a
# doc link is not a call. A name defined more than once counts as used.
#
# Names are matched as bare identifiers, not by type, so a method is missed
# whenever another type defines or calls a method of the same name (e.g. a
# `to_json` no caller uses hides behind every other `to_json`).
#
# Exits non-zero on a name missing from the allow-list and on an allow-list
# entry that is no longer unused. Run from the repository root:
#
#   bash .github/unused-pub-fn.sh
set -euo pipefail

allow=.github/unused-pub-fn.allow
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

non_test() { sed '/#\[cfg(test)\]/,$d' "$1" | grep -vE '^\s*//' || true; }

find crates/*/src src benchmark/src examples -name '*.rs' | sort >"$tmp/files"
while read -r f; do non_test "$f"; done <"$tmp/files" |
    grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort | uniq -c |
    awk '{ print $2, $1 }' >"$tmp/counts"

grep -E '^crates/[^/]+/src/' "$tmp/files" | while read -r f; do
    non_test "$f" | sed -nE 's/^\s*pub fn ([A-Za-z_][A-Za-z0-9_]*).*/\1/p' |
        while read -r name; do echo "$f $name"; done
done | sort -u >"$tmp/defs"

awk 'NR == FNR { n[$1] = $2; next } n[$2] <= 1 { print $1, $2 }' \
    "$tmp/counts" "$tmp/defs" | sort >"$tmp/unused"
sed -E 's/\s*#.*$//; /^\s*$/d' "$allow" | sort >"$tmp/allowed"

cat "$tmp/unused"
fresh=$(comm -23 "$tmp/unused" "$tmp/allowed")
stale=$(comm -13 "$tmp/unused" "$tmp/allowed")
if [ -n "$fresh" ]; then
    echo "pub fn that no non-test code calls; delete it or add it to $allow with a reason:" >&2
    echo "$fresh" >&2
fi
if [ -n "$stale" ]; then
    echo "stale entries in $allow (called now, renamed or gone):" >&2
    echo "$stale" >&2
fi
[ -z "$fresh" ] && [ -z "$stale" ]
