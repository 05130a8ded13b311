#!/usr/bin/env bash
# Counts Rust code lines: each file up to its first line-initial
# `#[cfg(test)]`, without blank lines and lines that start with `//`.
#
#   scripts/code_lines.sh [dir...]    # default: crates src tests examples
#
# Prints one total per crate directory (crates/<name>/src,
# crates/<name>/tests, ...) or top-level directory, then the grand
# total. Informational; always exits 0.
set -u
cd "$(dirname "$0")/.."
[ $# -eq 0 ] && set -- crates src tests examples
find "$@" -name '*.rs' -not -path '*/target/*' 2>/dev/null | sort | while read -r f; do
  n=$(awk '/^#\[cfg\(test\)\]/ { exit } !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ } END { print n + 0 }' "$f")
  case "$f" in
    crates/*) group=$(echo "$f" | cut -d/ -f1-3) ;;
    *) group=$(echo "$f" | cut -d/ -f1) ;;
  esac
  echo "$group $n"
done | awk '{ sum[$1] += $2; total += $2 } END { for (g in sum) printf "%7d  %s\n", sum[g], g | "sort -k2"; close("sort -k2"); printf "%7d  total\n", total }'
exit 0
