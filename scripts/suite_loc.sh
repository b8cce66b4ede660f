#!/usr/bin/env bash
# Prints the code / comment / test line split of the .rs files directly in
# one or more directories, the figures every PR reports (ROADMAP standing
# rule). Everything from a file's top-level `#[cfg(test)]` to its end counts
# as tests; above it a line is a comment when it starts with `//`, blank when
# empty, code otherwise.
#
# Usage: scripts/suite_loc.sh [--rev <commit>] [dir ...]
#   dir             relative to the repository root; one table per
#                   directory (default: crates/core/src/suite)
#   --rev <commit>  count that commit's files, extracted with `git archive`,
#                   instead of the working tree's

set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
rev=""
dirs=()
while [ $# -gt 0 ]; do
    case "$1" in
        --rev) rev="$2"; shift 2 ;;
        *) dirs+=("$1"); shift ;;
    esac
done
[ ${#dirs[@]} -gt 0 ] || dirs=(crates/core/src/suite)

src="$root"
if [ -n "$rev" ]; then
    src="$(mktemp -d)"
    trap 'rm -rf "$src"' EXIT
    git -C "$root" archive "$rev" "${dirs[@]}" | tar -x -C "$src"
fi

for dir in "${dirs[@]}"; do
    echo "$dir${rev:+ @ $rev}"
    awk '
        FNR == 1 { in_tests = 0; files[++n] = FILENAME }
        /^#!?\[cfg\(test\)\]/ { in_tests = 1 }
        {
            total[FILENAME]++
            if (in_tests) tests[FILENAME]++
            else if ($0 ~ /^[[:space:]]*\/\//) comments[FILENAME]++
            else if ($0 ~ /^[[:space:]]*$/) blank[FILENAME]++
            else code[FILENAME]++
        }
        END {
            printf "%-14s %6s %8s %6s %6s %6s\n", "file", "code", "comments", "blank", "tests", "total"
            for (i = 1; i <= n; i++) {
                f = files[i]; name = f; sub(/.*\//, "", name)
                printf "%-14s %6d %8d %6d %6d %6d\n", name, code[f], comments[f], blank[f], tests[f], total[f]
                c += code[f]; m += comments[f]; b += blank[f]; t += tests[f]; all += total[f]
            }
            printf "%-14s %6d %8d %6d %6d %6d\n", "total", c, m, b, t, all
        }
    ' "$src/$dir"/*.rs
done
