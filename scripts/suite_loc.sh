#!/usr/bin/env bash
# Prints the code / comment / test line split of crates/core/src/suite, the
# figures every PR reports (ROADMAP standing rule). Everything from a file's
# top-level `#[cfg(test)]` to its end counts as tests; above it a line is a
# comment when it starts with `//`, blank when empty, code otherwise.
#
# Usage: scripts/suite_loc.sh [dir]   (default: crates/core/src/suite)

set -euo pipefail
dir="${1:-$(dirname "$0")/../crates/core/src/suite}"

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
        printf "%-12s %6s %8s %6s %6s %6s\n", "file", "code", "comments", "blank", "tests", "total"
        for (i = 1; i <= n; i++) {
            f = files[i]; name = f; sub(/.*\//, "", name)
            printf "%-12s %6d %8d %6d %6d %6d\n", name, code[f], comments[f], blank[f], tests[f], total[f]
            c += code[f]; m += comments[f]; b += blank[f]; t += tests[f]; all += total[f]
        }
        printf "%-12s %6d %8d %6d %6d %6d\n", "suite", c, m, b, t, all
    }
' "$dir"/*.rs
