#!/usr/bin/env sh
# Prints the repository's non-test line count: non-blank lines of the
# git-tracked `.rs` files outside `tests/` directories, `vendor/` and
# `perfbench/`, not counting `#[cfg(test)]` modules (attribute through
# closing brace). Run from anywhere inside the repo.
set -eu

cd "$(dirname "$0")/.."

git ls-files -z -- '*.rs' ':(exclude)vendor/' ':(exclude)perfbench/' \
    ':(exclude,glob)**/tests/**' |
    xargs -0 awk '
        FNR == 1 { attr = 0; skip = 0 }
        skip {
            depth += gsub(/{/, "{") - gsub(/}/, "}")
            if (depth <= 0) skip = 0
            next
        }
        attr && /^[ \t]*(pub(\([a-z]+\))? )?mod / {
            attr = 0; skip = 1; depth = gsub(/{/, "{") - gsub(/}/, "}")
            if (depth <= 0) skip = 0
            next
        }
        attr { attr = 0; count++ }
        /^[ \t]*#\[cfg\(test\)\][ \t]*$/ { attr = 1; next }
        NF { count++ }
        END { print count + 0 }
    '
