#!/bin/sh
# Count the non-test lines of the library, the binaries and the examples.
#
# Counted: every line (blank and comment lines included) of every `.rs`
# file under `src/`, `crates/*/src`, `crates/*/benches`,
# `crates/*/examples` and `examples/`. `tests/`, `crates/*/tests`,
# `benchmark/` and `vendor/` are not counted.
#
# Not counted: top-level test modules, that is a `#[cfg(test)]` line at
# column 0, any attribute lines right after it, and then either
#   * a `mod NAME {` line and everything up to and including the next
#     `}` at column 0 (an inline test module), or
#   * a `mod NAME;` line (a declaration of a test-only module file).
# A `#[cfg(test)]` on anything else is counted like any other line.
#
# Usage: scripts/nontest_lines.sh [REPO_ROOT]   (default: the current
# directory). Prints one number. Needs only find, sort and awk.
set -eu
cd "${1:-.}"
find src crates/*/src crates/*/benches crates/*/examples examples \
    -type f -name '*.rs' 2>/dev/null | LC_ALL=C sort | xargs awk '
FNR == 1 { count += held; held = 0; skipping = 0 }
skipping { if ($0 ~ /^}/) skipping = 0; next }
held > 0 {
    if ($0 ~ /^#\[/) { held++; next }
    if ($0 ~ /^(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+ \{/) { held = 0; skipping = 1; next }
    if ($0 ~ /^(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+;/) { held = 0; next }
    count += held; held = 0
}
/^#\[cfg\(test\)\]/ { held = 1; next }
{ count++ }
END { count += held; print count }
'
