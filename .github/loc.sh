#!/usr/bin/env bash
# Prints the workspace's non-test line count: the lines of each `.rs` file
# under `crates/` before its first line containing `cfg(test`, leaving out
# `crates/suite/` and each crate's `tests/`, `benches/` and `examples/`.
# The second figure is how many of those lines are in files compiled only
# under `#[cfg(test)]`: a module its parent file declares on the line after
# `#[cfg(test)]`. Run from anywhere in the repository: `.github/loc.sh`.
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
test_only=0
while IFS= read -r file; do
    n=$(awk '/cfg\(test/ { exit } { n++ } END { print n + 0 }' "$file")
    total=$((total + n))
    dir=$(dirname "$file")
    name=$(basename "$file" .rs)
    for parent in "$dir.rs" "$dir/mod.rs" "$dir/lib.rs" "$dir/main.rs"; do
        [ -f "$parent" ] && [ "$parent" != "$file" ] && break
        parent=
    done
    if [ -n "$parent" ] && grep -A1 -F '#[cfg(test)]' "$parent" |
        grep -Eq "^\s*(pub(\([a-z]+\))? )?mod $name;"; then
        test_only=$((test_only + n))
    fi
done < <(find crates -name '*.rs' | grep -Ev '^crates/(suite/|[^/]+/(tests|benches|examples)/)' | sort)

echo "non-test lines: $total"
echo "of which in files compiled only under #[cfg(test)]: $test_only"
