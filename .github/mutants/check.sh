#!/usr/bin/env bash
# Holds the suite's one reference (`tasm_suite::Reference`) to its purpose:
# with a read-path defect the reference does not share, every suite that
# checks pixels against it must fail.
#
#   .github/mutants/check.sh
#
# Copies the working tree (tracked and untracked files, ignored ones left
# out) under $TMPDIR, applies blit.patch beside this script (it bumps the
# first luma sample of a region canvas after every tile blit in
# `scan::blit_tile_overlap`), builds the suites in debug, runs each, and
# exits 1 naming every suite that passed. The copy is removed at the end.
set -euo pipefail

suites=(
    cluster_failover
    concurrent_scan
    contract
    crash_recovery
    end_to_end
    incremental_tiling
    mvcc_epochs
    query_planner
    remote_query
    response_buffers
    write_path
)

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
patch=$root/.github/mutants/blit.patch
copy=$(mktemp -d "${TMPDIR:-/tmp}/tasm-mutant-XXXXXX")
trap 'rm -rf "$copy"' EXIT

git -C "$root" ls-files -z --cached --others --exclude-standard |
    (cd "$root" && xargs -0 tar -cf - --ignore-failed-read) | tar -xf - -C "$copy"
(cd "$copy" && git apply "$patch")

cd "$copy"
cargo test -q -p tasm-suite --no-run "${suites[@]/#/--test=}"
survived=()
for suite in "${suites[@]}"; do
    if cargo test -q -p tasm-suite --test "$suite" >"$copy/$suite.log" 2>&1; then
        survived+=("$suite")
        echo "== $suite: passed under the mutation"
    else
        echo "== $suite: failed, as it must"
    fi
    grep -h "test result" "$copy/$suite.log" | tail -n 1 || true
done
if [ ${#survived[@]} -gt 0 ]; then
    echo "suites blind to the mutation: ${survived[*]}"
    exit 1
fi
