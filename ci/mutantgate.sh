#!/bin/sh
# mutantgate.sh — every patch under ci/mutants is a seeded bug some test
# must catch. For each patch: copy the working tree to a temp directory,
# apply the patch there (one that no longer applies fails the gate), and
# run each test its header names on a "Must-fail: ./pkg TestName" line;
# every one of them must report "--- FAIL: TestName". No mutant ever
# touches the tree itself.
set -eu

root=$(pwd)
fail=0
for patch in ci/mutants/*.patch; do
    tmp=$(mktemp -d)
    # Tracked and untracked-but-not-ignored files: the tree as it stands,
    # without .git or build caches.
    git ls-files -z --cached --others --exclude-standard |
        tar --null --ignore-failed-read -T - -cf - 2>/dev/null | tar -xf - -C "$tmp"
    if ! (cd "$tmp" && git apply "$root/$patch"); then
        echo "FAIL $patch: no longer applies" >&2
        fail=1
        rm -rf "$tmp"
        continue
    fi
    musts=$(sed -n 's/^Must-fail: //p' "$patch")
    if [ -z "$musts" ]; then
        echo "FAIL $patch: header names no Must-fail test" >&2
        fail=1
    fi
    echo "$musts" | while read -r pkg test; do
        [ -n "$pkg" ] || continue
        if (cd "$tmp" && go test -count=1 -short -run "^${test}\$" "$pkg" 2>&1) | grep -q -- "--- FAIL: ${test} "; then
            echo "ok   $patch: $pkg $test goes red"
        else
            echo "FAIL $patch: $pkg $test stays green (or the mutant does not build)" >&2
            exit 1
        fi
    done || fail=1
    rm -rf "$tmp"
done
exit $fail
