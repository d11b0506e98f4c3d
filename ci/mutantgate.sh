#!/bin/sh
# mutantgate.sh — every patch under ci/mutants is a seeded bug. For each
# patch: copy the working tree to a temp directory and apply the patch
# there (one that no longer applies fails the gate). Then either
#   - the header names tests on "Must-fail: ./pkg TestName" lines, and
#     every one of them must report "--- FAIL: TestName"; or
#   - the header has a "Known-survivor: reason" line: a bug no test
#     catches, kept on record. It must still apply; its reason is
#     printed and no test is run.
# A patch with both headers, or neither, fails the gate. No mutant ever
# touches the tree itself.
set -eu

root=$(pwd)
fail=0
for patch in ci/mutants/*.patch; do
    musts=$(sed -n 's/^Must-fail: //p' "$patch")
    survivor=$(sed -n 's/^Known-survivor: //p' "$patch")
    if [ -n "$musts" ] && [ -n "$survivor" ]; then
        echo "FAIL $patch: header has both Must-fail and Known-survivor" >&2
        fail=1
        continue
    fi
    if [ -z "$musts" ] && [ -z "$survivor" ]; then
        echo "FAIL $patch: header names no Must-fail test and no Known-survivor reason" >&2
        fail=1
        continue
    fi
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
    if [ -n "$survivor" ]; then
        echo "known survivor $patch: $survivor"
        rm -rf "$tmp"
        continue
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
