#!/bin/sh
# pins.sh — the byte pins gate. Builds the eight binaries once into a
# temp directory, then runs every command in ci/pins.txt (under sh, in
# its own empty directory, the binaries first on PATH and $ROOT the
# repository root) and hashes its stdout. Each mismatch, a command that
# exits non-zero included, is printed with both hashes and the tail of
# its stderr; any mismatch fails the gate.
set -eu

root=$(pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/bin/" ./cmd/...

fail=0
n=0
while IFS= read -r line; do
    case $line in '' | '#'*) continue ;; esac
    want=${line%% *}
    cmd=${line#* }
    n=$((n + 1))
    mkdir "$tmp/run$n"
    if (cd "$tmp/run$n" && ROOT=$root PATH="$tmp/bin:$PATH" sh -c "$cmd") </dev/null >"$tmp/out" 2>"$tmp/err"; then
        got=$(sha256sum <"$tmp/out" | cut -d' ' -f1)
    else
        got="exit status $?"
    fi
    if [ "$got" = "$want" ]; then
        echo "ok   $cmd"
    else
        echo "FAIL $cmd" >&2
        echo "     want $want" >&2
        echo "     got  $got" >&2
        tail -n 5 "$tmp/err" >&2
        fail=1
    fi
    rm -rf "$tmp/run$n"
done <ci/pins.txt
exit $fail
