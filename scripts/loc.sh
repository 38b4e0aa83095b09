#!/bin/sh
# loc.sh — the two sizes ROADMAP's size line quotes: non-test Go lines
# (wc -l over *.go minus *_test.go), with and without bench/.
set -eu
cd "$(dirname "$0")/.."
count() { find . -name '*.go' ! -name '*_test.go' "$@" -exec cat {} + | wc -l; }
printf 'non-test Go lines: %d (%d without bench/)\n' "$(count)" "$(count ! -path './bench/*')"
