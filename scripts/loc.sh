#!/bin/sh
# loc.sh — the size figure every "collapse to one of everything" PR quotes:
# tracked non-test Go lines outside bench/ and analyzer testdata. Run from
# anywhere inside the repository.
set -eu
cd "$(git rev-parse --show-toplevel)"
git ls-files '*.go' | grep -v '_test\.go$' | grep -v '^bench/' | grep -v '/testdata/' | xargs cat | wc -l
