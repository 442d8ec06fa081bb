#!/bin/sh
# loc.sh — the size figure every "collapse to one of everything" PR quotes:
# tracked non-test Go lines outside bench/ and analyzer testdata. Run from
# anywhere inside the repository.
#
#   sh scripts/loc.sh                        # one total
#   sh scripts/loc.sh internal/mq internal/core .
#                                            # one count per package directory
#
# Directories are relative to the repository root and count only their own
# files, not subdirectories; "." is the root package.
set -eu
cd "$(git rev-parse --show-toplevel)"

count() {
	git ls-files -- "$1" | grep -v '_test\.go$' | grep -v '^bench/' | grep -v '/testdata/' | xargs cat | wc -l
}

if [ $# -eq 0 ]; then
	count '*.go'
	exit 0
fi
for dir in "$@"; do
	dir=${dir%/}
	case $dir in
	. | '') pattern=':(glob)*.go' ;;
	*) pattern=":(glob)$dir/*.go" ;;
	esac
	printf '%s %s\n' "$dir" "$(count "$pattern")"
done
