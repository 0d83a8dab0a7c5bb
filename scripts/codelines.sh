#!/usr/bin/env sh
# Prints the repository's non-test Go code lines per package and in
# total. A code line is any line of a .go file that is neither blank nor
# a // comment; _test.go files and hidden directories (.bench_build/)
# are left out. Run from anywhere:
#
#   sh scripts/codelines.sh
set -eu
cd "$(dirname "$0")/.."
find . -name '*.go' ! -name '*_test.go' ! -path './.*' -print0 |
	xargs -0 awk '
		FNR == 1 { d = FILENAME; sub(/\/[^\/]*$/, "", d); sub(/^\.\//, "", d) }
		!/^[ \t]*(\/\/.*)?$/ { n[d]++ }
		END { for (d in n) printf "%6d %s\n", n[d], d }' |
	sort -k2 |
	awk '{ print; t += $1 } END { printf "%6d total\n", t }'
