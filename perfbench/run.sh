#!/usr/bin/env bash
# run.sh — build the benchmark from source and run it.
#
# Run from the repository root; every argument passes through to the
# benchmark binary:
#
#   bash perfbench/run.sh --workload fullbatch-products-p4 --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh compare .bench_build/results/a.json .bench_build/results/b.json
#
# One fixed build: -tags simd, so the AVX2/NEON kernels are installed where
# the CPU has them (the fingerprint records which). The Go build cache,
# temporary files and the binary stay under .bench_build in the checkout;
# nothing is fetched (GOPROXY=off, GOTOOLCHAIN=local).
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/perfbench/go.mod" ]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/xdg"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/xdg" XDG_CACHE_HOME="$build/xdg" \
	GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

rev=unknown
if [ -e "$root/.git" ]; then
	rev=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
# A digest of the module's Go sources names the code where git cannot.
digest=$(cd "$root" && find . -name '*.go' -not -path './.bench_build/*' -print0 |
	LC_ALL=C sort -z | xargs -0 sha256sum | sha256sum | cut -c1-16)

(cd "$root/perfbench" && go build -tags simd -trimpath -buildvcs=false \
	-ldflags "-X main.commit=$rev -X main.sourceDigest=$digest" -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
