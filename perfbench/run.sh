#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from
# and executes it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve-hit --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every file the Go toolchain and the
# benchmark write (build cache, binary, temp dirs, span dumps) lands in
# $CARGO_TARGET_DIR, or .bench_build when that is unset.
set -euo pipefail
command -v go >/dev/null || PATH=$PATH:/usr/local/go/bin # the Go installer's default location

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp" "$out/config"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOTMPDIR=$out/tmp TMPDIR=$out/tmp \
	XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
