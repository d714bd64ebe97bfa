#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources in the current
# directory (the repository root) and runs it with the given arguments:
#
#   bash bench/run.sh --workload cold-mix --seed 3 --seconds 12 --trace 0
#
# Every build artefact goes under .bench_build (or $CARGO_TARGET_DIR),
# so the run reads and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath GOTMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOSUMDB=off GOTELEMETRY=off GOFLAGS=
(cd "$root/bench" && go build -o "$out/e2e" ./e2e)
exec "$out/e2e" "$@"
