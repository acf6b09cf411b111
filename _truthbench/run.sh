#!/usr/bin/env bash
# Builds truthrouted and the benchmark command from the checkout it is
# run in, then runs one workload:
#
#   bash _truthbench/run.sh --workload ap-hot|churn|overpay-sweep \
#       --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Every build and scratch file stays
# under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/truthrouted" || ! -d "$root/_truthbench" ]]; then
    echo "run.sh: run from the repository root (no go.mod or cmd/truthrouted here)" >&2
    exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0

go build -buildvcs=false -o "$out/bin/truthrouted" ./cmd/truthrouted
(cd "$root/_truthbench" && go build -buildvcs=false -o "$out/bin/truthbench" .)

commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
exec "$out/bin/truthbench" -root "$root" -daemon "$out/bin/truthrouted" -commit "$commit" "$@"
