#!/usr/bin/env bash
# Builds the benchmark and the chassis-serve binary from the checkout it runs
# in, then runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Every build product, Go cache and scratch
# file stays under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config" "$out/gomodcache"
# The go command also writes telemetry under the user's config directory and
# would fill a module cache under $HOME; both move under .bench_build too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOMODCACHE="$out/gomodcache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" &&
	go build -o "$out/bin/perfbench" . &&
	go build -o "$out/bin/chassis-serve" chassis/cmd/chassis-serve) >&2
exec "$out/bin/perfbench" -serve-bin "$out/bin/chassis-serve" -work "$out/work" "$@"
