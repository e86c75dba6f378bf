#!/usr/bin/env bash
# Builds the benchmark and the lbsimd daemon from this checkout's
# sources, then runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Binaries and the Go build cache live under .bench_build, so a run
# writes nothing outside the checkout. The first run in a fresh checkout
# compiles the standard library into that cache (about half a minute on
# two cores); later runs only relink.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in there too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
  GOTOOLCHAIN=local GOFLAGS= GOWORK=off
# The traced jobs-mixed run profiles lbsimd built with one extra file,
# lbsimd_profile.go.in, added to cmd/lbsimd through an overlay.
printf '{"Replace": {"%s/cmd/lbsimd/zz_perfbench_profile.go": "%s/perfbench/lbsimd_profile.go.in"}}\n' \
  "$(pwd)" "$(pwd)" > "$out/overlay.json"
(cd perfbench && go build -o "$out/perfbench" . &&
  go build -o "$out/lbsimd" ompsscluster/cmd/lbsimd &&
  go build -overlay "$out/overlay.json" -o "$out/lbsimd-prof" ompsscluster/cmd/lbsimd)
exec "$out/perfbench" -lbsimd "$out/lbsimd" -lbsimd-prof "$out/lbsimd-prof" "$@"
