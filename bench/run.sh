#!/usr/bin/env bash
# Entry point of the benchmark (the "command" of BENCHMARK.json):
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash bench/run.sh                    # every workload, all metrics
#   bash bench/run.sh -selfcheck         # the acceptance run
#
# It builds lcmperf from source and hands it the arguments.  Everything the
# Go toolchain writes (build cache, module cache, telemetry) is kept under
# bench/out, inside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
mkdir -p "$out/bin" "$out/home"

export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOFLAGS=-modcacherw GOTOOLCHAIN=local GOPROXY=off GOWORK=off

t0="${EPOCHREALTIME/[.,]/}"
(cd "$here" && go build -buildvcs=false -o "$out/bin/lcmperf" ./cmd/lcmperf)
us=$(( ${EPOCHREALTIME/[.,]/} - t0 ))
printf -v LCMPERF_BUILD_S '%d.%06d' $((us / 1000000)) $((us % 1000000))
export LCMPERF_BUILD_S

# The measured processes (lcmperf, and the lcmd and probes it starts) share
# one CPU, the last this shell may use.  They run one thread of Go code each
# (hostProcs in run.go); side by side on two vCPUs, every request and reply
# would wake a halted vCPU, which costs what the hypervisor and its other
# tenants make it cost (README.md, "Noise").
pin=()
if cpus="$(taskset -cp $$ 2>/dev/null)"; then
  pin=(taskset -c "${cpus##*[ ,-]}")
fi

exec ${pin[@]+"${pin[@]}"} "$out/bin/lcmperf" -dir "$here" "$@"
