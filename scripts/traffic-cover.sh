#!/usr/bin/env bash
# Lists the functions of internal/exec, internal/engine and internal/plan
# that the gated benchmark traffic never reaches.
#
# Builds cmd/magicserver and the benchmark with coverage instrumentation
# (-cover -coverpkg=starmagic/...) into a temporary directory, runs each
# gated workload's timed pass for SECS seconds (default 4, seed SEED,
# default 1994) from a temporary working directory that holds
# .bench_build/magicserver, merges the counters of every process with
# `go tool covdata`, and prints the functions at 0 %. The benchmark's own
# package is dropped from the merged profile (`go tool cover` cannot resolve
# it from the root module). Nothing is written in the checkout.
#
#   scripts/traffic-cover.sh          (or: make traffic)
#   SECS=8 WORKLOADS="t1_large" scripts/traffic-cover.sh
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
secs=${SECS:-4}
seed=${SEED:-1994}
workloads=${WORKLOADS:-t1_small_adhoc t1_small_prepared t1_large wire_read}

tmp=$(mktemp -d)
cleanup() {
	pkill -KILL -f "$tmp/magicserver" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT
mkdir -p "$tmp/run/.bench_build" "$tmp/cov" "$tmp/wrap"

cd "$root"
go build -cover -coverpkg=starmagic/... -o "$tmp/magicserver" ./cmd/magicserver
(cd benchmark && go build -cover -coverpkg=starmagic/... -o "$tmp/benchmark" .)

# The benchmark stops a wire workload's server with SIGKILL, which would
# lose the counters a covered binary writes when it exits. The server it
# starts is therefore this stand-in, which runs the covered magicserver as
# a child the kernel sends SIGTERM — a clean shutdown — when the stand-in
# dies.
cat >"$tmp/wrap/main.go" <<EOF
package main

import (
	"os"
	"os/exec"
	"runtime"
	"syscall"
)

func main() {
	runtime.LockOSThread() // the parent-death signal follows the starting thread
	cmd := exec.Command("$tmp/magicserver", os.Args[1:]...)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = os.Stdin, os.Stdout, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	if err := cmd.Run(); err != nil {
		os.Exit(1)
	}
}
EOF
(cd "$tmp/wrap" && go build -o "$tmp/run/.bench_build/magicserver" main.go)

for w in $workloads; do
	line=$(cd "$tmp/run" && GOCOVERDIR="$tmp/cov" "$tmp/benchmark" --workload "$w" --seed "$seed" \
		--seconds "$secs" --trace 0 2>"$tmp/stderr" | tail -n 1) || true
	echo "traffic: $w seed $seed ${secs}s: $line" >&2
	case "$line" in *'"correct":true'*) ;; *) cat "$tmp/stderr" >&2 ;; esac
	# Let stopped servers finish shutting down and write their counters.
	for _ in $(seq 100); do
		pgrep -f "$tmp/magicserver" >/dev/null || break
		sleep 0.1
	done
done

go tool covdata textfmt -i="$tmp/cov" -o "$tmp/all.out"
grep -v '^starmagic/benchmark/' "$tmp/all.out" >"$tmp/cover.out"
go tool cover -func="$tmp/cover.out" |
	awk '$1 ~ /^starmagic\/internal\/(exec|engine|plan)\// && $NF == "0.0%" {print $1, $2}'
