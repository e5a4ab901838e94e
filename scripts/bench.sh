#!/usr/bin/env sh
# bench.sh — snapshot the full experimental evaluation into a JSON manifest.
#
# Usage:
#   scripts/bench.sh out.json     # writes to the given file
#
# The manifest (schema viewjoin/bench/v1) records the git SHA, toolchain,
# effective config, per-experiment wall times, and one Row per measurement,
# so a PR can diff counters and timings against the committed baseline,
# BENCH_7.json. Counters are deterministic; times are not — compare shapes.
#
# A serving-latency manifest (schema viewjoin/load/v1, from cmd/vjload
# driving the full vjserve handler stack in-process) is written alongside
# as ${out%.json}.load.json; VJBENCH_SKIP_LOAD=1 skips it. Both manifests
# diff with scripts/benchcmp.sh, which detects the schema.
set -eu
cd "$(dirname "$0")/.."
if [ $# -ne 1 ]; then
	echo "usage: scripts/bench.sh out.json" >&2
	exit 2
fi
out="$1"
# Smoke-run the Go benchmarks first (a single iteration each) so a broken
# benchmark fails here, cheaply, instead of poisoning a long timing run.
# VJBENCH_SKIP_SMOKE=1 skips it.
if [ -z "${VJBENCH_SKIP_SMOKE:-}" ]; then
	go test -run '^$' -bench . -benchtime=1x ./... > /dev/null
fi
go run ./cmd/vjbench -exp all -json "$out" > /dev/null
if [ -z "${VJBENCH_SKIP_LOAD:-}" ]; then
	# Three tenant replicas under a resident-bytes cap exercise the
	# warm/cold tiering in the load run; the original mix classes keep
	# their manifest keys (only pinned '% tenant' classes gain a suffix),
	# so load manifests stay comparable across baselines.
	go run ./cmd/vjload -xmark 0.05 -qps 300 -duration 3s -seed 1 \
		-tenants 3 -max-resident-bytes 65536 \
		-mix '//site//item[//description//keyword]/name; //site//item//name @ //site//item//name; //site//item//name @ //site//item//name # 20; //description//keyword @ //description//keyword % t1' \
		-json "${out%.json}.load.json"
fi
