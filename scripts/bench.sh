#!/bin/sh
# Regenerate BENCH_PARTITION.json: run the search-layer, simulator, and
# serving-layer benchmarks and merge them against the recorded
# pre-optimization baseline (scripts/.bench_baseline_raw.txt: search/sim
# rows captured before the parallel/pruned search engine and cachesim
# interning landed; ServePlanMiss/ServePlanHit captured before the
# zero-alloc miss pipeline and a closed-form rect fast path that has
# since been removed). ServeBatch, ServePlanMissClosedForm (a cold rect
# plan on a nest whose classes all score in closed form, so its scan runs
# inline), CommSetsAnalyze, MsgexecRun, and LowerBound are current-only:
# they have no pre-optimization capture.
#
# Before rewriting the record, the fresh run is guarded against the
# checked-in BENCH_PARTITION.json: any benchmark that got more than 25%
# slower (ns/op) fails the script non-zero, so a performance regression
# cannot silently replace the record. GUARD=0 skips the guard (verify.sh's
# BENCHTIME=10x smoke is deliberately short and noisy).
#
#   scripts/bench.sh                  # full run, rewrites BENCH_PARTITION.json
#   OUT=/tmp/b.json scripts/bench.sh  # write elsewhere (verify smoke)
#   BENCHTIME=10x scripts/bench.sh    # quicker, noisier
#   GUARD=0 scripts/bench.sh          # skip the regression guard
set -eu
cd "$(dirname "$0")/.."

OUT="${OUT:-BENCH_PARTITION.json}"
BENCHTIME="${BENCHTIME:-1s}"
GUARD="${GUARD:-1}"
RAW=$(mktemp /tmp/looppart-benchraw.XXXXXX)
trap 'rm -f "$RAW"' EXIT

# BenchmarkServePlanMiss also matches BenchmarkServePlanMissClosedForm
# (regex substring), listed explicitly anyway so the suite reads complete.
go test -run '^$' -bench 'BenchmarkRectSearch|BenchmarkSkewSearch|BenchmarkCachesimReplay|BenchmarkServePlanMiss|BenchmarkServePlanMissClosedForm|BenchmarkServePlanHit|BenchmarkServePlanPeerFill|BenchmarkServeBatch|BenchmarkCommSetsAnalyze|BenchmarkMsgexecRun|BenchmarkLowerBound' \
	-benchmem -benchtime "$BENCHTIME" . > "$RAW"
cat "$RAW"

if [ "$GUARD" != 0 ] && [ -f BENCH_PARTITION.json ]; then
	go run ./scripts/benchjson -against BENCH_PARTITION.json -current "$RAW"
	# The serving path is held to a tighter bar: the cold-plan miss
	# pipeline (the ServePlanMiss prefix also covers the inline rect scan's
	# ServePlanMissClosedForm) and the decoded-hit path must stay within 5%
	# of the record.
	go run ./scripts/benchjson -against BENCH_PARTITION.json -current "$RAW" \
		-only ServePlanHit,ServePlanMiss -threshold 5
fi

go run ./scripts/benchjson \
	-baseline scripts/.bench_baseline_raw.txt \
	-current "$RAW" \
	-out "$OUT"
go run ./scripts/benchjson -validate "$OUT"
