#!/bin/sh
# Runs the engine hot-path benchmarks with -benchmem and fails if they
# regress above the budgets in bench_budget.txt: the partition-local path
# (BenchmarkEngineThroughput, greedy-c1 and nogc, 4 shards), the
# cross-partition 2PC path (BenchmarkEngineCrossFrac at CrossFrac=0.05),
# the allocations of one cross transaction at two and four participants
# (BenchmarkCrossTxnAllocs, allocs/op vs max_cross_txn_allocs_2 and
# max_cross_txn_allocs_4), the between-batch sweep's allocations and
# candidate examinations over a straggler-pinned stream
# (BenchmarkSweepStragglerPinned in internal/core, allocs/txn vs
# max_core_sweep_allocs_per_txn, exams/completion vs
# max_core_sweep_exams_per_completion), the wire door's per-step codec and reply
# coalescing (BenchmarkWireStep and BenchmarkServePipelined in
# cmd/txgc-serve, allocs per step vs max_wire_allocs_per_step and writes
# per eight-deep burst vs max_serve_writes_per_burst), the batch door's
# fan-out (BenchmarkEngineBatchInterleaved, shard visits per 64-step batch
# vs max_batch_roundtrips_per_batch, and the times the lone submitter
# blocked on a shard lock held elsewhere per batch vs max_parks_per_batch),
# the raw client path's bytes per step (BenchmarkClientSubmitBatch in
# txdel/client, 64-step local batches through DB.SubmitBatch, B/step vs
# max_client_batch_bytes_per_step),
# cross steps in the batch window
# (BenchmarkEngineBatchCross, windows per 64-step batch vs
# max_cross_batch_windows_per_batch), the telemetry emitter
# (BenchmarkEngineEmitOverhead: events published per transaction vs
# max_emit_events_per_txn, allocs/op with the bus on, and the paired on-off
# ns/op delta, printed for information only), the retention governor's
# peak retained count under attack
# (BenchmarkEngineRetentionGoverned, peak-kept vs max_peak_kept), the
# durability layer's WAL overhead at the default fsync batch
# (BenchmarkEngineWALOverhead on vs off, ns/op delta vs
# max_wal_overhead_ns), and the submission path's p99 per-step latency at
# two cores (BenchmarkEngineParallelScaling, p99-step-ns vs
# max_p99_step_ns).
#
# Usage: check_bench_budget.sh [all|alloc|scale]
#   all   (default) every gate
#   alloc allocation + cross transaction + sweep + wire + client bytes + fan-out +
#         cross-window + emitter + WAL + retention gates only
#   scale the -cpu 2 p99 latency gate only (the CI bench-scale job)
#
# Every gate runs and reports. A gate over budget is recorded and the
# script moves on, so one host-dependent gate cannot hide the others; the
# summary at the end names the failed gates and exits 1. Output that
# cannot be parsed is a broken gate, not a verdict: it exits 2 at once.
set -eu
cd "$(dirname "$0")/.."

gates=0
nfailed=0
failed=""
pass() {
	gates=$((gates + 1))
	echo "check_bench_budget: OK: $1"
}
fail() {
	gates=$((gates + 1))
	nfailed=$((nfailed + 1))
	failed="$failed $1"
	echo "check_bench_budget: FAIL: $2" >&2
}

section=${1:-all}
case "$section" in
all | alloc | scale) ;;
*)
	echo "usage: $0 [all|alloc|scale]" >&2
	exit 2
	;;
esac

budget=$(awk '/^max_allocs_per_op/ {print $2}' bench_budget.txt)
nogc_budget=$(awk '/^max_nogc_allocs_per_op/ {print $2}' bench_budget.txt)
cross_budget=$(awk '/^max_cross_allocs_per_op/ {print $2}' bench_budget.txt)
trips_budget=$(awk '/^max_batch_roundtrips_per_batch/ {print $2}' bench_budget.txt)
parks_budget=$(awk '/^max_parks_per_batch/ {print $2}' bench_budget.txt)
windows_budget=$(awk '/^max_cross_batch_windows_per_batch/ {print $2}' bench_budget.txt)
events_budget=$(awk '/^max_emit_events_per_txn/ {print $2}' bench_budget.txt)
kept_budget=$(awk '/^max_peak_kept/ {print $2}' bench_budget.txt)
p99_budget=$(awk '/^max_p99_step_ns/ {print $2}' bench_budget.txt)
wal_budget=$(awk '/^max_wal_overhead_ns/ {print $2}' bench_budget.txt)
sweep_budget=$(awk '/^max_core_sweep_allocs_per_txn/ {print $2}' bench_budget.txt)
exams_budget=$(awk '/^max_core_sweep_exams_per_completion/ {print $2}' bench_budget.txt)
cross2_budget=$(awk '/^max_cross_txn_allocs_2/ {print $2}' bench_budget.txt)
cross4_budget=$(awk '/^max_cross_txn_allocs_4/ {print $2}' bench_budget.txt)
wire_budget=$(awk '/^max_wire_allocs_per_step/ {print $2}' bench_budget.txt)
writes_budget=$(awk '/^max_serve_writes_per_burst/ {print $2}' bench_budget.txt)
client_bytes_budget=$(awk '/^max_client_batch_bytes_per_step/ {print $2}' bench_budget.txt)
[ -n "$budget" ] || { echo "check_bench_budget: no max_allocs_per_op in bench_budget.txt" >&2; exit 2; }
[ -n "$nogc_budget" ] || { echo "check_bench_budget: no max_nogc_allocs_per_op in bench_budget.txt" >&2; exit 2; }
[ -n "$cross_budget" ] || { echo "check_bench_budget: no max_cross_allocs_per_op in bench_budget.txt" >&2; exit 2; }
[ -n "$trips_budget" ] || { echo "check_bench_budget: no max_batch_roundtrips_per_batch in bench_budget.txt" >&2; exit 2; }
[ -n "$parks_budget" ] || { echo "check_bench_budget: no max_parks_per_batch in bench_budget.txt" >&2; exit 2; }
[ -n "$windows_budget" ] || { echo "check_bench_budget: no max_cross_batch_windows_per_batch in bench_budget.txt" >&2; exit 2; }
[ -n "$events_budget" ] || { echo "check_bench_budget: no max_emit_events_per_txn in bench_budget.txt" >&2; exit 2; }
[ -n "$kept_budget" ] || { echo "check_bench_budget: no max_peak_kept in bench_budget.txt" >&2; exit 2; }
[ -n "$p99_budget" ] || { echo "check_bench_budget: no max_p99_step_ns in bench_budget.txt" >&2; exit 2; }
[ -n "$wal_budget" ] || { echo "check_bench_budget: no max_wal_overhead_ns in bench_budget.txt" >&2; exit 2; }
[ -n "$sweep_budget" ] || { echo "check_bench_budget: no max_core_sweep_allocs_per_txn in bench_budget.txt" >&2; exit 2; }
[ -n "$exams_budget" ] || { echo "check_bench_budget: no max_core_sweep_exams_per_completion in bench_budget.txt" >&2; exit 2; }
[ -n "$cross2_budget" ] || { echo "check_bench_budget: no max_cross_txn_allocs_2 in bench_budget.txt" >&2; exit 2; }
[ -n "$cross4_budget" ] || { echo "check_bench_budget: no max_cross_txn_allocs_4 in bench_budget.txt" >&2; exit 2; }
[ -n "$wire_budget" ] || { echo "check_bench_budget: no max_wire_allocs_per_step in bench_budget.txt" >&2; exit 2; }
[ -n "$writes_budget" ] || { echo "check_bench_budget: no max_serve_writes_per_burst in bench_budget.txt" >&2; exit 2; }
[ -n "$client_bytes_budget" ] || { echo "check_bench_budget: no max_client_batch_bytes_per_step in bench_budget.txt" >&2; exit 2; }

if [ "$section" != "scale" ]; then
	out=$(go test -run '^$' -bench 'BenchmarkEngineThroughput/shards=4/(policy=greedy-c1|policy=nogc)$|BenchmarkEngineCrossFrac/cross=5|BenchmarkEngineBatchInterleaved|BenchmarkEngineBatchCross' \
		-benchtime 3000x -benchmem ./internal/engine/)
	echo "$out"

	parse_allocs() {
		echo "$out" | awk -v pat="$1" '$0 ~ pat {for (i = 2; i <= NF; i++) if ($i == "allocs/op") print $(i-1)}' | head -1
	}

	allocs=$(parse_allocs 'policy=greedy-c1')
	[ -n "$allocs" ] || { echo "check_bench_budget: could not parse local allocs/op from benchmark output" >&2; exit 2; }
	if [ "$allocs" -gt "$budget" ]; then
		fail local-allocs "local path $allocs allocs/op exceeds budget of $budget"
	else
		pass "local path $allocs allocs/op within budget of $budget"
	fi

	nogc_allocs=$(parse_allocs 'policy=nogc')
	[ -n "$nogc_allocs" ] || { echo "check_bench_budget: could not parse nogc allocs/op from benchmark output" >&2; exit 2; }
	if [ "$nogc_allocs" -gt "$nogc_budget" ]; then
		fail nogc-allocs "nogc path $nogc_allocs allocs/op exceeds budget of $nogc_budget (plumbing regression — nogc's retained-state allocations are already priced in)"
	else
		pass "nogc path $nogc_allocs allocs/op within budget of $nogc_budget"
	fi

	cross_allocs=$(parse_allocs 'cross=5')
	[ -n "$cross_allocs" ] || { echo "check_bench_budget: could not parse cross allocs/op from benchmark output" >&2; exit 2; }
	if [ "$cross_allocs" -gt "$cross_budget" ]; then
		fail cross-allocs "cross path $cross_allocs allocs/op exceeds budget of $cross_budget"
	else
		pass "cross path $cross_allocs allocs/op within budget of $cross_budget"
	fi

	# Batch door fan-out: shard visits per 64-step batch of sixteen
	# interleaved local transactions over four shards. A count fixed by the
	# code (one per shard a window touches), so the budget is the measured
	# value and the comparison exact.
	trips=$(echo "$out" | awk '/BenchmarkEngineBatchInterleaved/ {for (i = 2; i <= NF; i++) if ($i == "roundtrips/batch") print $(i-1)}' | head -1)
	[ -n "$trips" ] || { echo "check_bench_budget: could not parse roundtrips/batch from benchmark output" >&2; exit 2; }
	if awk -v a="$trips" -v b="$trips_budget" 'BEGIN {exit !(a > b)}'; then
		fail batch-roundtrips "batch door $trips shard visits per batch exceeds budget of $trips_budget (windows no longer fan out)"
	else
		pass "batch door $trips shard visits per batch within budget of $trips_budget"
	fi

	# The lone submitter blocking on a shard lock held elsewhere: it finds
	# every lock free, so it never blocks. A count fixed by the code; any
	# block means some other goroutine holds a shard's lock again.
	parks=$(echo "$out" | awk '/BenchmarkEngineBatchInterleaved/ {for (i = 2; i <= NF; i++) if ($i == "parks/batch") print $(i-1)}' | head -1)
	[ -n "$parks" ] || { echo "check_bench_budget: could not parse parks/batch from benchmark output" >&2; exit 2; }
	if awk -v a="$parks" -v b="$parks_budget" 'BEGIN {exit !(a > b)}'; then
		fail batch-parks "batch door blocked on a shard lock held elsewhere $parks times per batch with no other submitter, budget $parks_budget (something else holds the shard locks)"
	else
		pass "batch door blocked on a shard lock held elsewhere $parks times per batch with no other submitter, budget $parks_budget"
	fi

	# Cross steps in the window: windows per 64-step batch of sixteen
	# interleaved transactions, two of them cross-partition. Also a count
	# fixed by the code; a cross read that settles the window again raises it.
	windows=$(echo "$out" | awk '/BenchmarkEngineBatchCross/ {for (i = 2; i <= NF; i++) if ($i == "windows/batch") print $(i-1)}' | head -1)
	[ -n "$windows" ] || { echo "check_bench_budget: could not parse windows/batch from benchmark output" >&2; exit 2; }
	if awk -v a="$windows" -v b="$windows_budget" 'BEGIN {exit !(a > b)}'; then
		fail cross-batch-windows "batch door $windows windows per cross-carrying batch exceeds budget of $windows_budget (cross steps settle the window again)"
	else
		pass "batch door $windows windows per cross-carrying batch within budget of $windows_budget"
	fi

	# One cross transaction (BEGIN, one read, the final write's two-phase
	# commit) at two and four participants: allocations per transaction, a
	# count fixed by the code, so the budgets are the measured values and
	# one allocation more fails.
	xtxn_out=$(go test -run '^$' -bench 'BenchmarkCrossTxnAllocs' -benchtime 2000x -benchmem ./internal/engine/)
	echo "$xtxn_out" | grep BenchmarkCrossTxnAllocs || true
	for parts in 2 4; do
		xallocs=$(echo "$xtxn_out" | awk -v pat="parts=$parts" '$0 ~ pat {for (i = 2; i <= NF; i++) if ($i == "allocs/op") print $(i-1)}' | head -1)
		[ -n "$xallocs" ] || { echo "check_bench_budget: could not parse parts=$parts allocs/op from the cross transaction benchmark output" >&2; exit 2; }
		if [ "$parts" = 2 ]; then xbudget=$cross2_budget; else xbudget=$cross4_budget; fi
		if [ "$xallocs" -gt "$xbudget" ]; then
			fail cross-txn-allocs-$parts "a cross transaction over $parts participants allocates $xallocs times, budget $xbudget"
		else
			pass "a cross transaction over $parts participants allocates $xallocs times, budget $xbudget"
		fi
	done

	# Between-batch sweep: allocations per transaction of the scheduler
	# replaying a straggler-pinned stream with a GreedyC1 sweep every eighth
	# completion, and the candidates those sweeps examined per completion.
	# Both are properties of the code, not the host, so one run suffices;
	# they are fractional (amortized pool and index growth; a mean over the
	# stream), hence the awk comparisons.
	sweep_out=$(go test -run '^$' -bench 'BenchmarkSweepStragglerPinned' -benchtime 5x ./internal/core/)
	echo "$sweep_out" | grep BenchmarkSweep || true
	sweep_allocs=$(echo "$sweep_out" | awk '/BenchmarkSweepStragglerPinned/ {for (i = 2; i <= NF; i++) if ($i == "allocs/txn") print $(i-1)}' | head -1)
	[ -n "$sweep_allocs" ] || { echo "check_bench_budget: could not parse allocs/txn from the sweep benchmark output" >&2; exit 2; }
	if awk -v a="$sweep_allocs" -v b="$sweep_budget" 'BEGIN {exit !(a > b)}'; then
		fail sweep-allocs "straggler-pinned sweep $sweep_allocs allocs/txn exceeds budget of $sweep_budget"
	else
		pass "straggler-pinned sweep $sweep_allocs allocs/txn within budget of $sweep_budget"
	fi
	sweep_exams=$(echo "$sweep_out" | awk '/BenchmarkSweepStragglerPinned/ {for (i = 2; i <= NF; i++) if ($i == "exams/completion") print $(i-1)}' | head -1)
	[ -n "$sweep_exams" ] || { echo "check_bench_budget: could not parse exams/completion from the sweep benchmark output" >&2; exit 2; }
	if awk -v a="$sweep_exams" -v b="$exams_budget" 'BEGIN {exit !(a > b)}'; then
		fail sweep-exams "straggler-pinned sweep examined $sweep_exams candidates per completion, budget $exams_budget (sweeps re-examine refused candidates)"
	else
		pass "straggler-pinned sweep examined $sweep_exams candidates per completion, budget $exams_budget"
	fi

	# The wire door: allocations per step of the hand-rolled codec (one
	# benchmark op is a transaction's three steps and their three replies)
	# and writes per eight-deep pipelined burst through serve. Both are
	# counts fixed by the code, so one run each; the codec=json arm runs
	# alongside only to show the reference in the same output.
	wire_out=$(go test -run '^$' -bench 'BenchmarkWireStep|BenchmarkServePipelined' -benchtime 2000x -benchmem ./cmd/txgc-serve/)
	echo "$wire_out" | grep Benchmark || true
	wire_allocs=$(echo "$wire_out" | awk '/codec=hand/ {for (i = 2; i <= NF; i++) if ($i == "allocs/op") print $(i-1) / 3}' | head -1)
	[ -n "$wire_allocs" ] || { echo "check_bench_budget: could not parse codec=hand allocs/op from the wire benchmark output" >&2; exit 2; }
	if awk -v a="$wire_allocs" -v b="$wire_budget" 'BEGIN {exit !(a > b)}'; then
		fail wire-allocs "wire codec $wire_allocs allocs/step exceeds budget of $wire_budget"
	else
		pass "wire codec $wire_allocs allocs/step within budget of $wire_budget"
	fi
	burst_writes=$(echo "$wire_out" | awk '/BenchmarkServePipelined/ {for (i = 2; i <= NF; i++) if ($i == "writes/op") print $(i-1)}' | head -1)
	[ -n "$burst_writes" ] || { echo "check_bench_budget: could not parse writes/op from the wire benchmark output" >&2; exit 2; }
	if awk -v a="$burst_writes" -v b="$writes_budget" 'BEGIN {exit !(a > b)}'; then
		fail serve-writes "serve issued $burst_writes writes per eight-deep burst, budget $writes_budget (replies are no longer coalesced)"
	else
		pass "serve issued $burst_writes writes per eight-deep burst, budget $writes_budget"
	fi

	# The raw client path: bytes allocated per step of 64-step local batches
	# through DB.SubmitBatch. The engine allocates nothing for such a step,
	# so this is the []Result each batch returns, one Result a step: a size
	# fixed by the code, the same on any 64-bit host.
	client_out=$(go test -run '^$' -bench 'BenchmarkClientSubmitBatch' -benchtime 3000x -benchmem ./txdel/client/)
	echo "$client_out" | grep Benchmark || true
	client_bytes=$(echo "$client_out" | awk '/BenchmarkClientSubmitBatch/ {for (i = 2; i <= NF; i++) if ($i == "B/step") print $(i-1)}' | head -1)
	[ -n "$client_bytes" ] || { echo "check_bench_budget: could not parse B/step from the client benchmark output" >&2; exit 2; }
	if awk -v a="$client_bytes" -v b="$client_bytes_budget" 'BEGIN {exit !(a > b)}'; then
		fail client-bytes "client batch path $client_bytes B/step exceeds budget of $client_bytes_budget (a Result grew, or the raw path allocates again)"
	else
		pass "client batch path $client_bytes B/step within budget of $client_bytes_budget"
	fi

	# Emitter: events published per transaction (a count, the same on any
	# host) and allocs/op with the bus on are gated. The median of five
	# paired (on - off) ns/op deltas is printed for information only: it
	# tracks the host's spare CPU for the drain goroutine, not the code (see
	# bench_budget.txt).
	emit_deltas=""
	emit_allocs=0
	emit_events=0
	for _i in 1 2 3 4 5; do
		emit_out=$(go test -run '^$' -bench 'BenchmarkEngineEmitOverhead' \
			-benchtime 10000x -benchmem ./internal/engine/)
		echo "$emit_out" | grep BenchmarkEngine || true
		off=$(echo "$emit_out" | awk '/emitter=off/ {for (i = 2; i <= NF; i++) if ($i == "ns/op") print $(i-1)}' | head -1)
		on=$(echo "$emit_out" | awk '/emitter=on/ {for (i = 2; i <= NF; i++) if ($i == "ns/op") print $(i-1)}' | head -1)
		[ -n "$off" ] && [ -n "$on" ] || { echo "check_bench_budget: could not parse emitter ns/op from benchmark output" >&2; exit 2; }
		emit_deltas="$emit_deltas $((on - off))"
		a=$(echo "$emit_out" | awk '/emitter=on/ {for (i = 2; i <= NF; i++) if ($i == "allocs/op") print $(i-1)}' | head -1)
		[ -n "$a" ] || { echo "check_bench_budget: could not parse emitter=on allocs/op" >&2; exit 2; }
		[ "$a" -gt "$emit_allocs" ] && emit_allocs=$a
		ev=$(echo "$emit_out" | awk '/emitter=on/ {for (i = 2; i <= NF; i++) if ($i == "events/txn") print $(i-1)}' | head -1)
		[ -n "$ev" ] || { echo "check_bench_budget: could not parse emitter=on events/txn" >&2; exit 2; }
		emit_events=$(awk -v a="$ev" -v b="$emit_events" 'BEGIN {print (a > b) ? a : b}')
	done
	delta=$(echo "$emit_deltas" | tr ' ' '\n' | grep -v '^$' | sort -n | awk '{v[NR] = $1} END {print v[int((NR + 1) / 2)]}')
	echo "check_bench_budget: info: emitter overhead ${delta} ns/op (median of paired deltas:${emit_deltas}; not gated)"
	if awk -v a="$emit_events" -v b="$events_budget" 'BEGIN {exit !(a > b)}'; then
		fail emit-events "emitter published $emit_events events per transaction, budget $events_budget"
	else
		pass "emitter published $emit_events events per transaction, budget $events_budget"
	fi
	if [ "$emit_allocs" -gt "$budget" ]; then
		fail emit-allocs "emitter=on path $emit_allocs allocs/op exceeds budget of $budget (Emit must not allocate)"
	else
		pass "emitter=on path $emit_allocs allocs/op within budget of $budget"
	fi

	# WAL overhead: the median of paired deltas — the wal=on-fsync=64 and
	# wal=off variants run back-to-back within one `go test` invocation, so
	# host drift cancels out of the delta. The budget
	# is absolute ns and dominated by real fsync latency (see
	# bench_budget.txt); three pairs suffice because the signal a regression
	# leaves (lost fsync batching, per-record allocation storms) is a
	# multiple of the budget, not a flicker.
	wal_deltas=""
	for _i in 1 2 3; do
		wal_out=$(go test -run '^$' -bench 'BenchmarkEngineWALOverhead/(wal=off|wal=on-fsync=64)$' \
			-benchtime 3000x -benchmem ./internal/engine/)
		echo "$wal_out" | grep BenchmarkEngine || true
		wal_off=$(echo "$wal_out" | awk '/wal=off/ {for (i = 2; i <= NF; i++) if ($i == "ns/op") print $(i-1)}' | head -1)
		wal_on=$(echo "$wal_out" | awk '/wal=on/ {for (i = 2; i <= NF; i++) if ($i == "ns/op") print $(i-1)}' | head -1)
		[ -n "$wal_off" ] && [ -n "$wal_on" ] || { echo "check_bench_budget: could not parse WAL ns/op from benchmark output" >&2; exit 2; }
		wal_deltas="$wal_deltas $((wal_on - wal_off))"
	done
	wal_delta=$(echo "$wal_deltas" | tr ' ' '\n' | grep -v '^$' | sort -n | awk '{v[NR] = $1} END {print v[int((NR + 1) / 2)]}')
	if [ "$wal_delta" -gt "$wal_budget" ]; then
		fail wal-overhead "WAL overhead ${wal_delta} ns/op (median of paired deltas:${wal_deltas}) exceeds budget of ${wal_budget} ns"
	else
		pass "WAL overhead ${wal_delta} ns/op (median of paired deltas:${wal_deltas}) within budget of ${wal_budget} ns"
	fi

	# Retention governor: peak retained count while the adversarial leak
	# family runs must stay under max_peak_kept — the bounded-retention SLO as
	# a build gate, not just a soak assertion.
	kept_out=$(go test -run '^$' -bench 'BenchmarkEngineRetentionGoverned' \
		-benchtime 2000x ./internal/engine/)
	echo "$kept_out"

	peak=$(echo "$kept_out" | awk '/BenchmarkEngineRetentionGoverned/ {for (i = 2; i <= NF; i++) if ($i == "peak-kept") print $(i-1)}' | head -1)
	[ -n "$peak" ] || { echo "check_bench_budget: could not parse peak-kept from benchmark output" >&2; exit 2; }
	peak_int=${peak%.*}
	if [ "$peak_int" -gt "$kept_budget" ]; then
		fail peak-kept "governed peak retention $peak exceeds budget of $kept_budget"
	else
		pass "governed peak retention $peak within budget of $kept_budget"
	fi
fi

if [ "$section" = "all" ] || [ "$section" = "scale" ]; then
	# Tail latency: the scaling benchmark's client-observed p99 per-step
	# latency at two cores on the canonical cross mix. min-of-3 because p99
	# on shared CI runners eats scheduler preemption tails; the budget is
	# set ~10x measured and catches lock convoys and lost wake-ups (a
	# submitter stuck behind a sleeping lock holder is a 100x signal, not
	# 2x).
	scale_out=$(go test -run '^$' -bench 'BenchmarkEngineParallelScaling/cross=5' \
		-benchtime 20000x -count=3 -cpu 2 ./internal/engine/)
	echo "$scale_out"

	p99=$(echo "$scale_out" | awk '/BenchmarkEngineParallelScaling/ {for (i = 2; i <= NF; i++) if ($i == "p99-step-ns") print $(i-1)}' |
		sort -n | head -1)
	[ -n "$p99" ] || { echo "check_bench_budget: could not parse p99-step-ns from benchmark output" >&2; exit 2; }
	p99_int=${p99%.*}
	if [ "$p99_int" -gt "$p99_budget" ]; then
		fail p99-step "submission p99 ${p99} ns/step at -cpu 2 exceeds budget of ${p99_budget}"
	else
		pass "submission p99 ${p99} ns/step at -cpu 2 within budget of ${p99_budget}"
	fi
fi

if [ -n "$failed" ]; then
	echo "check_bench_budget: SUMMARY: $nfailed of $gates gates failed:$failed" >&2
	exit 1
fi
echo "check_bench_budget: SUMMARY: all $gates gates within budget"
