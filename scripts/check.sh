#!/usr/bin/env bash
#
# CI driver: the three standard configurations, in order of cost.
#
#   1. plain           — full suite (unit, integration, concurrency,
#                        chaos, trace, adaptive, examples, bench
#                        smokes), then the perf-smoke label, the
#                        disabled-trace wallclock envelope and a short
#                        default-config benchmark suites run checked
#                        against the reference expectations as
#                        explicit steps
#   2. address+undefined — full suite under ASan+UBSan
#   3. thread          — concurrency-, chaos-, trace-, net-,
#                        adaptive-, stm-, and jit-labeled tests only
#                        under TSan (the rest is single-threaded and
#                        just slows down 10x for nothing; trace rides
#                        along because its service-span tests cross
#                        threads, net because the server's event loop
#                        and shard workers race by construction,
#                        adaptive because the controller consumes
#                        telemetry the chaos storms also stress, stm
#                        because shared-heap sessions run K caller
#                        threads against one Heap, jit because the
#                        template tier shares the adaptive/abort
#                        telemetry paths the storms exercise)
#
# Usage: scripts/check.sh [jobs]
#
# Build trees live in build-check*/ so they never collide with a
# developer's ./build. Any failure aborts the run (sanitizers are
# compiled with -fno-sanitize-recover=all, so findings are fatal).

set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="${1:-$(nproc 2>/dev/null || echo 2)}"

run() {
    echo
    echo "==> $*"
    "$@"
}

step() {
    echo
    echo "============================================================"
    echo "== $*"
    echo "============================================================"
}

step "1/3 plain build + full test suite"
run cmake -B build-check -S . -DNOMAP_SANITIZE=
run cmake --build build-check -j "$JOBS"
run env CTEST_OUTPUT_ON_FAILURE=1 \
    ctest --test-dir build-check -j "$JOBS"

step "1b/3 perf-smoke: wallclock clean-exit + baseline regression gate"
# The full run above already exercised the perf-smoke tests; repeat
# them by label so a perf-gauge crash or a ns/instr regression beyond
# NOMAP_PERF_TOLERANCE percent of the committed BENCH_wallclock.json
# baseline (perf_regression_wallclock) is reported as its own step.
run env CTEST_OUTPUT_ON_FAILURE=1 \
    ctest --test-dir build-check -L perf-smoke

step "1c/3 trace label: attribution layer + golden + differential"
# Also covered by the full run; repeated by label so trace-layer
# breakage (golden drift, stats perturbation) is its own CI signal.
run env CTEST_OUTPUT_ON_FAILURE=1 \
    ctest --test-dir build-check -j "$JOBS" -L trace

step "1d/3 disabled-trace wallclock envelope"
# Tracing off must stay free: the host ns-per-guest-instruction gauge
# (median, any suite/arch) has to stay under NOMAP_WALLCLOCK_MAX_NS.
# The envelope is deliberately loose — seed baselines sit at 2.8-4.1
# ns/instr on the reference runner — so it only catches a tracing
# guard leaking onto the hot path, not machine-to-machine noise.
run bash -c "cd build-check && ./bench/wallclock --quick"
MAX_NS="${NOMAP_WALLCLOCK_MAX_NS:-8.0}"
run python3 - "$MAX_NS" <<'PY'
import json, sys
max_ns = float(sys.argv[1])
with open("build-check/BENCH_wallclock.json") as f:
    doc = json.load(f)
# The envelope guards the compiled tiers only: interpreter rows spend
# host time per *bytecode* dispatch, so their ns per (much denser)
# guest-instruction stream sits on a different scale by design.
worst = max(s.get("ns_per_instr_median", s["ns_per_instr_p50"])
            for s in doc["suites"] if s.get("tier") != "interp")
print(f"worst ns/instr median = {worst:.3f} (limit {max_ns})")
if worst > max_ns:
    sys.exit(f"wallclock envelope exceeded: {worst:.3f} > {max_ns}")
PY

step "1e/3 net label: wire codec + loopback differential + chaos"
# Also covered by the full run; repeated by label so serving-stack
# breakage (codec drift, router instability, a fault site that stops
# being content-preserving) is its own CI signal. Twice: single-loop
# (the full-run default) and NOMAP_NET_LOOPS=4, which makes every
# loopback test drive a 4-event-loop server (SO_REUSEPORT where the
# kernel has it, acceptor round-robin fallback elsewhere).
run env CTEST_OUTPUT_ON_FAILURE=1 NOMAP_NET_LOOPS=1 \
    ctest --test-dir build-check -j "$JOBS" -L net
run env CTEST_OUTPUT_ON_FAILURE=1 NOMAP_NET_LOOPS=4 \
    ctest --test-dir build-check -j "$JOBS" -L net

step "1f/3 adaptive label: controller properties + differential + storms"
# Also covered by the full run; repeated by label so adaptive-planner
# breakage (a revision on an unfaulted run, capacity-model golden
# drift, a storm that stops converging) is its own CI signal.
run env CTEST_OUTPUT_ON_FAILURE=1 \
    ctest --test-dir build-check -j "$JOBS" -L adaptive

step "1g/3 stm label: shared-heap isolate parity + litmus + fallback"
# Also covered by the full run; repeated by label so shared-heap
# breakage (K=1 parity drift, a non-serializable litmus outcome, a
# retry that stops being bit-identical) is its own CI signal.
run env CTEST_OUTPUT_ON_FAILURE=1 \
    ctest --test-dir build-check -j "$JOBS" -L stm

step "1h/3 jit label: template-tier bit-identity differential"
# Also covered by the full run; repeated by label so region-template
# breakage (a template whose stats/trace/injection behaviour drifts
# from the FTL reference, a fusion that changes charge order, a deopt
# that stops refunding exactly) is its own CI signal.
run env CTEST_OUTPUT_ON_FAILURE=1 \
    ctest --test-dir build-check -j "$JOBS" -L jit

step "1i/3 benchmark suites: default config vs reference expectations"
# perfbench/suites_expected.tsv holds every suite program's result and
# stats digest, generated in the reference configuration (per-op
# accounting, no quickening, jit tier off). The suites workload runs
# the default config, so one short run checks the default path
# against the reference bit for bit.
run env CARGO_TARGET_DIR=build-check-perfbench python3 - <<'PY'
import json, subprocess, sys
out = subprocess.run(
    [sys.executable, "perfbench/run.py", "--workload", "suites",
     "--seed", "1", "--seconds", "5", "--trace", "0"],
    stdout=subprocess.PIPE, text=True)
lines = out.stdout.strip().splitlines()
if out.returncode != 0 or not lines:
    sys.exit("perfbench suites run failed")
result = json.loads(lines[-1])
print(f"correct={result['correct']} failed={result['failed']} "
      f"attempted={result['attempted']}")
if not result["correct"] or result["failed"] != 0:
    sys.exit("default-config suites diverged from the reference")
PY

step "2/3 AddressSanitizer + UndefinedBehaviorSanitizer, full suite"
run cmake -B build-check-asan -S . "-DNOMAP_SANITIZE=address;undefined"
run cmake --build build-check-asan -j "$JOBS"
run env CTEST_OUTPUT_ON_FAILURE=1 \
    ASAN_OPTIONS=abort_on_error=1 \
    UBSAN_OPTIONS=print_stacktrace=1 \
    ctest --test-dir build-check-asan -j "$JOBS"

step "2a/3 jit label under ASan+UBSan"
# The template tier's label-capture trick, per-record function
# pointers and literal-pool indexing are exactly where an
# out-of-bounds record read would hide; run the differential as its
# own sanitized step.
run env CTEST_OUTPUT_ON_FAILURE=1 \
    ASAN_OPTIONS=abort_on_error=1 \
    UBSAN_OPTIONS=print_stacktrace=1 \
    ctest --test-dir build-check-asan -j "$JOBS" -L jit

step "2b/3 stm label under ASan+UBSan"
# The shared-heap rollback paths (undo replay, heap-mark truncation,
# cache-snapshot restore) are exactly where lifetime bugs would hide;
# run them as their own sanitized step.
run env CTEST_OUTPUT_ON_FAILURE=1 \
    ASAN_OPTIONS=abort_on_error=1 \
    UBSAN_OPTIONS=print_stacktrace=1 \
    ctest --test-dir build-check-asan -j "$JOBS" -L stm

step "2c/3 perf-smoke under ASan+UBSan (report-only baseline diff)"
# Sanitized builds compile with NOMAP_SANITIZED, so the baseline
# comparison prints its table but never fails; this step still
# catches perf-gauge crashes under instrumentation.
run env CTEST_OUTPUT_ON_FAILURE=1 \
    ASAN_OPTIONS=abort_on_error=1 \
    UBSAN_OPTIONS=print_stacktrace=1 \
    ctest --test-dir build-check-asan -L perf-smoke

step "3/3 ThreadSanitizer, concurrency + chaos + trace + net + adaptive + stm + jit labels"
# stm rides along because shared-heap sessions are the one place K
# caller threads execute guest programs against a single Heap — the
# domain-mutex serialization has to be TSan-clean by construction.
# jit rides along so the template tier proves itself under the same
# instrumented scheduler the other executor differentials run under.
run cmake -B build-check-tsan -S . -DNOMAP_SANITIZE=thread
run cmake --build build-check-tsan -j "$JOBS"
run env CTEST_OUTPUT_ON_FAILURE=1 \
    TSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir build-check-tsan -j "$JOBS" \
    -L 'concurrency|chaos|trace|net|adaptive|stm|jit'

step "3b/3 TSan net label in 4-loop mode"
# The multi-loop server's cross-thread seams (completion inboxes,
# adopted-fd handoff, shared fault injector, server-level counters)
# only exist with loops > 1, so the net label runs again under TSan
# with every loopback test on a 4-loop server.
run env CTEST_OUTPUT_ON_FAILURE=1 NOMAP_NET_LOOPS=4 \
    TSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir build-check-tsan -j "$JOBS" -L net

step "3c/3 perf-smoke under TSan (report-only baseline diff)"
run env CTEST_OUTPUT_ON_FAILURE=1 \
    TSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir build-check-tsan -L perf-smoke

step "all three configurations passed"
