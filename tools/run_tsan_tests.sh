#!/usr/bin/env bash
# Builds the concurrency-sensitive test tier under a sanitizer and runs it.
#
#   tools/run_tsan_tests.sh [thread|address|undefined]
#
# Defaults to the thread sanitizer: the runtime spawns one worker thread per
# PE plus one thread per API application, and the fault subsystem adds
# retry/quarantine state shared between the event loop and the workers —
# exactly the kind of machinery TSAN exists for. The sanitizer build lives
# in its own build tree (build-<sanitizer>/) so it never disturbs the main
# build directory.
set -euo pipefail

SANITIZER="${1:-thread}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${ROOT}/build-${SANITIZER}"

# The concurrency-sensitive tier: threaded runtime, fault injection with
# retry/quarantine, the 500-instance soak, cross-module properties, IPC
# (including the event-loop front-end hammered by pipelining clients),
# the observability layer (lock-free span ring, sampler thread), the
# continuous trace pipeline (flusher draining the ring while writers
# record), the
# online cost adaptation (concurrent observe + lock-free snapshot swap),
# the scheduling layer (publishers handing ready tasks and completions to
# the round inbox, and the ready queue and policy engine driven by
# whichever thread owns the scheduling round), the
# scenario harness (concurrent sweep execution over shared compiled state),
# the shared-memory submission lane (SPSC rings with release/acquire
# cursors shared across threads, doorbell arming, drain workers), and the
# FFT plan cache (plans built once under call_once, then read by every
# worker without a lock).
TARGETS=(test_runtime test_faults test_stress test_properties test_api
         test_ipc test_ipc_concurrency test_obs test_trace_segments
         test_adapt test_sched test_engine test_sched_lookahead test_scenario
         test_shm_ring test_dag_template test_fft)

cmake -B "${BUILD_DIR}" -S "${ROOT}" \
  -DCEDR_SANITIZE="${SANITIZER}" \
  -DCEDR_BUILD_BENCH=OFF \
  -DCEDR_BUILD_EXAMPLES=ON \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${BUILD_DIR}" -j"$(nproc)" --target "${TARGETS[@]}"

# halt_on_error: a single data race fails the run loudly instead of
# scrolling past; second_deadlock_stack helps diagnose lock inversions.
# The suppressions file silences a known libstdc++ atomic<shared_ptr>
# false positive (see tools/tsan_suppressions.txt).
export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1 suppressions=${ROOT}/tools/tsan_suppressions.txt"
export ASAN_OPTIONS="halt_on_error=1 detect_leaks=1"
export UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1"

status=0
for test in "${TARGETS[@]}"; do
  echo "==== ${test} (${SANITIZER} sanitizer) ===="
  if ! "${BUILD_DIR}/tests/${test}"; then
    status=1
  fi
done

# The round hand-off between publishers (app threads, workers, submitters)
# and the owner only fails under particular interleavings: repeat its tests.
echo "==== test_runtime RuntimeOwner.* x20 (${SANITIZER} sanitizer) ===="
if ! "${BUILD_DIR}/tests/test_runtime" --gtest_filter='RuntimeOwner.*' \
    --gtest_repeat=20; then
  status=1
fi
exit ${status}
