#pragma once
// Discrete-event emulation of the CEDR runtime.
//
// Reproduces the paper's timing experiments on a machine with none of the
// paper's hardware. The emulator models, with a virtual clock:
//
//   * CPU contention — all worker threads, accelerator-management threads
//     and API application threads share the platform's cores under
//     processor sharing (each runnable thread advances at rate
//     min(1, cores / runnable)). One extra core is reserved for the CEDR
//     main thread, as on both paper testbeds.
//   * Accelerator management — an accelerator task occupies its management
//     thread for the task's full duration (setup + DMA/cudaMemcpy + busy
//     polling), the driverless-MMIO behavior that causes Fig. 10a's
//     contention collapse.
//   * The main event loop — submissions, completion bookkeeping and app
//     termination are main-thread work items with calibrated costs
//     (SimCosts); their sum is the paper's "runtime overhead" metric.
//     Scheduling rounds run the *real* sched:: heuristics over the ready
//     queue; decision time is cost_sched_fixed + comparisons *
//     cost_per_comparison, so ETF's queue-size sensitivity (Fig. 7) is
//     emergent, not scripted.
//   * Two programming models — DAG-based (every segment, glue included, is
//     a scheduled task; the main thread parses the DAG and pushes tasks)
//     and API-based (application threads burn glue as CPU work and push
//     only kernel calls).
//
// The engine is deterministic: identical inputs give bit-identical metrics.

#include <span>
#include <vector>

#include "cedr/adapt/online_estimator.h"
#include "cedr/common/status.h"
#include "cedr/obs/metrics.h"
#include "cedr/obs/span.h"
#include "cedr/platform/fault.h"
#include "cedr/platform/platform.h"
#include "cedr/sim/model.h"

namespace cedr::sim {

/// Which programming model the emulated runtime executes.
enum class ProgrammingModel { kDagBased, kApiBased };

/// Main-thread cost constants (seconds). Calibrated against the magnitudes
/// the paper reports (Fig. 5: ms-scale runtime overhead with a ~19.5 % API
/// advantage; Fig. 7: sub-ms scheduling overhead for RR/EFT/HEFT_RT).
struct SimCosts {
  double wakeup = 1.5e-6;            ///< main-loop iteration entered from idle
  double submit_fixed = 120e-6;     ///< receive one app over IPC
  double parse_per_task = 3.0e-6;   ///< DAG-mode JSON node parse
  double push_task = 1.8e-6;        ///< main-thread ready-queue push (DAG)
  double pop_task = 0.7e-6;         ///< completion bookkeeping per task
  double terminate_app = 80e-6;     ///< app teardown + log flush
  double sched_fixed = 1.5e-6;        ///< per scheduling round
  double per_comparison = 1.5e-7;     ///< per (task, PE) cost evaluation
  double api_call_overhead = 8e-6;  ///< app-thread cost to issue one call
  /// Application-thread cost to be woken from its condvar wait after each
  /// kernel completes (context switch + condvar bookkeeping). Paid per API
  /// call, which is how API-based execution loses ground on the
  /// core-starved ZCU102 (paper §IV-A).
  double wake_overhead = 30e-6;
  /// The daemon's event loop polls for work every loop_period while the
  /// workload is live; each idle iteration costs poll_cost. At low
  /// injection rates the workload spans a long window and this term
  /// dominates the runtime overhead, producing Fig. 5's decreasing trend.
  double loop_period = 40e-6;
  double poll_cost = 1.2e-6;
  /// Ratio of an accelerator task's management-thread CPU occupancy to its
  /// profiling-table estimate. The tables are measured in isolation; under
  /// the runtime the management thread stages DMA buffers and busy-polls
  /// the status register for the task's whole duration, burning far more
  /// CPU than the isolated estimate. Schedulers decide on the optimistic
  /// table numbers — which is why cost-aware heuristics still offload and
  /// contention grows with accelerator count (paper Fig. 10a).
  double accel_occupancy = 3.0;
  /// Context-switch / cache-pollution efficiency loss: every runnable
  /// thread beyond the core count multiplies the pool's effective rate by
  /// 1/(1 + penalty * excess). This is the "increased thread contention on
  /// the underlying CPUs" of paper §IV-A: oversubscribed in-order A53
  /// cores lose real throughput to switching, not just fairness.
  double oversubscription_penalty = 0.08;
  /// Wake-to-run latency of a signalled application thread per unit of
  /// core oversubscription: after pthread_cond_signal the woken thread
  /// still waits ~latency * max(0, runnable - cores) / cores for a
  /// timeslice. Zero on an undersubscribed machine (Jetson with spare
  /// cores), hundreds of microseconds per call on the 3-core ZCU102 — the
  /// second half of §IV-A's thread-contention penalty on API execution.
  double wake_latency = 300e-6;
  /// Worker-side cost of completing one API-mode task: pthread_cond_signal
  /// with a contended mutex (futex syscall, cache-line migration to the
  /// sleeping application thread's core). DAG-mode tasks hand off through
  /// the main thread's queues and do not pay this. Together with
  /// wake_overhead this is §IV-A's per-call thread-management tax that
  /// makes API execution slower on the core-starved ZCU102.
  double signal_overhead = 40e-6;
  /// Background load contributed by every *live* API application thread,
  /// runnable or not, in runnable-thread equivalents: timer ticks, futex
  /// churn and run-queue housekeeping for 10 extra threads measurably tax
  /// a 3-core A53 cluster but disappear into a 7-core pool. DAG mode
  /// spawns no application threads and pays none of this (paper §IV-A).
  double thread_noise = 0.25;
};

/// One application instance arriving at the emulated runtime.
struct Arrival {
  const SimApp* app = nullptr;
  double time = 0.0;
};

/// Aggregate results of one emulation run.
struct SimMetrics {
  std::size_t apps = 0;
  std::size_t tasks_executed = 0;
  std::size_t sched_rounds = 0;
  std::size_t max_ready_queue = 0;
  /// Sum of per-round `comparisons` reported by the heuristic. This is the
  /// exact decision-complexity count Fig. 7 is built from; changes to the
  /// ready queue must keep it bit-identical for a given input.
  std::uint64_t total_comparisons = 0;
  double makespan = 0.0;               ///< completion of the last app
  double avg_execution_time = 0.0;     ///< per app, launch -> termination
  double avg_sched_overhead = 0.0;     ///< total decision time / apps
  double total_sched_time = 0.0;
  double runtime_overhead = 0.0;       ///< total main-thread mgmt time
  double runtime_overhead_per_app = 0.0;
  std::vector<double> pe_busy;         ///< busy work per PE (CPU-seconds)
  // Fault-tolerance metrics (all zero when SimConfig::faults is empty).
  std::size_t faults_injected = 0;
  std::size_t tasks_retried = 0;       ///< retry dispatches after a fault
  std::size_t pes_quarantined = 0;     ///< quarantine transitions
  std::size_t pes_reinstated = 0;      ///< probe-driven reinstatements
  std::size_t tasks_lost = 0;          ///< retries exhausted (terminal)
  // Lookahead metrics (zero unless the scheduler is a LookaheadScheduler —
  // HEFT_LA / EFT_LA; docs/scheduling.md "Lookahead rounds").
  std::size_t reservation_hits = 0;    ///< tasks dispatched from a reservation
  std::size_t reservation_stale = 0;   ///< reservations invalidated at release
};

/// Emulator configuration.
struct SimConfig {
  platform::PlatformConfig platform;
  std::string scheduler = "EFT";
  ProgrammingModel model = ProgrammingModel::kApiBased;
  SimCosts costs;
  /// Fault-injection scenario + response policy, evaluated on the virtual
  /// clock with the same deterministic per-PE streams as the runtime.
  platform::FaultPlan faults;
  /// Safety valve: abort the run if the virtual clock passes this horizon.
  double max_virtual_time_s = 3600.0;
  /// How many DAG levels past the ready snapshot a lookahead scheduler
  /// (HEFT_LA / EFT_LA) may see per round. 0 restricts lookahead rounds to
  /// the ready snapshot (no reservations). Ignored by classic heuristics —
  /// their rounds stay bit-identical regardless of this knob, which is what
  /// keeps the golden scenario bands gating.
  std::size_t lookahead_depth = 3;
  /// Optional span sink. When non-null the engine emits the same span
  /// stream as the threaded runtime — scheduling rounds, task executions,
  /// enqueue->dispatch->execute flows, fault instants, app lifecycle — with
  /// virtual-clock timestamps and the same pid/tid track convention
  /// (obs/chrome_trace.h). Because the engine is deterministic, identical
  /// inputs produce a byte-identical exported Chrome trace.
  obs::SpanTracer* tracer = nullptr;
  /// Optional online cost estimator (docs/adaptive_costs.md). When non-null
  /// the engine feeds it one observation per successful task completion
  /// (on the virtual clock) and every scheduling round consumes its latest
  /// published snapshot — the same wiring as the threaded runtime, so
  /// identical seeded runs produce identical learned tables.
  adapt::OnlineCostEstimator* adapt = nullptr;
  /// Optional override for the tables the *scheduler* consults when `adapt`
  /// is null. Ground-truth execution durations always come from
  /// platform.costs; pointing this at a perturbed copy models a
  /// mis-calibrated static baseline (bench/micro_adapt.cpp).
  const platform::CostModel* sched_costs = nullptr;
  /// Optional *wall-clock* histogram of the real heuristic's decision time
  /// per scheduling round, in microseconds. The virtual clock is untouched —
  /// this measures the host-side cost of running the sched:: heuristic over
  /// the emulated ready queue, which is what bench/fig10_scalability tracks
  /// across PRs (BENCH_fig10.json).
  obs::QuantileHistogram* sched_decision_us = nullptr;
  /// Optional *virtual-clock* histograms (microseconds), the deterministic
  /// counterparts of the runtime's queue_delay_us / service_time_us /
  /// sched_decision_us metrics: ready->dispatch wait, dispatch->completion
  /// service, and the modeled per-round decision cost (sched_fixed +
  /// comparisons * per_comparison). Identical inputs fill them identically,
  /// which is what lets the scenario harness (docs/scenarios.md) diff their
  /// quantiles against golden metric bands.
  obs::QuantileHistogram* queue_delay_us = nullptr;
  obs::QuantileHistogram* service_time_us = nullptr;
  obs::QuantileHistogram* sched_round_us = nullptr;
};

/// Runs one emulation over the given arrival sequence (need not be sorted).
StatusOr<SimMetrics> simulate(const SimConfig& config,
                              std::span<const Arrival> arrivals);

}  // namespace cedr::sim
