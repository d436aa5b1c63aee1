// IPC front-end throughput under concurrent submitters.
//
// Measures the daemon-facing half of the paper's deployment model (Fig. 1):
// many independent clients submitting dynamically arriving applications
// while a monitor polls live state. A Runtime + IpcServer pair is started
// in-process on a temp-dir Unix socket and hammered by N submitter threads
// plus one monitor thread:
//
//   * each submitter keeps one persistent connection and pipelines batches
//     of (1 SUBMITDAG + 3 STATS) groups — the mixed workload one real
//     submitter generates, sent the way the concurrent front-end is meant
//     to be driven (many commands per write, replies read in order);
//   * the monitor issues plain one-at-a-time STATS round-trips on its own
//     connection for the whole phase — the "STATS under load" view.
//
// Two latency histograms are recorded per phase and both land in the JSON:
//   * server_stats_us — the daemon's own ipc_cmd_us.STATS service latency
//     (event-loop admission to reply deposit), reset at each phase start so
//     every phase gets its own distribution. This is the acceptance metric
//     (EXPERIMENTS.md: loaded p95 within 2x of idle p95): it shows whether
//     SUBMIT storms make the daemon slower at answering cheap verbs.
//   * stats_us — the monitor's client-observed round-trip. Reported for
//     context; on a saturated single-CPU host it is dominated by kernel
//     scheduler queueing of the client thread itself, which no daemon
//     design can influence.
//
// Also per point: submissions/sec sustained at the socket, submitter batch
// round-trip quantiles, BUSY rejections (admission control, when the
// server bounds in-flight apps; 0 with the default unbounded config), and
// the runtime backlog left at phase end.
//
// The "baseline" block of BENCH_ipc.json was recorded against the serial
// accept loop (one client at a time, one command per connection,
// byte-at-a-time reads — pipelining was impossible, so its clients issued
// the same mixed workload as sequential round-trips); "current" tracks the
// concurrent front-end.
//
// --lane adds the shared-memory submission lane (docs/ipc.md) next to the
// socket phases: each shm client stages the same DAG document into its
// arena once and then streams SUBMITDAG records through the SPSC ring,
// counting a submission only when its completion record comes back — the
// same admission-to-acknowledgement span the socket lane measures. A
// single-client NOP phase records the raw ring round-trip rate with the
// runtime out of the picture. Per shm point: full-ring producer waits,
// doorbell wakes (counter delta — a low number is the syscall-amortization
// working) and the drain-batch size distribution. The final "summary"
// point carries the shm:socket throughput ratio at the widest client
// count, both lanes measured in the same process on the same host.
//
// usage: fig_ipc_throughput [--clients N] [--seconds S] [--json PATH]
//                           [--max-inflight N] [--batch B]
//                           [--lane socket|shm|both]

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "cedr/common/stopwatch.h"
#include "cedr/ipc/ipc.h"
#include "cedr/obs/metrics.h"
#include "cedr/runtime/runtime.h"
#include "cedr/shm/client.h"

using namespace cedr;

namespace {

// One trivial single-task DAG; SUBMITDAG re-parses the file from disk on
// every submission, which is exactly the slow-verb I/O the event loop must
// keep off its fast path.
constexpr const char* kTinyDag = R"({
  "app_name": "ipc_bench",
  "buffers": {"buf": {"elems": 64, "kind": "cfloat"}},
  "tasks": [
    {"id": 0, "name": "fft64", "kernel": "FFT",
     "args": {"in": "buf", "out": "buf"}, "predecessors": []}
  ]
})";

struct ClientTally {
  std::uint64_t submits_ok = 0;
  std::uint64_t busy = 0;
  std::uint64_t errors = 0;
  std::uint64_t stats_ok = 0;
};

/// One submitter: pipelined batches of `groups` x (SUBMITDAG + 3 STATS)
/// over a persistent connection.
void submitter_client(const std::string& socket, const std::string& dag_path,
                      std::size_t groups, double seconds,
                      obs::QuantileHistogram* batch_us, std::mutex* hist_mutex,
                      ClientTally* tally, std::atomic<bool>* stop) {
  ipc::IpcClient client(socket);
  std::vector<std::string> batch;
  batch.reserve(groups * 4);
  for (std::size_t g = 0; g < groups; ++g) {
    batch.push_back("SUBMITDAG " + dag_path);
    for (int i = 0; i < 3; ++i) batch.emplace_back("STATS");
  }
  Stopwatch clock;
  while (clock.elapsed() < seconds && !stop->load()) {
    Stopwatch rt;
    auto replies = client.pipeline(batch);
    const double us = rt.elapsed() * 1e6;
    if (!replies.ok()) {
      ++tally->errors;
      break;  // connection-level failure; don't spin on a dead socket
    }
    for (const std::string& reply : *replies) {
      if (reply.rfind("OK uptime", 0) == 0) {
        ++tally->stats_ok;
      } else if (reply.rfind("OK", 0) == 0) {
        ++tally->submits_ok;
      } else if (reply.rfind("BUSY", 0) == 0) {
        ++tally->busy;
      } else {
        ++tally->errors;
      }
    }
    std::lock_guard lock(*hist_mutex);
    batch_us->record(us);
  }
}

/// The monitor: plain STATS round-trips, one at a time, on a connection of
/// its own. This is the latency a dashboard poller observes mid-storm. It
/// polls back-to-back: on a fully loaded machine a poller that sleeps
/// between requests pays a scheduler wake-up penalty (milliseconds of CFS
/// queueing behind the busy threads) that swamps the IPC path being
/// measured; continuous polling keeps the thread interactive so the
/// histogram isolates daemon latency from scheduler placement.
void monitor_client(const std::string& socket, obs::QuantileHistogram* stats_us,
                    std::mutex* hist_mutex, ClientTally* tally,
                    std::atomic<bool>* stop) {
  ipc::IpcClient client(socket);
  while (!stop->load()) {
    Stopwatch rt;
    auto line = client.stats();
    const double us = rt.elapsed() * 1e6;
    if (line.ok()) {
      ++tally->stats_ok;
      std::lock_guard lock(*hist_mutex);
      stats_us->record(us);
    } else {
      ++tally->errors;
    }
  }
}

/// One shm-lane NOP streamer: round-trip-only records, no runtime work
/// behind them — measures the lane itself (ring + doorbell protocol).
void shm_nop_client(const std::string& socket, double seconds,
                    ClientTally* tally, std::uint64_t* full_ring_waits) {
  shm::ShmClient client(socket);
  if (!client.connect().ok()) {
    ++tally->errors;
    return;
  }
  std::vector<shm::Completion> completions;
  Stopwatch clock;
  while (clock.elapsed() < seconds) {
    if (!client.nop().ok()) {
      ++tally->errors;
      return;
    }
    completions.clear();
    client.poll_completions(completions);
  }
  if (!client.wait_all().ok()) ++tally->errors;
  tally->submits_ok += client.completed();
  *full_ring_waits += client.full_ring_waits();
}

/// One shm-lane submitter: the DAG document is staged into the arena once
/// (submit_dag_json memoizes it), then SUBMITDAG records stream through the
/// submission ring until the deadline; completions are drained opportunistically
/// along the way and fully at the end, so the tally counts acknowledged
/// submissions, not just published records.
void shm_submitter(const std::string& socket, const std::string& dag_doc,
                   double seconds, ClientTally* tally,
                   std::uint64_t* full_ring_waits) {
  shm::ShmClient client(socket);
  if (!client.connect().ok()) {
    ++tally->errors;
    return;
  }
  std::vector<shm::Completion> completions;
  Stopwatch clock;
  while (clock.elapsed() < seconds) {
    if (!client.submit_dag_json(dag_doc).ok()) {
      ++tally->errors;
      return;
    }
    completions.clear();
    client.poll_completions(completions);
    for (const shm::Completion& c : completions) {
      if (c.status == shm::CplStatus::kError) ++tally->errors;
    }
  }
  if (!client.wait_all().ok()) ++tally->errors;
  tally->submits_ok +=
      client.completed() - client.busy_completions() - tally->errors;
  tally->busy += client.busy_completions();
  *full_ring_waits += client.full_ring_waits();
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t max_clients = 8;
  double seconds = 2.0;
  std::string json_path = "BENCH_ipc.json";
  std::size_t max_inflight = 0;
  // 16 groups = 64 commands per write: deep enough to amortize the
  // client-server scheduling hand-off, right at the server's default
  // per-connection pending bound (deeper batches stall against it).
  std::size_t groups = 16;
  std::size_t workers = 0;  // 0 = server default
  std::size_t cpus = 2;
  std::string lane = "both";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--clients") max_clients = std::strtoul(next(), nullptr, 10);
    else if (arg == "--seconds") seconds = std::strtod(next(), nullptr);
    else if (arg == "--json") json_path = next();
    else if (arg == "--max-inflight")
      max_inflight = std::strtoul(next(), nullptr, 10);
    else if (arg == "--batch") groups = std::strtoul(next(), nullptr, 10);
    else if (arg == "--workers") workers = std::strtoul(next(), nullptr, 10);
    else if (arg == "--cpus") cpus = std::strtoul(next(), nullptr, 10);
    else if (arg == "--lane") lane = next();
    else if (arg == "--help" || arg == "-h") {
      std::printf("usage: %s [--clients N] [--seconds S] [--json PATH] "
                  "[--max-inflight N] [--batch B] [--lane socket|shm|both]\n",
                  argv[0]);
      return 0;
    }
  }
  if (groups == 0) groups = 1;
  if (lane != "socket" && lane != "shm" && lane != "both") {
    std::fprintf(stderr, "--lane must be socket, shm or both\n");
    return 2;
  }
  const bool run_socket = lane != "shm";
  const bool run_shm = lane != "socket";

  const char* tmp = std::getenv("TMPDIR");
  const std::string dir = (tmp != nullptr && tmp[0] != '\0') ? tmp : "/tmp";
  const std::string socket = dir + "/cedr_ipc_bench.sock";
  const std::string dag_path = dir + "/cedr_ipc_bench_dag.json";
  {
    std::ofstream out(dag_path, std::ios::trunc);
    out << kTinyDag;
  }

  rt::RuntimeConfig config;
  config.platform = platform::host(cpus, 1, 0);
  config.obs.tracing = false;  // measure the socket path, not the tracer
  rt::Runtime runtime(config);
  if (const Status s = runtime.start(); !s.ok()) {
    std::fprintf(stderr, "runtime start failed: %s\n", s.to_string().c_str());
    return 1;
  }
  ipc::IpcServerConfig server_config;
  server_config.max_inflight_apps = max_inflight;
  if (workers > 0) server_config.worker_threads = workers;
  ipc::IpcServer server(runtime, socket, server_config);
  if (const Status s = server.start(); !s.ok()) {
    std::fprintf(stderr, "IPC server failed: %s\n", s.to_string().c_str());
    return 1;
  }

  bench::JsonReport report("fig_ipc_throughput");
  bench::Table table("IPC front-end throughput (pipelined SUBMITDAG + STATS)",
                     "clients",
                     {"submits/s", "srv_stats_p95", "stats_p95_us",
                      "batch_p50_us", "busy"});

  // The daemon's per-phase STATS service-latency histogram (reset at each
  // phase start so phases don't blend).
  obs::QuantileHistogram& srv_stats =
      runtime.metrics().histogram("ipc_cmd_us.STATS");
  obs::QuantileHistogram& srv_submitdag =
      runtime.metrics().histogram("ipc_cmd_us.SUBMITDAG");

  double socket_submits_per_s = 0.0;  // at the widest client count
  double shm_submits_per_s = 0.0;

  // Idle STATS latency: the same monitor loop as under load, with no
  // submission load — the histograms differ only in background traffic.
  if (run_socket) {
    obs::QuantileHistogram idle_us;
    std::mutex hist_mutex;
    ClientTally tally;
    std::atomic<bool> stop{false};
    srv_stats.reset();
    std::thread monitor(monitor_client, socket, &idle_us, &hist_mutex, &tally,
                        &stop);
    std::this_thread::sleep_for(
        std::chrono::duration<double>(std::min(seconds, 1.0)));
    stop.store(true);
    monitor.join();
    std::printf("idle STATS: %llu polls, server p95 %.1f us, "
                "client rtt p50 %.1f us p95 %.1f us\n",
                static_cast<unsigned long long>(idle_us.count()),
                srv_stats.quantile(0.95), idle_us.quantile(0.50),
                idle_us.quantile(0.95));
    json::Object point;
    point.emplace("phase", "stats_idle");
    point.emplace("stats_us", bench::histogram_summary(idle_us));
    point.emplace("server_stats_us", bench::histogram_summary(srv_stats));
    report.add_point(std::move(point));
  }

  for (std::size_t clients = 1; run_socket && clients <= max_clients;
       clients *= 2) {
    obs::QuantileHistogram stats_us;
    obs::QuantileHistogram batch_us;
    std::mutex hist_mutex;
    std::vector<ClientTally> tallies(clients + 1);  // last = monitor
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    threads.reserve(clients);
    srv_stats.reset();
    srv_submitdag.reset();
    std::thread monitor(monitor_client, socket, &stats_us, &hist_mutex,
                        &tallies[clients], &stop);
    Stopwatch clock;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back(submitter_client, socket, dag_path, groups, seconds,
                           &batch_us, &hist_mutex, &tallies[c], &stop);
    }
    for (auto& t : threads) t.join();
    const double elapsed = clock.elapsed();
    stop.store(true);
    monitor.join();

    ClientTally total;
    for (const ClientTally& t : tallies) {
      total.submits_ok += t.submits_ok;
      total.busy += t.busy;
      total.errors += t.errors;
      total.stats_ok += t.stats_ok;
    }
    // Backlog the runtime accumulated during the phase: submissions the
    // front-end admitted faster than apps drained. Recorded so a front-end
    // speedup that merely floods the runtime is visible as such.
    const std::uint64_t inflight_at_end = runtime.stats().inflight;
    // Drain the submitted instances before the next point so queue depth
    // does not bleed across measurements. Poll the runtime directly: a
    // single WAIT can time out against a deep backlog and a discarded
    // timeout would silently bleed backlog into the next row.
    while (runtime.stats().inflight > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    const double submits_per_s =
        static_cast<double>(total.submits_ok) / elapsed;
    socket_submits_per_s = submits_per_s;
    table.add_row(static_cast<double>(clients),
                  {submits_per_s, srv_stats.quantile(0.95),
                   stats_us.quantile(0.95), batch_us.quantile(0.50),
                   static_cast<double>(total.busy)});

    json::Object point;
    point.emplace("phase", "mixed");
    point.emplace("clients", clients);
    point.emplace("batch_groups", groups);
    point.emplace("seconds", elapsed);
    point.emplace("submits_ok", total.submits_ok);
    point.emplace("submits_per_sec", submits_per_s);
    point.emplace("busy", total.busy);
    point.emplace("errors", total.errors);
    point.emplace("stats_ok", total.stats_ok);
    point.emplace("inflight_at_end", inflight_at_end);
    point.emplace("stats_us", bench::histogram_summary(stats_us));
    point.emplace("batch_us", bench::histogram_summary(batch_us));
    // Server-side per-phase view: admission-to-completion latency (pool
    // queue wait included for SUBMITDAG).
    point.emplace("server_stats_us", bench::histogram_summary(srv_stats));
    point.emplace("server_submitdag_us",
                  bench::histogram_summary(srv_submitdag));
    report.add_point(std::move(point));
  }

  table.print();

  double shm_records_per_s = 0.0;  // NOP phase at the widest client count
  if (run_shm) {
    bench::Table shm_table(
        "shared-memory lane throughput (SUBMITDAG records through the ring)",
        "clients", {"submits/s", "ring_waits", "doorbells", "drain_p95"});
    obs::QuantileHistogram& drain_batch =
        runtime.metrics().histogram("shm_drain_batch");

    // Raw lane record rate: clients streaming NOP records with no runtime
    // work behind them — isolates the ring + doorbell protocol from the
    // per-instance cost of the scheduling pipeline it feeds.
    bench::Table nop_table("shared-memory lane record rate (NOP round trips)",
                           "clients", {"records/s", "ring_waits"});
    const double nop_seconds = std::min(seconds, 1.0);
    for (std::size_t clients = 1; clients <= max_clients; clients *= 2) {
      std::vector<ClientTally> tallies(clients);
      std::vector<std::uint64_t> ring_waits(clients, 0);
      std::vector<std::thread> threads;
      threads.reserve(clients);
      Stopwatch clock;
      for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back(shm_nop_client, socket, nop_seconds, &tallies[c],
                             &ring_waits[c]);
      }
      for (auto& t : threads) t.join();
      const double elapsed = clock.elapsed();
      std::uint64_t ok = 0;
      std::uint64_t waits = 0;
      for (std::size_t c = 0; c < clients; ++c) {
        ok += tallies[c].submits_ok;
        waits += ring_waits[c];
      }
      const double nops_per_s = static_cast<double>(ok) / elapsed;
      shm_records_per_s = nops_per_s;
      nop_table.add_row(static_cast<double>(clients),
                        {nops_per_s, static_cast<double>(waits)});
      json::Object point;
      point.emplace("phase", "shm_nop");
      point.emplace("lane", "shm");
      point.emplace("clients", clients);
      point.emplace("seconds", elapsed);
      point.emplace("nops_ok", ok);
      point.emplace("nops_per_sec", nops_per_s);
      point.emplace("full_ring_waits", waits);
      report.add_point(std::move(point));
    }
    nop_table.print();

    for (std::size_t clients = 1; clients <= max_clients; clients *= 2) {
      std::vector<ClientTally> tallies(clients);
      std::vector<std::uint64_t> ring_waits(clients, 0);
      std::vector<std::thread> threads;
      threads.reserve(clients);
      drain_batch.reset();
      const std::uint64_t wakes_before =
          runtime.counters().get("shm.doorbell_wakes_total");
      Stopwatch clock;
      for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back(shm_submitter, socket, std::string(kTinyDag),
                             seconds, &tallies[c], &ring_waits[c]);
      }
      for (auto& t : threads) t.join();
      // Every completion is in hand once the submitters join, so the span
      // covers admission to acknowledgement, like the socket phases.
      const double elapsed = clock.elapsed();
      const std::uint64_t wakes =
          runtime.counters().get("shm.doorbell_wakes_total") - wakes_before;

      ClientTally total;
      std::uint64_t waits = 0;
      for (std::size_t c = 0; c < clients; ++c) {
        total.submits_ok += tallies[c].submits_ok;
        total.busy += tallies[c].busy;
        total.errors += tallies[c].errors;
        waits += ring_waits[c];
      }
      const std::uint64_t inflight_at_end = runtime.stats().inflight;
      while (runtime.stats().inflight > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      const double submits_per_s =
          static_cast<double>(total.submits_ok) / elapsed;
      shm_submits_per_s = submits_per_s;
      shm_table.add_row(static_cast<double>(clients),
                        {submits_per_s, static_cast<double>(waits),
                         static_cast<double>(wakes),
                         drain_batch.quantile(0.95)});

      json::Object point;
      point.emplace("phase", "shm");
      point.emplace("lane", "shm");
      point.emplace("clients", clients);
      point.emplace("seconds", elapsed);
      point.emplace("submits_ok", total.submits_ok);
      point.emplace("submits_per_sec", submits_per_s);
      point.emplace("busy", total.busy);
      point.emplace("errors", total.errors);
      point.emplace("full_ring_waits", waits);
      point.emplace("doorbell_wakes", wakes);
      point.emplace("inflight_at_end", inflight_at_end);
      point.emplace("drain_batch", bench::histogram_summary(drain_batch));
      report.add_point(std::move(point));
    }
    shm_table.print();
  }

  if (run_socket && run_shm && socket_submits_per_s > 0.0) {
    // Two ratios, both against the socket lane's submits/s at the widest
    // client count: the lane itself (NOP records — transport overhead
    // only) and end-to-end SUBMITDAG (which on a saturated host is bounded
    // by the runtime's per-instance scheduling cost, not the transport).
    const double submit_ratio = shm_submits_per_s / socket_submits_per_s;
    const double record_ratio = shm_records_per_s / socket_submits_per_s;
    std::printf("\nat %zu clients: socket %.0f submits/s | shm %.0f "
                "submits/s (%.1fx, runtime-bound) | shm lane %.0f records/s "
                "(%.1fx)\n",
                max_clients, socket_submits_per_s, shm_submits_per_s,
                submit_ratio, shm_records_per_s, record_ratio);
    json::Object point;
    point.emplace("phase", "summary");
    point.emplace("clients", max_clients);
    point.emplace("socket_submits_per_sec", socket_submits_per_s);
    point.emplace("shm_submits_per_sec", shm_submits_per_s);
    point.emplace("shm_submit_speedup", submit_ratio);
    point.emplace("shm_lane_records_per_sec", shm_records_per_s);
    point.emplace("shm_lane_record_speedup", record_ratio);
    report.add_point(std::move(point));
  }

  server.stop();
  (void)runtime.shutdown();
  std::remove(dag_path.c_str());

  if (const Status s = report.write_with_baseline(json_path); !s.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", json_path.c_str(),
                 s.to_string().c_str());
    return 1;
  }
  return 0;
}
