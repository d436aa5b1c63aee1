#pragma once
// IPC submission flow (paper Fig. 1).
//
// CEDR runs as a daemon; applications are submitted to it over
// inter-process communication and a shutdown command makes it serialize its
// logs. This module implements that flow over a Unix-domain stream socket
// with a line-oriented protocol (full reference: docs/ipc.md):
//
//   SUBMIT <path-to-shared-object> [app-name]   -> OK <instance-id> | ERR msg
//   SUBMITDAG <path-to-dag-json> [app-name]     -> OK <instance-id> | ERR msg
//   SHMOPEN                                     -> OK sub_slots=... | ERR msg
//                                                  (+3 SCM_RIGHTS fds)
//   STATUS                                      -> OK submitted=N completed=M
//   STATS                                       -> OK uptime_s=... ready=...
//   METRICS                                     -> OK {json}   (one line)
//   COSTS                                       -> OK {json}   (one line)
//   WAIT                                        -> OK            (drains apps)
//   SHUTDOWN                                    -> OK            (stops daemon)
//   BYE                                         -> (closes the connection)
//
// Connections are persistent: a client may send many commands — pipelined
// back to back without waiting — over one connection; replies come back in
// command order, one LF-terminated line each. BYE or EOF ends the
// connection. When the runtime is saturated (IpcServerConfig::
// max_inflight_apps), SUBMIT/SUBMITDAG get `BUSY <retry-after-ms>` instead
// of queueing without bound; the daemon counts these as
// `ipc.rejected_total`.
//
// The server is a poll(2) event loop: cheap verbs (STATUS, STATS, METRICS,
// COSTS) execute on the loop itself, while slow verbs (SUBMIT's dlopen,
// SUBMITDAG's JSON load, WAIT, SHUTDOWN's stop notification) run on a
// small worker pool so one submitter stalled on disk I/O never delays
// another client's STATS poll.
//
// SHMOPEN negotiates the shared-memory submission lane (cedr::shm, see
// docs/ipc.md "Shared-memory lane"): the daemon creates a per-client
// segment with SPSC submission/completion rings plus an argument arena and
// replies with the segment fd and two doorbell eventfds attached as
// SCM_RIGHTS ancillary data. It must be the first command on its
// connection; the connection then stays open as the session's lifeline —
// EOF (including a SIGKILLed client) reaps the segment. The socket lane
// remains fully functional alongside and is the fallback when the daemon
// runs with shm disabled.
//
// A submitted shared object must export  extern "C" void cedr_app_main(void);
// The daemon dlopens it and launches cedr_app_main as an API-mode
// application thread, so every CEDR_* call inside it is scheduled by the
// daemon's runtime — exactly the libcedr-rt.so execution path of Fig. 3.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cedr/common/queue.h"
#include "cedr/common/status.h"
#include "cedr/ipc/framing.h"
#include "cedr/obs/metrics.h"
#include "cedr/runtime/runtime.h"

namespace cedr::shm {
class ShmServer;
}  // namespace cedr::shm

namespace cedr::ipc {

/// Front-end knobs: concurrency, admission control, back-pressure.
struct IpcServerConfig {
  /// Worker threads executing slow verbs off the event loop.
  std::size_t worker_threads = 4;
  /// Admission bound on in-flight application instances (submitted minus
  /// completed, plus submissions still in the worker pool). SUBMIT and
  /// SUBMITDAG beyond it are rejected with `BUSY <retry-after-ms>`.
  /// 0 = unbounded.
  std::size_t max_inflight_apps = 0;
  /// Retry hint carried in BUSY replies, milliseconds.
  std::uint32_t busy_retry_ms = 50;
  /// Parsed-but-unanswered commands allowed per connection before the
  /// server stops reading from it (back-pressure lands in the client's
  /// socket buffer instead of daemon memory).
  std::size_t max_pending_per_conn = 64;
  /// Simultaneous connections; beyond it the listener pauses accepting
  /// and excess connectors wait in the listen backlog.
  std::size_t max_connections = 256;
  /// Shared-memory lane (SHMOPEN). Disabled -> SHMOPEN answers ERR and
  /// clients fall back to the socket lane.
  bool enable_shm = true;
  /// Per-session ring/arena geometry (slot counts must be powers of two).
  std::uint32_t shm_sub_slots = 1024;
  std::uint32_t shm_cpl_slots = 1024;
  std::uint32_t shm_arena_bytes = 1u << 20;
  /// Simultaneous shm sessions; beyond it SHMOPEN is refused (the client
  /// falls back to the socket lane).
  std::size_t max_shm_sessions = 64;
};

/// Server half: accepts submissions for an existing runtime.
class IpcServer {
 public:
  IpcServer(rt::Runtime& runtime, std::string socket_path,
            IpcServerConfig config = {});
  IpcServer(const IpcServer&) = delete;
  IpcServer& operator=(const IpcServer&) = delete;
  ~IpcServer();

  /// Binds the socket and starts the event loop plus the worker pool.
  Status start();
  /// Stops the event loop, closes every connection, joins all threads.
  /// Idempotent.
  void stop();
  /// Blocks until a SHUTDOWN command has been processed.
  void wait_for_shutdown();

  [[nodiscard]] const std::string& socket_path() const noexcept {
    return socket_path_;
  }
  [[nodiscard]] const IpcServerConfig& config() const noexcept {
    return config_;
  }

 private:
  /// Per-connection state machine. The event-loop thread owns the fd, the
  /// read framer and the write buffer; the ordered reply queue is shared
  /// with the worker pool under `state_mutex_`.
  struct Connection {
    int fd = -1;
    std::uint64_t id = 0;
    LineFramer framer;
    std::string out;            ///< reply bytes not yet written
    std::size_t out_pos = 0;    ///< written prefix of `out`
    bool read_eof = false;      ///< peer half-closed; flush replies, close
    bool closing = false;       ///< fatal protocol/io error; flush, close
    bool bye = false;           ///< BYE received; later bytes are discarded
    /// Replies in command order; `ready` flips when the verb finishes.
    struct Reply {
      std::uint64_t seq = 0;
      bool ready = false;
      std::string text;
    };
    std::deque<Reply> replies;
    std::uint64_t next_seq = 0;
    /// SHMOPEN descriptors to attach (SCM_RIGHTS) to the next write on
    /// this connection; owned by the shm session, not the connection.
    std::vector<int> pending_fds;
  };

  /// One slow verb queued for the worker pool. When `shm_session` is
  /// non-zero the job is a ring drain for that session instead of a
  /// protocol line.
  struct Job {
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;
    std::string line;
    double admit_time = 0.0;
    std::uint64_t shm_session = 0;
  };

  void event_loop();
  void worker_loop();
  void accept_ready();
  /// Reads available bytes into the connection's framer.
  void read_ready(Connection& conn);
  /// Extracts buffered lines while the pending bound allows and dispatches
  /// each (inline or to the worker pool).
  void drain_framer(Connection& conn);
  void dispatch_line(Connection& conn, const std::string& line);
  /// Moves in-order ready replies into the write buffer, then writes.
  void flush_replies(Connection& conn);
  void write_ready(Connection& conn);
  void close_connection(std::uint64_t id);
  /// Appends a reply slot; returns its sequence number.
  std::uint64_t push_slot(Connection& conn);
  /// Fills a slot (worker pool or inline path) and wakes the event loop.
  void deposit_reply(std::uint64_t conn_id, std::uint64_t seq,
                     std::string text);
  /// Admission check for SUBMIT/SUBMITDAG. True = admit; false = reply BUSY.
  bool admit_submit();
  void wake();
  /// `ipc_cmd_us.<verb>` histogram; known verbs hit a pointer cached at
  /// construction (histogram references are registry-stable) so the hot
  /// path skips the name build and registry lookup.
  obs::QuantileHistogram& cmd_histogram(const std::string& verb);

  /// Executes one command line and returns the reply (LF-terminated).
  /// Runs on the event loop for cheap verbs, on the worker pool for slow
  /// ones; records the `ipc_cmd_us.<verb>` latency histogram from
  /// `admit_time` (event-loop parse) to completion.
  std::string handle_command(const std::string& line, double admit_time);

  rt::Runtime& runtime_;
  std::string socket_path_;
  IpcServerConfig config_;
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};  ///< [read, write]; workers wake the loop
  /// True while a wake byte is in flight: deposits arriving in a burst
  /// collapse into one pipe write instead of one syscall each.
  std::atomic<bool> wake_pending_{false};
  /// Cached `ipc_cmd_us.<verb>` histograms, indexed by cmd_verb_index().
  obs::QuantileHistogram* cmd_hist_[8] = {};
  std::thread loop_thread_;
  std::vector<std::thread> workers_;
  BlockingQueue<Job> jobs_;
  std::atomic<bool> running_{false};
  std::atomic<bool> shutdown_requested_{false};
  std::mutex shutdown_mutex_;
  std::condition_variable shutdown_cv_;

  /// Guards `conns_` and every Connection::replies deque.
  std::mutex state_mutex_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns_;
  std::uint64_t next_conn_id_ = 1;
  /// Submissions admitted but not yet submitted to the runtime; part of
  /// the admission bound so a burst cannot overshoot it via the pool.
  std::atomic<std::size_t> pending_submits_{0};

  std::vector<void*> loaded_objects_;  ///< dlopen handles, closed in dtor
  std::mutex objects_mutex_;

  /// Shared-memory lane manager (nullptr when config_.enable_shm is
  /// false). Sessions are keyed by control-connection id; the event loop
  /// polls their doorbells and the worker pool runs their drains.
  std::unique_ptr<shm::ShmServer> shm_;
};

/// Client connect behaviour (first connect and transparent reconnects).
struct IpcClientConfig {
  /// Total window to keep retrying the initial connect with exponential
  /// backoff — lets clients race daemon startup without an external sleep
  /// loop. 0 = single attempt.
  double connect_timeout_s = 0.0;
  std::uint32_t backoff_initial_ms = 20;
  std::uint32_t backoff_max_ms = 250;
};

/// Client half: one persistent connection, one round-trip per call.
///
/// The connection is opened lazily on the first command and reused across
/// calls; the destructor sends BYE. If the daemon dropped the connection
/// in between, idempotent verbs transparently reconnect and retry once;
/// SUBMIT/SUBMITDAG do not (a retry could double-submit) and surface
/// Unavailable instead. A `BUSY <ms>` reply surfaces as a
/// kResourceExhausted status carrying the retry hint.
class IpcClient {
 public:
  explicit IpcClient(std::string socket_path, IpcClientConfig config = {})
      : socket_path_(std::move(socket_path)), config_(config) {}
  IpcClient(const IpcClient&) = delete;
  IpcClient& operator=(const IpcClient&) = delete;
  ~IpcClient();

  /// Sends several commands in one write and reads their replies in order
  /// (pipelining). Returns one raw reply line per command ("OK ...",
  /// "BUSY <ms>", or "ERR ..."), without the trailing newline; per-command
  /// failures stay in their reply strings for the caller to inspect. The
  /// call fails as a whole only on a connection-level error, and is never
  /// retried on a stale connection (a batch may contain SUBMITs).
  StatusOr<std::vector<std::string>> pipeline(
      const std::vector<std::string>& commands);

  /// Submits a shared-object application; returns the instance id.
  StatusOr<std::uint64_t> submit(const std::string& so_path,
                                 const std::string& app_name = "");
  /// Submits an executable JSON DAG document by path (SUBMITDAG; schema in
  /// apps/dag_template.h). The daemon reads the file, compiles it through
  /// its template cache and submits one instance; returns the instance id.
  StatusOr<std::uint64_t> submit_dag(const std::string& json_path);
  /// Returns (submitted, completed).
  StatusOr<std::pair<std::uint64_t, std::uint64_t>> status();
  /// Returns the one-line STATS snapshot (without the leading "OK ").
  StatusOr<std::string> stats();
  /// Returns the METRICS snapshot, parsed:
  /// {"metrics": {...}, "counters": {...}, "stats": {...}}.
  StatusOr<json::Value> metrics();
  /// Returns the COSTS snapshot, parsed (adapt::OnlineCostEstimator JSON;
  /// {"enabled": false} when the daemon runs without --adapt).
  StatusOr<json::Value> costs();
  /// Blocks server-side until all submitted applications complete.
  Status wait_all();
  /// Asks the daemon to serialize logs and exit its accept loop.
  Status shutdown();

 private:
  Status ensure_connected();
  void disconnect();
  StatusOr<std::string> round_trip(const std::string& command);

  std::string socket_path_;
  IpcClientConfig config_;
  int fd_ = -1;
  LineFramer framer_;
};

}  // namespace cedr::ipc
