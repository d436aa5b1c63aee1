// IpcServer: poll(2) event loop, per-connection state machines, worker pool.
//
// Threading model (docs/ipc.md):
//   * ONE event-loop thread owns every fd (listen socket, wake pipe,
//     connections), each connection's read framer and write buffer, and is
//     the only thread that opens or closes connections;
//   * WORKER threads execute slow verbs (SUBMIT's dlopen, SUBMITDAG's JSON
//     load, WAIT, SHUTDOWN's stop notification) and never touch an fd —
//     they fill the pre-allocated reply slot for their command and wake the
//     loop through the pipe;
//   * the only shared state is the connection table and the per-connection
//     ordered reply queues, guarded by `state_mutex_` (acquired for
//     bookkeeping only, never across a syscall or a command execution).
//
// Replies are delivered strictly in command order per connection: every
// parsed command claims a reply slot up front, cheap verbs fill it
// immediately on the loop, slow verbs fill it from the pool, and the loop
// flushes slots from the front of the queue as they become ready.
//
// Back-pressure is two-layered: per connection, once
// `max_pending_per_conn` commands are unanswered the loop stops reading
// that socket (bytes queue in the kernel buffer, not daemon memory);
// globally, SUBMIT/SUBMITDAG beyond `max_inflight_apps` are answered
// `BUSY <retry-after-ms>` at admission instead of queueing, counted as
// `ipc.rejected_total`.

#include <dlfcn.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "cedr/common/log.h"
#include "cedr/ipc/ipc.h"
#include "cedr/obs/chrome_trace.h"
#include "cedr/shm/fdpass.h"
#include "cedr/shm/server.h"
#include "ipc_internal.h"

namespace cedr::ipc {
namespace {

constexpr std::string_view kLogTag = "ipc";

Status set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Unavailable(std::string("fcntl(O_NONBLOCK): ") +
                       std::strerror(errno));
  }
  return Status::Ok();
}

/// Slow verbs leave the event loop for the worker pool; everything else
/// (STATUS/STATS/METRICS/COSTS/unknown) is an in-memory snapshot cheap
/// enough to execute inline.
bool is_slow_verb(std::string_view verb) {
  return verb == "SUBMIT" || verb == "SUBMITDAG" || verb == "WAIT" ||
         verb == "SHUTDOWN";
}

bool is_submit_verb(std::string_view verb) {
  return verb == "SUBMIT" || verb == "SUBMITDAG";
}

std::string_view first_token(const std::string& line) {
  std::size_t begin = line.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return {};
  std::size_t end = line.find_first_of(" \t\r", begin);
  if (end == std::string::npos) end = line.size();
  return std::string_view(line).substr(begin, end - begin);
}

}  // namespace

IpcServer::IpcServer(rt::Runtime& runtime, std::string socket_path,
                     IpcServerConfig config)
    : runtime_(runtime), socket_path_(std::move(socket_path)), config_(config) {
  if (config_.worker_threads == 0) config_.worker_threads = 1;
  if (config_.max_pending_per_conn == 0) config_.max_pending_per_conn = 1;
  if (config_.max_connections == 0) config_.max_connections = 1;
  for (std::size_t i = 0; i < std::size(kCmdVerbs); ++i) {
    cmd_hist_[i] = &runtime_.metrics().histogram("ipc_cmd_us." +
                                                 std::string(kCmdVerbs[i]));
  }
}

IpcServer::~IpcServer() {
  stop();
  std::lock_guard lock(objects_mutex_);
  for (void* handle : loaded_objects_) {
    if (handle != nullptr) ::dlclose(handle);
  }
}

Status IpcServer::start() {
  sockaddr_un addr{};
  CEDR_RETURN_IF_ERROR(fill_sockaddr(socket_path_, addr));
  ::unlink(socket_path_.c_str());  // stale socket from a previous run
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Unavailable(std::string("socket(): ") + std::strerror(errno));
  }
  auto fail = [this](std::string msg) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Unavailable(std::move(msg));
  };
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return fail(std::string("bind(): ") + std::strerror(errno));
  }
  if (::listen(listen_fd_, 64) < 0) {
    return fail(std::string("listen(): ") + std::strerror(errno));
  }
  if (const Status s = set_nonblocking(listen_fd_); !s.ok()) {
    return fail(s.message());
  }
  if (::pipe(wake_pipe_) < 0) {
    return fail(std::string("pipe(): ") + std::strerror(errno));
  }
  (void)set_nonblocking(wake_pipe_[0]);
  (void)set_nonblocking(wake_pipe_[1]);

  if (config_.enable_shm && shm_ == nullptr) {
    shm::ShmServerOptions shm_options;
    shm_options.segment.sub_slots = config_.shm_sub_slots;
    shm_options.segment.cpl_slots = config_.shm_cpl_slots;
    shm_options.segment.arena_bytes = config_.shm_arena_bytes;
    shm_options.max_sessions = config_.max_shm_sessions;
    shm_options.busy_retry_ms = config_.busy_retry_ms;
    shm_ = std::make_unique<shm::ShmServer>(runtime_, shm_options,
                                            [this] { return admit_submit(); });
  }

  running_.store(true, std::memory_order_release);
  workers_.reserve(config_.worker_threads);
  for (std::size_t i = 0; i < config_.worker_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  loop_thread_ = std::thread([this] { event_loop(); });
  runtime_.metrics().set_gauge("ipc.active_connections", 0.0);
  CEDR_LOG(kInfo, kLogTag) << "daemon listening on " << socket_path_ << " ("
                           << config_.worker_threads << " workers)";
  return Status::Ok();
}

void IpcServer::stop() {
  running_.store(false, std::memory_order_release);
  wake();
  if (loop_thread_.joinable()) loop_thread_.join();
  // The loop has closed every connection; commands already in the pool
  // finish (their replies are dropped) before the workers join.
  jobs_.close();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  // After the workers: a queued drain job must find its session alive.
  if (shm_ != nullptr) shm_->close_all();
  for (int& fd : wake_pipe_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(socket_path_.c_str());
  }
}

void IpcServer::wait_for_shutdown() {
  std::unique_lock lock(shutdown_mutex_);
  shutdown_cv_.wait(lock, [this] {
    return shutdown_requested_.load(std::memory_order_acquire);
  });
}

void IpcServer::wake() {
  if (wake_pipe_[1] < 0) return;
  // Coalesce: a burst of deposits needs one wake byte, not one syscall
  // each. The loop clears the flag after draining the pipe.
  if (wake_pending_.exchange(true, std::memory_order_acq_rel)) return;
  const char byte = 1;
  // Nonblocking: a full pipe already guarantees a pending wakeup.
  (void)!::write(wake_pipe_[1], &byte, 1);
}

void IpcServer::event_loop() {
  std::vector<pollfd> pfds;
  std::vector<Connection*> polled;
  std::vector<std::pair<std::uint64_t, int>> shm_polled;
  std::vector<std::uint64_t> shm_drains;
  while (running_.load(std::memory_order_acquire)) {
    pfds.clear();
    polled.clear();
    shm_polled.clear();
    {
      std::lock_guard lock(state_mutex_);
      const bool accept_paused = conns_.size() >= config_.max_connections;
      pfds.push_back({listen_fd_, static_cast<short>(accept_paused ? 0 : POLLIN),
                      0});
      pfds.push_back({wake_pipe_[0], POLLIN, 0});
      for (auto& [id, conn] : conns_) {
        short events = 0;
        const bool paused =
            conn->replies.size() >= config_.max_pending_per_conn;
        if (!conn->closing && !conn->read_eof && !paused) events |= POLLIN;
        if (conn->out_pos < conn->out.size()) events |= POLLOUT;
        pfds.push_back({conn->fd, events, 0});
        polled.push_back(conn.get());
      }
    }
    // Shm submission doorbells join the poll set after the connections.
    const std::size_t shm_base = pfds.size();
    if (shm_ != nullptr) {
      shm_->poll_fds(shm_polled);
      for (const auto& [session_id, doorbell_fd] : shm_polled) {
        pfds.push_back({doorbell_fd, POLLIN, 0});
      }
    }
    // Finite timeout: running_ flips without a wake() only in rare teardown
    // races; this bounds how long the loop could miss it.
    if (::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 200) < 0 &&
        errno != EINTR) {
      break;
    }
    if (!running_.load(std::memory_order_acquire)) break;
    if ((pfds[1].revents & POLLIN) != 0) {
      char buf[256];
      while (::read(wake_pipe_[0], buf, sizeof buf) > 0) {
      }
      // Clear after draining: a deposit racing this point re-arms the pipe
      // (at worst one redundant wake byte, never a lost one).
      wake_pending_.store(false, std::memory_order_release);
    }
    if ((pfds[0].revents & POLLIN) != 0) accept_ready();
    // Clear rung doorbells, then dispatch one drain job per session with
    // ring work. The rescan-every-round (not just on doorbell) is what
    // makes the protocol race-free: a drain that stopped on a full
    // completion ring or batch bound is re-dispatched here.
    if (shm_ != nullptr) {
      for (std::size_t i = 0; i < shm_polled.size(); ++i) {
        if ((pfds[shm_base + i].revents & POLLIN) != 0) {
          shm_->doorbell_rang(shm_polled[i].first);
        }
      }
      shm_drains.clear();
      shm_->claim_drains(shm_drains);
      for (const std::uint64_t session_id : shm_drains) {
        Job job;
        job.shm_session = session_id;
        (void)jobs_.push(std::move(job));  // pool closed only at teardown
      }
    }
    for (std::size_t i = 0; i < polled.size(); ++i) {
      Connection& conn = *polled[i];
      const short revents = pfds[i + 2].revents;
      if ((revents & (POLLERR | POLLNVAL)) != 0) conn.closing = true;
      if (!conn.closing && (revents & (POLLIN | POLLHUP)) != 0) {
        read_ready(conn);
      }
    }
    // Per connection: flush first (worker deposits free pending slots),
    // then dispatch buffered lines up to the pending bound, then flush
    // again so inline verbs answer without waiting for another poll round.
    // Smallest read buffer first: a one-command poller (a dashboard's
    // STATS) is answered before this round turns to the deep pipelined
    // batches, instead of queueing behind them.
    std::sort(polled.begin(), polled.end(),
              [](const Connection* a, const Connection* b) {
                return a->framer.buffered() < b->framer.buffered();
              });
    std::vector<std::uint64_t> dead;
    for (Connection* conn : polled) {
      flush_replies(*conn);
      if (!conn->closing) drain_framer(*conn);
      flush_replies(*conn);
      bool drained;
      {
        std::lock_guard lock(state_mutex_);
        drained = conn->replies.empty() && conn->out_pos >= conn->out.size();
      }
      if ((conn->closing || conn->read_eof) && drained) {
        dead.push_back(conn->id);
      } else if (conn->closing && conn->out_pos >= conn->out.size()) {
        // Fatal error with slow commands still in flight: close now; their
        // deposits will find no connection and be dropped.
        dead.push_back(conn->id);
      }
    }
    for (const std::uint64_t id : dead) close_connection(id);
  }
  // Teardown: best-effort flush of replies already deposited — a SHUTDOWN
  // OK races the very stop() it triggers — then close everything; worker
  // deposits after this are dropped. Only this thread erases connections,
  // so the pointers stay valid across the unlocked flush.
  std::vector<Connection*> remaining;
  {
    std::lock_guard lock(state_mutex_);
    for (auto& [id, conn] : conns_) remaining.push_back(conn.get());
  }
  for (Connection* conn : remaining) flush_replies(*conn);
  std::lock_guard lock(state_mutex_);
  for (auto& [id, conn] : conns_) ::close(conn->fd);
  conns_.clear();
  runtime_.metrics().set_gauge("ipc.active_connections", 0.0);
}

void IpcServer::accept_ready() {
  while (true) {
    {
      std::lock_guard lock(state_mutex_);
      if (conns_.size() >= config_.max_connections) return;
    }
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or error; poll again next round
    if (!set_nonblocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    std::size_t active;
    {
      std::lock_guard lock(state_mutex_);
      conn->id = next_conn_id_++;
      conns_.emplace(conn->id, std::move(conn));
      active = conns_.size();
    }
    runtime_.metrics().set_gauge("ipc.active_connections",
                                 static_cast<double>(active));
  }
}

void IpcServer::read_ready(Connection& conn) {
  const double start = runtime_.now();
  char buf[16384];
  std::size_t total = 0;
  while (true) {
    const ssize_t n = ::read(conn.fd, buf, sizeof buf);
    if (n > 0) {
      conn.framer.append(buf, static_cast<std::size_t>(n));
      total += static_cast<std::size_t>(n);
      if (static_cast<std::size_t>(n) < sizeof buf) break;
      continue;
    }
    if (n == 0) {
      conn.read_eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
    conn.closing = true;
    break;
  }
  if (total > 0) {
    runtime_.tracer().complete_span(obs::Category::kIpc, "ipc.read", 0,
                                    obs::kIpcTid, start,
                                    runtime_.now() - start, "bytes",
                                    static_cast<double>(total));
  }
}

void IpcServer::drain_framer(Connection& conn) {
  std::string line;
  while (!conn.bye) {
    {
      std::lock_guard lock(state_mutex_);
      if (conn.replies.size() >= config_.max_pending_per_conn) return;
    }
    if (!conn.framer.next_line(line)) break;
    dispatch_line(conn, line);
    if (conn.closing) return;
  }
  if (conn.framer.overflowed()) {
    // An over-long line cannot be resynchronized: parsing a clipped prefix
    // would desync every later command, so reply and drop the connection.
    const std::uint64_t seq = push_slot(conn);
    deposit_reply(conn.id, seq, "ERR line too long\n");
    conn.closing = true;
    runtime_.counters().add("ipc.overlong_lines");
  }
}

void IpcServer::dispatch_line(Connection& conn, const std::string& line) {
  const double admit_time = runtime_.now();
  const std::string_view verb = first_token(line);
  if (verb.empty()) return;  // blank line: ignore
  if (verb == "BYE") {
    // BYE ends the conversation; earlier pipelined replies still flush
    // first, later bytes are discarded.
    conn.bye = true;
    conn.read_eof = true;
    return;
  }
  if (verb == "SHMOPEN") {
    // Handled inline on the loop (segment creation is a couple of fast
    // syscalls) because the reply needs Connection access: the three
    // descriptors attach to this connection's next write as SCM_RIGHTS
    // ancillary data.
    std::string reply;
    if (shm_ == nullptr) {
      reply = "ERR shm disabled\n";
    } else if (auto info = shm_->open_session(conn.id); info.ok()) {
      reply = info->reply;
      conn.pending_fds = info->fds;
    } else {
      reply = "ERR " + info.status().to_string() + "\n";
    }
    std::lock_guard lock(state_mutex_);
    if (conn.replies.empty()) {
      conn.out += reply;
      return;
    }
    Connection::Reply slot;
    slot.seq = conn.next_seq++;
    slot.ready = true;
    slot.text = std::move(reply);
    conn.replies.push_back(std::move(slot));
    return;
  }
  if (is_submit_verb(verb) && !admit_submit()) {
    runtime_.counters().add("ipc.rejected_total");
    runtime_.metrics().set_gauge(
        "ipc.rejected_total",
        static_cast<double>(runtime_.counters().get("ipc.rejected_total")));
    const std::uint64_t seq = push_slot(conn);
    deposit_reply(conn.id, seq,
                  "BUSY " + std::to_string(config_.busy_retry_ms) + "\n");
    return;
  }
  if (is_slow_verb(verb)) {
    const std::uint64_t seq = push_slot(conn);
    if (is_submit_verb(verb)) {
      pending_submits_.fetch_add(1, std::memory_order_relaxed);
    }
    if (!jobs_.push(Job{conn.id, seq, line, admit_time})) {
      // Pool already closed (server stopping): fail the command instead of
      // leaving the slot forever pending.
      if (is_submit_verb(verb)) {
        pending_submits_.fetch_sub(1, std::memory_order_relaxed);
      }
      deposit_reply(conn.id, seq, "ERR server shutting down\n");
    }
    return;
  }
  // Cheap verb on the loop itself. No wake needed (the loop flushes right
  // after draining), and when no slow command is pending ahead the reply
  // can skip the slot queue entirely and append straight to the write
  // buffer — the ordering the queue exists to protect is trivially kept.
  std::string reply = handle_command(line, admit_time);
  {
    std::lock_guard lock(state_mutex_);
    if (conn.replies.empty()) {
      conn.out += reply;
      return;
    }
    Connection::Reply slot;
    slot.seq = conn.next_seq++;
    slot.ready = true;
    slot.text = std::move(reply);
    conn.replies.push_back(std::move(slot));
  }
}

void IpcServer::worker_loop() {
  while (true) {
    std::optional<Job> job = jobs_.pop();
    if (!job.has_value()) return;  // closed and drained
    if (job->shm_session != 0) {
      // Ring drain: wake the loop when work remains so claim_drains()
      // re-dispatches (the batch bound is how sessions round-robin).
      if (shm_ != nullptr && shm_->drain(job->shm_session)) wake();
      continue;
    }
    std::string reply = handle_command(job->line, job->admit_time);
    const std::string_view verb = first_token(job->line);
    if (is_submit_verb(verb)) {
      pending_submits_.fetch_sub(1, std::memory_order_relaxed);
    }
    deposit_reply(job->conn_id, job->seq, std::move(reply));
    if (verb == "SHUTDOWN") {
      // Notify only after the deposit: wait_for_shutdown() returning is the
      // daemon's cue to stop() the server, and the deposited OK must be in
      // its slot before the loop's teardown flush can send it.
      {
        std::lock_guard lock(shutdown_mutex_);
        shutdown_requested_.store(true, std::memory_order_release);
      }
      shutdown_cv_.notify_all();
    }
  }
}

std::uint64_t IpcServer::push_slot(Connection& conn) {
  std::lock_guard lock(state_mutex_);
  Connection::Reply slot;
  slot.seq = conn.next_seq++;
  conn.replies.push_back(std::move(slot));
  return conn.replies.back().seq;
}

void IpcServer::deposit_reply(std::uint64_t conn_id, std::uint64_t seq,
                              std::string text) {
  {
    std::lock_guard lock(state_mutex_);
    auto it = conns_.find(conn_id);
    if (it == conns_.end()) return;  // connection closed mid-command
    for (Connection::Reply& slot : it->second->replies) {
      if (slot.seq == seq) {
        slot.text = std::move(text);
        slot.ready = true;
        break;
      }
    }
  }
  wake();
}

void IpcServer::flush_replies(Connection& conn) {
  {
    std::lock_guard lock(state_mutex_);
    while (!conn.replies.empty() && conn.replies.front().ready) {
      conn.out += conn.replies.front().text;
      conn.replies.pop_front();
    }
  }
  if (conn.out_pos < conn.out.size()) write_ready(conn);
}

void IpcServer::write_ready(Connection& conn) {
  while (conn.out_pos < conn.out.size()) {
    ssize_t n;
    if (!conn.pending_fds.empty()) {
      // SHMOPEN descriptors ride with the first reply bytes; the client
      // collects ancillary fds on every read until its reply line is in.
      n = shm::send_with_fds(conn.fd, conn.out.data() + conn.out_pos,
                             conn.out.size() - conn.out_pos,
                             conn.pending_fds);
      if (n > 0) conn.pending_fds.clear();
    } else {
      n = ::send(conn.fd, conn.out.data() + conn.out_pos,
                 conn.out.size() - conn.out_pos, MSG_NOSIGNAL);
    }
    if (n > 0) {
      conn.out_pos += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      return;  // POLLOUT will resume
    }
    conn.closing = true;  // peer gone; drop the rest
    return;
  }
  conn.out.clear();
  conn.out_pos = 0;
}

void IpcServer::close_connection(std::uint64_t id) {
  std::size_t active;
  {
    std::lock_guard lock(state_mutex_);
    auto it = conns_.find(id);
    if (it == conns_.end()) return;
    ::close(it->second->fd);
    conns_.erase(it);
    active = conns_.size();
  }
  // The control connection is the shm session's lifeline: EOF (including
  // a SIGKILLed client) reaps the segment here.
  if (shm_ != nullptr) shm_->close_session(id);
  runtime_.metrics().set_gauge("ipc.active_connections",
                               static_cast<double>(active));
}

bool IpcServer::admit_submit() {
  if (config_.max_inflight_apps == 0) return true;
  const std::uint64_t submitted = runtime_.submitted_apps();
  const std::uint64_t completed = runtime_.completed_apps();
  const std::size_t inflight =
      static_cast<std::size_t>(submitted - completed) +
      pending_submits_.load(std::memory_order_relaxed);
  return inflight < config_.max_inflight_apps;
}

}  // namespace cedr::ipc
