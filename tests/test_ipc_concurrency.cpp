// Concurrency tests for the IPC front-end (docs/ipc.md): many clients
// pipelining mixed verbs against one event loop, protocol-limit
// enforcement, admission back-pressure, and shutdown with commands in
// flight. Part of the TSAN tier (tools/run_tsan_tests.sh) — the event
// loop, worker pool and client threads share the reply queues and
// admission counters these tests hammer.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cedr/ipc/framing.h"
#include "cedr/ipc/ipc.h"
#include "cedr/runtime/runtime.h"

namespace cedr::ipc {
namespace {

std::string temp_socket(const char* name) {
  return ::testing::TempDir() + "/cedr_conc_" + name + ".sock";
}

rt::RuntimeConfig small_config() {
  rt::RuntimeConfig config;
  config.platform = platform::host(2);
  return config;
}

/// Raw blocking connect for protocol-level tests the IpcClient API cannot
/// express (malformed input).
int raw_connect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(IpcConcurrency, EightClientsPipelineMixedVerbs) {
  rt::Runtime runtime(small_config());
  ASSERT_TRUE(runtime.start().ok());
  IpcServer server(runtime, temp_socket("mixed"));
  ASSERT_TRUE(server.start().ok());

  // Each client interleaves cheap loop-thread verbs (STATS, STATUS,
  // METRICS) with a worker-pool verb (SUBMITDAG of a missing file — an ERR,
  // but one that takes the full pool round-trip) in a single pipelined
  // batch, so reply-order bookkeeping is exercised across both paths.
  const std::vector<std::string> batch = {
      "STATS", "SUBMITDAG /nonexistent/dag.json", "STATUS", "METRICS",
      "STATS"};
  constexpr int kClients = 8;
  constexpr int kRounds = 20;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      IpcClient client(server.socket_path());
      for (int round = 0; round < kRounds; ++round) {
        auto replies = client.pipeline(batch);
        if (!replies.ok() || replies->size() != batch.size()) {
          failures.fetch_add(1);
          return;
        }
        // Replies must line up with their commands, in order.
        if ((*replies)[0].rfind("OK uptime_s=", 0) != 0 ||
            (*replies)[1].rfind("ERR", 0) != 0 ||
            (*replies)[2].rfind("OK submitted=", 0) != 0 ||
            (*replies)[3].rfind("OK {", 0) != 0 ||
            (*replies)[4].rfind("OK uptime_s=", 0) != 0) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  server.stop();
  EXPECT_TRUE(runtime.shutdown().ok());
}

TEST(IpcConcurrency, OverlongLineGetsErrThenDisconnect) {
  rt::Runtime runtime(small_config());
  ASSERT_TRUE(runtime.start().ok());
  IpcServer server(runtime, temp_socket("overlong"));
  ASSERT_TRUE(server.start().ok());

  const int fd = raw_connect(server.socket_path());
  ASSERT_GE(fd, 0);
  // One unterminated line past the framer bound. The server must answer
  // `ERR line too long` (not a silently clipped parse) and drop the
  // connection; it stops reading once the overflow latches, so the send
  // side may fail part-way — that is the back-pressure working, not a
  // test failure.
  const std::string blob(LineFramer::kMaxLine + 1024, 'x');
  std::size_t sent = 0;
  while (sent < blob.size()) {
    const ssize_t n =
        ::send(fd, blob.data() + sent, blob.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string reply;
  char buf[256];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;  // EOF: server closed after the error reply
    reply.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_EQ(reply, "ERR line too long\n");

  server.stop();
  EXPECT_TRUE(runtime.shutdown().ok());
}

TEST(IpcConcurrency, SaturationRepliesBusyAndCounts) {
  rt::Runtime runtime(small_config());
  ASSERT_TRUE(runtime.start().ok());

  // Park one app on a latch so the runtime reports exactly one in-flight
  // instance, then bound admissions at one: the next submission must be
  // refused with BUSY, not queued.
  std::mutex latch_mutex;
  std::condition_variable latch_cv;
  bool release = false;
  auto blocker = runtime.submit_api("blocker", [&] {
    std::unique_lock lock(latch_mutex);
    latch_cv.wait(lock, [&] { return release; });
  });
  ASSERT_TRUE(blocker.ok());

  IpcServerConfig config;
  config.max_inflight_apps = 1;
  IpcServer server(runtime, temp_socket("busy"), config);
  ASSERT_TRUE(server.start().ok());

  IpcClient client(server.socket_path());
  auto refused = client.submit_dag("/nonexistent/dag.json");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GE(runtime.counters().get("ipc.rejected_total"), 1u);
  EXPECT_GE(runtime.metrics().gauge("ipc.rejected_total"), 1.0);

  {
    std::lock_guard lock(latch_mutex);
    release = true;
  }
  latch_cv.notify_all();
  ASSERT_TRUE(runtime.wait_all(30.0).ok());

  // Capacity freed: the same submission now passes admission and fails
  // only on the missing file (a server-side ERR, not BUSY).
  auto admitted = client.submit_dag("/nonexistent/dag.json");
  ASSERT_FALSE(admitted.ok());
  EXPECT_EQ(admitted.status().code(), StatusCode::kInternal);

  server.stop();
  EXPECT_TRUE(runtime.shutdown().ok());
}

TEST(IpcConcurrency, StopWithCommandsInFlight) {
  rt::Runtime runtime(small_config());
  ASSERT_TRUE(runtime.start().ok());
  IpcServer server(runtime, temp_socket("stopmid"));
  ASSERT_TRUE(server.start().ok());

  // Clients keep deep batches in flight while the main thread tears the
  // server down. Every outcome is acceptable for the clients — completed
  // batches or connection errors — as long as stop() returns and nothing
  // crashes or deadlocks.
  std::atomic<bool> stop{false};
  const std::vector<std::string> batch(32, "STATS");
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&] {
      IpcClient client(server.socket_path());
      while (!stop.load()) {
        if (!client.pipeline(batch).ok()) return;  // server went away
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server.stop();
  stop.store(true);
  for (auto& t : clients) t.join();

  EXPECT_TRUE(runtime.shutdown().ok());
}

}  // namespace
}  // namespace cedr::ipc
