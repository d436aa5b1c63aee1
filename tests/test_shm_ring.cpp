// Tests for the shared-memory submission lane (cedr::shm): segment layout
// and attach-time validation, SPSC ring semantics (wrap-around, full-ring
// back-pressure, cross-thread hand-off), record-CRC poisoning, and the
// end-to-end SHMOPEN flow against an in-process daemon — including a
// client that vanishes mid-ring without BYE, the daemon-side shape of a
// SIGKILLed submitter.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "cedr/ipc/ipc.h"
#include "cedr/runtime/runtime.h"
#include "cedr/shm/client.h"
#include "cedr/shm/fdpass.h"
#include "cedr/shm/segment.h"
#include "cedr/shm/server.h"

namespace cedr::shm {
namespace {

std::string temp_socket(const char* name) {
  return ::testing::TempDir() + "/cedr_shm_" + name + ".sock";
}

rt::RuntimeConfig small_config() {
  rt::RuntimeConfig config;
  config.platform = platform::host(2);
  return config;
}

// A single GENERIC task: no buffers, executes in ~work_ns. Small enough to
// ride inline in a SubRecord.
constexpr const char* kInlineDag =
    R"({"app_name":"t","tasks":[{"id":0,"kernel":"GENERIC","args":{"work_ns":1000}}]})";

// Padded past kSubInlineBytes so the client stages it in the arena.
const std::string kArenaDag = std::string(
    R"({"app_name":"shm_arena_test_application_with_a_deliberately_long_name",)"
    R"("tasks":[{"id":0,"kernel":"GENERIC","args":{"work_ns":1000},)"
    R"("predecessors":[]}]})");

// ---------------------------------------------------------------------------
// Segment layout + validation

TEST(ShmSegment, CreateAttachRoundTrip) {
  SegmentOptions options;
  options.sub_slots = 64;
  options.cpl_slots = 32;
  options.arena_bytes = 4096;
  auto created = Segment::create(options);
  ASSERT_TRUE(created.ok()) << created.status().to_string();
  std::memcpy(created->arena(), "payload", 7);

  auto attached = Segment::attach(::dup(created->fd()));
  ASSERT_TRUE(attached.ok()) << attached.status().to_string();
  const SegmentLayout& layout = attached->header()->layout;
  EXPECT_EQ(layout.sub_slots, 64u);
  EXPECT_EQ(layout.cpl_slots, 32u);
  EXPECT_EQ(layout.sub_slot_bytes, sizeof(SubRecord));
  EXPECT_EQ(layout.cpl_slot_bytes, sizeof(CplRecord));
  // Both mappings see the same bytes.
  EXPECT_EQ(std::memcmp(attached->arena(), "payload", 7), 0);
}

TEST(ShmSegment, RejectsNonPowerOfTwoRings) {
  SegmentOptions options;
  options.sub_slots = 100;
  EXPECT_FALSE(Segment::create(options).ok());
}

TEST(ShmSegment, AttachRejectsTornHeader) {
  auto created = Segment::create(SegmentOptions{});
  ASSERT_TRUE(created.ok());
  // Mutate the CRC-covered layout block without recomputing the CRC: the
  // torn-header shape a crashed or hostile peer would leave behind.
  created->header()->layout.sub_slots *= 2;
  auto attached = Segment::attach(::dup(created->fd()));
  EXPECT_FALSE(attached.ok());
  EXPECT_NE(attached.status().message().find("CRC"), std::string::npos);
}

TEST(ShmSegment, AttachRejectsBadMagicAndTruncation) {
  auto created = Segment::create(SegmentOptions{});
  ASSERT_TRUE(created.ok());
  {
    // Truncated file: the mapped layout promises more bytes than exist.
    const int fd = ::dup(created->fd());
    ASSERT_EQ(::ftruncate(fd, 4096), 0);
    EXPECT_FALSE(Segment::attach(fd).ok());
    ASSERT_EQ(
        ::ftruncate(created->fd(),
                    static_cast<off_t>(created->header()->layout.total_bytes)),
        0);
  }
  created->header()->magic = 0;
  EXPECT_FALSE(Segment::attach(::dup(created->fd())).ok());
}

// ---------------------------------------------------------------------------
// SPSC ring semantics

TEST(ShmRing, WrapAroundPreservesOrder) {
  SegmentOptions options;
  options.sub_slots = 4;
  options.cpl_slots = 4;
  auto segment = Segment::create(options);
  ASSERT_TRUE(segment.ok());
  SpscRing<SubRecord> producer = segment->sub_ring();
  SpscRing<SubRecord> consumer = segment->sub_ring();

  // Many times the capacity, so the cursor masks wrap repeatedly.
  for (std::uint64_t i = 0; i < 100; ++i) {
    SubRecord* slot = producer.acquire();
    ASSERT_NE(slot, nullptr);
    std::memset(slot, 0, sizeof *slot);
    slot->seq = i;
    producer.publish();

    const SubRecord* rec = consumer.front();
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->seq, i);
    consumer.release();
  }
  EXPECT_EQ(consumer.front(), nullptr);
}

TEST(ShmRing, FullRingBackpressure) {
  SegmentOptions options;
  options.sub_slots = 4;
  options.cpl_slots = 4;
  auto segment = Segment::create(options);
  ASSERT_TRUE(segment.ok());
  SpscRing<SubRecord> producer = segment->sub_ring();
  SpscRing<SubRecord> consumer = segment->sub_ring();

  for (std::uint64_t i = 0; i < 4; ++i) {
    SubRecord* slot = producer.acquire();
    ASSERT_NE(slot, nullptr);
    slot->seq = i;
    producer.publish();
  }
  // Capacity reached: the producer is refused until the consumer releases.
  EXPECT_EQ(producer.acquire(), nullptr);
  EXPECT_EQ(producer.size(), 4u);

  ASSERT_NE(consumer.front(), nullptr);
  consumer.release();
  SubRecord* slot = producer.acquire();
  ASSERT_NE(slot, nullptr);
  slot->seq = 4;
  producer.publish();
  EXPECT_EQ(producer.acquire(), nullptr);
}

TEST(ShmRing, ThreadedProducerConsumerHandsOffIntact) {
  SegmentOptions options;
  options.sub_slots = 8;  // small on purpose: constant wrap + full-ring waits
  options.cpl_slots = 8;
  auto segment = Segment::create(options);
  ASSERT_TRUE(segment.ok());
  constexpr std::uint64_t kRecords = 20000;

  std::thread producer([&] {
    SpscRing<SubRecord> ring = segment->sub_ring();
    for (std::uint64_t i = 0; i < kRecords; ++i) {
      SubRecord* slot;
      while ((slot = ring.acquire()) == nullptr) std::this_thread::yield();
      std::memset(slot, 0, sizeof *slot);
      slot->opcode = static_cast<std::uint16_t>(Opcode::kNop);
      slot->seq = i;
      slot->crc = sub_record_crc(*slot);
      ring.publish();
    }
  });

  SpscRing<SubRecord> ring = segment->sub_ring();
  std::uint64_t next = 0;
  std::uint64_t crc_failures = 0;
  while (next < kRecords) {
    const SubRecord* rec = ring.front();
    if (rec == nullptr) {
      std::this_thread::yield();
      continue;
    }
    if (rec->crc != sub_record_crc(*rec)) ++crc_failures;
    EXPECT_EQ(rec->seq, next);
    ++next;
    ring.release();
  }
  producer.join();
  EXPECT_EQ(crc_failures, 0u);
}

// ---------------------------------------------------------------------------
// Daemon-side drain: CRC poisoning

TEST(ShmServerDrain, BadRecordCrcPoisonsSession) {
  rt::Runtime runtime(small_config());
  ASSERT_TRUE(runtime.start().ok());
  {
    ShmServerOptions options;
    options.segment.sub_slots = 8;
    options.segment.cpl_slots = 8;
    ShmServer server(runtime, options, nullptr);
    auto info = server.open_session(1);
    ASSERT_TRUE(info.ok()) << info.status().to_string();

    auto client_view = Segment::attach(::dup(info->fds[0]));
    ASSERT_TRUE(client_view.ok());
    SpscRing<SubRecord> ring = client_view->sub_ring();
    SubRecord* slot = ring.acquire();
    ASSERT_NE(slot, nullptr);
    std::memset(slot, 0, sizeof *slot);
    slot->opcode = static_cast<std::uint16_t>(Opcode::kNop);
    slot->seq = 7;
    slot->crc = sub_record_crc(*slot) ^ 0xdeadbeef;  // deliberately wrong
    ring.publish();

    EXPECT_FALSE(server.drain(1));  // poisoned, not "more work"
    EXPECT_EQ(client_view->header()->poisoned.load(), 1u);
    EXPECT_EQ(runtime.counters().get("shm.crc_rejected_total"), 1u);
    // The bad record was not consumed and the session is skipped from now
    // on — no resync guessing.
    std::vector<std::uint64_t> claims;
    server.claim_drains(claims);
    EXPECT_TRUE(claims.empty());
    server.close_session(1);
  }
  EXPECT_TRUE(runtime.shutdown().ok());
}

// ---------------------------------------------------------------------------
// End-to-end over the in-process daemon

class ShmEndToEnd : public ::testing::Test {
 protected:
  void start(ipc::IpcServerConfig config = {}, const char* name = "e2e") {
    runtime_ = std::make_unique<rt::Runtime>(small_config());
    ASSERT_TRUE(runtime_->start().ok());
    server_ = std::make_unique<ipc::IpcServer>(*runtime_, temp_socket(name),
                                               config);
    ASSERT_TRUE(server_->start().ok());
  }
  void TearDown() override {
    if (server_ != nullptr) server_->stop();
    if (runtime_ != nullptr) {
      EXPECT_TRUE(runtime_->shutdown().ok());
    }
  }
  std::unique_ptr<rt::Runtime> runtime_;
  std::unique_ptr<ipc::IpcServer> server_;
};

TEST_F(ShmEndToEnd, NopRoundTrip) {
  start({}, "nop");
  ShmClient client(server_->socket_path());
  ASSERT_TRUE(client.connect().ok());
  auto seq = client.nop();
  ASSERT_TRUE(seq.ok());
  auto completion = client.wait_completion(*seq, 10000);
  ASSERT_TRUE(completion.ok()) << completion.status().to_string();
  EXPECT_EQ(completion->status, CplStatus::kOk);
  EXPECT_EQ(completion->value, *seq);
}

TEST_F(ShmEndToEnd, SubmitDagInlineAndArenaExecute) {
  start({}, "submit");
  ShmClient client(server_->socket_path());
  ASSERT_TRUE(client.connect().ok());

  ASSERT_LE(std::strlen(kInlineDag), kSubInlineBytes);
  ASSERT_GT(kArenaDag.size(), kSubInlineBytes);
  auto inline_seq = client.submit_dag_json(kInlineDag);
  ASSERT_TRUE(inline_seq.ok());
  auto arena_seq = client.submit_dag_json(kArenaDag);
  ASSERT_TRUE(arena_seq.ok());

  auto first = client.wait_completion(*inline_seq, 10000);
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  EXPECT_EQ(first->status, CplStatus::kOk) << first->msg;
  auto second = client.wait_completion(*arena_seq, 10000);
  ASSERT_TRUE(second.ok()) << second.status().to_string();
  EXPECT_EQ(second->status, CplStatus::kOk) << second->msg;
  EXPECT_NE(first->value, second->value);  // distinct instance ids

  ASSERT_TRUE(runtime_->wait_all(30.0).ok());
  EXPECT_EQ(runtime_->submitted_apps(), 2u);
  EXPECT_EQ(runtime_->completed_apps(), 2u);
}

TEST_F(ShmEndToEnd, ResubmitSameDocReusesStagedArena) {
  start({}, "restage");
  ShmClient client(server_->socket_path());
  ASSERT_TRUE(client.connect().ok());
  for (int i = 0; i < 50; ++i) {
    auto seq = client.submit_dag_json(kArenaDag);
    ASSERT_TRUE(seq.ok()) << seq.status().to_string();
  }
  ASSERT_TRUE(client.wait_all(30000).ok());
  EXPECT_EQ(client.completed(), 50u);
  ASSERT_TRUE(runtime_->wait_all(30.0).ok());
  EXPECT_EQ(runtime_->completed_apps(), 50u);
}

TEST_F(ShmEndToEnd, MalformedDocumentCompletesWithError) {
  start({}, "badjson");
  ShmClient client(server_->socket_path());
  ASSERT_TRUE(client.connect().ok());
  auto seq = client.submit_dag_json("{not json");
  ASSERT_TRUE(seq.ok());
  auto completion = client.wait_completion(*seq, 10000);
  ASSERT_TRUE(completion.ok());
  EXPECT_EQ(completion->status, CplStatus::kError);
  EXPECT_FALSE(completion->msg.empty());
}

TEST_F(ShmEndToEnd, AdmissionBoundYieldsBusyCompletion) {
  ipc::IpcServerConfig config;
  config.max_inflight_apps = 1;
  config.busy_retry_ms = 7;
  start(config, "busy");
  ShmClient client(server_->socket_path());
  ASSERT_TRUE(client.connect().ok());

  // ~200ms of GENERIC spin keeps one app in flight across the second
  // submission, which must then bounce off the shared admission bound.
  const std::string slow_dag =
      R"({"app_name":"slow","tasks":)"
      R"([{"id":0,"kernel":"GENERIC","args":{"work_ns":200000000}}]})";
  auto first = client.submit_dag_json(slow_dag);
  ASSERT_TRUE(first.ok());
  auto admitted = client.wait_completion(*first, 10000);
  ASSERT_TRUE(admitted.ok());
  ASSERT_EQ(admitted->status, CplStatus::kOk) << admitted->msg;

  auto second = client.submit_dag_json(kInlineDag);
  ASSERT_TRUE(second.ok());
  auto busy = client.wait_completion(*second, 10000);
  ASSERT_TRUE(busy.ok());
  EXPECT_EQ(busy->status, CplStatus::kBusy);
  EXPECT_EQ(busy->value, 7u);  // the configured retry hint
  EXPECT_GE(client.busy_completions(), 1u);
  ASSERT_TRUE(runtime_->wait_all(30.0).ok());
}

TEST_F(ShmEndToEnd, SocketLaneStillWorksAlongside) {
  start({}, "mixed");
  ShmClient shm_client(server_->socket_path());
  ASSERT_TRUE(shm_client.connect().ok());
  ipc::IpcClient socket_client(server_->socket_path());
  auto status = socket_client.status();
  ASSERT_TRUE(status.ok());
  auto seq = shm_client.nop();
  ASSERT_TRUE(seq.ok());
  EXPECT_TRUE(shm_client.wait_completion(*seq, 10000).ok());
  auto stats = socket_client.stats();
  ASSERT_TRUE(stats.ok());
}

TEST_F(ShmEndToEnd, ShmOpenRefusedWhenDisabled) {
  ipc::IpcServerConfig config;
  config.enable_shm = false;
  start(config, "disabled");
  ShmClient client(server_->socket_path());
  const Status s = client.connect();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
}

// A client that vanishes without BYE mid-ring — the daemon-side shape of
// SIGKILL. The handshake is done by hand so the control socket can be
// closed abruptly while submission records are still unconsumed.
TEST_F(ShmEndToEnd, AbruptClientDeathReapsSessionAndDaemonSurvives) {
  start({}, "sigkill");

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string path = server_->socket_path();
  ASSERT_LT(path.size(), sizeof(addr.sun_path));
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int sock = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(sock, 0);
  ASSERT_EQ(::connect(sock, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::send(sock, "SHMOPEN\n", 8, MSG_NOSIGNAL), 8);
  std::string reply;
  std::vector<int> fds;
  while (reply.find('\n') == std::string::npos) {
    char buf[256];
    const ssize_t n = recv_with_fds(sock, buf, sizeof buf, fds);
    ASSERT_GT(n, 0);
    reply.append(buf, static_cast<std::size_t>(n));
  }
  ASSERT_EQ(reply.rfind("OK", 0), 0u) << reply;
  ASSERT_GE(fds.size(), 3u);
  auto segment = Segment::attach(fds[0]);
  ASSERT_TRUE(segment.ok());

  // Queue real submissions, then die without consuming any completion.
  SpscRing<SubRecord> ring = segment->sub_ring();
  for (std::uint64_t i = 1; i <= 8; ++i) {
    SubRecord* slot = ring.acquire();
    ASSERT_NE(slot, nullptr);
    std::memset(slot, 0, sizeof *slot);
    slot->opcode = static_cast<std::uint16_t>(Opcode::kSubmitDag);
    slot->flags = kArgInline;
    slot->seq = i;
    slot->arg_len = static_cast<std::uint32_t>(std::strlen(kInlineDag));
    std::memcpy(slot->inline_arg, kInlineDag, std::strlen(kInlineDag));
    slot->crc = sub_record_crc(*slot);
    ring.publish();
  }
  const std::uint64_t one = 1;
  ASSERT_EQ(::write(fds[1], &one, sizeof one), static_cast<ssize_t>(sizeof one));
  ::close(fds[1]);
  ::close(fds[2]);
  ::close(sock);  // EOF with records possibly mid-drain: the SIGKILL shape

  // The daemon must reap the session and keep serving both lanes.
  ipc::IpcClient probe(server_->socket_path());
  for (int i = 0; i < 200; ++i) {
    auto doc = probe.metrics();
    ASSERT_TRUE(doc.ok());
    const json::Value* metrics = doc->find("metrics");
    ASSERT_NE(metrics, nullptr);
    const json::Value* gauges = metrics->find("gauges");
    ASSERT_NE(gauges, nullptr);
    if (gauges->get_double("shm.sessions", -1.0) == 0.0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ShmClient again(server_->socket_path());
  ASSERT_TRUE(again.connect().ok());
  auto seq = again.nop();
  ASSERT_TRUE(seq.ok());
  auto completion = again.wait_completion(*seq, 10000);
  ASSERT_TRUE(completion.ok()) << completion.status().to_string();
  EXPECT_EQ(completion->status, CplStatus::kOk);
  ASSERT_TRUE(runtime_->wait_all(30.0).ok());
}

}  // namespace
}  // namespace cedr::shm
