// Tests for the transport subsystem: the adversarial frame-parser surface
// (every read split, oversized announcements, crc corruption, interleaved
// garbage, handshake replays), the ring buffer and deadline machinery, the
// protocol codecs, loopback bit-parity of the transport server runtime
// against the in-process engine, deterministic chaos (corruption, abrupt
// disconnects with session resume, dead clients, backpressure, slowloris
// eviction), the async aggregation modes, crash-and-resume from
// commit-boundary checkpoints, and the epoll TCP backend end-to-end over
// localhost.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "../tools/transport_demo.hpp"
#include "common/check.hpp"
#include "fl/scheduler.hpp"
#include "transport/client_runtime.hpp"
#include "transport/epoll.hpp"
#include "transport/frame.hpp"
#include "transport/loopback.hpp"
#include "transport/protocol.hpp"
#include "transport/ring_buffer.hpp"
#include "transport/server_runtime.hpp"
#include "wire/crc32c.hpp"
#include "wire/reader.hpp"
#include "wire/writer.hpp"

namespace fedbiad {
namespace {

using transport::Frame;
using transport::FrameParser;
using transport::FrameType;
using transport::SessionId;

std::vector<std::uint8_t> wire_of(FrameType type,
                                  std::span<const std::uint8_t> body) {
  std::vector<std::uint8_t> out;
  transport::append_frame(out, type, body);
  return out;
}

std::vector<std::uint8_t> some_body(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> b(n);
  tensor::Rng rng(seed);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.uniform_index(256));
  return b;
}

// --- frame parser: adversarial byte streams -------------------------------

TEST(FrameCodec, RoundTripAllTypes) {
  for (const auto type :
       {FrameType::kHello, FrameType::kWelcome, FrameType::kDispatch,
        FrameType::kUpload, FrameType::kUploadAck, FrameType::kReject,
        FrameType::kFin}) {
    const auto body = some_body(37, static_cast<std::uint64_t>(type));
    const auto wire = wire_of(type, body);
    EXPECT_EQ(wire.size(), transport::frame_wire_size(body.size()));
    FrameParser parser(1 << 20);
    parser.feed(wire);
    Frame f;
    ASSERT_EQ(parser.next(f), FrameParser::Status::kFrame);
    EXPECT_EQ(f.type, type);
    EXPECT_EQ(f.body, body);
    EXPECT_EQ(parser.next(f), FrameParser::Status::kNeedMore);
    EXPECT_EQ(parser.buffered_bytes(), 0u);
  }
}

TEST(FrameCodec, EverySplitPointReassembles) {
  // Three frames back to back, fed in two chunks cut at every offset —
  // including inside the length prefix and inside the crc.
  std::vector<std::uint8_t> stream;
  const auto b1 = some_body(11, 1);
  const auto b2 = some_body(0, 2);
  const auto b3 = some_body(63, 3);
  transport::append_frame(stream, FrameType::kUpload, b1);
  transport::append_frame(stream, FrameType::kFin, b2);
  transport::append_frame(stream, FrameType::kDispatch, b3);
  for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
    FrameParser parser(1 << 20);
    const std::span<const std::uint8_t> all(stream);
    parser.feed(all.first(cut));
    parser.feed(all.subspan(cut));
    Frame f;
    ASSERT_EQ(parser.next(f), FrameParser::Status::kFrame) << cut;
    EXPECT_EQ(f.body, b1) << cut;
    ASSERT_EQ(parser.next(f), FrameParser::Status::kFrame) << cut;
    EXPECT_EQ(f.type, FrameType::kFin) << cut;
    ASSERT_EQ(parser.next(f), FrameParser::Status::kFrame) << cut;
    EXPECT_EQ(f.body, b3) << cut;
    EXPECT_EQ(parser.next(f), FrameParser::Status::kNeedMore) << cut;
  }
}

TEST(FrameCodec, ByteAtATime) {
  const auto body = some_body(29, 4);
  const auto wire = wire_of(FrameType::kWelcome, body);
  FrameParser parser(1 << 20);
  Frame f;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    parser.feed({&wire[i], 1});
    ASSERT_EQ(parser.next(f), FrameParser::Status::kNeedMore) << i;
  }
  parser.feed({&wire.back(), 1});
  ASSERT_EQ(parser.next(f), FrameParser::Status::kFrame);
  EXPECT_EQ(f.body, body);
}

TEST(FrameCodec, OversizedAnnouncementRejectedBeforeBody) {
  // A 4GiB-announcing prefix must fail as soon as the length is readable,
  // without waiting for (or buffering) any body byte.
  FrameParser parser(4096);
  const std::uint8_t huge[4] = {0xFF, 0xFF, 0xFF, 0xFF};
  parser.feed(huge);
  Frame f;
  EXPECT_EQ(parser.next(f), FrameParser::Status::kError);
  EXPECT_NE(parser.error().find("exceeds"), std::string::npos);
}

TEST(FrameCodec, BelowMinimumLengthRejected) {
  FrameParser parser(4096);
  const std::uint8_t tiny[4] = {4, 0, 0, 0};  // len 4 < 5: no room for crc
  parser.feed(tiny);
  Frame f;
  EXPECT_EQ(parser.next(f), FrameParser::Status::kError);
  EXPECT_NE(parser.error().find("minimum"), std::string::npos);
}

TEST(FrameCodec, EverySingleByteCorruptionDetected) {
  const auto body = some_body(16, 5);
  const auto wire = wire_of(FrameType::kUpload, body);
  // Skip the length prefix: corrupting it changes the claimed size, which
  // is a different (also rejected) failure mode tested separately.
  for (std::size_t i = 4; i < wire.size(); ++i) {
    auto bad = wire;
    bad[i] ^= 0x01;
    FrameParser parser(1 << 20);
    parser.feed(bad);
    Frame f;
    const auto status = parser.next(f);
    EXPECT_EQ(status, FrameParser::Status::kError) << "byte " << i;
  }
}

TEST(FrameCodec, UnknownTypeRejected) {
  std::vector<std::uint8_t> wire;
  transport::append_frame(wire, static_cast<FrameType>(0x7F), some_body(3, 6));
  FrameParser parser(1 << 20);
  parser.feed(wire);
  Frame f;
  EXPECT_EQ(parser.next(f), FrameParser::Status::kError);
  EXPECT_NE(parser.error().find("unknown frame type"), std::string::npos);
}

TEST(FrameCodec, ErrorIsStickyAndDropsLaterBytes) {
  FrameParser parser(1 << 20);
  const auto good = wire_of(FrameType::kFin, some_body(2, 7));
  auto bad = good;
  bad[5] ^= 0xFF;  // corrupt the type/body region
  parser.feed(bad);
  Frame f;
  ASSERT_EQ(parser.next(f), FrameParser::Status::kError);
  const std::string first_error = parser.error();
  parser.feed(good);  // a pristine frame after poison must not resurrect
  EXPECT_EQ(parser.next(f), FrameParser::Status::kError);
  EXPECT_EQ(parser.error(), first_error);
  EXPECT_EQ(parser.buffered_bytes(), 0u);
  EXPECT_TRUE(parser.failed());
}

TEST(FrameCodec, GoodFrameThenInterleavedGarbage) {
  const auto body = some_body(21, 8);
  auto stream = wire_of(FrameType::kUpload, body);
  const auto garbage = some_body(64, 9);
  stream.insert(stream.end(), garbage.begin(), garbage.end());
  FrameParser parser(1 << 20);
  parser.feed(stream);
  Frame f;
  ASSERT_EQ(parser.next(f), FrameParser::Status::kFrame);
  EXPECT_EQ(f.body, body);
  // The garbage tail is an invalid next frame: either a bogus length or a
  // crc mismatch, both fatal.
  EXPECT_EQ(parser.next(f), FrameParser::Status::kError);
}

// --- ring buffer ----------------------------------------------------------

TEST(RingBuffer, AllOrNothingWriteAndWraparound) {
  transport::RingBuffer ring(16);
  EXPECT_TRUE(ring.empty());
  EXPECT_FALSE(ring.write(some_body(17, 1)));  // over capacity: refused whole
  EXPECT_TRUE(ring.empty());
  const auto a = some_body(10, 2);
  ASSERT_TRUE(ring.write(a));
  EXPECT_EQ(ring.size(), 10u);
  EXPECT_FALSE(ring.write(some_body(7, 3)));  // 10 + 7 > 16
  ring.consume(6);
  const auto b = some_body(7, 4);
  ASSERT_TRUE(ring.write(b));  // wraps
  std::vector<std::uint8_t> drained;
  while (!ring.empty()) {
    const auto run = ring.peek();
    drained.insert(drained.end(), run.begin(), run.end());
    ring.consume(run.size());
  }
  std::vector<std::uint8_t> want(a.begin() + 6, a.end());
  want.insert(want.end(), b.begin(), b.end());
  EXPECT_EQ(drained, want);
  EXPECT_EQ(ring.free_space(), 16u);
}

// Seeded ops against a std::deque model: writes of every size up to one
// past capacity (refused whole when they do not fit, wrapping into two
// copies when they cross the end of storage), and peeks consumed in part.
TEST(RingBuffer, MatchesDequeModelUnderSeededOps) {
  tensor::Rng rng(0x121A6B);
  for (const std::size_t capacity : {1u, 7u, 64u}) {
    transport::RingBuffer ring(capacity);
    std::deque<std::uint8_t> model;
    std::size_t refused = 0;
    std::size_t wrapped = 0;
    for (std::size_t op = 0; op < 4000; ++op) {
      if (rng.uniform_index(2) == 0) {
        const auto bytes = some_body(rng.uniform_index(capacity + 2), op);
        const bool fits = bytes.size() <= capacity - model.size();
        ASSERT_EQ(ring.write(bytes), fits) << capacity << " op " << op;
        if (fits) {
          model.insert(model.end(), bytes.begin(), bytes.end());
        } else {
          ++refused;
        }
      } else {
        const auto run = ring.peek();
        ASSERT_EQ(run.empty(), model.empty());
        ASSERT_LE(run.size(), model.size());
        if (run.size() < model.size()) ++wrapped;  // contents cross the end
        ASSERT_TRUE(std::equal(run.begin(), run.end(), model.begin()))
            << capacity << " op " << op;
        const std::size_t n = rng.uniform_index(run.size() + 1);
        ring.consume(n);
        model.erase(model.begin(),
                    model.begin() + static_cast<std::ptrdiff_t>(n));
      }
      ASSERT_EQ(ring.size(), model.size());
      ASSERT_EQ(ring.free_space(), capacity - model.size());
    }
    EXPECT_GT(refused, 0u) << capacity;
    if (capacity > 1) EXPECT_GT(wrapped, 0u) << capacity;
  }
}

// --- scheduler adapter + deadline timers ----------------------------------

TEST(Scheduler, NextTimeSkipsCancelledAndAdvanceToFiresInOrder) {
  fl::EventScheduler sched;
  std::vector<int> fired;
  const auto a = sched.schedule_at(1.0, [&] { fired.push_back(1); });
  sched.schedule_at(2.0, [&] { fired.push_back(2); });
  sched.schedule_at(3.0, [&] { fired.push_back(3); });
  EXPECT_EQ(sched.next_time(), 1.0);
  sched.cancel(a);
  EXPECT_EQ(sched.next_time(), 2.0);  // cancelled top lazily dropped
  sched.advance_to(2.5);
  EXPECT_EQ(sched.now(), 2.5);
  EXPECT_EQ(fired, std::vector<int>({2}));
  sched.advance_to(3.0);  // boundary inclusive
  EXPECT_EQ(fired, std::vector<int>({2, 3}));
  EXPECT_EQ(sched.next_time(), std::numeric_limits<double>::infinity());
  EXPECT_THROW(sched.advance_to(2.0), CheckError);  // time cannot go back
}

TEST(DeadlineTimer, ArmRearmsAndCancelSuppresses) {
  fl::EventScheduler sched;
  int fired = 0;
  transport::DeadlineTimer timer(sched, 5.0);
  timer.arm([&] { ++fired; });
  timer.arm([&] { ++fired; });  // re-arm replaces, never stacks
  EXPECT_TRUE(timer.armed());
  sched.advance_to(10.0);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(timer.armed());
  timer.arm([&] { ++fired; });
  timer.cancel();
  sched.advance_to(20.0);
  EXPECT_EQ(fired, 1);
}

// --- protocol codecs ------------------------------------------------------

TEST(Protocol, RoundTripsEveryMessage) {
  transport::HelloMsg hello{.client_id = 3,
                            .session_token = 0xDEADBEEF,
                            .payload_kind = 2,
                            .payload_aux = 9};
  const auto h = transport::decode_hello(transport::encode(hello));
  EXPECT_EQ(h.client_id, 3u);
  EXPECT_EQ(h.session_token, 0xDEADBEEFu);
  EXPECT_EQ(h.payload_kind, 2u);
  EXPECT_EQ(h.payload_aux, 9u);

  transport::DispatchMsg dispatch{.dispatch_index = 41,
                                  .round = 7,
                                  .slot = 2,
                                  .model_version = 6,
                                  .rng_stream = 0x10029,
                                  .broadcast = some_body(100, 10)};
  const auto d = transport::decode_dispatch(transport::encode(dispatch));
  EXPECT_EQ(d.dispatch_index, 41u);
  EXPECT_EQ(d.rng_stream, 0x10029u);
  EXPECT_EQ(d.broadcast, dispatch.broadcast);

  transport::UploadMsg upload{.dispatch_index = 41,
                              .samples = 17,
                              .is_update = 1,
                              .train_seconds = 0.25,
                              .mean_loss = 1.5,
                              .last_loss = 1.25,
                              .payload = some_body(57, 11)};
  const auto u = transport::decode_upload(transport::encode(upload));
  EXPECT_EQ(u.samples, 17u);
  EXPECT_EQ(u.mean_loss, 1.5);
  EXPECT_EQ(u.payload, upload.payload);

  transport::RejectMsg reject{
      .dispatch_index = 41, .retry = 1, .reason = "crc mismatch"};
  const auto j = transport::decode_reject(transport::encode(reject));
  EXPECT_EQ(j.retry, 1u);
  EXPECT_EQ(j.reason, "crc mismatch");

  const auto w = transport::decode_welcome(
      transport::encode(transport::WelcomeMsg{.session_token = 5,
                                              .version = 2,
                                              .resumed = 1}));
  EXPECT_EQ(w.session_token, 5u);
  EXPECT_EQ(w.resumed, 1u);
  const auto a = transport::decode_upload_ack(
      transport::encode(transport::UploadAckMsg{.dispatch_index = 41}));
  EXPECT_EQ(a.dispatch_index, 41u);
  const auto f =
      transport::decode_fin(transport::encode(transport::FinMsg{.rounds = 9}));
  EXPECT_EQ(f.rounds, 9u);
}

TEST(Protocol, TruncationAtEveryLengthRejected) {
  transport::UploadMsg upload{.dispatch_index = 1,
                              .samples = 2,
                              .is_update = 0,
                              .train_seconds = 0.1,
                              .mean_loss = 2.0,
                              .last_loss = 1.9,
                              .payload = some_body(33, 12)};
  const auto full = transport::encode(upload);
  for (std::size_t n = 0; n < full.size(); ++n) {
    const std::span<const std::uint8_t> cut(full.data(), n);
    EXPECT_THROW(transport::decode_upload(cut), wire::DecodeError) << n;
  }
  EXPECT_NO_THROW(transport::decode_upload(full));
  // Trailing junk is as fatal as truncation.
  auto padded = full;
  padded.push_back(0);
  EXPECT_THROW(transport::decode_upload(padded), wire::DecodeError);
}

TEST(Protocol, LyingByteRunLengthRejected) {
  transport::DispatchMsg dispatch{.dispatch_index = 1,
                                  .round = 1,
                                  .slot = 0,
                                  .model_version = 0,
                                  .rng_stream = 1,
                                  .broadcast = some_body(20, 13)};
  auto bytes = transport::encode(dispatch);
  // The varint byte-run length sits right after five u64s; inflate it so
  // it claims more bytes than remain.
  bytes[40] = 0xFF;
  bytes[41] |= 0x01;
  EXPECT_THROW(transport::decode_dispatch(bytes), wire::DecodeError);
}

// The per-version Dispatch body, patched in turn with several headers,
// equals the encoder's output and the field-by-field Writer layout, for
// broadcast lengths whose varint prefix takes 1, 2 and 3 bytes.
TEST(Protocol, DispatchFramePatchedEqualsEncoder) {
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  const std::vector<transport::DispatchFrame::Header> headers = {
      {.dispatch_index = 0, .round = 0, .slot = 0, .model_version = 0,
       .rng_stream = 0},
      {.dispatch_index = kMax, .round = kMax, .slot = kMax,
       .model_version = kMax, .rng_stream = kMax},
      {.dispatch_index = 41, .round = 7, .slot = 3, .model_version = 6,
       .rng_stream = 0x0123456789ABCDEFULL},
      {.dispatch_index = kMax, .round = 1, .slot = 0, .model_version = 0,
       .rng_stream = 0x10029},
      {.dispatch_index = 0, .round = 0, .slot = 0, .model_version = 0,
       .rng_stream = 0},
  };
  for (const std::size_t len : {0u, 1u, 127u, 128u, 16383u, 16384u, 20000u}) {
    const auto broadcast = some_body(len, 50 + len);
    transport::DispatchFrame frame(broadcast);
    for (const auto& h : headers) {
      const auto patched = frame.patch(h);
      const std::vector<std::uint8_t> got(patched.begin(), patched.end());
      const transport::DispatchMsg msg{.dispatch_index = h.dispatch_index,
                                       .round = h.round,
                                       .slot = h.slot,
                                       .model_version = h.model_version,
                                       .rng_stream = h.rng_stream,
                                       .broadcast = broadcast};
      EXPECT_EQ(got, transport::encode(msg)) << len;
      wire::Writer w;
      for (const std::uint64_t v : {h.dispatch_index, h.round, h.slot,
                                    h.model_version, h.rng_stream}) {
        w.u64(v);
      }
      w.varint(len);
      w.bytes(broadcast);
      EXPECT_EQ(got, std::move(w).take()) << len;
      const auto d = transport::decode_dispatch(got);
      EXPECT_EQ(d.dispatch_index, h.dispatch_index);
      EXPECT_EQ(d.rng_stream, h.rng_stream);
      EXPECT_EQ(d.broadcast, broadcast);
    }
  }
}

// --- loopback: runtimes, parity, chaos ------------------------------------

using ClientTweak =
    std::function<void(transport::TransportClientConfig&, std::size_t)>;

struct LoopbackRun {
  tools::DemoWorkload w;
  transport::LoopbackTransport net{transport::TransportLimits{}};
  std::unique_ptr<transport::ServerRuntime> server;
  std::vector<std::unique_ptr<transport::LoopbackTransport::Endpoint>> ends;
  std::vector<std::unique_ptr<transport::ClientRuntime>> clients;

  explicit LoopbackRun(const std::string& method,
                       transport::TransportServerConfig scfg = {},
                       std::size_t skip_client = SIZE_MAX,
                       const ClientTweak& tweak = {})
      : w(tools::make_demo_workload(method, /*smoke=*/true)) {
    scfg.base = w.sim;
    scfg.scenario_name = "loopback";
    server = std::make_unique<transport::ServerRuntime>(
        scfg, net, w.factory, w.test, w.partition,
        tools::make_demo_strategy(method));
    for (std::size_t c = 0; c < w.partition.size(); ++c) {
      if (w.partition[c].empty() || c == skip_client) continue;
      transport::TransportClientConfig ccfg;
      ccfg.client_id = c;
      ccfg.base = w.sim;
      ccfg.payload_kind = w.payload_kind;
      ccfg.reconnect_interval_seconds = 0.0;  // loopback dials instantly
      ccfg.reconnect_timeout_seconds = 60.0;
      if (tweak) tweak(ccfg, c);
      ends.push_back(std::make_unique<transport::LoopbackTransport::Endpoint>(
          net, c));
      clients.push_back(std::make_unique<transport::ClientRuntime>(
          ccfg, *ends.back(), w.factory, w.train, w.partition[c],
          tools::make_demo_strategy(method)));
    }
  }

  /// Drives everything to completion. advance_dt > 0 moves virtual time
  /// each iteration (deadline tests need it).
  transport::TransportServerResult drive(double advance_dt = 0.0,
                                         std::size_t max_iters = 10000) {
    server->start();
    for (auto& c : clients) c->start();
    std::size_t guard = 0;
    while (!server->done() && ++guard < max_iters) {
      net.step(0.0);
      for (auto& c : clients) c->pump(0.0);
      if (advance_dt > 0.0) net.advance_time(advance_dt);
    }
    EXPECT_LT(guard, max_iters) << "loopback run did not converge";
    return server->finish();
  }
};

void expect_conserved(const transport::TransportServerResult& r) {
  EXPECT_TRUE(r.conserved())
      << "dispatched=" << r.sim.total_dispatched
      << " committed=" << r.sim.total_committed
      << " abandoned=" << r.sim.total_abandoned
      << " rejected=" << r.sim.total_rejected
      << " buffered=" << r.sim.final_buffered
      << " in_flight=" << r.sim.final_in_flight;
}

/// The TCP commit comes from the same core as the engine's, so every
/// RoundRecord carries its measured aggregation time.
void expect_commits_timed(const transport::TransportServerResult& r) {
  for (const fl::RoundRecord& rec : r.sim.rounds) {
    EXPECT_GT(rec.aggregate_seconds, 0.0) << "round " << rec.round;
  }
}

TEST(LoopbackParity, FedAvgBitIdenticalToEngine) {
  const auto w = tools::make_demo_workload("fedavg", true);
  const std::string want =
      tools::trajectory_text(tools::reference_run(w, "fedavg"));
  LoopbackRun run("fedavg");
  const auto result = run.drive();
  expect_conserved(result);
  EXPECT_EQ(tools::trajectory_text(result.sim), want);
  EXPECT_EQ(result.sessions_opened, 8u);
  EXPECT_EQ(result.sessions_resumed, 0u);
  for (auto& c : run.clients) EXPECT_TRUE(c->finished());
  expect_commits_timed(result);
}

TEST(LoopbackParity, FedBiadBitIdenticalToEngine) {
  const auto w = tools::make_demo_workload("fedbiad", true);
  const std::string want =
      tools::trajectory_text(tools::reference_run(w, "fedbiad"));
  LoopbackRun run("fedbiad");
  const auto result = run.drive();
  expect_conserved(result);
  EXPECT_EQ(tools::trajectory_text(result.sim), want);
  expect_commits_timed(result);
}

// --- async aggregation over the transport ---------------------------------

/// The contract both async modes share over loopback, at 0 and 2 decode
/// workers: every round commits, the ledger conserves, the dispatch total
/// is the fixed async budget (rounds × updates per commit), and the final
/// parameters do not depend on the worker count.
void expect_async_contract(fl::AggregationMode mode, std::size_t per_commit) {
  for (const char* method : {"fedavg", "fedbiad"}) {
    std::uint32_t crc_at_zero = 0;
    for (const std::size_t workers : {std::size_t{0}, std::size_t{2}}) {
      transport::TransportServerConfig scfg;
      scfg.mode = mode;
      scfg.buffer_size = per_commit;
      scfg.decode_workers = workers;
      LoopbackRun run(method, scfg);
      const auto result = run.drive();
      expect_conserved(result);
      EXPECT_EQ(result.sim.rounds.size(), run.w.sim.rounds) << method;
      EXPECT_EQ(result.sim.total_dispatched, run.w.sim.rounds * per_commit)
          << method;
      const std::vector<float>& params = result.sim.final_params;
      const std::uint32_t crc = wire::crc32c(
          {reinterpret_cast<const std::uint8_t*>(params.data()),
           params.size() * sizeof(float)});
      if (workers == 0) {
        crc_at_zero = crc;
      } else {
        EXPECT_EQ(crc, crc_at_zero) << method << " with " << workers
                                    << " decode workers";
      }
      for (auto& c : run.clients) EXPECT_TRUE(c->finished());
    }
  }
}

TEST(LoopbackAsync, BufferedKCommitsEveryRoundAndConserves) {
  expect_async_contract(fl::AggregationMode::kBufferedK, 2);
}

TEST(LoopbackAsync, FedAsyncCommitsEveryRoundAndConserves) {
  expect_async_contract(fl::AggregationMode::kFedAsync, 1);
}

TEST(LoopbackAsync, AbandonedDispatchesAreReplaced) {
  // Client 1 never connects, so each of its dispatches is abandoned at the
  // deadline. The async budget must replace every one of them, or the run
  // stalls short of its commits.
  transport::TransportServerConfig scfg;
  scfg.mode = fl::AggregationMode::kBufferedK;
  scfg.buffer_size = 2;
  scfg.dispatch_deadline_seconds = 5.0;
  LoopbackRun run("fedavg", scfg, /*skip_client=*/1);
  const auto result = run.drive(/*advance_dt=*/1.0);
  expect_conserved(result);
  EXPECT_GT(result.sim.total_abandoned, 0u);
  EXPECT_EQ(result.sim.rounds.size(), run.w.sim.rounds);
  EXPECT_EQ(result.sim.total_dispatched,
            run.w.sim.rounds * 2 + result.sim.total_abandoned);
}

TEST(LoopbackChaos, AbruptDisconnectResumesAndStaysBitIdentical) {
  // Client 2 kills its connection right after its first upload leaves the
  // socket — before any ack. It must reconnect, resume its session, re-send
  // from the outcome cache, and the server-side dedup/commit path must keep
  // the trajectory byte-identical to the undisturbed reference.
  const auto w = tools::make_demo_workload("fedbiad", true);
  const std::string want =
      tools::trajectory_text(tools::reference_run(w, "fedbiad"));
  LoopbackRun run("fedbiad", {}, SIZE_MAX,
                  [](transport::TransportClientConfig& cfg, std::size_t c) {
                    if (c == 2) cfg.drop_connection_after_uploads = 1;
                  });
  const auto result = run.drive();
  expect_conserved(result);
  EXPECT_EQ(tools::trajectory_text(result.sim), want);
  EXPECT_GE(result.sessions_resumed, 1u);
  for (std::size_t i = 0; i < run.clients.size(); ++i) {
    EXPECT_TRUE(run.clients[i]->finished()) << i;
    // Exactly-once training: resends come from the cache, so uploads can
    // exceed trainings but never the other way round.
    EXPECT_LE(run.clients[i]->trainings_run(), run.clients[i]->uploads_sent())
        << i;
  }
  EXPECT_GE(run.clients[2]->reconnects(), 1u);
}

TEST(LoopbackChaos, CorruptUploadsRetryThenTerminallyReject) {
  // Client 1 corrupts every upload attempt (p = 1): each delivery burns one
  // attempt, and after max_upload_attempts the dispatch is terminally
  // rejected — the barrier wave must still complete via the rejection path
  // and the conservation law must hold exactly.
  transport::TransportServerConfig scfg;
  scfg.max_upload_attempts = 2;
  LoopbackRun run("fedavg", scfg, SIZE_MAX,
                  [](transport::TransportClientConfig& cfg, std::size_t c) {
                    if (c == 1) cfg.corrupt_probability = 1.0;
                  });
  const auto result = run.drive();
  expect_conserved(result);
  // Client 1 is selected at least once over 3 rounds of 4-of-8 selection
  // with seed 42; every one of its dispatches must terminally reject.
  EXPECT_GT(result.sim.total_rejected, 0u);
  EXPECT_GE(result.sim.total_rejected_deliveries,
            result.sim.total_rejected * 2);  // both attempts burned
  EXPECT_GT(result.sim.total_rejected_bytes, 0u);
  EXPECT_EQ(result.sim.total_committed + result.sim.total_rejected,
            result.sim.total_dispatched);
}

TEST(LoopbackChaos, DeadClientAbandonedAtDispatchDeadline) {
  // Client 3 never connects. With a dispatch deadline configured its
  // dispatches are abandoned (the churn path), the wave completes with the
  // survivors, and conservation charges the losses to `abandoned`.
  transport::TransportServerConfig scfg;
  scfg.dispatch_deadline_seconds = 5.0;
  LoopbackRun run("fedavg", scfg, /*skip_client=*/3);
  const auto result = run.drive(/*advance_dt=*/1.0);
  expect_conserved(result);
  EXPECT_GT(result.sim.total_abandoned, 0u);
  EXPECT_EQ(result.sim.total_committed + result.sim.total_abandoned,
            result.sim.total_dispatched);
  EXPECT_EQ(result.sim.rounds.size(), run.w.sim.rounds);
  for (auto& c : run.clients) EXPECT_TRUE(c->finished());
}

// A raw scripted peer for protocol-violation tests: records frames and
// closes, sends whatever the test scripts.
struct ScriptedPeer : transport::ClientTransport::Handler {
  transport::LoopbackTransport::Endpoint endpoint;
  std::vector<Frame> frames;
  std::vector<std::string> closes;
  explicit ScriptedPeer(transport::LoopbackTransport& net, std::uint64_t id)
      : endpoint(net, id) {
    endpoint.set_handler(this);
  }
  void on_frame(Frame&& f) override { frames.push_back(std::move(f)); }
  void on_close(const std::string& reason) override {
    closes.push_back(reason);
  }
  bool hello(std::uint64_t client, std::uint64_t token = 0) {
    return endpoint.send(
        FrameType::kHello,
        transport::encode(transport::HelloMsg{.client_id = client,
                                              .session_token = token,
                                              .payload_kind = 0,
                                              .payload_aux = 0}));
  }
};

TEST(LoopbackChaos, HandshakeReplayAndUnknownClientClose) {
  LoopbackRun run("fedavg");
  run.server->start();

  ScriptedPeer replayer(run.net, 100);
  ASSERT_TRUE(replayer.endpoint.connect());
  ASSERT_TRUE(replayer.hello(0));
  run.net.step(0.0);
  ASSERT_TRUE(replayer.endpoint.connected());
  ASSERT_TRUE(replayer.hello(0));  // second Hello on a bound session
  run.net.step(0.0);
  ASSERT_EQ(replayer.closes.size(), 1u);
  EXPECT_NE(replayer.closes[0].find("handshake replay"), std::string::npos);

  ScriptedPeer stranger(run.net, 101);
  ASSERT_TRUE(stranger.endpoint.connect());
  ASSERT_TRUE(stranger.hello(4242));  // not a populated client id
  run.net.step(0.0);
  ASSERT_EQ(stranger.closes.size(), 1u);
  EXPECT_NE(stranger.closes[0].find("unknown client"), std::string::npos);

  ScriptedPeer eager(run.net, 102);
  ASSERT_TRUE(eager.endpoint.connect());
  ASSERT_TRUE(eager.endpoint.send(
      FrameType::kUpload,
      transport::encode(transport::UploadMsg{.dispatch_index = 0})));
  run.net.step(0.0);
  ASSERT_EQ(eager.closes.size(), 1u);
  EXPECT_NE(eager.closes[0].find("handshake"), std::string::npos);

  ScriptedPeer garbled(run.net, 103);
  ASSERT_TRUE(garbled.endpoint.connect());
  ASSERT_TRUE(garbled.endpoint.send(FrameType::kHello, some_body(3, 14)));
  run.net.step(0.0);
  ASSERT_EQ(garbled.closes.size(), 1u);
  EXPECT_NE(garbled.closes[0].find("malformed hello"), std::string::npos);
}

TEST(LoopbackChaos, SlowlorisReadDeadlineEvicts) {
  LoopbackRun run("fedavg");
  run.server->start();
  ScriptedPeer silent(run.net, 104);
  ASSERT_TRUE(silent.endpoint.connect());  // connects, never says Hello
  run.net.step(0.0);
  run.net.advance_time(transport::TransportLimits{}.read_deadline_seconds +
                       1.0);
  ASSERT_EQ(silent.closes.size(), 1u);
  EXPECT_NE(silent.closes[0].find("read deadline exceeded"),
            std::string::npos);
}

TEST(LoopbackChaos, BackpressureRefusesParksAndDrains) {
  // Transport-level backpressure: shrink one session's send ring so a
  // server send refuses, then watch on_drain fire once the stalled reader
  // resumes. Uses a scripted handler on the server side.
  struct RecordingHandler : transport::ServerTransport::Handler {
    std::vector<SessionId> opened, drained;
    std::vector<std::pair<SessionId, std::string>> closed;
    void on_open(SessionId s) override { opened.push_back(s); }
    void on_frame(SessionId, Frame&&) override {}
    void on_close(SessionId s, const std::string& r) override {
      closed.emplace_back(s, r);
    }
    void on_drain(SessionId s) override { drained.push_back(s); }
  };
  // Short write deadline so the eviction half below can advance past it
  // without also tripping the (longer) read deadline.
  transport::TransportLimits limits;
  limits.write_deadline_seconds = 5.0;
  transport::LoopbackTransport net{limits};
  RecordingHandler handler;
  net.set_handler(&handler);
  ScriptedPeer peer(net, 105);
  ASSERT_TRUE(peer.endpoint.connect());
  ASSERT_EQ(handler.opened.size(), 1u);
  const SessionId session = handler.opened[0];

  peer.endpoint.pause();  // stalled reader: ring can only fill
  const auto body = some_body(100, 15);
  const std::size_t wire = transport::frame_wire_size(body.size());
  net.set_session_send_capacity(session, 2 * wire);
  ASSERT_TRUE(net.send(session, FrameType::kDispatch, body));
  ASSERT_TRUE(net.send(session, FrameType::kDispatch, body));
  EXPECT_FALSE(net.send(session, FrameType::kDispatch, body));  // full
  EXPECT_EQ(net.send_space(session), 0u);
  EXPECT_TRUE(handler.drained.empty());

  peer.endpoint.unpause();  // reader resumes; ring drains fully
  net.step(0.0);
  ASSERT_EQ(handler.drained.size(), 1u);
  EXPECT_EQ(handler.drained[0], session);
  EXPECT_EQ(peer.frames.size(), 2u);
  ASSERT_TRUE(net.send(session, FrameType::kDispatch, body));  // usable again

  // And the eviction half: refuse again, never drain, advance past the
  // write deadline.
  peer.endpoint.pause();
  ASSERT_TRUE(net.send(session, FrameType::kDispatch, body));
  EXPECT_FALSE(net.send(session, FrameType::kDispatch, body));
  net.advance_time(limits.write_deadline_seconds + 1.0);
  ASSERT_EQ(handler.closed.size(), 1u);
  EXPECT_NE(handler.closed[0].second.find("write deadline exceeded"),
            std::string::npos);
}

TEST(LoopbackChaos, CrashAndResumeReproducesTrajectory) {
  // Kill the server (destroy runtime + transport) mid-run, after a
  // commit-boundary checkpoint, bring up a fresh server with resume and
  // fresh clients (their caches are cold — retraining is deterministic),
  // and require the final trajectory byte-identical to an uninterrupted
  // run of the same configuration.
  //
  // The loopback delivers synchronously, so an all-alive fleet cascades
  // through every round inside one step() — there is no "mid-run" to crash
  // in. A dead client plus a dispatch deadline paces the run instead: each
  // wave containing the dead client stalls until advance_time() fires the
  // abandon, so rounds commit one deadline at a time and the crash lands
  // between commits.
  constexpr std::size_t kDead = 3;
  transport::TransportServerConfig chaos;
  chaos.dispatch_deadline_seconds = 5.0;

  LoopbackRun uninterrupted("fedbiad", chaos, kDead);
  const auto full = uninterrupted.drive(/*advance_dt=*/1.0);
  expect_conserved(full);
  const std::string want = tools::trajectory_text(full.sim);

  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "transport_ckpt")
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  std::size_t crash_round = 0;
  {
    transport::TransportServerConfig scfg = chaos;
    scfg.checkpoint.directory = dir;
    scfg.checkpoint.every_rounds = 1;
    LoopbackRun run("fedbiad", scfg, kDead);
    run.server->start();
    for (auto& c : run.clients) c->start();
    std::size_t guard = 0;
    while (run.server->rounds_completed() < 1 && ++guard < 10000) {
      run.net.step(0.0);
      for (auto& c : run.clients) c->pump(0.0);
      run.net.advance_time(1.0);
    }
    crash_round = run.server->rounds_completed();
    ASSERT_GE(crash_round, 1u);
    ASSERT_LT(crash_round, run.w.sim.rounds) << "nothing left to resume";
    // Scope exit = SIGKILL: no finish(), no Fin, sessions just vanish.
  }

  transport::TransportServerConfig scfg = chaos;
  scfg.checkpoint.directory = dir;
  scfg.checkpoint.every_rounds = 1;
  scfg.checkpoint.resume = true;
  LoopbackRun resumed("fedbiad", scfg, kDead);
  const auto result = resumed.drive(/*advance_dt=*/1.0);
  expect_conserved(result);
  EXPECT_EQ(result.sim.rounds.size(), resumed.w.sim.rounds);
  EXPECT_EQ(tools::trajectory_text(result.sim), want);
  std::filesystem::remove_all(dir);
}

// --- decode-on-arrival worker pool ----------------------------------------

TEST(DecodeWorkers, TrajectoryBitIdenticalAcrossWorkerCounts) {
  // The tentpole contract: moving verify+decode onto 1, 2, or 4 pool
  // workers must not move a single byte of the trajectory relative to the
  // single-threaded engine, in either aggregation style.
  for (const char* method : {"fedavg", "fedbiad"}) {
    const auto w = tools::make_demo_workload(method, true);
    const std::string want =
        tools::trajectory_text(tools::reference_run(w, method));
    for (const std::size_t workers :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      transport::TransportServerConfig scfg;
      scfg.decode_workers = workers;
      LoopbackRun run(method, scfg);
      const auto result = run.drive();
      expect_conserved(result);
      EXPECT_EQ(tools::trajectory_text(result.sim), want)
          << method << " with " << workers << " decode workers";
      for (auto& c : run.clients) EXPECT_TRUE(c->finished());
    }
  }
}

TEST(DecodeWorkers, FullQueueParksThenDrainsBitIdentically) {
  // One worker and a depth-1 queue: within a single loopback drain several
  // uploads land back to back, so all but the first must park — and the
  // scheduler tick must resubmit them in arrival order. The trajectory
  // still may not drift from the inline reference.
  const auto w = tools::make_demo_workload("fedavg", true);
  const std::string want =
      tools::trajectory_text(tools::reference_run(w, "fedavg"));
  transport::TransportServerConfig scfg;
  scfg.decode_workers = 1;
  scfg.decode_queue_depth = 1;
  LoopbackRun run("fedavg", scfg);
  const auto result = run.drive();
  expect_conserved(result);
  EXPECT_EQ(tools::trajectory_text(result.sim), want);
  EXPECT_GT(result.decode_parked, 0u) << "depth-1 queue never filled";
  EXPECT_EQ(result.decode_shed, 0u);
}

TEST(DecodeWorkers, ParkedOverflowShedsSessionsAndStillConserves) {
  // max_parked_uploads = 0 turns every park into a shed: the submitting
  // session is closed with a rejected-delivery charge and the client must
  // reconnect and resend from its cache. The run still completes every
  // round and the conservation ledger still balances exactly.
  transport::TransportServerConfig scfg;
  scfg.decode_workers = 1;
  scfg.decode_queue_depth = 1;
  scfg.max_parked_uploads = 0;
  LoopbackRun run("fedavg", scfg);
  const auto result = run.drive();
  expect_conserved(result);
  EXPECT_GT(result.decode_shed, 0u);
  EXPECT_GT(result.sim.total_rejected_deliveries, 0u);
  EXPECT_GT(result.sim.total_rejected_bytes, 0u);
  EXPECT_EQ(result.sim.rounds.size(), run.w.sim.rounds);
  for (auto& c : run.clients) EXPECT_TRUE(c->finished());
}

TEST(DecodeWorkers, CorruptUploadsChargeAndRetryFromTheWorkerPath) {
  // The worker path must reproduce the inline rejection machinery exactly:
  // a corrupt payload detected on a pool worker still burns a delivery
  // attempt, still charges the rejected ledgers, and still Rejects with
  // retry until max_upload_attempts terminally rejects the dispatch.
  transport::TransportServerConfig scfg;
  scfg.max_upload_attempts = 2;
  scfg.decode_workers = 2;
  LoopbackRun run("fedavg", scfg, SIZE_MAX,
                  [](transport::TransportClientConfig& cfg, std::size_t c) {
                    if (c == 1) cfg.corrupt_probability = 1.0;
                  });
  const auto result = run.drive();
  expect_conserved(result);
  EXPECT_GT(result.sim.total_rejected, 0u);
  EXPECT_GE(result.sim.total_rejected_deliveries,
            result.sim.total_rejected * 2);
  EXPECT_GT(result.sim.total_rejected_bytes, 0u);
  EXPECT_EQ(result.sim.total_committed + result.sim.total_rejected,
            result.sim.total_dispatched);
}

TEST(DecodeWorkers, ResendAfterDisconnectDedupsAtFinishTime) {
  // Worker-vs-transport interleaving: client 2 drops right after its first
  // upload, reconnects, and resends from its cache — so the duplicate can
  // already be sitting decoded in the queue when the original finishes.
  // The dedup check runs at finish time in arrival order, so the duplicate
  // is charged and Ack'd, never aggregated, and the trajectory stays
  // byte-identical to the undisturbed reference.
  const auto w = tools::make_demo_workload("fedbiad", true);
  const std::string want =
      tools::trajectory_text(tools::reference_run(w, "fedbiad"));
  transport::TransportServerConfig scfg;
  scfg.decode_workers = 2;
  LoopbackRun run("fedbiad", scfg, SIZE_MAX,
                  [](transport::TransportClientConfig& cfg, std::size_t c) {
                    if (c == 2) cfg.drop_connection_after_uploads = 1;
                  });
  const auto result = run.drive();
  expect_conserved(result);
  EXPECT_EQ(tools::trajectory_text(result.sim), want);
  EXPECT_GE(result.sessions_resumed, 1u);
}

TEST(DecodeWorkers, DeadlineAbandonsMatchInlineUnderWorkers) {
  // Deadline coupling: decodes in flight belong to the past, so the tick
  // hook must finish them before a later virtual-time deadline can abandon
  // their dispatches. Same dead client, same deadline — the worker run
  // must land on the identical trajectory the inline run produces.
  transport::TransportServerConfig scfg;
  scfg.dispatch_deadline_seconds = 5.0;
  LoopbackRun inline_run("fedavg", scfg, /*skip_client=*/3);
  const auto inline_result = inline_run.drive(/*advance_dt=*/1.0);
  expect_conserved(inline_result);
  ASSERT_GT(inline_result.sim.total_abandoned, 0u);

  scfg.decode_workers = 2;
  LoopbackRun worker_run("fedavg", scfg, /*skip_client=*/3);
  const auto result = worker_run.drive(/*advance_dt=*/1.0);
  expect_conserved(result);
  EXPECT_EQ(tools::trajectory_text(result.sim),
            tools::trajectory_text(inline_result.sim));
  EXPECT_EQ(result.sim.total_abandoned, inline_result.sim.total_abandoned);
}

// --- epoll TCP backend ----------------------------------------------------

// Clients on their own threads, and the server's worker pool at 1, 4 and 7
// threads: those workers decode uploads and, with the transport thread,
// split every commit's aggregate and evaluation kernels.
TEST(Tcp, EndToEndMatchesEngineAcrossThreads) {
  const auto w = tools::make_demo_workload("fedavg", true);
  const std::string want =
      tools::trajectory_text(tools::reference_run(w, "fedavg"));

  for (const std::size_t workers : {1u, 4u, 7u}) {
    SCOPED_TRACE("decode_workers " + std::to_string(workers));
    transport::TransportServerConfig scfg;
    scfg.base = w.sim;
    scfg.scenario_name = "tcp";
    scfg.decode_workers = workers;
    transport::EpollServerTransport net({}, 0);
    const std::uint16_t port = net.port();
    transport::ServerRuntime server(scfg, net, w.factory, w.test, w.partition,
                                    tools::make_demo_strategy("fedavg"));

    std::vector<std::thread> threads;
    std::vector<int> status(w.partition.size(), -1);
    for (std::size_t c = 0; c < w.partition.size(); ++c) {
      if (w.partition[c].empty()) continue;
      threads.emplace_back([&, c] {
        transport::TransportClientConfig ccfg;
        ccfg.client_id = c;
        ccfg.base = w.sim;
        ccfg.payload_kind = w.payload_kind;
        ccfg.reconnect_timeout_seconds = 30.0;
        transport::TcpClientTransport tcp("127.0.0.1", port);
        transport::ClientRuntime runtime(ccfg, tcp, w.factory, w.train,
                                         w.partition[c],
                                         tools::make_demo_strategy("fedavg"));
        status[c] = runtime.run() ? 0 : 1;
      });
    }
    const auto result = server.run();
    for (auto& t : threads) t.join();
    expect_conserved(result);
    EXPECT_EQ(tools::trajectory_text(result.sim), want);
    for (std::size_t c = 0; c < w.partition.size(); ++c) {
      if (!w.partition[c].empty()) EXPECT_EQ(status[c], 0) << "client " << c;
    }
  }
}

TEST(Tcp, GarbageAndOversizedStreamsAreClosed) {
  struct RecordingHandler : transport::ServerTransport::Handler {
    std::vector<SessionId> opened;
    std::vector<std::pair<SessionId, std::string>> closed;
    void on_open(SessionId s) override { opened.push_back(s); }
    void on_frame(SessionId, Frame&&) override {}
    void on_close(SessionId s, const std::string& r) override {
      closed.emplace_back(s, r);
    }
    void on_drain(SessionId) override {}
  };
  transport::EpollServerTransport net({}, 0);
  RecordingHandler handler;
  net.set_handler(&handler);

  auto dial = [&net] {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(net.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
    return fd;
  };

  // Raw garbage: not even a plausible frame.
  const int garbage_fd = dial();
  const auto junk = some_body(64, 16);
  ASSERT_EQ(::send(garbage_fd, junk.data(), junk.size(), 0),
            static_cast<ssize_t>(junk.size()));
  std::size_t guard = 0;
  while (handler.closed.size() < 1 && ++guard < 200) net.step(0.05);
  ASSERT_EQ(handler.closed.size(), 1u);
  EXPECT_NE(handler.closed[0].second.find("framing error"), std::string::npos);
  ::close(garbage_fd);

  // A 4GiB length announcement: rejected at the prefix.
  const int huge_fd = dial();
  const std::uint8_t huge[5] = {0xFF, 0xFF, 0xFF, 0xFF, 0x01};
  ASSERT_EQ(::send(huge_fd, huge, sizeof huge, 0),
            static_cast<ssize_t>(sizeof huge));
  guard = 0;
  while (handler.closed.size() < 2 && ++guard < 200) net.step(0.05);
  ASSERT_EQ(handler.closed.size(), 2u);
  EXPECT_NE(handler.closed[1].second.find("framing error"), std::string::npos);
  ::close(huge_fd);
}

/// Upper end of the kernel's TCP send-buffer autotuning (tcp_wmem max), or
/// the common 4 MiB default when the sysctl cannot be read.
std::size_t tcp_wmem_max() {
  std::ifstream in("/proc/sys/net/ipv4/tcp_wmem");
  std::size_t lo = 0;
  std::size_t def = 0;
  std::size_t hi = 0;
  if (in >> lo >> def >> hi && hi > 0) return hi;
  return std::size_t{4} << 20;
}

// A peer that is not reading: the first frame is larger than anything the
// kernel will buffer, so send() hands over what it can and parks only the
// remainder; a frame that cannot fit the ring's free space is refused; a
// small frame queues behind the remainder. Once the peer reads, on_drain
// fires exactly once (a frame sent from it takes the empty-ring path), and
// the peer's byte stream is append_frame of each accepted frame in order.
TEST(Tcp, PartialSendParksRemainderAndDrainsByteExact) {
  const std::size_t big_body = 2 * tcp_wmem_max() + (1u << 20);
  transport::TransportLimits limits;
  limits.send_buffer_bytes = 2 * transport::frame_wire_size(big_body);
  transport::EpollServerTransport net(limits, 0);

  struct DrainHandler : transport::ServerTransport::Handler {
    std::vector<SessionId> opened;
    std::size_t drains = 0;
    std::function<void(SessionId)> on_drained;
    void on_open(SessionId s) override { opened.push_back(s); }
    void on_frame(SessionId, Frame&&) override {}
    void on_close(SessionId, const std::string&) override {}
    void on_drain(SessionId s) override {
      ++drains;
      if (on_drained) on_drained(s);
    }
  };
  DrainHandler handler;
  net.set_handler(&handler);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int small = 16 << 10;  // keep the peer's receive window small
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &small, sizeof small), 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(net.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  for (int i = 0; i < 200 && handler.opened.empty(); ++i) net.step(0.01);
  ASSERT_EQ(handler.opened.size(), 1u);
  const SessionId s = handler.opened[0];
  const std::size_t capacity = limits.send_buffer_bytes;
  ASSERT_EQ(net.send_space(s), capacity);

  std::vector<std::uint8_t> want;
  const auto big = some_body(big_body, 60);
  ASSERT_TRUE(net.send(s, FrameType::kDispatch, big));
  transport::append_frame(want, FrameType::kDispatch, big);
  const std::size_t parked = capacity - net.send_space(s);
  EXPECT_GT(parked, 0u);
  EXPECT_LT(parked, transport::frame_wire_size(big_body));

  // One byte more than the free space: refused whole, nothing queued.
  const std::vector<std::uint8_t> too_big(
      net.send_space(s) - transport::kFrameOverheadBytes + 1, 0xAB);
  EXPECT_FALSE(net.send(s, FrameType::kDispatch, too_big));
  EXPECT_EQ(capacity - net.send_space(s), parked);

  // Queued behind the remainder; the flush it triggers may hand the kernel
  // a little more if acks freed send-buffer space meanwhile.
  const auto ack = transport::encode(transport::UploadAckMsg{7});
  ASSERT_TRUE(net.send(s, FrameType::kUploadAck, ack));
  transport::append_frame(want, FrameType::kUploadAck, ack);
  EXPECT_LE(capacity - net.send_space(s),
            parked + transport::frame_wire_size(ack.size()));
  EXPECT_GT(capacity - net.send_space(s), 0u);

  const auto fin = transport::encode(transport::FinMsg{3});
  handler.on_drained = [&](SessionId session) {
    ASSERT_EQ(net.send_space(session), capacity);
    ASSERT_TRUE(net.send(session, FrameType::kFin, fin));
    transport::append_frame(want, FrameType::kFin, fin);
  };

  std::vector<std::uint8_t> got;
  std::vector<std::uint8_t> buf(1 << 16);
  const std::size_t expect_bytes =
      want.size() + transport::frame_wire_size(fin.size());
  for (int i = 0; i < 20'000 && got.size() < expect_bytes; ++i) {
    const ssize_t n = ::recv(fd, buf.data(), buf.size(), MSG_DONTWAIT);
    if (n > 0) {
      got.insert(got.end(), buf.begin(), buf.begin() + n);
    } else {
      net.step(0.001);
    }
  }
  ::close(fd);
  EXPECT_EQ(handler.drains, 1u);
  EXPECT_EQ(got.size(), want.size());
  EXPECT_TRUE(got == want);
}

}  // namespace
}  // namespace fedbiad
