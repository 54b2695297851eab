// Federated server running behind a ServerTransport: fl::ServerCore
// driven by sessions instead of a virtual clock.
//
// The core (fl/server_core.hpp) makes every server decision — selection
// with its rng and idle set, wave and slot bookkeeping, the conservation
// ledgers, the commit (fused slot-ordered aggregate or staleness merge,
// end_round/begin_round, the RoundRecord, evaluation, the dense-f32
// broadcast) and the checkpoint fields — the same code fl::AsyncSimulation
// drives, so a run over TCP produces a trajectory bit-identical to the
// in-process engine and Strategy code runs unchanged. The core hands this
// runtime each chosen client through launch(); the runtime reports back
// one event per dispatch (upload accepted, abandoned at its deadline,
// terminally rejected) plus every dropped delivery.
//
// What the runtime keeps is the transport side:
//
//   Hello → Welcome        bind a connection to a client id; a token from
//                          a previous Welcome resumes the session, and a
//                          reconnect supersedes (closes) the old one.
//   Dispatch → Upload      one in-flight record per launched client, keyed
//                          by the global dispatch index. Stale or duplicate
//                          indices (a client re-sending after reconnect)
//                          are charged as rejected deliveries and Ack'd,
//                          never aggregated — at-most-once commit by
//                          construction.
//   Upload → Ack/Reject    payloads arrive CRC-sealed; try_decode rejects
//                          corrupt ones with connection context, retryable
//                          until max_upload_attempts, then the dispatch is
//                          terminally rejected.
//   deadline → abandon     a dispatch with no accepted upload within
//                          dispatch_deadline_seconds is abandoned — the
//                          churn path for clients that died and never came
//                          back.
//   backpressure           a refused transport send parks the message (the
//                          dispatch stays unsent, control frames queue) and
//                          retries on on_drain; a session whose control
//                          queue overflows is closed — load is shed before
//                          memory grows.
//   decode workers         with decode_workers > 0, sealed uploads are
//                          verified and decoded on worker threads off the
//                          transport thread and finished — in arrival
//                          order — at the transport's scheduler tick, so
//                          trajectories are bit-identical to the inline
//                          path at any worker count. A full decode queue
//                          parks arrivals exactly like a full send ring;
//                          overflow sheds the submitting session. The
//                          same threads join the transport thread in the
//                          commit kernels.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "checkpoint/checkpoint.hpp"
#include "data/partition.hpp"
#include "fl/async_simulation.hpp"
#include "fl/metrics.hpp"
#include "fl/server_core.hpp"
#include "fl/strategy.hpp"
#include "nn/model.hpp"
#include "parallel/ordered_results.hpp"
#include "parallel/thread_pool.hpp"
#include "transport/clock.hpp"
#include "transport/protocol.hpp"
#include "transport/transport.hpp"

namespace fedbiad::transport {

struct TransportServerConfig {
  fl::SimulationConfig base;
  fl::AggregationMode mode = fl::AggregationMode::kBarrier;
  fl::StalenessConfig staleness;
  std::size_t buffer_size = 4;  ///< K for kBufferedK
  /// Commit-boundary checkpoints (barrier mode only: its commit boundary
  /// has no in-flight work, so a snapshot needs no job/event state and
  /// resume replays the wave from the restored rng).
  checkpoint::CheckpointConfig checkpoint;
  /// Abandon a dispatch with no accepted upload after this long (0 = wait
  /// forever — only safe when every client is expected to survive).
  double dispatch_deadline_seconds = 0.0;
  /// Delivery attempts per dispatch before terminal rejection.
  std::size_t max_upload_attempts = 3;
  /// Parked control frames per session before the session is shed.
  std::size_t max_parked_control = 64;
  /// Worker threads that decode uploads on arrival and join the transport
  /// thread in commit kernels. 0 runs both inline on the transport thread;
  /// any positive count produces bit-identical trajectories.
  std::size_t decode_workers = 0;
  /// Uploads in flight on the decode workers before arrivals park
  /// (0 = 2 × decode_workers).
  std::size_t decode_queue_depth = 0;
  /// Parked uploads (decode queue full) before the submitting session is
  /// shed — the decode-side twin of max_parked_control.
  std::size_t max_parked_uploads = 64;
  std::string scenario_name = "transport";
};

struct TransportServerResult {
  fl::SimulationResult sim;
  std::size_t backpressure_deferrals = 0;  ///< refused sends, later retried
  std::size_t sessions_opened = 0;   ///< successful handshakes
  std::size_t sessions_resumed = 0;  ///< handshakes with a matching token
  std::size_t connections_evicted = 0;  ///< read/write deadline closures
  std::size_t decode_parked = 0;  ///< uploads parked on a full decode queue
  std::size_t decode_shed = 0;    ///< sessions shed on parked-upload overflow

  /// The conservation law the whole ledger hangs on.
  [[nodiscard]] bool conserved() const {
    return sim.total_dispatched == sim.total_committed + sim.total_abandoned +
                                       sim.total_rejected + sim.final_buffered +
                                       sim.final_in_flight;
  }
};

class ServerRuntime final : public ServerTransport::Handler,
                            private fl::ServerCore::Driver {
 public:
  ServerRuntime(TransportServerConfig cfg, ServerTransport& transport,
                nn::ModelFactory factory, data::DatasetPtr test_data,
                data::Partition partition, fl::StrategyPtr strategy);

  /// Resumes from a checkpoint when configured, then dispatches the first
  /// wave.
  void start();

  /// True once every configured round has committed.
  [[nodiscard]] bool done() const noexcept { return core_.done(); }

  /// Runs one transport slice (deliver frames, fire deadlines).
  void pump(double max_wait_seconds) { transport_.step(max_wait_seconds); }

  /// Drains farewell traffic and returns the final result. Call once,
  /// after done(); further pumps are harmless.
  TransportServerResult finish();

  /// start() + pump until done() + finish().
  TransportServerResult run();

  [[nodiscard]] std::size_t rounds_completed() const noexcept {
    return core_.version();
  }

  // ServerTransport::Handler
  void on_open(SessionId session) override;
  void on_frame(SessionId session, Frame&& frame) override;
  void on_close(SessionId session, const std::string& reason) override;
  void on_drain(SessionId session) override;

 private:
  /// The Dispatch body of one model version, shared by every dispatch of
  /// that version and patched with each one's header just before its send.
  using Broadcast = std::shared_ptr<DispatchFrame>;

  struct InFlight {
    fl::ServerCore::Dispatch dispatch;
    Broadcast broadcast;       ///< the model of the dispatch's version
    std::size_t attempts = 1;  ///< delivery attempts consumed (1-based)
    bool sent = false;         ///< Dispatch actually handed to the transport
    std::unique_ptr<DeadlineTimer> deadline;
  };

  struct Session {
    static constexpr std::size_t kUnbound = static_cast<std::size_t>(-1);
    std::size_t client = kUnbound;
  };

  struct ParkedFrame {
    FrameType type;
    std::vector<std::uint8_t> body;
  };

  /// One sealed upload: built at frame delivery (capturing the arrival
  /// clock, so timestamps do not depend on when a worker gets to it),
  /// seal-verified and decoded inline or on a worker, then finished on the
  /// transport thread.
  struct DecodeJob {
    SessionId session = 0;
    std::size_t client = 0;
    std::uint64_t dispatch_index = 0;
    std::uint64_t framed_bytes = 0;  ///< on-the-wire payload size, for ledgers
    double arrival_clock = 0.0;      ///< transport now() at frame delivery
    fl::ClientOutcome outcome;       ///< payload in, compact view out
    fl::DecodeStatus status;
  };
  using DecodeQueue = parallel::OrderedResults<std::unique_ptr<DecodeJob>>;

  // fl::ServerCore::Driver
  void launch(const fl::ServerCore::Dispatch& d) override;
  [[nodiscard]] double now() const override { return transport_.now(); }

  void handle_hello(SessionId session, const Frame& frame);
  void handle_upload(SessionId session, const Frame& frame);
  /// Completion half of an upload: dedup check, reject/retry accounting,
  /// ack, and the core event. Runs at delivery time inline
  /// (decode_workers == 0) or at the scheduler tick in arrival order.
  void finish_upload(DecodeJob& job);
  /// Queues the decode of `job` on the workers; false, leaving `job`
  /// untouched, when the decode queue is full.
  [[nodiscard]] bool try_submit_decode(std::unique_ptr<DecodeJob>& job);
  /// Tick hook body: harvests decoded jobs, finishes them in arrival
  /// order, and re-submits parked uploads. Returns true when it did work.
  bool drain_decodes();
  void try_send_dispatch(std::size_t client);
  void broadcast_fin();
  /// send() with parking: a refused frame queues per session and is
  /// retried on on_drain; an overflowing queue sheds the session.
  void send_control(SessionId session, FrameType type,
                    std::vector<std::uint8_t> body);

  TransportServerConfig cfg_;
  ServerTransport& transport_;
  fl::StrategyPtr strategy_;
  std::vector<std::size_t> populated_;  ///< ascending populated client ids
  std::unique_ptr<parallel::ThreadPool> workers_;  ///< null when inline
  fl::ServerCore core_;

  /// Decodes on workers_, delivered in submission (= arrival) order; null
  /// when decoding inline. Workers touch only their own job (the
  /// strategy's decode is const, the layout immutable shape metadata), and
  /// drain_decodes harvests every job before finishing any, so no decode
  /// overlaps a commit. Its destructor waits for jobs still running.
  std::unique_ptr<DecodeQueue> decodes_;
  /// Arrivals refused by a full decode queue, in arrival order. Once
  /// anything is parked, every later upload parks behind it so finish
  /// order stays arrival order.
  std::deque<std::unique_ptr<DecodeJob>> parked_uploads_;
  bool draining_decodes_ = false;  ///< reentrancy guard for drain_decodes

  std::unordered_map<std::size_t, InFlight> inflight_;  ///< by client id
  Broadcast broadcast_;  ///< Dispatch body of broadcast_version_
  std::size_t broadcast_version_ = 0;

  std::unordered_map<SessionId, Session> sessions_;
  std::unordered_map<std::size_t, SessionId> client_session_;
  std::unordered_map<std::size_t, std::uint64_t> issued_token_;
  /// Per-client payload metadata from the first Hello; later handshakes
  /// must agree (a strategy's encoding is session-scoped, not per-message).
  std::unordered_map<std::size_t, std::pair<std::uint8_t, std::uint8_t>> meta_;
  std::unordered_map<SessionId, std::deque<ParkedFrame>> parked_;
  std::uint64_t token_counter_ = 0;
  bool fin_broadcast_ = false;

  TransportServerResult result_;
};

}  // namespace fedbiad::transport
