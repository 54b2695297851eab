// Forwarding decorators the benchmark puts around the library's public
// interfaces. Each forwards every virtual unchanged to the wrapped object,
// so a decorated run is the undecorated run (the self-tests pin this byte
// for byte); around the calls it takes the end-to-end timestamps every rep
// needs and, in traced reps, one span per call.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "fl/strategy.hpp"
#include "tracer.hpp"
#include "transport/transport.hpp"

namespace perfbench {

/// The end-to-end clock of one rep: first dispatch, commits, and
/// upload → ack latencies, all in seconds since the process started.
/// `tracer` is null in untraced reps.
class Probe {
 public:
  Probe(Clock::time_point process_start, Tracer* tracer)
      : process_start_(process_start), tracer_(tracer) {}

  [[nodiscard]] double elapsed() const {
    return seconds_between(process_start_, Clock::now());
  }
  [[nodiscard]] Tracer* tracer() const { return tracer_; }

  /// The first call fixes the end of set-up.
  void mark_dispatch(double t) {
    if (!first_dispatch_) first_dispatch_ = t;
  }
  void mark_commit(double t) { commits_.push_back(t); }
  /// Upload left the client (any thread); `key` identifies the upload.
  void upload_sent(std::uint64_t key, double t);
  /// The server took the upload with this key (any thread).
  void upload_acked(std::uint64_t key, double t);
  /// A latency measured elsewhere (the load generator).
  void add_ack(double seconds);

  [[nodiscard]] std::optional<double> first_dispatch() const {
    return first_dispatch_;
  }
  [[nodiscard]] const std::vector<double>& commits() const { return commits_; }
  /// Latencies recorded so far; call once the recording threads stopped.
  [[nodiscard]] const std::vector<double>& acks() const { return acks_; }
  /// Uploads sent that never got an ack.
  [[nodiscard]] std::size_t unacked() const;

 private:
  Clock::time_point process_start_;
  Tracer* tracer_;
  std::optional<double> first_dispatch_;
  std::vector<double> commits_;
  mutable std::mutex ack_mutex_;  // guards sent_ and acks_
  std::unordered_multimap<std::uint64_t, double> sent_;
  std::vector<double> acks_;
};

/// fl::Strategy decorator. Spans: client.run_client (worker threads),
/// wire.decode (arg = payload bytes), fl.begin_round / fl.end_round and
/// fl.commit_gap (end_round returning → next begin_round) on the engine
/// thread. The first begin_round marks the first dispatch and every
/// end_round a commit. With `track_acks`, each upload is keyed by the
/// CRC32C of its bytes from run_client's return to its decode.
class TracedStrategy final : public fedbiad::fl::Strategy {
 public:
  TracedStrategy(fedbiad::fl::StrategyPtr inner, Probe& probe,
                 bool track_acks);

  [[nodiscard]] std::string name() const override;
  fedbiad::fl::ClientOutcome run_client(
      fedbiad::fl::ClientContext& ctx) override;
  [[nodiscard]] fedbiad::wire::Decoded decode_payload(
      const fedbiad::nn::ParameterStore& layout,
      const fedbiad::wire::Payload& payload) const override;
  [[nodiscard]] fedbiad::wire::CompactUpdate decode_payload_compact(
      const fedbiad::nn::ParameterStore& layout,
      const fedbiad::wire::Payload& payload) const override;
  void begin_round(std::size_t round,
                   std::span<const float> global_params) override;
  void end_round(std::size_t round, std::span<const float> old_global,
                 std::span<const float> new_global) override;
  [[nodiscard]] fedbiad::fl::AggregationRule aggregation_rule() const override;
  [[nodiscard]] std::uint64_t downlink_bytes(
      std::size_t param_count) const override;
  [[nodiscard]] double compute_cost_multiplier() const override;
  [[nodiscard]] std::vector<std::uint8_t> save_state() const override;
  void load_state(std::span<const std::uint8_t> bytes) override;

 private:
  fedbiad::fl::StrategyPtr inner_;
  Probe& probe_;
  bool track_acks_;
  std::optional<double> end_round_returned_;  ///< tracer clock
};

/// transport::ServerTransport + Handler decorator: sits between the
/// server runtime and the real transport. Spans: transport.step,
/// transport.tick, transport.send (arg = wire bytes) or
/// transport.send_refused, transport.close, and one span per handler
/// callback — transport.on_upload (arg = dispatch index) for Upload
/// frames, transport.on_frame for the others, transport.on_open /
/// on_close / on_drain. The first Dispatch handed to the real transport
/// marks the first dispatch.
class TracedServerTransport final
    : public fedbiad::transport::ServerTransport,
      private fedbiad::transport::ServerTransport::Handler {
 public:
  TracedServerTransport(fedbiad::transport::ServerTransport& inner,
                        Probe& probe);

  void set_handler(fedbiad::transport::ServerTransport::Handler* handler)
      override;
  void set_tick_hook(std::function<bool()> hook) override;
  [[nodiscard]] bool send(fedbiad::transport::SessionId session,
                          fedbiad::transport::FrameType type,
                          std::span<const std::uint8_t> body) override;
  [[nodiscard]] std::size_t send_space(
      fedbiad::transport::SessionId session) const override;
  void close(fedbiad::transport::SessionId session,
             const std::string& reason) override;
  void step(double max_wait_seconds) override;
  [[nodiscard]] fedbiad::fl::EventScheduler& scheduler() override;
  [[nodiscard]] double now() const override;
  [[nodiscard]] const char* name() const override;

 private:
  void on_open(fedbiad::transport::SessionId session) override;
  void on_frame(fedbiad::transport::SessionId session,
                fedbiad::transport::Frame&& frame) override;
  void on_close(fedbiad::transport::SessionId session,
                const std::string& reason) override;
  void on_drain(fedbiad::transport::SessionId session) override;

  fedbiad::transport::ServerTransport& inner_;
  Probe& probe_;
  fedbiad::transport::ServerTransport::Handler* handler_ = nullptr;
};

/// Little-endian u64 at the front of a message body: the dispatch index of
/// Dispatch and Upload bodies (transport/protocol.cpp writes it first).
[[nodiscard]] std::uint64_t leading_u64(std::span<const std::uint8_t> body);

}  // namespace perfbench
