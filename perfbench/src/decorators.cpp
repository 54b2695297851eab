#include "decorators.hpp"

#include <cstring>
#include <utility>

#include "wire/crc32c.hpp"

namespace perfbench {

namespace fl = fedbiad::fl;
namespace tp = fedbiad::transport;
namespace wire = fedbiad::wire;

void Probe::upload_sent(std::uint64_t key, double t) {
  std::scoped_lock lock(ack_mutex_);
  sent_.emplace(key, t);
}

void Probe::upload_acked(std::uint64_t key, double t) {
  std::scoped_lock lock(ack_mutex_);
  auto it = sent_.find(key);
  if (it == sent_.end()) return;
  acks_.push_back(t - it->second);
  sent_.erase(it);
}

void Probe::add_ack(double seconds) {
  std::scoped_lock lock(ack_mutex_);
  acks_.push_back(seconds);
}

std::size_t Probe::unacked() const {
  std::scoped_lock lock(ack_mutex_);
  return sent_.size();
}

std::uint64_t leading_u64(std::span<const std::uint8_t> body) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8 && i < body.size(); ++i) {
    v |= static_cast<std::uint64_t>(body[i]) << (8 * i);
  }
  return v;
}

namespace {
std::uint64_t payload_key(const wire::Payload& payload) {
  return (static_cast<std::uint64_t>(wire::crc32c(payload.bytes)) << 32) ^
         payload.bytes.size();
}
}  // namespace

// --- TracedStrategy ---------------------------------------------------------

TracedStrategy::TracedStrategy(fl::StrategyPtr inner, Probe& probe,
                               bool track_acks)
    : inner_(std::move(inner)), probe_(probe), track_acks_(track_acks) {}

std::string TracedStrategy::name() const { return inner_->name(); }

fl::ClientOutcome TracedStrategy::run_client(fl::ClientContext& ctx) {
  fl::ClientOutcome out;
  {
    Tracer::Scope span(probe_.tracer(), "client.run_client",
                       (static_cast<std::uint64_t>(ctx.round) << 32) |
                           ctx.client_id);
    out = inner_->run_client(ctx);
  }
  if (track_acks_) probe_.upload_sent(payload_key(out.payload), probe_.elapsed());
  return out;
}

wire::Decoded TracedStrategy::decode_payload(
    const fedbiad::nn::ParameterStore& layout,
    const wire::Payload& payload) const {
  Tracer::Scope span(probe_.tracer(), "wire.decode", payload.size());
  return inner_->decode_payload(layout, payload);
}

wire::CompactUpdate TracedStrategy::decode_payload_compact(
    const fedbiad::nn::ParameterStore& layout,
    const wire::Payload& payload) const {
  if (track_acks_) {
    probe_.upload_acked(payload_key(payload), probe_.elapsed());
  }
  Tracer::Scope span(probe_.tracer(), "wire.decode", payload.size());
  return inner_->decode_payload_compact(layout, payload);
}

void TracedStrategy::begin_round(std::size_t round,
                                 std::span<const float> global_params) {
  probe_.mark_dispatch(probe_.elapsed());
  Tracer* tracer = probe_.tracer();
  if (tracer != nullptr && end_round_returned_) {
    tracer->record("fl.commit_gap", *end_round_returned_, tracer->now(), round);
    end_round_returned_.reset();
  }
  Tracer::Scope span(tracer, "fl.begin_round", round);
  inner_->begin_round(round, global_params);
}

void TracedStrategy::end_round(std::size_t round,
                               std::span<const float> old_global,
                               std::span<const float> new_global) {
  probe_.mark_commit(probe_.elapsed());
  Tracer* tracer = probe_.tracer();
  {
    Tracer::Scope span(tracer, "fl.end_round", round);
    inner_->end_round(round, old_global, new_global);
  }
  if (tracer != nullptr) end_round_returned_ = tracer->now();
}

fl::AggregationRule TracedStrategy::aggregation_rule() const {
  return inner_->aggregation_rule();
}

std::uint64_t TracedStrategy::downlink_bytes(std::size_t param_count) const {
  return inner_->downlink_bytes(param_count);
}

double TracedStrategy::compute_cost_multiplier() const {
  return inner_->compute_cost_multiplier();
}

std::vector<std::uint8_t> TracedStrategy::save_state() const {
  return inner_->save_state();
}

void TracedStrategy::load_state(std::span<const std::uint8_t> bytes) {
  inner_->load_state(bytes);
}

// --- TracedServerTransport --------------------------------------------------

TracedServerTransport::TracedServerTransport(tp::ServerTransport& inner,
                                             Probe& probe)
    : inner_(inner), probe_(probe) {}

void TracedServerTransport::set_handler(tp::ServerTransport::Handler* handler) {
  handler_ = handler;
  inner_.set_handler(handler == nullptr ? nullptr : this);
}

void TracedServerTransport::set_tick_hook(std::function<bool()> hook) {
  if (!hook) {
    inner_.set_tick_hook({});
    return;
  }
  inner_.set_tick_hook([this, hook = std::move(hook)] {
    Tracer::Scope span(probe_.tracer(), "transport.tick");
    return hook();
  });
}

bool TracedServerTransport::send(tp::SessionId session, tp::FrameType type,
                                 std::span<const std::uint8_t> body) {
  Tracer* tracer = probe_.tracer();
  const double start = tracer != nullptr ? tracer->now() : 0.0;
  const bool ok = inner_.send(session, type, body);
  if (tracer != nullptr) {
    tracer->record(ok ? "transport.send" : "transport.send_refused", start,
                   tracer->now(), tp::frame_wire_size(body.size()));
  }
  if (ok && type == tp::FrameType::kDispatch) {
    probe_.mark_dispatch(probe_.elapsed());
  }
  return ok;
}

std::size_t TracedServerTransport::send_space(tp::SessionId session) const {
  return inner_.send_space(session);
}

void TracedServerTransport::close(tp::SessionId session,
                                  const std::string& reason) {
  Tracer::Scope span(probe_.tracer(), "transport.close", session);
  inner_.close(session, reason);
}

void TracedServerTransport::step(double max_wait_seconds) {
  Tracer::Scope span(probe_.tracer(), "transport.step");
  inner_.step(max_wait_seconds);
}

fedbiad::fl::EventScheduler& TracedServerTransport::scheduler() {
  return inner_.scheduler();
}

double TracedServerTransport::now() const { return inner_.now(); }

const char* TracedServerTransport::name() const { return inner_.name(); }

void TracedServerTransport::on_open(tp::SessionId session) {
  Tracer::Scope span(probe_.tracer(), "transport.on_open", session);
  handler_->on_open(session);
}

void TracedServerTransport::on_frame(tp::SessionId session, tp::Frame&& frame) {
  const bool upload = frame.type == tp::FrameType::kUpload;
  Tracer::Scope span(probe_.tracer(),
                     upload ? "transport.on_upload" : "transport.on_frame",
                     upload ? leading_u64(frame.body) : session);
  handler_->on_frame(session, std::move(frame));
}

void TracedServerTransport::on_close(tp::SessionId session,
                                     const std::string& reason) {
  Tracer::Scope span(probe_.tracer(), "transport.on_close", session);
  handler_->on_close(session, reason);
}

void TracedServerTransport::on_drain(tp::SessionId session) {
  Tracer::Scope span(probe_.tracer(), "transport.on_drain", session);
  handler_->on_drain(session);
}

}  // namespace perfbench
