#include "fl/strategy.hpp"

#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "wire/reader.hpp"

namespace fedbiad::fl {

wire::CompactUpdate Strategy::decode_payload_compact(
    const nn::ParameterStore& layout, const wire::Payload& payload) const {
  return wire::decode_update_compact(layout, payload);
}

wire::Decoded Strategy::decode_payload(const nn::ParameterStore& layout,
                                       const wire::Payload& payload) const {
  return wire::expand(decode_payload_compact(layout, payload));
}

std::vector<std::uint8_t> Strategy::save_state() const { return {}; }

void Strategy::load_state(std::span<const std::uint8_t> bytes) {
  FEDBIAD_CHECK(bytes.empty(),
                "strategy " + name() + " is stateless but was handed a " +
                    std::to_string(bytes.size()) + "-byte state blob");
}

namespace {

// Decoding is a receive step, not a query: it charges the payload's bytes
// to uplink_bytes exactly once. The engines drop the raw payload right
// after decoding (and count abandoned uploads only in the wasted-bytes
// ledger, never here), so a second decode of the same outcome would
// silently re-charge — or, post-drop, zero — the measured traffic.
void expect_undecoded(const ClientOutcome& out) {
  FEDBIAD_CHECK(out.compact.empty(),
                "outcome already decoded — uplink bytes would double-count");
}

/// Decodes through the strategy's hook and charges `wire_size` once.
void receive(const Strategy& strategy, const nn::ParameterStore& layout,
             ClientOutcome& out, std::uint64_t wire_size) {
  wire::CompactUpdate compact =
      strategy.decode_payload_compact(layout, out.payload);
  FEDBIAD_CHECK(compact.size() == layout.size() && !compact.empty(),
                "decoded update does not match the model layout");
  out.compact = std::move(compact);
  out.uplink_bytes = wire_size;
}

}  // namespace

void decode_outcome_compact(const Strategy& strategy,
                            const nn::ParameterStore& layout,
                            ClientOutcome& out) {
  expect_undecoded(out);
  receive(strategy, layout, out, out.payload.size());
}

DecodeStatus try_decode_outcome_compact(const Strategy& strategy,
                                        const nn::ParameterStore& layout,
                                        ClientOutcome& out, bool framed,
                                        const DecodeContext& ctx) {
  expect_undecoded(out);
  const std::uint64_t wire_size = out.payload.size();
  auto wrap = [&ctx](const char* what) {
    std::ostringstream os;
    os << "upload from client " << ctx.client_id << " (dispatch "
       << ctx.dispatch_seq << ", t=" << ctx.clock << "s) rejected: " << what;
    return os.str();
  };
  try {
    // strip_seal mutates the payload only after the trailer verifies, and a
    // later section-decoder failure discards the payload anyway, so the
    // in-place strip never leaves a half-consumed frame in play.
    if (framed) wire::strip_seal(out.payload);
    receive(strategy, layout, out, wire_size);
    return {};
  } catch (const wire::DecodeError& e) {
    return {false, wrap(e.what())};
  } catch (const CheckError& e) {
    return {false, wrap(e.what())};
  }
}

}  // namespace fedbiad::fl
