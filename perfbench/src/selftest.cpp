// Self-tests for the benchmark's own C++ code (perfbench/run.py runs them
// after each build; the percentile helper is tested in run.py itself):
//
//   1. TracedStrategy forwards every fl::Strategy virtual, with arguments
//      and results unchanged.
//   2. TracedServerTransport forwards every ServerTransport virtual and
//      every Handler callback.
//   3. A decorated, traced FedBIAD run reproduces the undecorated run byte
//      for byte (final parameters and every deterministic round field).
//   4. Every upload the load generator replays decodes on the server to
//      exactly the recorded payload.
//
// Exits 0 when every check holds; prints each failure otherwise.
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>

#include "core/fedbiad_strategy.hpp"
#include "data/text_synth.hpp"
#include "decorators.hpp"
#include "fl/async_simulation.hpp"
#include "nn/lstm_lm_model.hpp"
#include "wire/compact.hpp"
#include "workloads.hpp"

namespace fl = fedbiad::fl;
namespace tp = fedbiad::transport;
namespace wire = fedbiad::wire;
namespace nn = fedbiad::nn;

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

// --- 1. Strategy forwarding -------------------------------------------------

/// Overrides every virtual of fl::Strategy with a distinctive result and a
/// per-method call counter.
class CountingStrategy final : public fl::Strategy {
 public:
  mutable std::map<std::string, int> calls;
  std::vector<std::uint8_t> loaded;

  [[nodiscard]] std::string name() const override {
    ++calls["name"];
    return "counting";
  }
  fl::ClientOutcome run_client(fl::ClientContext& ctx) override {
    ++calls["run_client"];
    fl::ClientOutcome out;
    out.client_id = ctx.client_id + 1000;
    out.payload.bytes = {9, 8, 7};
    return out;
  }
  [[nodiscard]] wire::Decoded decode_payload(
      const nn::ParameterStore&, const wire::Payload& p) const override {
    ++calls["decode_payload"];
    wire::Decoded d;
    d.values.assign(p.bytes.size(), 2.5F);
    return d;
  }
  [[nodiscard]] wire::CompactUpdate decode_payload_compact(
      const nn::ParameterStore&, const wire::Payload& p) const override {
    ++calls["decode_payload_compact"];
    wire::CompactUpdate u;
    u.coords = p.bytes.size() + 40;
    return u;
  }
  void begin_round(std::size_t round, std::span<const float> g) override {
    ++calls["begin_round"];
    last_round = round;
    last_size = g.size();
  }
  void end_round(std::size_t round, std::span<const float> old_g,
                 std::span<const float> new_g) override {
    ++calls["end_round"];
    last_round = round;
    last_size = old_g.size() + new_g.size();
  }
  [[nodiscard]] fl::AggregationRule aggregation_rule() const override {
    ++calls["aggregation_rule"];
    return fl::AggregationRule::kMaskedAverage;
  }
  [[nodiscard]] std::uint64_t downlink_bytes(std::size_t n) const override {
    ++calls["downlink_bytes"];
    return n * 7 + 1;
  }
  [[nodiscard]] double compute_cost_multiplier() const override {
    ++calls["compute_cost_multiplier"];
    return 0.125;
  }
  [[nodiscard]] std::vector<std::uint8_t> save_state() const override {
    ++calls["save_state"];
    return {1, 2, 3};
  }
  void load_state(std::span<const std::uint8_t> bytes) override {
    ++calls["load_state"];
    loaded.assign(bytes.begin(), bytes.end());
  }

  std::size_t last_round = 0;
  std::size_t last_size = 0;
};

void test_strategy_forwarding() {
  auto inner = std::make_shared<CountingStrategy>();
  perfbench::Tracer tracer(perfbench::Clock::now());
  perfbench::Probe probe(perfbench::Clock::now(), &tracer);
  perfbench::TracedStrategy traced(inner, probe, /*track_acks=*/true);

  nn::ParameterStore layout;
  wire::Payload payload;
  payload.bytes = {1, 2, 3, 4};
  const std::vector<float> g(6, 1.0F);
  auto text = fedbiad::data::TextSynthConfig::reddit_like(1);
  text.train_sequences = 4;
  text.test_sequences = 1;
  const auto ds = fedbiad::data::make_text_datasets_iid(text, 1);
  nn::LstmLmModel model({.vocab = text.vocab, .embed = 2, .hidden = 2, .layers = 1});
  const std::vector<std::size_t> shard = {0};
  const fl::TrainSettings settings;
  fl::ClientContext ctx{.client_id = 5, .round = 2, .model = model,
                        .global_params = g, .dataset = *ds.train,
                        .shard = shard, .settings = settings,
                        .rng = fedbiad::tensor::Rng(1)};

  check(traced.name() == "counting", "name() result");
  check(traced.run_client(ctx).client_id == 1005, "run_client() result");
  check(traced.decode_payload(layout, payload).values.size() == 4,
        "decode_payload() result");
  check(traced.decode_payload_compact(layout, payload).coords == 44,
        "decode_payload_compact() result");
  traced.begin_round(3, g);
  check(inner->last_round == 3 && inner->last_size == 6, "begin_round() args");
  traced.end_round(4, g, g);
  check(inner->last_round == 4 && inner->last_size == 12, "end_round() args");
  check(traced.aggregation_rule() == fl::AggregationRule::kMaskedAverage,
        "aggregation_rule() result");
  check(traced.downlink_bytes(3) == 22, "downlink_bytes() result");
  check(traced.compute_cost_multiplier() == 0.125,
        "compute_cost_multiplier() result");
  check(traced.save_state() == std::vector<std::uint8_t>{1, 2, 3},
        "save_state() result");
  const std::vector<std::uint8_t> blob = {4, 5};
  traced.load_state(blob);
  check(inner->loaded == blob, "load_state() args");
  for (const char* m :
       {"name", "run_client", "decode_payload", "decode_payload_compact",
        "begin_round", "end_round", "aggregation_rule", "downlink_bytes",
        "compute_cost_multiplier", "save_state", "load_state"}) {
    check(inner->calls[m] == 1, std::string("Strategy::") + m + " forwarded once");
  }
  check(probe.commits().size() == 1 && probe.first_dispatch().has_value(),
        "round hooks mark dispatch and commit");
}

// --- 2. ServerTransport forwarding ------------------------------------------

class FakeTransport final : public tp::ServerTransport {
 public:
  mutable std::map<std::string, int> calls;
  Handler* handler = nullptr;
  std::function<bool()> tick;
  fl::EventScheduler sched;

  void set_handler(Handler* h) override {
    ++calls["set_handler"];
    handler = h;
  }
  void set_tick_hook(std::function<bool()> hook) override {
    ++calls["set_tick_hook"];
    tick = std::move(hook);
  }
  bool send(tp::SessionId s, tp::FrameType type,
            std::span<const std::uint8_t> body) override {
    ++calls["send"];
    return s == 7 && type == tp::FrameType::kDispatch && body.size() == 3;
  }
  std::size_t send_space(tp::SessionId s) const override {
    ++calls["send_space"];
    return s + 100;
  }
  void close(tp::SessionId s, const std::string& reason) override {
    ++calls["close"];
    closed = reason + std::to_string(s);
  }
  void step(double w) override {
    ++calls["step"];
    waited = w;
  }
  fl::EventScheduler& scheduler() override {
    ++calls["scheduler"];
    return sched;
  }
  double now() const override {
    ++calls["now"];
    return 4.5;
  }
  const char* name() const override {
    ++calls["name"];
    return "fake";
  }

  std::string closed;
  double waited = 0.0;
};

class CountingHandler final : public tp::ServerTransport::Handler {
 public:
  std::map<std::string, int> calls;
  std::size_t frame_bytes = 0;
  void on_open(tp::SessionId) override { ++calls["on_open"]; }
  void on_frame(tp::SessionId, tp::Frame&& f) override {
    ++calls["on_frame"];
    frame_bytes += f.body.size();
  }
  void on_close(tp::SessionId, const std::string&) override {
    ++calls["on_close"];
  }
  void on_drain(tp::SessionId) override { ++calls["on_drain"]; }
};

void test_transport_forwarding() {
  FakeTransport inner;
  CountingHandler handler;
  perfbench::Tracer tracer(perfbench::Clock::now());
  perfbench::Probe probe(perfbench::Clock::now(), &tracer);
  perfbench::TracedServerTransport traced(inner, probe);

  traced.set_handler(&handler);
  check(inner.handler != nullptr && inner.handler != &handler,
        "set_handler() installs the decorator as the inner handler");
  int hook_calls = 0;
  traced.set_tick_hook([&] { return ++hook_calls == 1; });
  check(inner.tick && inner.tick() && hook_calls == 1,
        "set_tick_hook() forwards the hook and its result");
  const std::vector<std::uint8_t> body = {1, 2, 3};
  check(traced.send(7, tp::FrameType::kDispatch, body), "send() result");
  check(probe.first_dispatch().has_value(), "a sent Dispatch marks dispatch");
  check(traced.send_space(5) == 105, "send_space() result");
  traced.close(9, "bye");
  check(inner.closed == "bye9", "close() args");
  traced.step(0.25);
  check(inner.waited == 0.25, "step() args");
  check(&traced.scheduler() == &inner.sched, "scheduler() result");
  check(traced.now() == 4.5, "now() result");
  check(std::strcmp(traced.name(), "fake") == 0, "name() result");
  for (const char* m : {"set_handler", "set_tick_hook", "send", "send_space",
                        "close", "step", "scheduler", "now", "name"}) {
    check(inner.calls[m] == 1, std::string("ServerTransport::") + m + " forwarded once");
  }

  inner.handler->on_open(1);
  inner.handler->on_frame(1, tp::Frame{tp::FrameType::kUpload, {1, 0, 0, 0, 0, 0, 0, 0, 5}});
  inner.handler->on_frame(1, tp::Frame{tp::FrameType::kHello, {1}});
  inner.handler->on_close(1, "gone");
  inner.handler->on_drain(1);
  check(handler.calls["on_open"] == 1 && handler.calls["on_frame"] == 2 &&
            handler.calls["on_close"] == 1 && handler.calls["on_drain"] == 1,
        "every Handler callback forwarded");
  check(handler.frame_bytes == 10, "on_frame() bodies forwarded intact");
}

// --- 3. decorated trajectory identity ---------------------------------------

fl::SimulationResult small_fedbiad_run(perfbench::Probe* probe) {
  auto text = fedbiad::data::TextSynthConfig::reddit_like(17);
  text.vocab = 60;
  text.train_sequences = 300;
  text.test_sequences = 40;
  auto ds = fedbiad::data::make_text_datasets_noniid(text, 20, 0.3);
  const nn::LstmLmConfig mcfg{.vocab = 60, .embed = 8, .hidden = 16, .layers = 2};
  fl::AsyncSimulationConfig cfg;
  cfg.base.rounds = 6;
  cfg.base.selection_fraction = 0.2;
  cfg.base.train.local_iterations = 4;
  cfg.base.train.batch_size = 8;
  cfg.base.train.topk = 3;
  cfg.base.train.sgd = {.lr = 1.0F, .weight_decay = 0.0F, .clip_norm = 5.0F};
  cfg.base.eval_every = 2;
  cfg.base.seed = 17;
  cfg.base.threads = 2;
  fl::StrategyPtr strategy = std::make_shared<fedbiad::core::FedBiadStrategy>(
      fedbiad::core::FedBiadConfig{.dropout_rate = 0.5, .tau = 3, .stage_boundary = 4});
  if (probe != nullptr) {
    strategy = std::make_shared<perfbench::TracedStrategy>(strategy, *probe, true);
  }
  fl::AsyncSimulation sim(cfg, [mcfg] { return std::make_unique<nn::LstmLmModel>(mcfg); },
                          ds.train, ds.test, std::move(ds.client_indices), strategy);
  return sim.run();
}

void test_decorated_trajectory() {
  const fl::SimulationResult plain = small_fedbiad_run(nullptr);
  perfbench::Tracer tracer(perfbench::Clock::now());
  perfbench::Probe probe(perfbench::Clock::now(), &tracer);
  const fl::SimulationResult traced = small_fedbiad_run(&probe);
  check(plain.final_params.size() == traced.final_params.size() &&
            std::memcmp(plain.final_params.data(), traced.final_params.data(),
                        plain.final_params.size() * sizeof(float)) == 0,
        "decorated FedBIAD final parameters are byte-identical");
  bool rounds_equal = plain.rounds.size() == traced.rounds.size();
  for (std::size_t i = 0; rounds_equal && i < plain.rounds.size(); ++i) {
    const fl::RoundRecord& a = plain.rounds[i];
    const fl::RoundRecord& b = traced.rounds[i];
    rounds_equal = std::memcmp(&a.train_loss, &b.train_loss, sizeof(double)) == 0 &&
                   std::memcmp(&a.test_loss, &b.test_loss, sizeof(double)) == 0 &&
                   std::memcmp(&a.topk, &b.topk, sizeof(double)) == 0 &&
                   a.participants == b.participants &&
                   a.uplink_bytes_total == b.uplink_bytes_total &&
                   std::memcmp(&a.clock_seconds, &b.clock_seconds, sizeof(double)) == 0;
  }
  check(rounds_equal, "decorated FedBIAD round records are byte-identical");
  check(probe.commits().size() == plain.rounds.size(), "every commit observed");
  check(probe.acks().size() == plain.total_committed && probe.unacked() == 0,
        "every in-process upload acked");
  check(!tracer.spans().empty(), "traced run recorded spans");
}

// --- 4. replayed uploads decode to the recording ----------------------------

/// Keeps every compact decode the server performs.
class RecordingStrategy final : public fl::Strategy {
 public:
  explicit RecordingStrategy(fl::StrategyPtr inner) : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  fl::ClientOutcome run_client(fl::ClientContext& ctx) override {
    return inner_->run_client(ctx);
  }
  wire::CompactUpdate decode_payload_compact(
      const nn::ParameterStore& layout, const wire::Payload& p) const override {
    wire::CompactUpdate u = inner_->decode_payload_compact(layout, p);
    std::scoped_lock lock(mutex_);
    decoded_.emplace_back(p.bytes, u);
    return u;
  }
  void begin_round(std::size_t r, std::span<const float> g) override {
    inner_->begin_round(r, g);
  }
  void end_round(std::size_t r, std::span<const float> a,
                 std::span<const float> b) override {
    inner_->end_round(r, a, b);
  }
  fl::AggregationRule aggregation_rule() const override {
    return inner_->aggregation_rule();
  }
  [[nodiscard]] std::vector<std::pair<std::vector<std::uint8_t>, wire::CompactUpdate>>
  decoded() const {
    std::scoped_lock lock(mutex_);
    return decoded_;
  }

 private:
  fl::StrategyPtr inner_;
  mutable std::mutex mutex_;
  mutable std::vector<std::pair<std::vector<std::uint8_t>, wire::CompactUpdate>> decoded_;
};

bool same_update(const wire::CompactUpdate& a, const wire::CompactUpdate& b) {
  return a.form == b.form && a.coords == b.coords && a.present == b.present &&
         a.indices == b.indices && a.values.size() == b.values.size() &&
         std::memcmp(a.values.data(), b.values.data(), a.values.size() * sizeof(float)) == 0;
}

void test_replay_decodes() {
  constexpr std::size_t kClients = 3;
  constexpr std::size_t kRounds = 5;
  const perfbench::ReplaySetup setup =
      perfbench::make_replay_setup(23, kClients, kRounds, 10, 32, 2);
  const std::unique_ptr<nn::Model> layout_model = setup.factory();
  std::vector<std::vector<std::uint8_t>> unsealed;
  std::vector<wire::CompactUpdate> expected;
  for (const auto& recordings : setup.uploads) {
    for (const fl::ClientOutcome& out : recordings) {
      wire::Payload p = out.payload;
      check(wire::verify_seal(p), "recorded upload is sealed");
      p.bytes.resize(p.bytes.size() - 4);  // the CRC32C trailer
      expected.push_back(wire::decode_update_compact(layout_model->store(), p));
      unsealed.push_back(p.bytes);
    }
  }

  perfbench::Probe probe(perfbench::Clock::now(), nullptr);
  auto recording = std::make_shared<RecordingStrategy>(
      std::make_shared<fedbiad::core::FedBiadStrategy>(setup.strategy));
  const perfbench::ReplayRun run = perfbench::serve_replay(setup, 1, recording, probe);
  check(run.done && run.loadgen.error.empty(),
        "replay run completed: " + run.loadgen.error);
  check(run.result.sim.total_committed == kClients * kRounds, "replay committed count");
  const auto decoded = recording->decoded();
  check(decoded.size() == kClients * kRounds, "one server decode per replayed upload");
  std::size_t matched = 0;
  for (const auto& [bytes, update] : decoded) {
    for (std::size_t k = 0; k < unsealed.size(); ++k) {
      if (bytes == unsealed[k] && same_update(update, expected[k])) {
        ++matched;
        break;
      }
    }
  }
  check(matched == decoded.size(), "every replayed upload decodes to its recording");
  check(probe.acks().size() == kClients * kRounds, "every replayed upload acked");
}

}  // namespace

int main() {
  const std::pair<const char*, void (*)()> tests[] = {
      {"strategy forwarding", test_strategy_forwarding},
      {"transport forwarding", test_transport_forwarding},
      {"decorated trajectory", test_decorated_trajectory},
      {"replay decodes", test_replay_decodes},
  };
  for (const auto& [name, fn] : tests) {
    const int before = failures;
    try {
      fn();
    } catch (const std::exception& e) {
      check(false, std::string(name) + " threw: " + e.what());
    }
    std::printf("%s: %s\n", failures == before ? "ok" : "FAILED", name);
  }
  return failures == 0 ? 0 : 1;
}
