// Tests for the event-driven engine: the virtual-clock scheduler, per-client
// heterogeneity profiles, determinism across seeds/thread counts/engines,
// barrier-mode bit-equivalence with the legacy sync Simulation, the
// staleness-aware aggregation modes, and the quiesce contract (server hooks
// never overlap run_client; a throwing client fails the run, never hangs it).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <future>
#include <iterator>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "baselines/afd.hpp"
#include "baselines/fedavg.hpp"
#include "common/check.hpp"
#include "core/fedbiad_strategy.hpp"
#include "data/image_synth.hpp"
#include "data/partition.hpp"
#include "fl/async_simulation.hpp"
#include "fl/engine_hooks.hpp"
#include "fl/scheduler.hpp"
#include "fl/simulation.hpp"
#include "netsim/client_profile.hpp"
#include "nn/mlp_model.hpp"

namespace fedbiad::fl {
namespace {

// --- EventScheduler -------------------------------------------------------

TEST(EventScheduler, RunsInTimeOrder) {
  EventScheduler sched;
  std::vector<int> order;
  sched.schedule_at(3.0, [&] { order.push_back(3); });
  sched.schedule_at(1.0, [&] { order.push_back(1); });
  sched.schedule_at(2.0, [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sched.now(), 3.0);
  EXPECT_TRUE(sched.empty());
}

TEST(EventScheduler, BreaksTimeTiesByInsertionOrder) {
  EventScheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    sched.schedule_at(1.0, [&, i] { order.push_back(i); });
  }
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventScheduler, CallbacksMayScheduleFurtherEvents) {
  EventScheduler sched;
  std::vector<double> times;
  sched.schedule_after(1.0, [&] {
    times.push_back(sched.now());
    sched.schedule_after(0.5, [&] { times.push_back(sched.now()); });
  });
  sched.schedule_at(1.2, [&] { times.push_back(sched.now()); });
  sched.run();
  ASSERT_EQ(times.size(), 3u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 1.2);  // pre-scheduled event beats the nested 1.5
  EXPECT_DOUBLE_EQ(times[2], 1.5);
}

TEST(EventScheduler, RejectsSchedulingInThePast) {
  EventScheduler sched;
  sched.schedule_at(2.0, [] {});
  EXPECT_TRUE(sched.run_next());
  EXPECT_THROW(sched.schedule_at(1.0, [] {}), fedbiad::CheckError);
  EXPECT_THROW(sched.schedule_after(-0.1, [] {}), fedbiad::CheckError);
}

TEST(EventScheduler, RunNextReportsEmptiness) {
  EventScheduler sched;
  EXPECT_FALSE(sched.run_next());
  sched.schedule_after(0.0, [] {});
  EXPECT_EQ(sched.pending(), 1u);
  EXPECT_TRUE(sched.run_next());
  EXPECT_FALSE(sched.run_next());
}

// --- ClientProfile --------------------------------------------------------

TEST(ClientProfile, HomogeneousDefaultsMatchBaseLink) {
  const netsim::LinkModel base;
  const netsim::HeterogeneityConfig cfg;  // all spreads at 1
  EXPECT_TRUE(cfg.homogeneous());
  const auto profiles =
      netsim::make_profiles(5, cfg, base, tensor::Rng(123));
  for (const auto& p : profiles) {
    EXPECT_EQ(p.link.up_mbps, base.up_mbps);
    EXPECT_EQ(p.link.down_mbps, base.down_mbps);
    EXPECT_EQ(p.compute_multiplier, 1.0);
    // Timing formulas are then bit-identical to the shared LinkModel.
    EXPECT_EQ(p.upload_seconds(12345), base.upload_seconds(12345));
    EXPECT_EQ(p.download_seconds(999), base.download_seconds(999));
  }
}

TEST(ClientProfile, DeterministicForSameStream) {
  netsim::HeterogeneityConfig cfg;
  cfg.compute_spread = 8.0;
  cfg.bandwidth_spread = 4.0;
  cfg.straggler_fraction = 0.25;
  const netsim::LinkModel base;
  const auto a = netsim::make_profiles(40, cfg, base, tensor::Rng(7));
  const auto b = netsim::make_profiles(40, cfg, base, tensor::Rng(7));
  const auto c = netsim::make_profiles(40, cfg, base, tensor::Rng(8));
  ASSERT_EQ(a.size(), b.size());
  bool any_diff_to_c = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].compute_multiplier, b[i].compute_multiplier);
    EXPECT_EQ(a[i].link.up_mbps, b[i].link.up_mbps);
    any_diff_to_c |= a[i].compute_multiplier != c[i].compute_multiplier;
  }
  EXPECT_TRUE(any_diff_to_c) << "different seeds should differ";
}

TEST(ClientProfile, DrawsStayWithinConfiguredSpreads) {
  netsim::HeterogeneityConfig cfg;
  cfg.compute_spread = 8.0;
  cfg.bandwidth_spread = 4.0;
  cfg.straggler_fraction = 0.5;
  cfg.straggler_multiplier = 3.0;
  const netsim::LinkModel base;
  const auto profiles =
      netsim::make_profiles(200, cfg, base, tensor::Rng(11));
  bool saw_straggler = false;
  for (const auto& p : profiles) {
    EXPECT_GE(p.compute_multiplier, 1.0);
    EXPECT_LE(p.compute_multiplier,
              cfg.compute_spread * cfg.straggler_multiplier);
    saw_straggler |= p.compute_multiplier > cfg.compute_spread;
    EXPECT_LE(p.link.up_mbps, base.up_mbps);
    EXPECT_GE(p.link.up_mbps, base.up_mbps / cfg.bandwidth_spread - 1e-12);
    EXPECT_GT(p.compute_seconds(100.0), 0.0);
  }
  EXPECT_TRUE(saw_straggler);
}

TEST(ClientProfile, RejectsInvalidConfig) {
  netsim::HeterogeneityConfig cfg;
  cfg.compute_spread = 0.5;
  EXPECT_THROW(netsim::make_profiles(1, cfg, {}, tensor::Rng(1)),
               fedbiad::CheckError);
  cfg = {};
  cfg.straggler_fraction = 1.5;
  EXPECT_THROW(netsim::make_profiles(1, cfg, {}, tensor::Rng(1)),
               fedbiad::CheckError);
}

// --- Engine determinism ---------------------------------------------------

struct EngineScenario {
  SimulationConfig sim;
  data::DatasetPtr train;
  data::DatasetPtr test;
  data::Partition partition;
  nn::ModelFactory factory;
};

EngineScenario make_engine_scenario(std::size_t threads) {
  EngineScenario sc;
  sc.sim.rounds = 4;
  sc.sim.selection_fraction = 0.5;  // 3 of 6 clients in flight
  sc.sim.train.local_iterations = 3;
  sc.sim.train.batch_size = 8;
  sc.sim.train.sgd = {.lr = 0.1F, .weight_decay = 0.0F, .clip_norm = 0.0F};
  sc.sim.seed = 9;
  sc.sim.threads = threads;
  auto img_cfg = data::ImageSynthConfig::mnist_like(3);
  img_cfg.train_samples = 96;
  img_cfg.test_samples = 30;
  img_cfg.height = 10;
  img_cfg.width = 10;
  const auto datasets = data::make_image_datasets(img_cfg);
  sc.train = datasets.train;
  sc.test = datasets.test;
  tensor::Rng prng(5);
  sc.partition = data::partition_iid(datasets.train->size(), 6, prng);
  sc.factory = [] {
    return std::make_unique<nn::MlpModel>(
        nn::MlpConfig{.input = 100, .hidden = 8, .classes = 10});
  };
  return sc;
}

netsim::HeterogeneityConfig stressed_fleet() {
  netsim::HeterogeneityConfig h;
  h.compute_spread = 6.0;
  h.bandwidth_spread = 3.0;
  h.straggler_fraction = 0.3;
  h.straggler_multiplier = 4.0;
  return h;
}

SimulationResult run_async(AggregationMode mode, std::size_t threads,
                           const netsim::HeterogeneityConfig& fleet,
                           bool fedbiad = false) {
  EngineScenario sc = make_engine_scenario(threads);
  AsyncSimulationConfig cfg;
  cfg.base = sc.sim;
  cfg.mode = mode;
  cfg.buffer_size = 2;
  cfg.heterogeneity = fleet;
  StrategyPtr strategy;
  if (fedbiad) {
    strategy = std::make_shared<core::FedBiadStrategy>(
        core::FedBiadConfig{.dropout_rate = 0.5, .tau = 2,
                            .stage_boundary = 3});
  } else {
    strategy = std::make_shared<baselines::FedAvgStrategy>();
  }
  AsyncSimulation sim(cfg, sc.factory, sc.train, sc.test, sc.partition,
                      strategy);
  return sim.run();
}

void expect_identical_trajectories(const SimulationResult& a,
                                   const SimulationResult& b) {
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].participants, b.rounds[i].participants);
    EXPECT_EQ(a.rounds[i].uplink_bytes_total, b.rounds[i].uplink_bytes_total);
    EXPECT_EQ(a.rounds[i].uplink_bytes_max, b.rounds[i].uplink_bytes_max);
    EXPECT_EQ(a.rounds[i].downlink_bytes, b.rounds[i].downlink_bytes);
    EXPECT_EQ(a.rounds[i].train_loss, b.rounds[i].train_loss) << "round " << i;
    EXPECT_EQ(a.rounds[i].test_loss, b.rounds[i].test_loss) << "round " << i;
    EXPECT_EQ(a.rounds[i].top1, b.rounds[i].top1) << "round " << i;
    EXPECT_EQ(a.rounds[i].topk, b.rounds[i].topk) << "round " << i;
    EXPECT_EQ(a.rounds[i].clock_seconds, b.rounds[i].clock_seconds);
    EXPECT_EQ(a.rounds[i].mean_staleness, b.rounds[i].mean_staleness);
    EXPECT_EQ(a.rounds[i].upload_seconds, b.rounds[i].upload_seconds);
    EXPECT_EQ(a.rounds[i].download_seconds, b.rounds[i].download_seconds);
  }
  ASSERT_EQ(a.final_params.size(), b.final_params.size());
  for (std::size_t i = 0; i < a.final_params.size(); ++i) {
    ASSERT_EQ(a.final_params[i], b.final_params[i]) << "param " << i;
  }
}

class EngineDeterminism
    : public ::testing::TestWithParam<AggregationMode> {};

// Two runs with the same seed are identical — at 1 worker thread and at 4.
TEST_P(EngineDeterminism, RepeatedRunsIdentical) {
  for (const std::size_t threads : {1u, 4u}) {
    const auto a = run_async(GetParam(), threads, stressed_fleet());
    const auto b = run_async(GetParam(), threads, stressed_fleet());
    expect_identical_trajectories(a, b);
  }
}

// The worker-thread count never leaks into the trajectory: all server-side
// decisions happen in virtual-time event order on the engine thread.
// The commit kernels split over the same pool plus the engine thread, so 1,
// 4 and 7 workers are a 2-, 5- and 8-way split on any machine.
TEST_P(EngineDeterminism, ThreadCountInvariant) {
  const auto t1 = run_async(GetParam(), 1, stressed_fleet());
  for (const std::size_t threads : {4u, 7u}) {
    expect_identical_trajectories(
        t1, run_async(GetParam(), threads, stressed_fleet()));
  }
}

TEST_P(EngineDeterminism, ThreadCountInvariantForFedBiad) {
  const auto t1 = run_async(GetParam(), 1, stressed_fleet(), true);
  for (const std::size_t threads : {4u, 7u}) {
    expect_identical_trajectories(
        t1, run_async(GetParam(), threads, stressed_fleet(), true));
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, EngineDeterminism,
                         ::testing::Values(AggregationMode::kBarrier,
                                           AggregationMode::kFedAsync,
                                           AggregationMode::kBufferedK),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

// The legacy sync engine and the event-driven engine in barrier mode over a
// homogeneous fleet produce bit-identical trajectories — at both thread
// counts. (Simulation is an adapter over the barrier engine; this guards
// the equivalence against future divergence of either path.)
TEST(EngineEquivalence, BarrierMatchesSyncBitForBit) {
  for (const std::size_t threads : {1u, 4u}) {
    EngineScenario sc = make_engine_scenario(threads);
    Simulation sync(sc.sim, sc.factory, sc.train, sc.test, sc.partition,
                    std::make_shared<baselines::FedAvgStrategy>());
    const auto s = sync.run();
    const auto a = run_async(AggregationMode::kBarrier, threads, {});
    EXPECT_EQ(s.engine, "sync");
    EXPECT_EQ(a.engine, "barrier");
    expect_identical_trajectories(s, a);
  }
}

// Sync vs barrier for FedBIAD as well: the paper's core strategy keeps
// cross-round client state (weight scores), the hardest case for the
// one-code-path refactor.
TEST(EngineEquivalence, BarrierMatchesSyncForFedBiad) {
  EngineScenario sc = make_engine_scenario(2);
  Simulation sync(sc.sim, sc.factory, sc.train, sc.test, sc.partition,
                  std::make_shared<core::FedBiadStrategy>(
                      core::FedBiadConfig{.dropout_rate = 0.5, .tau = 2,
                                          .stage_boundary = 3}));
  const auto s = sync.run();
  const auto a = run_async(AggregationMode::kBarrier, 2, {}, true);
  expect_identical_trajectories(s, a);
}

// Heterogeneity only bends the virtual timeline, never the learning
// trajectory, under barrier aggregation: the same clients train the same
// data in the same order, they just finish later.
TEST(EngineEquivalence, BarrierTrajectoryUnaffectedByHeterogeneity) {
  const auto homo = run_async(AggregationMode::kBarrier, 2, {});
  const auto hetero =
      run_async(AggregationMode::kBarrier, 2, stressed_fleet());
  ASSERT_EQ(homo.rounds.size(), hetero.rounds.size());
  for (std::size_t i = 0; i < homo.rounds.size(); ++i) {
    EXPECT_EQ(homo.rounds[i].train_loss, hetero.rounds[i].train_loss);
    EXPECT_EQ(homo.rounds[i].top1, hetero.rounds[i].top1);
    EXPECT_EQ(homo.rounds[i].uplink_bytes_total,
              hetero.rounds[i].uplink_bytes_total);
    // Stragglers and slower links stretch the clock.
    EXPECT_GT(hetero.rounds[i].clock_seconds, homo.rounds[i].clock_seconds);
  }
  for (std::size_t i = 0; i < homo.final_params.size(); ++i) {
    ASSERT_EQ(homo.final_params[i], hetero.final_params[i]);
  }
}

// --- Async semantics ------------------------------------------------------

TEST(FedAsyncMode, CommitsPerArrivalWithStaleness) {
  const auto r = run_async(AggregationMode::kFedAsync, 2, stressed_fleet());
  ASSERT_EQ(r.rounds.size(), 4u);
  EXPECT_EQ(r.engine, "fedasync");
  double total_staleness = 0.0;
  double prev_clock = 0.0;
  for (const auto& rec : r.rounds) {
    EXPECT_EQ(rec.participants, 1u);  // one arrival per commit
    EXPECT_GE(rec.mean_staleness, 0.0);
    EXPECT_GE(rec.clock_seconds, prev_clock);
    prev_clock = rec.clock_seconds;
    total_staleness += rec.mean_staleness;
  }
  // With 3 clients in flight and per-arrival commits, later arrivals must
  // have seen older versions at least once.
  EXPECT_GT(total_staleness, 0.0);
}

TEST(BufferedMode, CommitsEveryKArrivals) {
  const auto r = run_async(AggregationMode::kBufferedK, 2, stressed_fleet());
  ASSERT_EQ(r.rounds.size(), 4u);
  EXPECT_EQ(r.engine, "buffered");
  for (const auto& rec : r.rounds) {
    EXPECT_EQ(rec.participants, 2u);  // buffer_size = 2 in run_async
  }
}

// Async modes still learn: accuracy after a few commits beats the 10-class
// random baseline. (Weak on purpose — convergence quality is the golden
// tests' and benches' job; this just guards "the model actually moves".)
TEST(AsyncModes, AsyncAggregationStillLearns) {
  for (const auto mode :
       {AggregationMode::kFedAsync, AggregationMode::kBufferedK}) {
    const auto r = run_async(mode, 2, stressed_fleet());
    EXPECT_GT(r.best_accuracy(false), 0.05) << to_string(mode);
    EXPECT_LT(r.rounds.back().train_loss, 3.0) << to_string(mode);
  }
}

// AFD keeps server-side state (score map written in end_round, pattern
// broadcast in begin_round) that run_client reads from worker threads. The
// engine quiesces in-flight training before the hooks, so even per-arrival
// commits stay race-free and deterministic.
TEST(AsyncModes, ServerStatefulStrategyIsDeterministic) {
  auto run_afd = [](std::size_t threads) {
    EngineScenario sc = make_engine_scenario(threads);
    AsyncSimulationConfig cfg;
    cfg.base = sc.sim;
    cfg.mode = AggregationMode::kFedAsync;
    cfg.heterogeneity = stressed_fleet();
    AsyncSimulation sim(cfg, sc.factory, sc.train, sc.test, sc.partition,
                        std::make_shared<baselines::AfdStrategy>(0.5));
    return sim.run();
  };
  const auto a = run_afd(4);
  const auto b = run_afd(4);
  expect_identical_trajectories(a, b);
  const auto c = run_afd(1);
  expect_identical_trajectories(a, c);
}

TEST(AsyncConfig, RejectsInvalidStalenessAndBuffer) {
  EngineScenario sc = make_engine_scenario(1);
  AsyncSimulationConfig cfg;
  cfg.base = sc.sim;
  cfg.staleness.mixing_rate = 0.0;
  EXPECT_THROW(AsyncSimulation(cfg, sc.factory, sc.train, sc.test,
                               sc.partition,
                               std::make_shared<baselines::FedAvgStrategy>()),
               fedbiad::CheckError);
  cfg.staleness.mixing_rate = 0.6;
  cfg.buffer_size = 0;
  EXPECT_THROW(AsyncSimulation(cfg, sc.factory, sc.train, sc.test,
                               sc.partition,
                               std::make_shared<baselines::FedAvgStrategy>()),
               fedbiad::CheckError);
}

TEST(AsyncConfig, SimTimeToAccuracyUsesVirtualClock) {
  const auto r = run_async(AggregationMode::kBarrier, 2, stressed_fleet());
  const auto tta = r.sim_time_to_accuracy(0.0, false);
  ASSERT_TRUE(tta.has_value());
  EXPECT_EQ(*tta, r.rounds.front().clock_seconds);
}

// --- The quiesce contract ------------------------------------------------

// Forwards every virtual to an inner strategy and counts run_client calls in
// flight. A begin_round or end_round that starts while a client still trains
// breaks the contract Driver::quiesce exists for; the probe counts those.
// With `thrower` set, that client's run_client throws instead of training.
class OverlapProbe final : public Strategy {
 public:
  explicit OverlapProbe(StrategyPtr inner,
                        std::optional<std::size_t> thrower = std::nullopt)
      : inner_(std::move(inner)), thrower_(thrower) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  ClientOutcome run_client(ClientContext& ctx) override {
    running_.fetch_add(1);
    struct Leave {
      std::atomic<std::size_t>& n;
      ~Leave() { n.fetch_sub(1); }
    } leave{running_};
    // Long enough that an unquiesced hook lands inside some client.
    std::this_thread::sleep_for(std::chrono::microseconds(300));
    if (thrower_ == ctx.client_id) throw std::runtime_error("client crashed");
    return inner_->run_client(ctx);
  }
  [[nodiscard]] wire::CompactUpdate decode_payload_compact(
      const nn::ParameterStore& layout,
      const wire::Payload& payload) const override {
    return inner_->decode_payload_compact(layout, payload);
  }
  void begin_round(std::size_t round,
                   std::span<const float> global_params) override {
    enter_hook();
    inner_->begin_round(round, global_params);
  }
  void end_round(std::size_t round, std::span<const float> old_global,
                 std::span<const float> new_global) override {
    enter_hook();
    inner_->end_round(round, old_global, new_global);
  }
  [[nodiscard]] AggregationRule aggregation_rule() const override {
    return inner_->aggregation_rule();
  }
  [[nodiscard]] std::uint64_t downlink_bytes(
      std::size_t param_count) const override {
    return inner_->downlink_bytes(param_count);
  }
  [[nodiscard]] double compute_cost_multiplier() const override {
    return inner_->compute_cost_multiplier();
  }
  [[nodiscard]] std::vector<std::uint8_t> save_state() const override {
    return inner_->save_state();
  }
  void load_state(std::span<const std::uint8_t> bytes) override {
    inner_->load_state(bytes);
  }

  [[nodiscard]] std::size_t hooks() const { return hooks_; }
  [[nodiscard]] std::size_t overlaps() const { return overlaps_; }

 private:
  void enter_hook() {
    ++hooks_;
    if (running_.load() != 0) ++overlaps_;
  }

  StrategyPtr inner_;
  std::optional<std::size_t> thrower_;
  std::atomic<std::size_t> running_{0};
  std::size_t hooks_ = 0;  // engine thread only
  std::size_t overlaps_ = 0;
};

// Everyone available; every fourth dispatch churns halfway through its
// timeline, and a deadline cuts the slow devices off before their training
// event — those dispatches are abandoned while run_client still executes.
struct ZombieHooks final : EngineHooks {
  bool client_available(std::size_t, double) override { return true; }
  [[nodiscard]] bool always_available() const override { return true; }
  double next_available_time(std::size_t, double now) override { return now; }
  ChurnDecision churn(std::size_t, std::size_t seq) override {
    return {.fails = seq % 4 == 3, .fraction = 0.5};
  }
  [[nodiscard]] double deadline_seconds() const override { return 0.06; }
  [[nodiscard]] double over_selection() const override { return 1.0; }
};

SimulationResult run_probe(AggregationMode mode,
                           const std::shared_ptr<OverlapProbe>& probe,
                           std::shared_ptr<EngineHooks> hooks = nullptr,
                           double selection_fraction = 0.5) {
  EngineScenario sc = make_engine_scenario(4);
  sc.sim.rounds = 10;
  sc.sim.selection_fraction = selection_fraction;
  AsyncSimulationConfig cfg;
  cfg.base = sc.sim;
  cfg.mode = mode;
  cfg.buffer_size = 2;
  cfg.heterogeneity = stressed_fleet();
  cfg.hooks = std::move(hooks);
  AsyncSimulation sim(cfg, sc.factory, sc.train, sc.test, sc.partition,
                      probe);
  return sim.run();
}

// Runs `fn` on its own thread and returns (or rethrows) its result; a call
// still running after `limit` aborts the test binary, so a hang fails loudly
// instead of stalling the suite.
void within(std::chrono::seconds limit, const std::function<void()>& fn) {
  std::packaged_task<void()> task(fn);
  std::future<void> done = task.get_future();
  std::thread runner(std::move(task));
  if (done.wait_for(limit) == std::future_status::timeout) {
    std::fprintf(stderr, "engine run hung past %llds\n",
                 static_cast<long long>(limit.count()));
    std::abort();
  }
  runner.join();
  done.get();
}

TEST(Quiesce, ServerHooksNeverOverlapRunClient) {
  for (const auto mode :
       {AggregationMode::kFedAsync, AggregationMode::kBufferedK}) {
    auto probe = std::make_shared<OverlapProbe>(
        std::make_shared<baselines::AfdStrategy>(0.5));
    const auto r = run_probe(mode, probe);
    EXPECT_EQ(r.rounds.size(), 10u) << to_string(mode);
    EXPECT_GT(probe->hooks(), 10u) << to_string(mode);
    EXPECT_EQ(probe->overlaps(), 0u) << to_string(mode);
  }
}

TEST(Quiesce, ZombiesFinishBeforeServerHooks) {
  for (const auto mode :
       {AggregationMode::kFedAsync, AggregationMode::kBufferedK}) {
    auto probe = std::make_shared<OverlapProbe>(
        std::make_shared<baselines::AfdStrategy>(0.5));
    const auto r = run_probe(mode, probe, std::make_shared<ZombieHooks>());
    EXPECT_EQ(r.rounds.size(), 10u) << to_string(mode);
    EXPECT_GT(r.total_abandoned, 0u) << to_string(mode);
    // Three clients are in flight at once; a fourth record can only be
    // leased while an abandoned dispatch still trains (a zombie) — no
    // faults here, so no record is kept for a duplicate delivery.
    EXPECT_GT(r.peak_in_flight_states, 3u) << to_string(mode);
    EXPECT_EQ(probe->overlaps(), 0u) << to_string(mode);
  }
}

// All six clients are in flight from the start and the slowest device's
// run_client throws. Faster clients arrive and commit first, so each of
// those commits quiesces while the failed task is still counted — a task
// that left the count only on success would hang it — and the engine
// thread then reaches the failed outcome and rethrows it out of run().
TEST(Quiesce, ThrowingClientFailsTheRunInsteadOfHanging) {
  // The engine draws client i's profile from this split of the run seed.
  const auto profiles = netsim::make_profiles(
      6, stressed_fleet(), SimulationConfig{}.link,
      tensor::Rng(make_engine_scenario(1).sim.seed).split(0xA11C));
  const auto slowest = static_cast<std::size_t>(
      std::max_element(profiles.begin(), profiles.end(),
                       [](const auto& a, const auto& b) {
                         return a.compute_multiplier < b.compute_multiplier;
                       }) -
      profiles.begin());
  for (const auto mode :
       {AggregationMode::kFedAsync, AggregationMode::kBufferedK}) {
    auto probe = std::make_shared<OverlapProbe>(
        std::make_shared<baselines::FedAvgStrategy>(), slowest);
    EXPECT_THROW(within(std::chrono::seconds(120),
                        [&] {
                          (void)run_probe(mode, probe, nullptr,
                                          /*selection_fraction=*/1.0);
                        }),
                 std::runtime_error)
        << to_string(mode);
  }
}

// --- thread budget ----------------------------------------------------------

std::size_t live_threads() {
  return static_cast<std::size_t>(
      std::distance(std::filesystem::directory_iterator("/proc/self/task"),
                    std::filesystem::directory_iterator{}));
}

/// FedAvg that records the process's peak thread count seen from inside
/// run_client in rounds after the first commit's evaluation. FedAvg
/// overrides only name() and run_client(), so forwarding those two keeps
/// the decorated run identical.
class ThreadCountProbe final : public Strategy {
 public:
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  ClientOutcome run_client(ClientContext& ctx) override {
    if (ctx.round >= 2) {
      const std::size_t now = live_threads();
      std::size_t seen = peak_.load();
      while (seen < now && !peak_.compare_exchange_weak(seen, now)) {
      }
      samples_.fetch_add(1);
    }
    return inner_.run_client(ctx);
  }
  [[nodiscard]] std::size_t peak() const { return peak_.load(); }
  [[nodiscard]] std::size_t samples() const { return samples_.load(); }

 private:
  baselines::FedAvgStrategy inner_;
  std::atomic<std::size_t> peak_{0};
  std::atomic<std::size_t> samples_{0};
};

// `threads` is the whole budget of a run: its training workers, which the
// engine thread joins for the commit's aggregate and evaluation kernels.
// The evaluation GEMM here (30 × 100 × 64) is far above the serial
// threshold, so a kernel pool outside the budget would be running by the
// time round 2 trains. Meaningful in a process of its own (ctest runs
// each case alone): threads other tests left running count as "before".
TEST(ThreadBudget, AsyncRunAddsOnlyItsConfiguredThreads) {
  EngineScenario sc = make_engine_scenario(2);
  sc.factory = [] {
    return std::make_unique<nn::MlpModel>(
        nn::MlpConfig{.input = 100, .hidden = 64, .classes = 10});
  };
  AsyncSimulationConfig cfg;
  cfg.base = sc.sim;
  cfg.base.eval_every = 1;
  auto probe = std::make_shared<ThreadCountProbe>();
  const std::size_t before = live_threads();
  AsyncSimulation sim(cfg, sc.factory, sc.train, sc.test, sc.partition,
                      probe);
  const auto r = sim.run();
  ASSERT_EQ(r.rounds.size(), sc.sim.rounds);
  ASSERT_GT(probe->samples(), 0u);
  EXPECT_LE(probe->peak(), before + 2)
      << "a run with threads = 2 started threads outside its budget";
}

}  // namespace
}  // namespace fedbiad::fl
