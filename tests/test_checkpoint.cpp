// Tests for the crash-safe checkpoint subsystem: snapshot file round-trip,
// torn/corrupt-file detection with fallback to the last good snapshot,
// retention pruning, rng state restoration, and the engine resume contract —
// a run resumed from any mid-run snapshot is bit-identical to the
// uninterrupted run, for every aggregation mode, with the stateful FedBIAD
// strategy, under fault injection, and across thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "baselines/fedavg.hpp"
#include "checkpoint/checkpoint.hpp"
#include "common/check.hpp"
#include "core/fedbiad_strategy.hpp"
#include "data/image_synth.hpp"
#include "data/partition.hpp"
#include "fl/async_simulation.hpp"
#include "fl/strategy.hpp"
#include "netsim/client_profile.hpp"
#include "nn/mlp_model.hpp"
#include "scenario/config.hpp"
#include "scenario/model.hpp"
#include "support/mutate_bytes.hpp"
#include "tensor/rng.hpp"
#include "wire/crc32c.hpp"
#include "wire/reader.hpp"
#include "wire/update_codec.hpp"
#include "wire/writer.hpp"

namespace fedbiad {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& tag) {
  static int counter = 0;
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("fedbiad_ckpt_" + tag + "_" +
                        std::to_string(counter++));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

// --- Snapshot file round-trip ---------------------------------------------

checkpoint::EngineSnapshot sample_snapshot() {
  checkpoint::EngineSnapshot snap;
  snap.engine = "barrier";
  snap.seed = 42;
  snap.rounds_target = 8;
  snap.param_count = 5;
  snap.clock = 12.75;
  snap.version = 3;
  snap.dispatched = 11;
  tensor::Rng rng(42);
  for (int i = 0; i < 7; ++i) rng.uniform();
  (void)rng.normal();  // leaves a cached Box–Muller deviate in the state
  snap.rng = rng.state();
  snap.committed = 9;
  snap.abandoned = 1;
  snap.rejected = 1;
  snap.rejected_deliveries = 4;
  snap.wasted_uplink_bytes = 123;
  snap.rejected_bytes = 456;
  snap.global = {1.0F, -2.5F, 0.0F, 3.25F, -0.125F};
  fl::RoundRecord rec;
  rec.round = 3;
  rec.train_loss = 0.5;
  rec.test_loss = 0.25;
  rec.top1 = 0.75;
  rec.topk = 0.875;
  rec.participants = 3;
  rec.uplink_bytes_total = 999;
  rec.uplink_bytes_max = 333;
  rec.downlink_bytes = 444;
  rec.lttr_seconds = 0.01;
  rec.upload_seconds = 1.5;
  rec.download_seconds = 0.5;
  rec.aggregate_seconds = 0.002;
  rec.clock_seconds = 12.75;
  rec.mean_staleness = 0.5;
  rec.abandoned = 1;
  rec.wasted_uplink_bytes = 123;
  rec.rejected = 1;
  rec.rejected_bytes = 456;
  snap.rounds = {rec};
  snap.strategy_state = {1, 2, 3, 250};
  checkpoint::JobSnapshot job;
  job.client = 2;
  job.slot = 1;
  job.version = 3;
  job.dispatch_index = 10;
  job.attempt = 2;
  job.dispatch_clock = 12.0;
  job.download_seconds = 0.25;
  job.compute_seconds = 0.5;
  job.upload_start = 12.75;
  job.churn_fails = false;
  job.churn_fraction = 0.0;
  job.has_pending = true;
  job.samples = 8;
  job.is_update = true;
  job.payload.bytes = {9, 8, 7, 6, 5};
  job.train_seconds = 0.03;
  job.mean_loss = 1.5;
  job.last_loss = 1.25;
  snap.jobs.push_back(job);
  checkpoint::JobSnapshot training;
  training.client = 4;
  training.dispatch_index = 9;
  training.dispatch_clock = 11.5;
  training.has_pending = false;
  training.samples = 8;
  snap.jobs.push_back(training);
  snap.events = {
      {checkpoint::EventKind::kDeadline, 0, 14.0, 0},
      {checkpoint::EventKind::kTraining, 1, 13.0, 0},
      {checkpoint::EventKind::kDelivery, 0, 13.5, 0},
      {checkpoint::EventKind::kDuplicate, checkpoint::kNoJob, 13.25, 777},
  };
  return snap;
}

void expect_snapshot_equal(const checkpoint::EngineSnapshot& a,
                           const checkpoint::EngineSnapshot& b) {
  EXPECT_EQ(a.engine, b.engine);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.rounds_target, b.rounds_target);
  EXPECT_EQ(a.param_count, b.param_count);
  EXPECT_EQ(a.clock, b.clock);
  EXPECT_EQ(a.version, b.version);
  EXPECT_EQ(a.dispatched, b.dispatched);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(a.rng.s[i], b.rng.s[i]);
  EXPECT_EQ(a.rng.cached_normal, b.rng.cached_normal);
  EXPECT_EQ(a.rng.has_cached_normal, b.rng.has_cached_normal);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.abandoned, b.abandoned);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.rejected_deliveries, b.rejected_deliveries);
  EXPECT_EQ(a.wasted_uplink_bytes, b.wasted_uplink_bytes);
  EXPECT_EQ(a.rejected_bytes, b.rejected_bytes);
  EXPECT_EQ(a.global, b.global);
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].round, b.rounds[i].round);
    EXPECT_EQ(a.rounds[i].train_loss, b.rounds[i].train_loss);
    EXPECT_EQ(a.rounds[i].test_loss, b.rounds[i].test_loss);
    EXPECT_EQ(a.rounds[i].top1, b.rounds[i].top1);
    EXPECT_EQ(a.rounds[i].topk, b.rounds[i].topk);
    EXPECT_EQ(a.rounds[i].participants, b.rounds[i].participants);
    EXPECT_EQ(a.rounds[i].uplink_bytes_total, b.rounds[i].uplink_bytes_total);
    EXPECT_EQ(a.rounds[i].uplink_bytes_max, b.rounds[i].uplink_bytes_max);
    EXPECT_EQ(a.rounds[i].downlink_bytes, b.rounds[i].downlink_bytes);
    EXPECT_EQ(a.rounds[i].lttr_seconds, b.rounds[i].lttr_seconds);
    EXPECT_EQ(a.rounds[i].upload_seconds, b.rounds[i].upload_seconds);
    EXPECT_EQ(a.rounds[i].download_seconds, b.rounds[i].download_seconds);
    EXPECT_EQ(a.rounds[i].aggregate_seconds, b.rounds[i].aggregate_seconds);
    EXPECT_EQ(a.rounds[i].clock_seconds, b.rounds[i].clock_seconds);
    EXPECT_EQ(a.rounds[i].mean_staleness, b.rounds[i].mean_staleness);
    EXPECT_EQ(a.rounds[i].abandoned, b.rounds[i].abandoned);
    EXPECT_EQ(a.rounds[i].wasted_uplink_bytes, b.rounds[i].wasted_uplink_bytes);
    EXPECT_EQ(a.rounds[i].rejected, b.rounds[i].rejected);
    EXPECT_EQ(a.rounds[i].rejected_bytes, b.rounds[i].rejected_bytes);
  }
  EXPECT_EQ(a.strategy_state, b.strategy_state);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].client, b.jobs[i].client);
    EXPECT_EQ(a.jobs[i].slot, b.jobs[i].slot);
    EXPECT_EQ(a.jobs[i].version, b.jobs[i].version);
    EXPECT_EQ(a.jobs[i].dispatch_index, b.jobs[i].dispatch_index);
    EXPECT_EQ(a.jobs[i].attempt, b.jobs[i].attempt);
    EXPECT_EQ(a.jobs[i].dispatch_clock, b.jobs[i].dispatch_clock);
    EXPECT_EQ(a.jobs[i].download_seconds, b.jobs[i].download_seconds);
    EXPECT_EQ(a.jobs[i].compute_seconds, b.jobs[i].compute_seconds);
    EXPECT_EQ(a.jobs[i].upload_start, b.jobs[i].upload_start);
    EXPECT_EQ(a.jobs[i].churn_fails, b.jobs[i].churn_fails);
    EXPECT_EQ(a.jobs[i].churn_fraction, b.jobs[i].churn_fraction);
    EXPECT_EQ(a.jobs[i].has_pending, b.jobs[i].has_pending);
    EXPECT_EQ(a.jobs[i].samples, b.jobs[i].samples);
    EXPECT_EQ(a.jobs[i].is_update, b.jobs[i].is_update);
    EXPECT_EQ(a.jobs[i].payload.bytes, b.jobs[i].payload.bytes);
    EXPECT_EQ(a.jobs[i].train_seconds, b.jobs[i].train_seconds);
    EXPECT_EQ(a.jobs[i].mean_loss, b.jobs[i].mean_loss);
    EXPECT_EQ(a.jobs[i].last_loss, b.jobs[i].last_loss);
  }
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].job_index, b.events[i].job_index);
    EXPECT_EQ(a.events[i].time, b.events[i].time);
    EXPECT_EQ(a.events[i].aux, b.events[i].aux);
  }
}

TEST(CheckpointFile, WriteReadRoundTrip) {
  const std::string dir = fresh_dir("roundtrip");
  const checkpoint::EngineSnapshot snap = sample_snapshot();
  checkpoint::write_snapshot(dir, snap);
  const auto paths = checkpoint::list_snapshots(dir);
  ASSERT_EQ(paths.size(), 1u);
  expect_snapshot_equal(checkpoint::read_snapshot(paths[0]), snap);
  // No torn tmp file left behind by the atomic write.
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().filename().string().rfind(".tmp-", 0),
              std::string::npos);
  }
}

TEST(CheckpointFile, RestoredRngContinuesTheSequence) {
  const std::string dir = fresh_dir("rng");
  tensor::Rng original(7);
  for (int i = 0; i < 5; ++i) original.uniform();
  (void)original.normal();  // half of a Box–Muller pair stays cached
  checkpoint::EngineSnapshot snap = sample_snapshot();
  snap.rng = original.state();
  checkpoint::write_snapshot(dir, snap);
  const auto back = checkpoint::read_snapshot(
      checkpoint::list_snapshots(dir)[0]);
  tensor::Rng restored(999);
  restored.set_state(back.rng);
  // The cached deviate is part of the state: normal() must agree too.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(restored.normal(), original.normal());
    EXPECT_EQ(restored.uniform(), original.uniform());
    EXPECT_EQ(restored.uniform_index(1000), original.uniform_index(1000));
  }
}

TEST(CheckpointFile, ListSnapshotsSortsByVersionAndHandlesMissingDir) {
  const std::string dir = fresh_dir("list");
  checkpoint::EngineSnapshot snap = sample_snapshot();
  for (const std::uint64_t v : {12u, 3u, 101u}) {
    snap.version = v;
    checkpoint::write_snapshot(dir, snap);
  }
  const auto paths = checkpoint::list_snapshots(dir);
  ASSERT_EQ(paths.size(), 3u);
  EXPECT_NE(paths[0].find("00000003"), std::string::npos);
  EXPECT_NE(paths[1].find("00000012"), std::string::npos);
  EXPECT_NE(paths[2].find("00000101"), std::string::npos);
  EXPECT_TRUE(checkpoint::list_snapshots(dir + "/nonexistent").empty());
  EXPECT_FALSE(checkpoint::find_latest_valid(dir + "/nonexistent").has_value());
}

TEST(CheckpointFile, TornAndCorruptSnapshotsAreSkipped) {
  const std::string dir = fresh_dir("torn");
  checkpoint::EngineSnapshot snap = sample_snapshot();
  snap.version = 1;
  checkpoint::write_snapshot(dir, snap);
  snap.version = 2;
  checkpoint::write_snapshot(dir, snap);
  auto paths = checkpoint::list_snapshots(dir);
  ASSERT_EQ(paths.size(), 2u);
  // Tear the newest snapshot as a crash mid-write would.
  {
    std::ifstream in(paths[1], std::ios::binary);
    std::vector<char> all((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
    all.resize(all.size() / 2);
    std::ofstream out(paths[1], std::ios::binary | std::ios::trunc);
    out.write(all.data(), static_cast<std::streamsize>(all.size()));
  }
  EXPECT_THROW(checkpoint::read_snapshot(paths[1]), wire::DecodeError);
  const auto latest = checkpoint::find_latest_valid(dir);
  ASSERT_TRUE(latest.has_value());
  EXPECT_NE(latest->find("00000001"), std::string::npos)
      << "must fall back to the last good snapshot";
  // Bit-rot the survivor too: now nothing verifies.
  {
    std::fstream f(paths[0],
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(40);
    char b = 0;
    f.seekg(40);
    f.get(b);
    b = static_cast<char>(b ^ 0x04);
    f.seekp(40);
    f.put(b);
  }
  EXPECT_FALSE(checkpoint::find_latest_valid(dir).has_value());
}

TEST(CheckpointFile, PruneKeepsNewest) {
  const std::string dir = fresh_dir("prune");
  checkpoint::EngineSnapshot snap = sample_snapshot();
  for (std::uint64_t v = 1; v <= 5; ++v) {
    snap.version = v;
    checkpoint::write_snapshot(dir, snap);
  }
  checkpoint::prune(dir, 2);
  const auto paths = checkpoint::list_snapshots(dir);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_NE(paths[0].find("00000004"), std::string::npos);
  EXPECT_NE(paths[1].find("00000005"), std::string::npos);
  checkpoint::prune(dir, 10);  // keep more than exist: no-op
  EXPECT_EQ(checkpoint::list_snapshots(dir).size(), 2u);
}

// --- Engine resume: bit-identity ------------------------------------------

constexpr std::size_t kClients = 6;

struct Fixture {
  fl::SimulationConfig sim;
  data::DatasetPtr train;
  data::DatasetPtr test;
  data::Partition partition;
  nn::ModelFactory factory;
};

Fixture make_fixture(std::size_t threads, std::size_t rounds) {
  Fixture fx;
  fx.sim.rounds = rounds;
  fx.sim.selection_fraction = 0.5;
  fx.sim.train.local_iterations = 3;
  fx.sim.train.batch_size = 8;
  fx.sim.train.sgd = {.lr = 0.1F, .weight_decay = 0.0F, .clip_norm = 0.0F};
  fx.sim.seed = 9;
  fx.sim.threads = threads;
  auto img_cfg = data::ImageSynthConfig::mnist_like(3);
  img_cfg.train_samples = 96;
  img_cfg.test_samples = 30;
  img_cfg.height = 10;
  img_cfg.width = 10;
  const auto datasets = data::make_image_datasets(img_cfg);
  fx.train = datasets.train;
  fx.test = datasets.test;
  tensor::Rng prng(5);
  fx.partition = data::partition_iid(datasets.train->size(), kClients, prng);
  fx.factory = [] {
    return std::make_unique<nn::MlpModel>(
        nn::MlpConfig{.input = 100, .hidden = 8, .classes = 10});
  };
  return fx;
}

fl::StrategyPtr make_strategy(bool fedbiad) {
  if (fedbiad) {
    return std::make_shared<core::FedBiadStrategy>(
        core::FedBiadConfig{.dropout_rate = 0.5, .tau = 2});
  }
  return std::make_shared<baselines::FedAvgStrategy>();
}

struct RunSpec {
  fl::AggregationMode mode = fl::AggregationMode::kBarrier;
  std::size_t threads = 1;
  std::size_t rounds = 4;
  bool fedbiad = false;
  bool faults = false;
};

fl::SimulationResult run_with_checkpoints(const RunSpec& spec,
                                          const std::string& dir,
                                          bool resume) {
  Fixture fx = make_fixture(spec.threads, spec.rounds);
  fl::AsyncSimulationConfig cfg;
  cfg.base = fx.sim;
  cfg.mode = spec.mode;
  cfg.buffer_size = 2;
  netsim::HeterogeneityConfig fleet;
  fleet.compute_spread = 6.0;
  fleet.bandwidth_spread = 3.0;
  fleet.straggler_fraction = 0.3;
  fleet.straggler_multiplier = 4.0;
  cfg.heterogeneity = fleet;
  if (spec.faults) {
    scenario::Config sc;
    sc.name = "ckpt_faults";
    sc.seed = 55;
    sc.deadline_seconds = 2.5;
    sc.churn = scenario::ChurnConfig{.failure_rate = 0.1};
    sc.faults = scenario::FaultsConfig{
        .corruption_probability = 0.2,
        .corruption_mode = scenario::CorruptionMode::kBitFlip,
        .duplicate_probability = 0.1,
        .retry = {.max_attempts = 2,
                  .backoff_seconds = 0.125,
                  .backoff_multiplier = 2.0,
                  .jitter_fraction = 0.5},
    };
    cfg.hooks = scenario::make_engine_hooks(sc, kClients);
    cfg.scenario_name = sc.name;
  }
  if (!dir.empty()) {
    cfg.checkpoint.directory = dir;
    cfg.checkpoint.every_rounds = 1;
    cfg.checkpoint.keep = spec.rounds + 1;  // keep all for the tests
    cfg.checkpoint.resume = resume;
  }
  fl::AsyncSimulation sim(cfg, fx.factory, fx.train, fx.test, fx.partition,
                          make_strategy(spec.fedbiad));
  return sim.run();
}

// Bitwise comparison of everything deterministic. Wall-clock fields
// (lttr/aggregate seconds) are real measured time and legitimately differ
// between a resumed and an uninterrupted run; all virtual-clock and model
// state must agree exactly.
void expect_resumed_identical(const fl::SimulationResult& a,
                              const fl::SimulationResult& b) {
  EXPECT_EQ(a.strategy, b.strategy);
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].round, b.rounds[i].round);
    EXPECT_EQ(a.rounds[i].train_loss, b.rounds[i].train_loss) << "round " << i;
    EXPECT_EQ(a.rounds[i].test_loss, b.rounds[i].test_loss) << "round " << i;
    EXPECT_EQ(a.rounds[i].top1, b.rounds[i].top1) << "round " << i;
    EXPECT_EQ(a.rounds[i].topk, b.rounds[i].topk) << "round " << i;
    EXPECT_EQ(a.rounds[i].participants, b.rounds[i].participants);
    EXPECT_EQ(a.rounds[i].uplink_bytes_total, b.rounds[i].uplink_bytes_total);
    EXPECT_EQ(a.rounds[i].uplink_bytes_max, b.rounds[i].uplink_bytes_max);
    EXPECT_EQ(a.rounds[i].downlink_bytes, b.rounds[i].downlink_bytes);
    EXPECT_EQ(a.rounds[i].upload_seconds, b.rounds[i].upload_seconds);
    EXPECT_EQ(a.rounds[i].download_seconds, b.rounds[i].download_seconds);
    EXPECT_EQ(a.rounds[i].clock_seconds, b.rounds[i].clock_seconds);
    EXPECT_EQ(a.rounds[i].mean_staleness, b.rounds[i].mean_staleness);
    EXPECT_EQ(a.rounds[i].abandoned, b.rounds[i].abandoned);
    EXPECT_EQ(a.rounds[i].wasted_uplink_bytes, b.rounds[i].wasted_uplink_bytes);
    EXPECT_EQ(a.rounds[i].rejected, b.rounds[i].rejected);
    EXPECT_EQ(a.rounds[i].rejected_bytes, b.rounds[i].rejected_bytes);
  }
  EXPECT_EQ(a.total_dispatched, b.total_dispatched);
  EXPECT_EQ(a.total_committed, b.total_committed);
  EXPECT_EQ(a.total_abandoned, b.total_abandoned);
  EXPECT_EQ(a.total_rejected, b.total_rejected);
  EXPECT_EQ(a.total_rejected_deliveries, b.total_rejected_deliveries);
  EXPECT_EQ(a.total_rejected_bytes, b.total_rejected_bytes);
  EXPECT_EQ(a.total_wasted_uplink_bytes, b.total_wasted_uplink_bytes);
  EXPECT_EQ(a.final_buffered, b.final_buffered);
  EXPECT_EQ(a.final_in_flight, b.final_in_flight);
  ASSERT_EQ(a.final_params.size(), b.final_params.size());
  for (std::size_t i = 0; i < a.final_params.size(); ++i) {
    ASSERT_EQ(a.final_params[i], b.final_params[i]) << "param " << i;
  }
}

// Checkpoint writes must not perturb the trajectory: a run that snapshots
// every round equals a run that never checkpoints.
TEST(EngineCheckpoint, WritingSnapshotsDoesNotPerturbTheRun) {
  const std::string dir = fresh_dir("inert");
  RunSpec spec;
  const auto with = run_with_checkpoints(spec, dir, /*resume=*/false);
  const auto without = run_with_checkpoints(spec, "", /*resume=*/false);
  expect_resumed_identical(with, without);
  EXPECT_EQ(checkpoint::list_snapshots(dir).size(), spec.rounds + 0u);
}

// Resume from every intermediate snapshot of an interrupted run and demand
// the full trajectory back, bit for bit.
struct ResumeCase {
  std::string tag;
  RunSpec spec;
};

class EngineResume : public ::testing::TestWithParam<ResumeCase> {};

TEST_P(EngineResume, ResumedRunIsBitIdenticalFromEverySnapshot) {
  const RunSpec& spec = GetParam().spec;
  const std::string full_dir = fresh_dir(GetParam().tag + "_full");
  const auto uninterrupted =
      run_with_checkpoints(spec, full_dir, /*resume=*/false);
  const auto snapshots = checkpoint::list_snapshots(full_dir);
  ASSERT_GE(snapshots.size(), spec.rounds);
  // "Interrupt" after round k by handing resume only the first k snapshots.
  for (std::size_t k = 1; k <= spec.rounds; ++k) {
    const std::string resume_dir =
        fresh_dir(GetParam().tag + "_k" + std::to_string(k));
    fs::copy_file(snapshots[k - 1],
                  fs::path(resume_dir) / fs::path(snapshots[k - 1]).filename());
    const auto resumed =
        run_with_checkpoints(spec, resume_dir, /*resume=*/true);
    expect_resumed_identical(resumed, uninterrupted);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Coverage, EngineResume,
    ::testing::Values(
        ResumeCase{"barrier_fedavg", {fl::AggregationMode::kBarrier, 1, 3}},
        ResumeCase{"barrier_fedbiad",
                   {fl::AggregationMode::kBarrier, 1, 3, /*fedbiad=*/true}},
        ResumeCase{"fedasync", {fl::AggregationMode::kFedAsync, 1, 3}},
        ResumeCase{"buffered", {fl::AggregationMode::kBufferedK, 1, 3}},
        ResumeCase{"barrier_threads4",
                   {fl::AggregationMode::kBarrier, 4, 3, /*fedbiad=*/true}},
        ResumeCase{"faults_barrier",
                   {fl::AggregationMode::kBarrier, 1, 3, false, /*faults=*/true}},
        ResumeCase{"faults_buffered_threads4",
                   {fl::AggregationMode::kBufferedK, 4, 3, false,
                    /*faults=*/true}}),
    [](const auto& info) { return info.param.tag; });

// A torn newest snapshot falls back to the previous one — and the resumed
// run still reproduces the uninterrupted trajectory.
TEST(EngineCheckpoint, ResumeFallsBackPastTornSnapshot) {
  RunSpec spec;
  spec.rounds = 3;
  const std::string full_dir = fresh_dir("fallback_full");
  const auto uninterrupted =
      run_with_checkpoints(spec, full_dir, /*resume=*/false);
  const auto snapshots = checkpoint::list_snapshots(full_dir);
  ASSERT_GE(snapshots.size(), 2u);
  const std::string resume_dir = fresh_dir("fallback_resume");
  fs::copy_file(snapshots[0],
                fs::path(resume_dir) / fs::path(snapshots[0]).filename());
  fs::copy_file(snapshots[1],
                fs::path(resume_dir) / fs::path(snapshots[1]).filename());
  {
    // Tear snapshot 2 mid-file.
    const auto torn = checkpoint::list_snapshots(resume_dir)[1];
    std::ifstream in(torn, std::ios::binary);
    std::vector<char> all((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
    all.resize(all.size() - 7);
    std::ofstream out(torn, std::ios::binary | std::ios::trunc);
    out.write(all.data(), static_cast<std::streamsize>(all.size()));
  }
  const auto resumed = run_with_checkpoints(spec, resume_dir, /*resume=*/true);
  expect_resumed_identical(resumed, uninterrupted);
}

// Resume with no snapshot at all starts from scratch — same trajectory as a
// fresh run.
TEST(EngineCheckpoint, ResumeWithEmptyDirectoryStartsFresh) {
  RunSpec spec;
  spec.rounds = 2;
  const std::string dir = fresh_dir("empty_resume");
  const auto resumed = run_with_checkpoints(spec, dir, /*resume=*/true);
  const auto fresh = run_with_checkpoints(spec, "", /*resume=*/false);
  expect_resumed_identical(resumed, fresh);
}

// A snapshot from a mismatched run configuration must be refused loudly,
// not silently resumed into a diverging trajectory.
TEST(EngineCheckpoint, ResumeRejectsMismatchedSnapshot) {
  RunSpec barrier_spec;
  barrier_spec.rounds = 2;
  const std::string dir = fresh_dir("mismatch");
  run_with_checkpoints(barrier_spec, dir, /*resume=*/false);
  RunSpec async_spec;
  async_spec.rounds = 2;
  async_spec.mode = fl::AggregationMode::kFedAsync;
  EXPECT_THROW(run_with_checkpoints(async_spec, dir, /*resume=*/true),
               CheckError);
}

// --- Reader fuzz ----------------------------------------------------------

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

constexpr std::size_t kHeaderBytes = 16;  // magic, format version, body length

/// A snapshot file around `body`: the header of a valid file and the
/// body's own CRC32C, so a mutated body reaches the body parser instead of
/// stopping at the CRC check.
std::vector<std::uint8_t> reseal(const std::vector<std::uint8_t>& valid_file,
                                 const std::vector<std::uint8_t>& body) {
  wire::Writer w;
  w.bytes(std::span(valid_file.data(), 8));  // magic + format version
  w.u64(body.size());
  w.bytes(body);
  w.u32(wire::crc32c(body));
  return std::move(w).take();
}

void put_file(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
}

/// What the checkpoint reader made of one mutated file.
struct ReaderVerdict {
  bool accepted = false;
  std::string defect;  ///< empty when the outcome is allowed
};

/// Allowed: the file is rejected (DecodeError or CheckError, and skipped by
/// resume), or read back into a snapshot that rewrites to these bytes.
ReaderVerdict check_mutated_file(const std::vector<std::uint8_t>& file,
                                 const std::string& dir) {
  const std::string path = dir + "/ckpt-00000001.fbck";
  put_file(path, file);
  ReaderVerdict v;
  checkpoint::EngineSnapshot snap;
  try {
    snap = checkpoint::read_snapshot(path);
    v.accepted = true;
  } catch (const wire::DecodeError&) {
  } catch (const CheckError&) {
  } catch (const std::exception& e) {
    v.defect = std::string("unexpected exception: ") + e.what();
    return v;
  }
  if (!v.accepted) {
    if (checkpoint::find_latest_valid(dir)) v.defect = "resume took it";
    return v;
  }
  fs::remove(path);
  const std::string out_dir = dir + "/rewrite";
  fs::remove_all(out_dir);
  checkpoint::write_snapshot(out_dir, snap);
  const auto rewritten = checkpoint::list_snapshots(out_dir);
  if (rewritten.size() != 1) {
    v.defect = "rewrite produced no single file";
  } else if (file_bytes(rewritten[0]) != file) {
    v.defect = "read back, but rewrote different bytes";
  }
  return v;
}

/// The body of `snap` as write_snapshot lays it out, and the whole file.
struct SnapshotFile {
  std::vector<std::uint8_t> file;
  std::vector<std::uint8_t> body;
};

SnapshotFile encode_file(const checkpoint::EngineSnapshot& snap) {
  const std::string dir = fresh_dir("encode");
  checkpoint::write_snapshot(dir, snap);
  SnapshotFile out;
  out.file = file_bytes(checkpoint::list_snapshots(dir).at(0));
  out.body.assign(out.file.begin() + kHeaderBytes, out.file.end() - 4);
  return out;
}

/// The first body offset where `a` and `b` differ.
std::size_t first_difference(const std::vector<std::uint8_t>& a,
                             const std::vector<std::uint8_t>& b) {
  const auto [ia, ib] = std::mismatch(a.begin(), a.end(), b.begin(), b.end());
  return static_cast<std::size_t>(ia - a.begin());
}

/// read_snapshot of `file`, written under `tag`.
checkpoint::EngineSnapshot read_file(const std::vector<std::uint8_t>& file,
                                     const std::string& tag) {
  const std::string path = fresh_dir(tag) + "/ckpt-00000001.fbck";
  put_file(path, file);
  return checkpoint::read_snapshot(path);
}

// Regression (reader fuzz): a corrupt length or count was used to size an
// allocation before the reader checked that the body holds that much — a
// 2^40-byte engine name or a 2^40-float global model threw std::bad_alloc
// (or took the memory) instead of DecodeError.
TEST(CheckpointFile, HugeLengthsAreRejectedWithoutAllocating) {
  const SnapshotFile valid = encode_file(sample_snapshot());
  constexpr std::uint64_t kHuge = std::uint64_t{1} << 40;
  {
    wire::Writer w;
    w.varint(kHuge);  // engine name length
    w.u8('x');
    EXPECT_THROW(read_file(reseal(valid.file, std::move(w).take()), "name"),
                 wire::DecodeError);
  }
  {
    // Everything up to the global model's count as a real snapshot has it
    // (the first byte an empty and a one-float global differ in), then a
    // count far past the end of the body.
    checkpoint::EngineSnapshot snap = sample_snapshot();
    snap.global.clear();
    std::vector<std::uint8_t> body = encode_file(snap).body;
    snap.global = {0.0F};
    body.resize(first_difference(body, encode_file(snap).body));
    wire::Writer w;
    w.varint(kHuge);
    const std::vector<std::uint8_t> count = std::move(w).take();
    body.insert(body.end(), count.begin(), count.end());
    EXPECT_THROW(read_file(reseal(valid.file, body), "global"),
                 wire::DecodeError);
  }
}

// Regression (reader fuzz): a flag byte other than 0 or 1 read back as
// `true` and rewrote as 1, so an accepted file was not the encoding of the
// snapshot read from it.
TEST(CheckpointFile, FlagBytesOtherThanZeroOrOneAreRejected) {
  checkpoint::EngineSnapshot snap = sample_snapshot();
  snap.rng.has_cached_normal = false;
  const SnapshotFile off = encode_file(snap);
  snap.rng.has_cached_normal = true;
  const SnapshotFile on = encode_file(snap);
  const std::size_t flag = first_difference(off.body, on.body);
  ASSERT_EQ(on.body[flag], 1);
  std::vector<std::uint8_t> body = on.body;
  body[flag] = 2;
  EXPECT_THROW(read_file(reseal(on.file, body), "flag"), wire::DecodeError);
}

// Regression (reader fuzz): a varint with a redundant zero continuation
// byte (0x83 0x00 for 3) decoded to the same value as its minimal form, so
// the file did not rewrite to itself. The wire reader now rejects it.
TEST(CheckpointFile, NonMinimalVarintsAreRejected) {
  checkpoint::EngineSnapshot snap = sample_snapshot();
  snap.version = 3;
  const SnapshotFile three = encode_file(snap);
  snap.version = 4;
  const std::size_t at = first_difference(three.body, encode_file(snap).body);
  ASSERT_EQ(three.body[at], 3);
  std::vector<std::uint8_t> body = three.body;
  body[at] = 0x83;
  body.insert(body.begin() + static_cast<std::ptrdiff_t>(at) + 1, 0x00);
  EXPECT_THROW(read_file(reseal(three.file, body), "varint"),
               wire::DecodeError);
}

// Every byte of a snapshot body is hostile once the file is: bit rot that
// happens to keep the CRC, or a file crafted with a matching CRC. Real
// engine snapshots (in-flight jobs, pending events, a FedBIAD strategy
// blob) are mutated with support::mutate_bytes and resealed with the
// mutated body's CRC32C; every result must be rejected with DecodeError or
// CheckError (and skipped by resume) or read back into a snapshot that
// rewrites to the same bytes. Any other outcome is a defect for a named
// regression case below.
TEST(CheckpointFuzz, EveryResealedBodyMutationIsRejectedOrRewritesIdentically) {
  const std::string run_dir = fresh_dir("fuzz_seed");
  RunSpec spec;
  spec.mode = fl::AggregationMode::kBufferedK;
  spec.fedbiad = true;
  spec.faults = true;
  (void)run_with_checkpoints(spec, run_dir, /*resume=*/false);
  std::vector<std::vector<std::uint8_t>> files;
  for (const std::string& path : checkpoint::list_snapshots(run_dir)) {
    files.push_back(file_bytes(path));
  }
  {
    const std::string dir = fresh_dir("fuzz_sample");
    checkpoint::write_snapshot(dir, sample_snapshot());
    files.push_back(file_bytes(checkpoint::list_snapshots(dir).at(0)));
  }
  ASSERT_GE(files.size(), 4u);
  std::vector<std::vector<std::uint8_t>> bodies;
  for (const auto& f : files) {
    ASSERT_GT(f.size(), kHeaderBytes + 4);
    bodies.emplace_back(f.begin() + kHeaderBytes, f.end() - 4);
    ASSERT_EQ(reseal(f, bodies.back()), f) << "reseal must be the identity";
  }

  const std::string dir = fresh_dir("fuzz");
  tensor::Rng rng(0xC4EC);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (std::size_t iter = 0; iter < 1500; ++iter) {
    const std::size_t k = rng.uniform_index(files.size());
    std::vector<std::uint8_t> body = bodies[k];
    const std::size_t steps = 1 + rng.uniform_index(2);
    for (std::size_t m = 0; m < steps; ++m) {
      support::mutate_bytes(
          body,
          [&]() -> const std::vector<std::uint8_t>& {
            return bodies[rng.uniform_index(bodies.size())];
          },
          /*varint_at=*/rng.uniform_index(body.size() + 1),
          /*n=*/kClients * 200, rng);
    }
    const std::vector<std::uint8_t> file = reseal(files[k], body);
    const ReaderVerdict v = check_mutated_file(file, dir);
    ASSERT_EQ(v.defect, "") << "iteration " << iter << ", seed file " << k;
    ++(v.accepted ? accepted : rejected);
  }
  // Both outcomes occur, or the mutations are not reaching the body parse.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

// --- Strategy state blobs -------------------------------------------------

TEST(StrategyState, FedAvgRoundTripsEmptyBlob) {
  baselines::FedAvgStrategy strategy;
  EXPECT_TRUE(strategy.save_state().empty());
  strategy.load_state({});  // accepts its own (empty) blob
}

TEST(StrategyState, FedBiadRejectsForeignBlob) {
  core::FedBiadStrategy strategy(
      core::FedBiadConfig{.dropout_rate = 0.5, .tau = 2});
  // {1,2,3}: one client, id 2, 3 score rows — then the reader underflows.
  const std::vector<std::uint8_t> garbage = {1, 2, 3};
  EXPECT_THROW(strategy.load_state(garbage), wire::DecodeError);
  baselines::FedAvgStrategy fedavg;
  EXPECT_THROW(fedavg.load_state(garbage), CheckError);
}

}  // namespace
}  // namespace fedbiad
