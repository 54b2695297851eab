// Tests for the baseline strategies: FedAvg, FedDrop, AFD, FedMP, FjORD,
// HeteroFL, and the width-plan machinery they share.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "baselines/afd.hpp"
#include "baselines/fedavg.hpp"
#include "baselines/feddrop.hpp"
#include "baselines/fedmp.hpp"
#include "baselines/fjord.hpp"
#include "baselines/heterofl.hpp"
#include "baselines/unit_mask.hpp"
#include "common/check.hpp"
#include "core/drop_pattern.hpp"
#include "data/image_synth.hpp"
#include "data/text_synth.hpp"
#include "nn/lstm_lm_model.hpp"
#include "nn/mlp_model.hpp"
#include "support/dense_oracle.hpp"

namespace fedbiad::baselines {
namespace {

/// Runs one client and then performs the server-side decode step exactly as
/// the engines do on upload arrival, so tests can inspect the dense view.
template <typename Strat>
oracle::DenseOutcome run_decoded(Strat& strat, fl::ClientContext& ctx) {
  return oracle::decode_dense(strat, ctx.model.store(), strat.run_client(ctx));
}

struct ImageHarness {
  explicit ImageHarness(std::uint64_t seed = 5) {
    auto cfg = data::ImageSynthConfig::mnist_like(seed);
    cfg.train_samples = 80;
    cfg.test_samples = 10;
    cfg.height = 10;
    cfg.width = 10;
    datasets = data::make_image_datasets(cfg);
    model = std::make_unique<nn::MlpModel>(
        nn::MlpConfig{.input = 100, .hidden = 12, .classes = 10});
    tensor::Rng init(seed);
    model->init_params(init);
    shard.resize(datasets.train->size());
    for (std::size_t i = 0; i < shard.size(); ++i) shard[i] = i;
    settings.local_iterations = 6;
    settings.batch_size = 8;
    settings.sgd = {.lr = 0.1F, .weight_decay = 0.0F, .clip_norm = 0.0F};
    global.assign(model->store().params().begin(),
                  model->store().params().end());
  }

  fl::ClientContext context(std::size_t client, std::size_t round) {
    return fl::ClientContext{.client_id = client,
                             .round = round,
                             .model = *model,
                             .global_params = global,
                             .dataset = *datasets.train,
                             .shard = shard,
                             .settings = settings,
                             .rng = tensor::Rng(round * 7919 + client)};
  }

  data::ImageDatasets datasets;
  std::unique_ptr<nn::MlpModel> model;
  std::vector<std::size_t> shard;
  fl::TrainSettings settings;
  std::vector<float> global;
};

struct TextHarness {
  explicit TextHarness(std::uint64_t seed = 6) {
    auto cfg = data::TextSynthConfig::ptb_like(seed);
    cfg.vocab = 40;
    cfg.train_sequences = 60;
    cfg.test_sequences = 10;
    cfg.seq_len = 6;
    datasets = data::make_text_datasets_iid(cfg, 3);
    model = std::make_unique<nn::LstmLmModel>(nn::LstmLmConfig{
        .vocab = 40, .embed = 8, .hidden = 10, .layers = 2});
    tensor::Rng init(seed);
    model->init_params(init);
    shard = datasets.client_indices[0];
    settings.local_iterations = 4;
    settings.batch_size = 4;
    settings.topk = 3;
    settings.sgd = {.lr = 0.5F, .weight_decay = 0.0F, .clip_norm = 5.0F};
    global.assign(model->store().params().begin(),
                  model->store().params().end());
  }

  fl::ClientContext context(std::size_t client, std::size_t round) {
    return fl::ClientContext{.client_id = client,
                             .round = round,
                             .model = *model,
                             .global_params = global,
                             .dataset = *datasets.train,
                             .shard = shard,
                             .settings = settings,
                             .rng = tensor::Rng(round * 104729 + client)};
  }

  data::TextDatasets datasets;
  std::unique_ptr<nn::LstmLmModel> model;
  std::vector<std::size_t> shard;
  fl::TrainSettings settings;
  std::vector<float> global;
};

TEST(FedAvg, UploadsFullDenseModel) {
  ImageHarness h;
  FedAvgStrategy strat;
  auto ctx = h.context(0, 1);
  const auto out = run_decoded(strat, ctx);
  EXPECT_EQ(out.uplink_bytes, h.model->store().size() * 4);
  EXPECT_TRUE(std::all_of(out.present.begin(), out.present.end(),
                          [](std::uint8_t p) { return p == 1; }));
  EXPECT_FALSE(out.is_update);
}

TEST(FedAvg, TrainingChangesParameters) {
  ImageHarness h;
  FedAvgStrategy strat;
  auto ctx = h.context(0, 1);
  const auto out = run_decoded(strat, ctx);
  double delta = 0.0;
  for (std::size_t i = 0; i < out.values.size(); ++i) {
    delta += std::abs(out.values[i] - h.global[i]);
  }
  EXPECT_GT(delta, 0.0);
}

TEST(FedDrop, RejectsInvalidRate) {
  EXPECT_THROW(FedDropStrategy(1.0), fedbiad::CheckError);
  EXPECT_THROW(FedDropStrategy(-0.1), fedbiad::CheckError);
}

TEST(FedDrop, DropsFcRowsOnMlp) {
  ImageHarness h;
  FedDropStrategy strat(0.5);
  auto ctx = h.context(0, 1);
  const auto out = run_decoded(strat, ctx);
  const double dense =
      static_cast<double>(core::dense_model_bytes(h.model->store()));
  EXPECT_NEAR(static_cast<double>(out.uplink_bytes) / dense, 0.5, 0.05);
}

TEST(FedDrop, NeverDropsRecurrentRowsOnLstm) {
  TextHarness h;
  FedDropStrategy strat(0.5);
  auto ctx = h.context(0, 1);
  const auto out = run_decoded(strat, ctx);
  const auto& store = h.model->store();
  // Every recurrent coordinate must be present.
  for (const auto& grp : store.groups()) {
    if (!nn::is_recurrent(grp.kind)) continue;
    for (std::size_t i = grp.offset; i < grp.offset + grp.size(); ++i) {
      ASSERT_EQ(out.present[i], 1) << "recurrent coordinate dropped";
    }
  }
  // Save ratio is therefore far below 2× — the paper's observation that
  // FedDrop compresses RNN models poorly.
  const double dense =
      static_cast<double>(core::dense_model_bytes(store));
  EXPECT_GT(static_cast<double>(out.uplink_bytes) / dense, 0.6);
}

TEST(FedDrop, DifferentClientsGetDifferentPatterns) {
  ImageHarness h;
  FedDropStrategy strat(0.5);
  auto ctx0 = h.context(0, 1);
  const auto out0 = run_decoded(strat, ctx0);
  auto ctx1 = h.context(1, 1);
  const auto out1 = run_decoded(strat, ctx1);
  EXPECT_NE(out0.present, out1.present);
}

TEST(Afd, AllClientsShareTheRoundPattern) {
  ImageHarness h;
  AfdStrategy strat(0.5);
  strat.begin_round(1, h.global);
  auto ctx0 = h.context(0, 1);
  const auto out0 = run_decoded(strat, ctx0);
  auto ctx1 = h.context(1, 1);
  const auto out1 = run_decoded(strat, ctx1);
  EXPECT_EQ(out0.present, out1.present);
}

TEST(Afd, ScoresUpdateFromAggregatedDelta) {
  ImageHarness h;
  AfdStrategy strat(0.5, 0.0, 0.0);  // no momentum/exploration: pure |Δ|
  strat.begin_round(1, h.global);
  auto ctx = h.context(0, 1);
  strat.run_client(ctx);
  std::vector<float> new_global = h.global;
  new_global[0] += 1.0F;  // move only coordinates of row 0
  strat.end_round(1, h.global, new_global);
  const auto& scores = strat.row_scores();
  ASSERT_FALSE(scores.empty());
  EXPECT_GT(scores[0], 0.0);
  EXPECT_DOUBLE_EQ(scores[1], 0.0);
}

TEST(Afd, SecondRoundDropsLowScoredRows) {
  ImageHarness h;
  AfdStrategy strat(0.5, 0.0, 0.0);
  strat.begin_round(1, h.global);
  auto ctx = h.context(0, 1);
  strat.run_client(ctx);
  // Craft a delta that makes the first half of fc1's rows clearly active.
  std::vector<float> new_global = h.global;
  const auto& store = h.model->store();
  const auto& fc1 = store.group(h.model->fc1_group());
  for (std::size_t r = 0; r < fc1.rows / 2; ++r) {
    for (std::size_t c = 0; c < fc1.row_len; ++c) {
      new_global[fc1.offset + r * fc1.row_len + c] += 1.0F;
    }
  }
  strat.end_round(1, h.global, new_global);
  strat.begin_round(2, h.global);
  auto ctx2 = h.context(1, 2);
  const auto out = run_decoded(strat, ctx2);
  // Active rows must be kept.
  for (std::size_t r = 0; r < fc1.rows / 2; ++r) {
    ASSERT_EQ(out.present[fc1.offset + r * fc1.row_len], 1)
        << "active row " << r << " was dropped";
  }
}

TEST(FedMp, PrunesSmallestMagnitudes) {
  ImageHarness h;
  FedMpStrategy strat(0.5);
  auto ctx = h.context(0, 1);
  const auto out = run_decoded(strat, ctx);
  const std::size_t absent = static_cast<std::size_t>(
      std::count(out.present.begin(), out.present.end(), std::uint8_t{0}));
  EXPECT_NEAR(static_cast<double>(absent) /
                  static_cast<double>(out.present.size()),
              0.5, 0.02);
  // Present values must dominate absent ones in magnitude: compare the
  // maximum pruned magnitude against the minimum kept magnitude.
  float max_pruned = 0.0F;
  float min_kept = 1e9F;
  auto params = h.model->store().params();
  for (std::size_t i = 0; i < out.present.size(); ++i) {
    if (out.present[i] == 0) {
      max_pruned = std::max(max_pruned, std::abs(params[i]));
    } else {
      min_kept = std::min(min_kept, std::abs(params[i]));
    }
  }
  EXPECT_LE(max_pruned, min_kept + 1e-6F);
}

TEST(FedMp, ZeroRateKeepsEverything) {
  ImageHarness h;
  FedMpStrategy strat(0.0);
  auto ctx = h.context(0, 1);
  const auto out = run_decoded(strat, ctx);
  EXPECT_TRUE(std::all_of(out.present.begin(), out.present.end(),
                          [](std::uint8_t p) { return p == 1; }));
}

TEST(FedMp, UploadAccountsPositions) {
  ImageHarness h;
  FedMpStrategy strat(0.5);
  auto ctx = h.context(0, 1);
  const auto out = run_decoded(strat, ctx);
  const std::size_t n = h.model->store().size();
  // ≈ half the values at 4 bytes plus the 1-bit occupancy bitmap (cheaper
  // than 16-bit positions at this rate).
  EXPECT_NEAR(static_cast<double>(out.uplink_bytes),
              0.5 * static_cast<double>(n) * 4.0 + n / 8.0,
              0.05 * static_cast<double>(n) * 4.0);
}

TEST(WidthPlan, MlpMaskCutsRowsAndColumns) {
  nn::MlpModel model({.input = 6, .hidden = 4, .classes = 3});
  const auto plan = WidthPlan::for_mlp(model);
  const auto& store = model.store();
  std::vector<std::uint8_t> present(store.size(), 1);
  plan.build_mask(store, 0.5, present);
  const auto& fc1 = store.group(model.fc1_group());
  const auto& fc2 = store.group(model.fc2_group());
  // Hidden units 2,3 cut: their fc1 rows are absent.
  EXPECT_EQ(present[fc1.offset + 1 * fc1.row_len], 1);
  EXPECT_EQ(present[fc1.offset + 2 * fc1.row_len], 0);
  EXPECT_EQ(present[fc1.offset + 3 * fc1.row_len], 0);
  // fc2 columns 2,3 cut in every row; bias column (index 4) kept.
  for (std::size_t r = 0; r < fc2.rows; ++r) {
    EXPECT_EQ(present[fc2.offset + r * fc2.row_len + 1], 1);
    EXPECT_EQ(present[fc2.offset + r * fc2.row_len + 2], 0);
    EXPECT_EQ(present[fc2.offset + r * fc2.row_len + 3], 0);
    EXPECT_EQ(present[fc2.offset + r * fc2.row_len + 4], 1);
  }
}

TEST(WidthPlan, FullRatioMasksNothing) {
  nn::MlpModel model({.input = 6, .hidden = 4, .classes = 3});
  const auto plan = WidthPlan::for_mlp(model);
  std::vector<std::uint8_t> present(model.store().size(), 1);
  plan.build_mask(model.store(), 1.0, present);
  EXPECT_TRUE(std::all_of(present.begin(), present.end(),
                          [](std::uint8_t p) { return p == 1; }));
}

TEST(WidthPlan, SubModelsAreNested) {
  // Ordered dropout's defining property: a narrower sub-model is contained
  // in every wider one.
  nn::LstmLmModel model({.vocab = 30, .embed = 8, .hidden = 8, .layers = 2});
  const auto plan = WidthPlan::for_lstm_lm(model);
  const auto& store = model.store();
  std::vector<std::uint8_t> narrow(store.size(), 1);
  std::vector<std::uint8_t> wide(store.size(), 1);
  plan.build_mask(store, 0.25, narrow);
  plan.build_mask(store, 0.75, wide);
  for (std::size_t i = 0; i < store.size(); ++i) {
    if (narrow[i] == 1) {
      ASSERT_EQ(wide[i], 1) << "narrow sub-model not nested at " << i;
    }
  }
}

TEST(WidthPlan, LstmUnitRowsAndRecurrentColumnsCut) {
  nn::LstmLmModel model({.vocab = 30, .embed = 8, .hidden = 8, .layers = 1});
  const auto plan = WidthPlan::for_lstm_lm(model);
  const auto& store = model.store();
  std::vector<std::uint8_t> present(store.size(), 1);
  plan.build_mask(store, 0.5, present);
  const auto& unit = store.group(model.unit_group(0));
  const auto& layer = model.lstm_layer(0);
  // Units 4..7 cut: their rows are fully absent.
  EXPECT_EQ(present[unit.offset + 2 * unit.row_len], 1);
  EXPECT_EQ(present[unit.offset + 6 * unit.row_len], 0);
  // Surviving unit 0's recurrent weights reading cut unit 6 are absent,
  // those reading surviving unit 2 are present — in all four gates.
  for (std::size_t gate = 0; gate < 4; ++gate) {
    EXPECT_EQ(present[unit.offset + 0 * unit.row_len +
                      layer.wh_offset(gate) + 2], 1);
    EXPECT_EQ(present[unit.offset + 0 * unit.row_len +
                      layer.wh_offset(gate) + 6], 0);
  }
}

TEST(WidthPlan, BytesShrinkWithRatio) {
  nn::LstmLmModel model({.vocab = 30, .embed = 8, .hidden = 8, .layers = 2});
  const auto plan = WidthPlan::for_lstm_lm(model);
  const auto full = plan.submodel_bytes(model.store(), 1.0);
  const auto half = plan.submodel_bytes(model.store(), 0.5);
  const auto quarter = plan.submodel_bytes(model.store(), 0.25);
  EXPECT_GT(full, half);
  EXPECT_GT(half, quarter);
}

TEST(Fjord, UploadsOnlySubmodel) {
  ImageHarness h;
  const auto plan = WidthPlan::for_mlp(*h.model);
  FjordStrategy strat(plan, 0.5);
  EXPECT_DOUBLE_EQ(strat.width_ratio(), 0.5);
  auto ctx = h.context(0, 1);
  const auto out = run_decoded(strat, ctx);
  EXPECT_EQ(out.uplink_bytes, plan.submodel_bytes(h.model->store(), 0.5));
  // Cut coordinates are absent and zero-valued.
  for (std::size_t i = 0; i < out.present.size(); ++i) {
    if (out.present[i] == 0) {
      EXPECT_EQ(out.values[i], 0.0F);
    }
  }
}

TEST(Fjord, SamePatternForAllClients) {
  ImageHarness h;
  FjordStrategy strat(WidthPlan::for_mlp(*h.model), 0.5);
  auto ctx0 = h.context(0, 1);
  const auto out0 = run_decoded(strat, ctx0);
  auto ctx1 = h.context(5, 1);
  const auto out1 = run_decoded(strat, ctx1);
  EXPECT_EQ(out0.present, out1.present);  // ordered dropout is deterministic
}

TEST(HeteroFl, LevelsAssignByClientId) {
  ImageHarness h;
  const auto plan = WidthPlan::for_mlp(*h.model);
  HeteroFlStrategy strat(plan, {1.0, 0.5});
  auto ctx0 = h.context(0, 1);  // level 1.0
  const auto out0 = run_decoded(strat, ctx0);
  auto ctx1 = h.context(1, 1);  // level 0.5
  const auto out1 = run_decoded(strat, ctx1);
  EXPECT_GT(out0.uplink_bytes, out1.uplink_bytes);
  // Full-width client transmits everything.
  EXPECT_TRUE(std::all_of(out0.present.begin(), out0.present.end(),
                          [](std::uint8_t p) { return p == 1; }));
}

TEST(HeteroFl, DefaultLevelsAreValid) {
  for (const double p : {0.1, 0.5, 0.7}) {
    const auto levels = HeteroFlStrategy::default_levels(p);
    ASSERT_EQ(levels.size(), 3u);
    for (const double s : levels) {
      EXPECT_GT(s, 0.0);
      EXPECT_LE(s, 1.0);
    }
  }
}

TEST(HeteroFl, RejectsEmptyOrInvalidLevels) {
  nn::MlpModel model({.input = 4, .hidden = 4, .classes = 2});
  const auto plan = WidthPlan::for_mlp(model);
  EXPECT_THROW(HeteroFlStrategy(plan, {}), fedbiad::CheckError);
  EXPECT_THROW(HeteroFlStrategy(plan, {0.0}), fedbiad::CheckError);
  EXPECT_THROW(HeteroFlStrategy(plan, {1.5}), fedbiad::CheckError);
}

}  // namespace
}  // namespace fedbiad::baselines
