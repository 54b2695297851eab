#include "fl/server_core.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <utility>

#include "common/check.hpp"
#include "tensor/ops.hpp"

namespace fedbiad::fl {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kAsyncStreamBase = 0x10000;

/// Staleness-weighted merge (FedAsync / FedBuff semantics): every update is
/// turned into a delta against the *current* global (parameter-type
/// outcomes subtract it, update-type outcomes already are one), deltas are
/// averaged per coordinate over the transmitting clients with weight
/// |D_k| · (1+τ_k)^-a, and the global takes an α-sized step along the mean.
void staleness_merge(ShardedAccumulator& acc, std::span<float> global,
                     const std::vector<PendingUpdate>& batch,
                     const StalenessConfig& cfg, std::size_t commit_version) {
  FEDBIAD_CHECK(!batch.empty(), "staleness merge with no updates");
  std::vector<FusedUpdate> fused(batch.size());
  for (std::size_t k = 0; k < batch.size(); ++k) {
    const PendingUpdate& up = batch[k];
    FEDBIAD_CHECK(commit_version >= up.dispatch_version,
                  "update from the future");
    const auto staleness =
        static_cast<double>(commit_version - up.dispatch_version);
    fused[k].update = &up.outcome.compact;
    fused[k].weight = static_cast<double>(up.outcome.samples) *
                      std::pow(1.0 + staleness, -cfg.exponent);
    fused[k].is_update = up.outcome.is_update;
  }
  acc.merge(global, fused, cfg.mixing_rate);
}

}  // namespace

ServerCore::ServerCore(ServerCoreConfig cfg, Driver& driver,
                       std::size_t population,
                       std::span<const std::size_t> populated,
                       const nn::ModelFactory& factory,
                       data::DatasetPtr test_data, StrategyPtr strategy)
    : cfg_(std::move(cfg)),
      driver_(driver),
      populated_(populated),
      test_data_(std::move(test_data)),
      strategy_(std::move(strategy)),
      barrier_(cfg_.mode == AggregationMode::kBarrier),
      scan_availability_(cfg_.hooks != nullptr &&
                         !cfg_.hooks->always_available()),
      rng_(cfg_.base.seed),
      idle_(populated.size()) {
  FEDBIAD_CHECK(!populated_.empty(), "every client shard is empty");
  const SimulationConfig& base = cfg_.base;
  // κ applies to the full registered population, clamped at one client.
  select_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(base.selection_fraction *
                                  static_cast<double>(population)));
  FEDBIAD_CHECK(select_ <= populated_.size(),
                "selection fraction exceeds populated clients");
  per_commit_ =
      cfg_.mode == AggregationMode::kBufferedK ? cfg_.buffer_size : 1;
  FEDBIAD_CHECK(per_commit_ > 0, "buffer size must be positive");
  target_ = select_;
  if (cfg_.hooks != nullptr) {
    // Over-selection: keep ceil(select · factor) clients in flight (per
    // wave under barrier) to hedge against churn and deadline losses.
    // Abandoned dispatches never arrive, so the total is open-ended; the
    // cap turns a starved scenario (everything churns) into a loud error.
    target_ = std::min(
        populated_.size(),
        std::max(select_, static_cast<std::size_t>(std::ceil(
                              static_cast<double>(select_) *
                              cfg_.hooks->over_selection()))));
    dispatch_cap_ =
        (base.rounds * std::max(target_, per_commit_) + 16) * 64;
  } else {
    // Each commit consumes per_commit arrivals, so the async modes dispatch
    // exactly rounds × per_commit clients, plus one replacement for every
    // dispatch that resolved without arriving (top_up adds those).
    dispatch_budget_ = base.rounds * (barrier_ ? select_ : per_commit_);
  }

  model_ = factory();
  {
    // split() is pure: the selection stream below sees exactly the draws
    // it would without the init.
    tensor::Rng init_rng = rng_.split(0xF0F0);
    model_->init_params(init_rng);
  }
  global_.resize(model_->store().size());
  tensor::copy(model_->store().params(), global_);

  result_.strategy = strategy_->name();
  result_.engine = cfg_.engine;
  result_.scenario = cfg_.scenario;
  result_.rounds.reserve(base.rounds);
}

std::optional<checkpoint::EngineSnapshot> ServerCore::resume() {
  const checkpoint::CheckpointConfig& ckpt = cfg_.checkpoint;
  if (!ckpt.enabled() || !ckpt.resume) return std::nullopt;
  const auto latest = checkpoint::find_latest_valid(ckpt.directory);
  if (!latest) return std::nullopt;
  checkpoint::EngineSnapshot snap = checkpoint::read_snapshot(*latest);
  const std::size_t n = global_.size();
  FEDBIAD_CHECK(snap.engine == cfg_.engine,
                "snapshot was written by a different engine");
  FEDBIAD_CHECK(snap.seed == cfg_.base.seed, "snapshot seed mismatch");
  FEDBIAD_CHECK(snap.rounds_target == cfg_.base.rounds,
                "snapshot round target mismatch");
  FEDBIAD_CHECK(snap.param_count == n && snap.global.size() == n,
                "snapshot model size mismatch");
  FEDBIAD_CHECK(snap.version <= cfg_.base.rounds && snap.version > 0,
                "snapshot version out of range");
  version_ = snap.version;
  dispatched_ = snap.dispatched;
  rng_.set_state(snap.rng);
  committed_ = snap.committed;
  abandoned_ = snap.abandoned;
  rejected_ = snap.rejected;
  rejected_deliveries_ = snap.rejected_deliveries;
  wasted_bytes_ = snap.wasted_uplink_bytes;
  rejected_bytes_ = snap.rejected_bytes;
  global_ = std::move(snap.global);
  tensor::copy(global_, model_->store().params());
  strategy_->load_state(snap.strategy_state);
  result_.rounds = std::move(snap.rounds);
  // The broadcast size is measured on the first dispatch of a version; a
  // commit fed purely by restored in-flight arrivals would otherwise report
  // 0. It is a pure function of the model, so restore it from the same
  // oracle the measurement is checked against.
  downlink_bytes_ = strategy_->downlink_bytes(n);
  for (const checkpoint::JobSnapshot& js : snap.jobs) {
    idle_.set_busy(position(static_cast<std::size_t>(js.client)));
  }
  return snap;
}

void ServerCore::start() {
  if (done()) return;
  if (barrier_) {
    dispatch_wave();
  } else {
    strategy_->begin_round(version_ + 1, global_);
    top_up();
  }
}

void ServerCore::retry() {
  if (done()) return;
  if (!barrier_) {
    top_up();
  } else if (wave_outstanding_ == 0) {
    dispatch_wave();
  }
}

wire::Payload ServerCore::encode_broadcast() {
  // Server→client path: the broadcast is encoded for real and measured.
  // f32 sections are lossless, so a decoded broadcast is bit-identical to
  // the global.
  wire::Payload broadcast = wire::encode_dense_f32(global_);
  downlink_bytes_ = broadcast.size();
  FEDBIAD_CHECK(downlink_bytes_ == strategy_->downlink_bytes(global_.size()),
                "measured downlink diverged from the analytic oracle");
  return broadcast;
}

std::size_t ServerCore::position(std::size_t client) const {
  // `populated` is ascending, so a client's position is its rank.
  const auto it =
      std::lower_bound(populated_.begin(), populated_.end(), client);
  FEDBIAD_CHECK(it != populated_.end() && *it == client,
                "client has no data shard");
  return static_cast<std::size_t>(it - populated_.begin());
}

std::vector<std::size_t> ServerCore::available_clients() const {
  std::vector<std::size_t> out;
  const double now = driver_.now();
  for (std::size_t i = 0; i < populated_.size(); ++i) {
    if (idle_.is_idle(i) && cfg_.hooks->client_available(populated_[i], now)) {
      out.push_back(populated_[i]);
    }
  }
  return out;
}

void ServerCore::dispatch(std::size_t client, std::size_t slot,
                          std::uint64_t stream) {
  if (dispatch_cap_ > 0) {
    FEDBIAD_CHECK(dispatched_ < dispatch_cap_,
                  "scenario starved the engine (dispatch cap reached)");
  }
  idle_.set_busy(position(client));
  driver_.launch({client, slot, version_, dispatched_++, stream});
}

// Barrier: one synchronized wave per round. With every client available
// the candidates are exactly the idle populated clients in ascending
// order, so candidates[i] == populated[idle.select(i)] and the draw needs
// no scan; hooks that can refuse a client are scanned first. With
// over_selection = 1 both paths make the hook-free run's identical
// sample_without_replacement call.
void ServerCore::dispatch_wave() {
  std::vector<std::size_t> chosen;
  if (scan_availability_) {
    const std::vector<std::size_t> candidates = available_clients();
    if (candidates.empty()) {
      driver_.starved();
      return;
    }
    const std::size_t want = std::min(target_, candidates.size());
    for (const auto i : rng_.sample_without_replacement(candidates.size(), want)) {
      chosen.push_back(candidates[i]);
    }
  } else {
    const std::size_t idle = idle_.idle_count();
    if (idle == 0) {
      driver_.starved();
      return;
    }
    const std::size_t want = std::min(target_, idle);
    // Picks become clients before dispatching: dispatch mutates the set.
    for (const auto i : rng_.sample_without_replacement(idle, want)) {
      chosen.push_back(populated_[idle_.select(i)]);
    }
  }
  driver_.quiesce();
  strategy_->begin_round(version_ + 1, global_);
  wave_outstanding_ = chosen.size();
  std::size_t slot = 0;
  for (const std::size_t c : chosen) dispatch(c, slot++, version_ + 1);
}

// Async modes: keep `target` clients in flight, each replacement drawn
// uniformly from the idle (and available) populated clients.
void ServerCore::top_up() {
  while ((cfg_.hooks != nullptr
              ? !done()
              : dispatched_ < dispatch_budget_ + abandoned_ + rejected_) &&
         idle_.busy_count() < target_) {
    std::size_t client = 0;
    if (scan_availability_) {
      const std::vector<std::size_t> avail = available_clients();
      if (avail.empty()) {
        // Arrivals of in-flight clients re-trigger top_up; only an idle
        // server needs a wake-up to avoid draining its event queue.
        if (idle_.busy_count() == 0) driver_.starved();
        return;
      }
      client = avail[rng_.uniform_index(avail.size())];
    } else {
      // Everyone in flight: an arrival will re-trigger top_up.
      if (idle_.idle_count() == 0) return;
      // The j-th smallest idle populated client — element j of the
      // ascending idle scan — at O(log² in-flight).
      client = populated_[idle_.select(rng_.uniform_index(idle_.idle_count()))];
    }
    dispatch(client, 0, kAsyncStreamBase + dispatched_);
  }
}

void ServerCore::set_idle(std::size_t client) {
  idle_.set_idle(position(client));
}

void ServerCore::on_upload(PendingUpdate up) {
  set_idle(up.outcome.client_id);
  held_.push_back(std::move(up));
  if (barrier_) {
    resolve_slot();
    return;
  }
  if (held_.size() >= per_commit_) commit(flush());
  if (!done()) top_up();
}

void ServerCore::on_abandoned(std::size_t client, std::uint64_t wasted_bytes) {
  set_idle(client);
  ++abandoned_;
  ++round_abandoned_;
  wasted_bytes_ += wasted_bytes;
  round_wasted_ += wasted_bytes;
  resolve_slot();
}

void ServerCore::on_rejected(std::size_t client) {
  set_idle(client);
  ++rejected_;
  ++round_rejected_;
  resolve_slot();
}

void ServerCore::on_delivery_rejected(std::uint64_t bytes) {
  ++rejected_deliveries_;
  rejected_bytes_ += bytes;
  round_rejected_bytes_ += bytes;
}

void ServerCore::resolve_slot() {
  if (barrier_) {
    FEDBIAD_CHECK(wave_outstanding_ > 0, "dispatch resolved outside a wave");
    if (--wave_outstanding_ == 0) finish_wave();
  } else if (!done()) {
    top_up();
  }
}

void ServerCore::finish_wave() {
  std::vector<PendingUpdate> batch = flush();
  if (batch.empty()) {
    // The entire wave churned, timed out or was rejected: leave the model
    // untouched and select a fresh wave for the same round. begin_round
    // runs again for that round number, deterministically.
    if (!done()) dispatch_wave();
    return;
  }
  commit(std::move(batch));
}

std::vector<PendingUpdate> ServerCore::flush() {
  std::vector<PendingUpdate> batch = std::move(held_);
  held_.clear();
  if (barrier_) {
    // Slot order makes the aggregation order — and so every float — the
    // sync engine's.
    std::sort(batch.begin(), batch.end(),
              [](const PendingUpdate& a, const PendingUpdate& b) {
                return a.slot < b.slot;
              });
  }
  return batch;
}

void ServerCore::commit(std::vector<PendingUpdate> batch) {
  // Async commits fire while other clients are still in flight; the driver
  // blocks on their real computation so the Strategy contract holds
  // (begin_round/end_round never overlap run_client). Outcomes depend only
  // on their dispatch snapshots, so the trajectory is unchanged.
  driver_.quiesce();
  const auto agg_start = Clock::now();
  double staleness_acc = 0.0;
  if (barrier_) {
    // Compact outcomes in selection-slot order through the fused committer
    // under the strategy's rule: per coordinate the double adds land in
    // selection-slot order with the same operands on every thread count
    // (the goldens pin it).
    std::vector<FusedUpdate> fused(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      fused[i].update = &batch[i].outcome.compact;
      fused[i].weight = static_cast<double>(batch[i].outcome.samples);
      fused[i].is_update = batch[i].outcome.is_update;
    }
    sharded_.aggregate(global_, fused, strategy_->aggregation_rule());
  } else {
    staleness_merge(sharded_, global_, batch, cfg_.staleness, version_);
    for (const PendingUpdate& up : batch) {
      staleness_acc += static_cast<double>(version_ - up.dispatch_version);
    }
  }
  const double agg_seconds =
      std::chrono::duration<double>(Clock::now() - agg_start).count();
  strategy_->end_round(version_ + 1, model_->store().params(), global_);
  tensor::copy(global_, model_->store().params());
  ++version_;
  committed_ += batch.size();

  RoundRecord rec;
  rec.round = version_;
  rec.participants = batch.size();
  double loss_acc = 0.0;
  for (const PendingUpdate& up : batch) {
    const ClientOutcome& o = up.outcome;
    loss_acc += o.mean_loss;
    rec.uplink_bytes_total += o.uplink_bytes;
    rec.uplink_bytes_max = std::max(rec.uplink_bytes_max, o.uplink_bytes);
    rec.lttr_seconds = std::max(rec.lttr_seconds, o.train_seconds);
    rec.upload_seconds = std::max(rec.upload_seconds, up.upload_seconds);
    // Timed at dispatch on this same broadcast size (one dense f32 frame
    // per version, constant for the run).
    rec.download_seconds = std::max(rec.download_seconds, up.download_seconds);
  }
  rec.train_loss = loss_acc / static_cast<double>(batch.size());
  rec.downlink_bytes = downlink_bytes_;
  rec.aggregate_seconds = agg_seconds;
  rec.clock_seconds = driver_.now();
  rec.mean_staleness = staleness_acc / static_cast<double>(batch.size());
  rec.abandoned = std::exchange(round_abandoned_, 0);
  rec.wasted_uplink_bytes = std::exchange(round_wasted_, 0);
  rec.rejected = std::exchange(round_rejected_, 0);
  rec.rejected_bytes = std::exchange(round_rejected_bytes_, 0);
  evaluate_into(rec);

  if (cfg_.base.verbose) {
    std::cerr << "[" << result_.strategy << "] round " << rec.round
              << " train_loss=" << rec.train_loss << " test_acc(top"
              << cfg_.base.train.topk << ")=" << rec.topk << " upload="
              << rec.uplink_bytes_total / rec.participants << "B\n";
  }
  result_.rounds.push_back(rec);

  // Snapshot before the next wave is selected: on resume the restored rng
  // replays the selection below identically.
  const checkpoint::CheckpointConfig& ckpt = cfg_.checkpoint;
  if (ckpt.enabled() && (version_ % ckpt.every_rounds == 0 || done())) {
    write_checkpoint();
  }

  if (done()) return;
  if (barrier_) {
    dispatch_wave();
  } else {
    strategy_->begin_round(version_ + 1, global_);
  }
}

void ServerCore::evaluate_into(RoundRecord& rec) {
  const SimulationConfig& base = cfg_.base;
  if (rec.round % base.eval_every == 0 || rec.round == base.rounds) {
    nn::EvalResult eval;
    data::for_each_batch(*test_data_, base.eval_batch_size,
                         [&](const data::Batch& batch) {
                           eval.merge(model_->eval_batch(batch,
                                                         base.train.topk));
                         });
    rec.test_loss = eval.mean_loss();
    rec.top1 = eval.top1_accuracy();
    rec.topk = eval.topk_accuracy();
  } else if (!result_.rounds.empty()) {
    rec.test_loss = result_.rounds.back().test_loss;
    rec.top1 = result_.rounds.back().top1;
    rec.topk = result_.rounds.back().topk;
  }
}

// Only called from commit(), the quiescent point: nothing is held, the
// round counters were just folded into the RoundRecord, and the driver
// adds whatever it still has in flight.
void ServerCore::write_checkpoint() {
  FEDBIAD_CHECK(wave_outstanding_ == 0 && held_.empty(),
                "checkpoint outside a quiescent commit boundary");
  checkpoint::EngineSnapshot snap;
  snap.engine = cfg_.engine;
  snap.seed = cfg_.base.seed;
  snap.rounds_target = cfg_.base.rounds;
  snap.param_count = global_.size();
  snap.version = version_;
  snap.dispatched = dispatched_;
  snap.rng = rng_.state();
  snap.committed = committed_;
  snap.abandoned = abandoned_;
  snap.rejected = rejected_;
  snap.rejected_deliveries = rejected_deliveries_;
  snap.wasted_uplink_bytes = wasted_bytes_;
  snap.rejected_bytes = rejected_bytes_;
  snap.global = global_;
  snap.rounds = result_.rounds;
  snap.strategy_state = strategy_->save_state();
  driver_.add_to_snapshot(snap);
  checkpoint::write_snapshot(cfg_.checkpoint.directory, snap);
  checkpoint::prune(cfg_.checkpoint.directory, cfg_.checkpoint.keep);
}

SimulationResult ServerCore::take_result() {
  result_.total_dispatched = dispatched_;
  result_.total_committed = committed_;
  result_.total_abandoned = abandoned_;
  result_.total_rejected = rejected_;
  result_.total_rejected_deliveries = rejected_deliveries_;
  result_.total_rejected_bytes = rejected_bytes_;
  result_.total_wasted_uplink_bytes = wasted_bytes_;
  result_.final_in_flight = idle_.busy_count();
  result_.final_buffered = held_.size();
  result_.final_params = std::move(global_);
  return std::move(result_);
}

}  // namespace fedbiad::fl
