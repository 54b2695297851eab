#include "fl/async_simulation.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <mutex>
#include <utility>

#include "common/check.hpp"
#include "fl/client_registry.hpp"
#include "fl/scheduler.hpp"
#include "fl/server_core.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/ops.hpp"
#include "wire/compact.hpp"
#include "wire/update_codec.hpp"

namespace fedbiad::fl {

const char* to_string(AggregationMode mode) {
  switch (mode) {
    case AggregationMode::kBarrier:
      return "barrier";
    case AggregationMode::kFedAsync:
      return "fedasync";
    case AggregationMode::kBufferedK:
      return "buffered";
  }
  return "?";
}

namespace {

using Clock = std::chrono::steady_clock;
/// One pool-leased record per in-flight dispatch (the registry keeps
/// addresses stable, so scheduler events and pool tasks can hold Job*).
/// Acquired at dispatch, released the moment the dispatch resolves.
using Job = ClientState;

/// One run(): the ServerCore driver for in-process clients on the virtual
/// clock. Every method runs in scheduler event context on the engine
/// thread, except the training tasks submitted to the pool.
class EngineRun final : public ServerCore::Driver {
 public:
  EngineRun(const AsyncSimulationConfig& cfg, const nn::ModelFactory& factory,
            const data::Dataset& train, data::DatasetPtr test,
            std::size_t population, const std::vector<std::size_t>& populated,
            const std::vector<std::vector<std::size_t>>& shards,
            const StrategyPtr& strategy)
      : base_(cfg.base),
        train_(train),
        populated_(populated),
        shards_(shards),
        strategy_(*strategy),
        hooks_(cfg.hooks.get()),
        faulty_(hooks_ != nullptr && hooks_->faults_enabled()),
        retry_policy_(faulty_ ? hooks_->retry_policy() : RetryPolicy{}),
        deadline_(hooks_ != nullptr ? hooks_->deadline_seconds() : 0.0),
        client_rng_base_(base_.seed),
        // Profiles come from a split of the base seed (the one make_profiles
        // consumed), never from the selection stream.
        registry_(population, cfg.heterogeneity, base_.link,
                  tensor::Rng(base_.seed).split(0xA11C)),
        core_(ServerCoreConfig{.base = cfg.base,
                               .mode = cfg.mode,
                               .staleness = cfg.staleness,
                               .buffer_size = cfg.buffer_size,
                               .checkpoint = cfg.checkpoint,
                               .hooks = hooks_,
                               .engine = to_string(cfg.mode),
                               .scenario = cfg.scenario_name},
              *this, &pool_, population, populated, factory, std::move(test),
              strategy),
        pool_(base_.threads) {
    replicas_.resize(pool_.size());
    for (auto& r : replicas_) {
      r = factory();
      free_replicas_.push_back(r.get());
    }
  }

  SimulationResult run();

  // ServerCore::Driver
  void launch(const ServerCore::Dispatch& d) override;
  [[nodiscard]] double now() const override { return sched_.now(); }
  void quiesce() override;
  void starved() override;
  void add_to_snapshot(checkpoint::EngineSnapshot& snap) override;

 private:
  // Shards are stored compacted (populated clients only); every lookup is
  // for a dispatched — hence populated — client. Read-only, so safe from
  // pool tasks too.
  [[nodiscard]] const std::vector<std::size_t>& shard_of(
      std::size_t client) const {
    return shards_[static_cast<std::size_t>(
        std::lower_bound(populated_.begin(), populated_.end(), client) -
        populated_.begin())];
  }
  void on_training_done(Job& job);
  void on_deadline(Job& job);
  void deliver(Job& job);
  void on_arrival(Job& job);
  void abandon(Job& job, std::uint64_t wasted);
  /// Schedules the charge-and-drop of a duplicate delivery of `dup`.
  void schedule_duplicate(Job& dup, double time);
  void restore(const checkpoint::EngineSnapshot& snap);
  /// Blocks until every submitted training task's run_client has returned.
  void wait_for_training();
  /// Ends a training task on its pool worker, normally or by a throw: the
  /// replica goes back, then the task leaves the count wait_for_training
  /// waits on.
  void retire_task(nn::Model* replica) noexcept;

  const SimulationConfig& base_;
  const data::Dataset& train_;
  const std::vector<std::size_t>& populated_;
  const std::vector<std::vector<std::size_t>>& shards_;
  Strategy& strategy_;
  // Scenario extension points. Every scenario branch is guarded by hooks_:
  // with no hooks configured the engine consumes exactly the same rng draws
  // and schedules exactly the same events as a hook-free engine (the golden
  // traces pin this). With a faults block every upload is CRC framed,
  // deliveries can corrupt/truncate/duplicate, and corrupt frames are
  // retried under the scenario's backoff policy.
  EngineHooks* hooks_;
  bool faulty_;
  RetryPolicy retry_policy_;
  double deadline_;
  tensor::Rng client_rng_base_;

  EventScheduler sched_;
  // Lazily materialized device profiles and pooled per-dispatch records:
  // steady-state engine memory is O(in-flight), not O(registered).
  ClientRegistry registry_;
  ServerCore core_;
  std::vector<Job*> zombies_;     ///< abandoned while still training
  bool retry_scheduled_ = false;  ///< one pending availability retry
  /// The decoded broadcast of snapshot_version_, shared by every dispatch
  /// of that version.
  std::shared_ptr<const std::vector<float>> snapshot_;
  std::size_t snapshot_version_ = 0;

  // The pool is declared after everything its worker tasks reference (the
  // registry's leased records, the replicas, the free list and its mutex,
  // the task count), so its destructor — which drains queued tasks and
  // joins — runs before any of them die, even on an exceptional unwind.
  // Between quiesce() and the next launch it runs the commit kernels.
  std::vector<std::unique_ptr<nn::Model>> replicas_;
  std::vector<nn::Model*> free_replicas_;
  std::mutex replica_mutex_;
  /// Training tasks submitted whose run_client has not returned yet.
  std::atomic<std::size_t> training_{0};
  parallel::ThreadPool pool_;
};

void EngineRun::launch(const ServerCore::Dispatch& d) {
  Job& job = *registry_.acquire();
  job.client = d.client;
  job.slot = d.slot;
  job.version = d.version;
  job.dispatch_clock = sched_.now();
  job.dispatch_index = d.index;
  if (hooks_ != nullptr) {
    // Keyed on the global dispatch counter: a re-dispatched client gets an
    // independent draw, and the draw never touches the selection stream.
    const ChurnDecision churn = hooks_->churn(d.client, d.index);
    job.churn_fails = churn.fails;
    job.churn_fraction = churn.fraction;
  }
  if (!snapshot_ || snapshot_version_ != d.version) {
    // Clients train from the decoded broadcast (once per version). Dense
    // f32 decodes to the kDense form, whose `values` is the whole model.
    snapshot_.reset();
    wire::CompactUpdate decoded =
        wire::decode_update_compact(core_.layout(), core_.encode_broadcast());
    snapshot_ =
        std::make_shared<const std::vector<float>>(std::move(decoded.values));
    snapshot_version_ = d.version;
  }
  // The dispatch's one profile lookup: the upload is timed from the
  // carried link when training completes.
  const netsim::ClientProfile prof = registry_.profile(d.client);
  const double samples = static_cast<double>(std::min<std::size_t>(
      base_.train.batch_size, shard_of(d.client).size()));
  job.link = prof.link;
  job.download_s = prof.download_seconds(core_.downlink_bytes());
  job.compute_s = prof.compute_seconds(
      static_cast<double>(base_.train.local_iterations) * samples *
      strategy_.compute_cost_multiplier());
  job.snapshot = snapshot_;
  const std::size_t client = d.client;
  const std::size_t round = d.version + 1;
  const tensor::Rng ctx_rng =
      client_rng_base_.split(0x1000 + client).split(d.rng_stream);
  Job* jp = &job;
  training_.fetch_add(1, std::memory_order_relaxed);
  job.future = pool_.submit([this, jp, client, round, ctx_rng] {
    // Retires the task however it ends, so a throwing run_client reaches
    // the engine through its future instead of hanging quiesce().
    struct Retire {
      EngineRun& run;
      nn::Model* replica = nullptr;
      ~Retire() { run.retire_task(replica); }
    } retire{*this};
    {
      std::scoped_lock lock(replica_mutex_);
      FEDBIAD_CHECK(!free_replicas_.empty(), "replica lease exhausted");
      retire.replica = free_replicas_.back();
      free_replicas_.pop_back();
    }
    nn::Model* replica = retire.replica;
    tensor::copy(*jp->snapshot, replica->store().params());
    ClientContext ctx{
        .client_id = client,
        .round = round,
        .model = *replica,
        .global_params = *jp->snapshot,
        .dataset = train_,
        .shard = shard_of(client),
        .settings = base_.train,
        .rng = ctx_rng,
        .model_version = jp->version,
        .dispatch_clock = jp->dispatch_clock,
        .deadline_seconds = deadline_,
    };
    const auto start = Clock::now();
    ClientOutcome out = strategy_.run_client(ctx);
    out.train_seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    out.client_id = client;
    return out;
  }).share();
  job.training_event = sched_.schedule_after(
      job.download_s + job.compute_s, [this, jp] { on_training_done(*jp); });
  if (deadline_ > 0.0) {
    // Scheduled at dispatch, so its id is lower than any arrival event
    // (those are scheduled at training-done): at an exactly-equal timestamp
    // the deadline runs first and the arrival is abandoned — the cutoff is
    // strict.
    job.deadline_event = sched_.schedule_at(
        job.dispatch_clock + deadline_, [this, jp] { on_deadline(*jp); });
  }
}

void EngineRun::retire_task(nn::Model* replica) noexcept {
  if (replica != nullptr) {
    std::scoped_lock lock(replica_mutex_);
    free_replicas_.push_back(replica);  // within capacity: never allocates
  }
  // Only the last task wakes the engine: wait_for_training sleeps until the
  // count reaches zero, and release ordering publishes run_client's writes
  // to the hooks that run after it.
  if (training_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    training_.notify_all();
  }
}

void EngineRun::wait_for_training() {
  for (std::size_t n = training_.load(std::memory_order_acquire); n != 0;
       n = training_.load(std::memory_order_acquire)) {
    training_.wait(n, std::memory_order_acquire);
  }
}

// A job abandoned before its training event ran still has run_client
// executing on the pool against job.snapshot. The Strategy contract says
// server hooks never overlap run_client, so the core's hooks wait (real
// time only) until every submitted task — in flight or zombie — has
// returned from run_client. Then the zombies' records are released;
// abandoned outcomes are discarded.
void EngineRun::quiesce() {
  wait_for_training();
  for (Job* jp : zombies_) registry_.release(jp);
  zombies_.clear();
}

void EngineRun::on_training_done(Job& job) {
  job.training_event = EventScheduler::kNoEvent;
  ClientOutcome out = job.future.get();
  out.client_id = job.client;
  // The pool task is done with the snapshot; drop this job's reference.
  job.snapshot.reset();
  if (faulty_) {
    // The CRC trailer travels with the frame, so it is sealed onto the
    // payload *before* link timing is measured from the byte count.
    wire::seal_payload(out.payload);
  }
  auto up = std::make_unique<PendingUpdate>();
  up->slot = job.slot;
  up->dispatch_version = job.version;
  up->dispatch_clock = job.dispatch_clock;
  up->compute_seconds = job.compute_s;
  up->download_seconds = job.download_s;
  // Link timing runs on the measured size of the encoded buffer — the
  // payload is what travels, so its byte count is what the uplink carries.
  up->upload_seconds = job.link.upload_seconds(out.payload.size());
  up->outcome = std::move(out);
  job.pending = std::move(up);
  job.upload_start = sched_.now();
  Job* jp = &job;
  if (job.churn_fails) {
    // Resolve the dispatch-time churn draw now that the full timeline is
    // known: the client dies `fraction` of the way through
    // download + compute + upload. Its upload never arrives.
    const double total =
        job.download_s + job.compute_s + job.pending->upload_seconds;
    const double fail_t = job.dispatch_clock + job.churn_fraction * total;
    if (fail_t <= sched_.now()) {
      // Died during download or compute: nothing reached the server.
      abandon(job, 0);
    } else {
      const double frac = (fail_t - sched_.now()) / job.pending->upload_seconds;
      const auto wasted = static_cast<std::uint64_t>(
          static_cast<double>(job.pending->outcome.payload.size()) * frac);
      job.arrival_time = fail_t;
      job.churn_wasted = wasted;
      job.arrival_event = sched_.schedule_at(
          fail_t, [this, jp, wasted] { abandon(*jp, wasted); });
    }
    return;
  }
  job.arrival_time = sched_.now() + job.pending->upload_seconds;
  job.arrival_event = sched_.schedule_after(job.pending->upload_seconds,
                                            [this, jp] { deliver(*jp); });
}

void EngineRun::on_deadline(Job& job) {
  job.deadline_event = EventScheduler::kNoEvent;
  std::uint64_t wasted = 0;
  if (job.pending && job.pending->upload_seconds > 0.0) {
    // The upload was in progress: the bytes already pushed are wasted.
    const double frac = std::clamp(
        (sched_.now() - job.upload_start) / job.pending->upload_seconds, 0.0,
        1.0);
    wasted = static_cast<std::uint64_t>(
        static_cast<double>(job.pending->outcome.payload.size()) * frac);
  }
  abandon(job, wasted);
}

void EngineRun::abandon(Job& job, std::uint64_t wasted) {
  // Do NOT release the record while training is still running: the pool
  // task dereferences its snapshot. Such zombies are parked and released by
  // quiesce() once their real computation drains. cancel() of an
  // already-run or kNoEvent id is a no-op, so cancelling all three races is
  // always safe. An abandoned dispatch never delivered, so it can have no
  // pending duplicate holding the record either.
  const std::size_t client = job.client;
  const bool training_live = sched_.cancel(job.training_event);
  if (training_live) zombies_.push_back(&job);
  sched_.cancel(job.arrival_event);
  sched_.cancel(job.deadline_event);
  job.training_event = EventScheduler::kNoEvent;
  job.arrival_event = EventScheduler::kNoEvent;
  job.deadline_event = EventScheduler::kNoEvent;
  job.pending.reset();
  if (!training_live) registry_.release(&job);
  core_.on_abandoned(client, wasted);
}

// Delivery inspection: runs when an upload's last byte lands. Without
// faults it is exactly the arrival handler. With faults it materializes the
// (client, dispatch, attempt)-keyed fault draw on the sealed frame: a
// corrupt delivery must fail the CRC check (proven, not assumed), is
// charged to the delivery ledger, and is either retried after seeded
// exponential backoff or — retry budget drained — terminally rejected,
// freeing the slot through the same partial-cohort path an abandoned upload
// uses. An intact delivery may additionally spawn a duplicate of itself;
// the duplicate arrives later, finds the dispatch already resolved, and is
// dropped (charged, never aggregated) — updates are committed at most once
// by construction.
void EngineRun::deliver(Job& job) {
  job.arrival_event = EventScheduler::kNoEvent;
  const DeliveryFault fault =
      faulty_ ? hooks_->delivery_fault(job.client, job.dispatch_index,
                                       job.attempt)
              : DeliveryFault{};
  const std::uint64_t framed = job.pending->outcome.payload.size();
  if (fault.corrupt) {
    // Damage a copy of the frame and prove the CRC layer rejects it —
    // CRC32C detects every single-bit flip and every truncation the
    // injector can produce, so a pass here would mean the frame check is
    // broken, which is worth dying loudly over.
    ClientOutcome probe;
    probe.client_id = job.client;
    probe.payload.kind = job.pending->outcome.payload.kind;
    probe.payload.aux = job.pending->outcome.payload.aux;
    probe.payload.bytes = job.pending->outcome.payload.bytes;
    std::uint64_t delivered = framed;
    if (fault.truncate) {
      const auto cut = static_cast<std::size_t>(
          fault.position * static_cast<double>(framed - 1));
      probe.payload.bytes.resize(cut);
      delivered = cut;
    } else {
      const auto bit = std::min<std::size_t>(
          static_cast<std::size_t>(fault.position *
                                   static_cast<double>(framed * 8)),
          framed * 8 - 1);
      probe.payload.bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    const DecodeStatus status = try_decode_outcome_compact(
        strategy_, core_.layout(), probe, /*framed=*/true,
        DecodeContext{job.client, job.dispatch_index, sched_.now()});
    FEDBIAD_CHECK(!status.ok, "injected corruption slipped past the CRC frame");
    core_.on_delivery_rejected(delivered);
    if (job.attempt < retry_policy_.max_attempts) {
      const std::size_t attempt = job.attempt;  // the one that just failed
      ++job.attempt;
      double backoff = retry_policy_.backoff_seconds *
                       std::pow(retry_policy_.backoff_multiplier,
                                static_cast<double>(attempt - 1));
      const double u =
          hooks_->retry_jitter(job.client, job.dispatch_index, attempt);
      backoff *= 1.0 + retry_policy_.jitter_fraction * (2.0 * u - 1.0);
      // The client retransmits the same frame after the backoff; the
      // deadline event (if any) stays armed, so a retry can still be cut
      // off and abandoned like any slow upload.
      job.upload_start = sched_.now() + backoff;
      job.arrival_time = job.upload_start + job.pending->upload_seconds;
      Job* jp = &job;
      job.arrival_event =
          sched_.schedule_at(job.arrival_time, [this, jp] { deliver(*jp); });
      return;
    }
    // Terminal rejection resolves the dispatch; duplicates only spawn from
    // intact deliveries, so nothing else can hold this record.
    const std::size_t client = job.client;
    sched_.cancel(job.deadline_event);
    registry_.release(&job);
    core_.on_rejected(client);
    return;
  }
  if (fault.duplicate) {
    job.framed_bytes = framed;
    schedule_duplicate(
        job, sched_.now() + fault.duplicate_lag * job.pending->upload_seconds);
  }
  job.pending->arrival_clock = sched_.now();
  on_arrival(job);
}

void EngineRun::schedule_duplicate(Job& dup, double time) {
  dup.duplicate_time = time;
  Job* dp = &dup;
  dup.duplicate_event = sched_.schedule_at(time, [this, dp] {
    dp->duplicate_event = EventScheduler::kNoEvent;
    core_.on_delivery_rejected(dp->framed_bytes);
    // on_arrival deferred the record's release to this handler (the
    // scheduled duplicate held the last pointer to it).
    if (dp->release_on_duplicate) registry_.release(dp);
  });
}

void EngineRun::on_arrival(Job& job) {
  if (hooks_ != nullptr) sched_.cancel(job.deadline_event);
  PendingUpdate up = std::move(*job.pending);
  job.pending.reset();
  // The upload has arrived: decode the payload on the engine thread into
  // the compact O(transmitted) view the fused committer consumes, record
  // the measured uplink size, and drop the raw bytes. Abandoned uploads
  // never reach this point, so their bytes are only ever counted in the
  // wasted-uplink ledger. Fault sessions decode through the non-throwing
  // path — deliver() only forwards frames whose CRC verifies, so a failure
  // here is engine corruption, not client noise.
  if (faulty_) {
    const DecodeStatus status = try_decode_outcome_compact(
        strategy_, core_.layout(), up.outcome, /*framed=*/true,
        DecodeContext{job.client, job.dispatch_index, sched_.now()});
    FEDBIAD_CHECK(status.ok, status.error);
  } else {
    decode_outcome_compact(strategy_, core_.layout(), up.outcome);
  }
  up.outcome.payload.bytes = {};
  // The dispatch is resolved; retire its record. A scheduled duplicate
  // delivery may still hold a pointer — hand the release to its handler.
  if (job.duplicate_event != EventScheduler::kNoEvent) {
    job.release_on_duplicate = true;
  } else {
    registry_.release(&job);
  }
  core_.on_upload(std::move(up));
}

void EngineRun::starved() {
  if (retry_scheduled_) return;
  const double t = core_.next_available_time();
  // The core only starves when nobody is available *now*, so a correct
  // hook returns a strictly later time — anything else would spin the
  // virtual clock in place.
  FEDBIAD_CHECK(std::isfinite(t) && t > sched_.now(),
                "scenario never makes another client available");
  retry_scheduled_ = true;
  sched_.schedule_at(t, [this] {
    retry_scheduled_ = false;
    core_.retry();
  });
}

// Adds the engine's live state to a commit-boundary snapshot. At that point
// zombies are drained and every in-flight job's run_client has returned
// (commits quiesce first). What remains — in-flight outcomes and the
// pending timeline — is serialized; events are stored sorted by their
// original scheduler id so resume reproduces the equal-time tie-break.
void EngineRun::add_to_snapshot(checkpoint::EngineSnapshot& snap) {
  FEDBIAD_CHECK(zombies_.empty() && !retry_scheduled_,
                "checkpoint outside a quiescent commit boundary");
  snap.clock = sched_.now();
  struct PendingEvent {
    EventScheduler::EventId id;
    checkpoint::EventSnapshot ev;
  };
  std::vector<PendingEvent> events;
  // With zombies drained, every active lease is either an unresolved
  // dispatch or a resolved one kept only for its pending duplicate
  // delivery — dormant clients have no record and are never serialized.
  // Jobs are stored by ascending client id (a client is in flight at most
  // once).
  std::vector<Job*> in_flight;
  registry_.for_each_active([&](Job& job) {
    if (job.duplicate_event != EventScheduler::kNoEvent) {
      events.push_back({job.duplicate_event,
                        {checkpoint::EventKind::kDuplicate, checkpoint::kNoJob,
                         job.duplicate_time, job.framed_bytes}});
    }
    if (!job.release_on_duplicate) in_flight.push_back(&job);
  });
  std::sort(in_flight.begin(), in_flight.end(),
            [](const Job* a, const Job* b) { return a->client < b->client; });
  for (const Job* jp : in_flight) {
    const std::uint64_t index = snap.jobs.size();
    checkpoint::JobSnapshot js;
    js.client = jp->client;
    js.slot = jp->slot;
    js.version = jp->version;
    js.dispatch_index = jp->dispatch_index;
    js.attempt = jp->attempt;
    js.dispatch_clock = jp->dispatch_clock;
    js.download_seconds = jp->download_s;
    js.compute_seconds = jp->compute_s;
    js.upload_start = jp->upload_start;
    js.churn_fails = jp->churn_fails;
    js.churn_fraction = jp->churn_fraction;
    js.has_pending = jp->pending != nullptr;
    const ClientOutcome& out =
        js.has_pending ? jp->pending->outcome : jp->future.get();
    js.samples = out.samples;
    js.is_update = out.is_update;
    js.payload = out.payload;
    js.train_seconds = out.train_seconds;
    js.mean_loss = out.mean_loss;
    js.last_loss = out.last_loss;
    snap.jobs.push_back(std::move(js));
    if (jp->training_event != EventScheduler::kNoEvent) {
      events.push_back(
          {jp->training_event,
           {checkpoint::EventKind::kTraining, index,
            jp->dispatch_clock + (jp->download_s + jp->compute_s), 0}});
    }
    if (jp->arrival_event != EventScheduler::kNoEvent) {
      events.push_back({jp->arrival_event,
                        {jp->churn_fails ? checkpoint::EventKind::kChurnAbandon
                                         : checkpoint::EventKind::kDelivery,
                         index, jp->arrival_time, jp->churn_wasted}});
    }
    if (jp->deadline_event != EventScheduler::kNoEvent) {
      events.push_back({jp->deadline_event,
                        {checkpoint::EventKind::kDeadline, index,
                         jp->dispatch_clock + deadline_, 0}});
    }
  }
  FEDBIAD_CHECK(events.size() == sched_.pending(),
                "checkpoint lost track of pending events");
  std::sort(events.begin(), events.end(),
            [](const PendingEvent& a, const PendingEvent& b) {
              return a.id < b.id;
            });
  snap.events.reserve(events.size());
  for (const PendingEvent& pe : events) snap.events.push_back(pe.ev);
}

// Resume: the core restored its fields from the snapshot; rebuild the
// in-flight jobs and re-schedule their events in original-id order (fresh
// ids are assigned ascending, so the relative order — the equal-time
// tie-break — is preserved, and events created by the replayed post-commit
// dispatch sort after them exactly as in the uninterrupted run).
void EngineRun::restore(const checkpoint::EngineSnapshot& snap) {
  sched_.set_now(snap.clock);
  // Snapshot events reference jobs by index in snap.jobs; the leased
  // records are collected in that order so the indices resolve.
  std::vector<Job*> restored;
  restored.reserve(snap.jobs.size());
  for (const checkpoint::JobSnapshot& js : snap.jobs) {
    Job& job = *registry_.acquire();
    restored.push_back(&job);
    job.client = static_cast<std::size_t>(js.client);
    job.slot = static_cast<std::size_t>(js.slot);
    job.version = static_cast<std::size_t>(js.version);
    job.dispatch_index = static_cast<std::size_t>(js.dispatch_index);
    job.attempt = static_cast<std::size_t>(js.attempt);
    job.dispatch_clock = js.dispatch_clock;
    job.download_s = js.download_seconds;
    job.compute_s = js.compute_seconds;
    job.upload_start = js.upload_start;
    job.churn_fails = js.churn_fails;
    job.churn_fraction = js.churn_fraction;
    // The same lookup launch() made: a restored job times its upload from
    // the carried link whether or not its training event already ran.
    job.link = registry_.profile(job.client).link;
    ClientOutcome out;
    out.client_id = job.client;
    out.samples = static_cast<std::size_t>(js.samples);
    out.is_update = js.is_update;
    out.payload = js.payload;
    out.train_seconds = js.train_seconds;
    out.mean_loss = js.mean_loss;
    out.last_loss = js.last_loss;
    if (js.has_pending) {
      auto up = std::make_unique<PendingUpdate>();
      up->slot = job.slot;
      up->dispatch_version = job.version;
      up->dispatch_clock = job.dispatch_clock;
      up->compute_seconds = job.compute_s;
      up->download_seconds = job.download_s;
      up->upload_seconds = job.link.upload_seconds(out.payload.size());
      up->outcome = std::move(out);
      job.pending = std::move(up);
    } else {
      // Training never re-runs (run_client mutates per-client strategy
      // state); the completed outcome waits behind a ready future for the
      // training event to consume as if the pool had just finished.
      std::promise<ClientOutcome> ready;
      ready.set_value(std::move(out));
      job.future = ready.get_future().share();
    }
  }
  for (const checkpoint::EventSnapshot& ev : snap.events) {
    if (ev.job_index != checkpoint::kNoJob) {
      FEDBIAD_CHECK(ev.job_index < snap.jobs.size(),
                    "snapshot event references a missing job");
    }
    switch (ev.kind) {
      case checkpoint::EventKind::kTraining: {
        Job* jp = restored[ev.job_index];
        jp->training_event =
            sched_.schedule_at(ev.time, [this, jp] { on_training_done(*jp); });
        break;
      }
      case checkpoint::EventKind::kDelivery: {
        Job* jp = restored[ev.job_index];
        jp->arrival_time = ev.time;
        jp->arrival_event =
            sched_.schedule_at(ev.time, [this, jp] { deliver(*jp); });
        break;
      }
      case checkpoint::EventKind::kChurnAbandon: {
        Job* jp = restored[ev.job_index];
        const std::uint64_t wasted = ev.aux;
        jp->arrival_time = ev.time;
        jp->churn_wasted = wasted;
        jp->arrival_event = sched_.schedule_at(
            ev.time, [this, jp, wasted] { abandon(*jp, wasted); });
        break;
      }
      case checkpoint::EventKind::kDeadline: {
        Job* jp = restored[ev.job_index];
        jp->deadline_event =
            sched_.schedule_at(ev.time, [this, jp] { on_deadline(*jp); });
        break;
      }
      case checkpoint::EventKind::kDuplicate: {
        // Carried by a fresh leased record so a later checkpoint of the
        // resumed run finds it in the duplicate scan; the handler releases
        // it once the duplicate is charged.
        Job& dup = *registry_.acquire();
        dup.framed_bytes = ev.aux;
        dup.release_on_duplicate = true;
        schedule_duplicate(dup, ev.time);
        break;
      }
    }
  }
}

SimulationResult EngineRun::run() {
  if (const auto snap = core_.resume()) restore(*snap);
  core_.start();
  while (!core_.done() && sched_.run_next()) {
  }
  FEDBIAD_CHECK(core_.done(), "event queue drained early");
  wait_for_training();
  SimulationResult result = core_.take_result();
  result.peak_in_flight_states = registry_.peak_active();
  result.materialized_states = registry_.materialized();
  return result;
}

}  // namespace

AsyncSimulation::AsyncSimulation(AsyncSimulationConfig cfg,
                                 nn::ModelFactory factory,
                                 data::DatasetPtr train_data,
                                 data::DatasetPtr test_data,
                                 data::Partition partition,
                                 StrategyPtr strategy)
    : cfg_(std::move(cfg)),
      factory_(std::move(factory)),
      train_data_(std::move(train_data)),
      test_data_(std::move(test_data)),
      population_(partition.size()),
      strategy_(std::move(strategy)) {
  FEDBIAD_CHECK(factory_ != nullptr, "model factory required");
  FEDBIAD_CHECK(train_data_ && test_data_, "datasets required");
  FEDBIAD_CHECK(strategy_ != nullptr, "strategy required");
  FEDBIAD_CHECK(population_ > 0, "need at least one client");
  // Compact the partition: keep only populated shards (see the member
  // comment) and let the dense vector die with the parameter.
  for (std::size_t k = 0; k < partition.size(); ++k) {
    if (partition[k].empty()) continue;
    populated_.push_back(k);
    shards_.push_back(std::move(partition[k]));
  }
  FEDBIAD_CHECK(cfg_.staleness.mixing_rate > 0.0 &&
                    cfg_.staleness.mixing_rate <= 1.0,
                "staleness mixing rate must be in (0, 1]");
  FEDBIAD_CHECK(cfg_.staleness.exponent >= 0.0,
                "staleness exponent must be non-negative");
  FEDBIAD_CHECK(cfg_.buffer_size > 0, "buffer size must be positive");
  FEDBIAD_CHECK(!cfg_.checkpoint.enabled() || (cfg_.checkpoint.every_rounds > 0 &&
                                               cfg_.checkpoint.keep > 0),
                "checkpoint cadence and retention must be positive");
}

SimulationResult AsyncSimulation::run() {
  EngineRun run(cfg_, factory_, *train_data_, test_data_, population_,
                populated_, shards_, strategy_);
  return run.run();
}

}  // namespace fedbiad::fl
