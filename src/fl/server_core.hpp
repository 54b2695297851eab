// The federated server's state machine, shared by every driver.
//
// FedBIAD's server runs one loop whatever carries the bytes: select a
// κ-fraction of the populated clients, collect the uploads, aggregate them
// coordinate by coordinate, evaluate, repeat. ServerCore is that loop, and
// it makes every server decision:
//
//   selection    the selection rng and the IdleSet — the barrier wave's
//                sample_without_replacement draw (client rng stream
//                version+1) and the async top-up's uniform_index draw
//                (stream 0x10000 + dispatch counter), gated by scenario
//                availability and over-selection when EngineHooks are set;
//   bookkeeping  a resolved dispatch counts its barrier wave down (the
//                last one finishes the wave) or, in the async modes, frees
//                a slot that top_up refills;
//   ledgers      the dispatch conservation ledger and the per-round
//                counters folded into each RoundRecord;
//   commit       the commit policy (barrier: the whole wave in selection-
//                slot order; FedAsync: every arrival; buffered-K: every K
//                arrivals in arrival order), the ShardedAccumulator commit
//                (fused aggregate or staleness merge), end_round and
//                begin_round, RoundRecord assembly with evaluation, and the
//                dense-f32 model broadcast checked against the strategy's
//                downlink oracle;
//   checkpoints  the snapshot fields every driver writes and restores.
//
// A driver carries the bytes. It takes the dispatches the core chooses
// through Driver::launch and reports how each one resolved through exactly
// one event: on_upload (the upload arrived and decoded), on_abandoned (the
// client churned or missed its deadline), or on_rejected (every delivery
// was corrupt and the retry budget drained). on_delivery_rejected charges
// a single dropped delivery — a corrupt attempt or a stray duplicate —
// without resolving anything.
//
// fl::AsyncSimulation drives the core with in-process clients on a virtual
// clock; transport::ServerRuntime drives it with sessions over a
// ServerTransport. Every float the trajectory depends on is computed here,
// in event order, so the two produce bit-identical trajectories for the
// same event order. All calls run on the driver's one event thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "checkpoint/checkpoint.hpp"
#include "data/dataset.hpp"
#include "fl/async_simulation.hpp"
#include "fl/client_registry.hpp"
#include "fl/engine_hooks.hpp"
#include "fl/fused_aggregate.hpp"
#include "fl/metrics.hpp"
#include "fl/strategy.hpp"
#include "nn/model.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/rng.hpp"
#include "wire/update_codec.hpp"

namespace fedbiad::fl {

struct ServerCoreConfig {
  SimulationConfig base;
  AggregationMode mode = AggregationMode::kBarrier;
  StalenessConfig staleness;
  std::size_t buffer_size = 4;  ///< K for kBufferedK
  checkpoint::CheckpointConfig checkpoint;
  /// Scenario selection gates: availability, over-selection and the
  /// starvation cap. Null selects exactly like a hook-free run, with the
  /// async modes' fixed dispatch budget.
  EngineHooks* hooks = nullptr;
  std::string engine;    ///< SimulationResult::engine and snapshot identity
  std::string scenario;  ///< SimulationResult::scenario
};

class ServerCore {
 public:
  /// One selection: who, where in its wave, against which model version,
  /// under which global dispatch index, with which client rng stream.
  struct Dispatch {
    std::size_t client = 0;
    std::size_t slot = 0;
    std::size_t version = 0;
    std::size_t index = 0;
    std::uint64_t rng_stream = 0;
  };

  class Driver {
   public:
    virtual ~Driver() = default;
    /// Puts `d.client` in flight. The driver later resolves the dispatch
    /// through exactly one of on_upload, on_abandoned, on_rejected.
    virtual void launch(const Dispatch& d) = 0;
    /// The driver's clock in seconds (virtual or wall): stamped on every
    /// RoundRecord and handed to the availability gate.
    [[nodiscard]] virtual double now() const = 0;
    /// Returns once no client work overlaps the strategy's server hooks.
    /// Called before every commit and before a barrier wave's begin_round.
    /// The in-process engine waits here on one atomic count of its
    /// outstanding training tasks.
    virtual void quiesce() {}
    /// Nobody is available to select now: arrange a later retry(), e.g. at
    /// next_available_time().
    virtual void starved() {}
    /// Adds the driver's own state — clock, in-flight jobs, pending
    /// events — to a commit-boundary snapshot before it is written.
    virtual void add_to_snapshot(checkpoint::EngineSnapshot& snap) {
      (void)snap;
    }
  };

  /// `populated` lists the clients with data, ascending, and must outlive
  /// the core; `population` counts every registered client (κ applies to
  /// it). Commits bind `commit_pool` — the driver's, idle during commits,
  /// possibly not yet constructed — for their aggregate and evaluation
  /// kernels (null: inline). Builds and initializes the global model.
  ServerCore(ServerCoreConfig cfg, Driver& driver,
             parallel::ThreadPool* commit_pool, std::size_t population,
             std::span<const std::size_t> populated,
             const nn::ModelFactory& factory, data::DatasetPtr test_data,
             StrategyPtr strategy);

  /// With resume configured, restores the newest valid snapshot's shared
  /// fields and marks its in-flight clients busy, then returns it so the
  /// driver can rebuild its own state. nullopt when starting fresh.
  [[nodiscard]] std::optional<checkpoint::EngineSnapshot> resume();

  /// Dispatches the first wave (barrier) or fills the in-flight set
  /// (async). After resume() this replays the dispatch the original run
  /// made right after writing its snapshot.
  void start();

  /// Re-attempts the selection a starved() call gave up on.
  void retry();

  /// The earliest time at or after now() at which the scenario makes an
  /// idle populated client available; +infinity when none ever is. Needs
  /// EngineHooks; drivers call it from starved() to time their retry().
  [[nodiscard]] double next_available_time() const;

  // Dispatch resolutions and delivery charges (see the file comment).
  void on_upload(PendingUpdate up);
  void on_abandoned(std::size_t client, std::uint64_t wasted_bytes);
  void on_rejected(std::size_t client);
  void on_delivery_rejected(std::uint64_t bytes);

  /// Encodes the current global as the dense-f32 model broadcast and
  /// checks its measured size against the strategy's downlink oracle.
  /// Drivers call it once per model version and keep what they need.
  [[nodiscard]] wire::Payload encode_broadcast();
  /// The measured broadcast size (the oracle's value after a resume).
  [[nodiscard]] std::uint64_t downlink_bytes() const noexcept {
    return downlink_bytes_;
  }
  /// The global model's parameter layout, for decoding uploads.
  [[nodiscard]] const nn::ParameterStore& layout() const {
    return model_->store();
  }
  [[nodiscard]] std::size_t version() const noexcept { return version_; }
  [[nodiscard]] bool done() const noexcept {
    return version_ >= cfg_.base.rounds;
  }

  /// Fills the run ledgers and moves the result (final parameters
  /// included) out. Call once, after done().
  [[nodiscard]] SimulationResult take_result();

 private:
  [[nodiscard]] std::size_t position(std::size_t client) const;
  /// Idle populated clients the scenario makes available now, ascending.
  [[nodiscard]] std::vector<std::size_t> available_clients() const;
  void dispatch(std::size_t client, std::size_t slot, std::uint64_t stream);
  void dispatch_wave();
  void top_up();
  void set_idle(std::size_t client);
  void resolve_slot();
  void finish_wave();
  /// The held updates, in commit order (selection slot under barrier).
  [[nodiscard]] std::vector<PendingUpdate> flush();
  void commit(std::vector<PendingUpdate> batch);
  void evaluate_into(RoundRecord& rec);
  void write_checkpoint();

  ServerCoreConfig cfg_;
  Driver& driver_;
  parallel::ThreadPool* commit_pool_;
  std::span<const std::size_t> populated_;
  data::DatasetPtr test_data_;
  StrategyPtr strategy_;
  bool barrier_;
  bool scan_availability_;  ///< hooks whose availability can say no
  std::size_t select_ = 0;  ///< κ · population, at least one
  std::size_t target_ = 0;  ///< in flight per wave / at once (over-selected)
  std::size_t per_commit_ = 1;
  std::size_t dispatch_budget_ = 0;  ///< hook-free runs: total dispatches
  std::size_t dispatch_cap_ = 0;     ///< scenario runs: starvation guard

  tensor::Rng rng_;
  IdleSet idle_;
  std::unique_ptr<nn::Model> model_;
  std::vector<float> global_;
  ShardedAccumulator sharded_;
  std::vector<PendingUpdate> held_;  ///< arrivals awaiting their commit

  std::size_t version_ = 0;     ///< commits done
  std::size_t dispatched_ = 0;  ///< dispatches made
  std::size_t wave_outstanding_ = 0;  ///< barrier: wave members unresolved

  std::uint64_t downlink_bytes_ = 0;

  // Whole-run ledger: dispatched == committed + abandoned + rejected +
  // held + in flight at every event boundary. round_* fold into the next
  // RoundRecord. Rejected deliveries and their bytes (failed attempts,
  // dropped duplicates) live outside the law by design.
  std::size_t committed_ = 0;
  std::size_t abandoned_ = 0;
  std::size_t rejected_ = 0;
  std::size_t rejected_deliveries_ = 0;
  std::uint64_t rejected_bytes_ = 0;
  std::uint64_t wasted_bytes_ = 0;
  std::size_t round_abandoned_ = 0;
  std::size_t round_rejected_ = 0;
  std::uint64_t round_rejected_bytes_ = 0;
  std::uint64_t round_wasted_ = 0;

  SimulationResult result_;
};

}  // namespace fedbiad::fl
