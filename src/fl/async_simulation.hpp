// Event-driven federated simulation engine: fl::ServerCore driven by
// in-process clients on a virtual clock.
//
// Where fl::Simulation runs a lock-step round loop, this engine runs a
// virtual-clock timeline: every dispatched client takes
//   download → local compute → upload
// virtual seconds (drawn from its netsim::ClientProfile), and its update
// becomes visible to the server only when the upload arrives. Every server
// decision — selection, wave and slot bookkeeping, ledgers, the commit
// under the aggregation mode below, evaluation, checkpoint fields — is
// made by fl::ServerCore (fl/server_core.hpp), the same state machine the
// transport server runtime drives:
//
//   kBarrier   — wait for the whole selection wave, then aggregate exactly
//                like the sync engine (bit-equivalent trajectories; the
//                legacy Simulation::run is a thin adapter over this mode).
//   kFedAsync  — merge every arrival immediately with a polynomial
//                staleness weight (Xie et al., FedAsync).
//   kBufferedK — semi-async: buffer K arrivals, then merge the buffer with
//                staleness-weighted deltas (FedBuff-style).
//
// The engine itself keeps what is specific to simulating the clients: the
// event scheduler and the per-dispatch timelines, the training pool, the
// scenario's churn, deadline, fault and retry handling, availability
// wake-ups, and the job/event part of its checkpoints. It reports each
// dispatch's fate to the core as an event (upload arrived, abandoned,
// rejected; dropped deliveries are charged separately).
//
// Determinism: all server-side decisions happen on the engine thread in
// (virtual time, insertion seq) event order; client training runs on the
// thread pool but against a parameter snapshot taken at dispatch (one
// shared copy per model version) and a (client, dispatch)-keyed Rng
// stream, so trajectories are identical for any worker-thread count.
// Commits quiesce outstanding training (real time only — the virtual
// timeline is unaffected) before invoking begin_round/end_round,
// preserving the Strategy contract that server hooks never overlap
// run_client. The quiesce waits on one atomic count of submitted training
// tasks, which each task decrements from a scope guard once run_client has
// returned (or thrown) and its model replica is back; then the records of
// dispatches abandoned mid-training are released. It never walks the
// in-flight set, and the end of run() waits on the same count.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "checkpoint/checkpoint.hpp"
#include "data/partition.hpp"
#include "fl/engine_hooks.hpp"
#include "fl/metrics.hpp"
#include "fl/simulation.hpp"
#include "fl/strategy.hpp"
#include "netsim/client_profile.hpp"

namespace fedbiad::fl {

enum class AggregationMode { kBarrier, kFedAsync, kBufferedK };

[[nodiscard]] const char* to_string(AggregationMode mode);

/// Staleness weighting for the async modes: an arrival whose snapshot is τ
/// versions old is merged with step size mixing_rate · (1+τ)^-exponent.
struct StalenessConfig {
  double mixing_rate = 0.6;  ///< α; 1 with exponent 0 disables damping
  double exponent = 0.5;     ///< polynomial staleness decay a
};

/// One client update travelling from training completion to aggregation.
struct PendingUpdate {
  ClientOutcome outcome;
  std::size_t slot = 0;              ///< selection-order slot in its wave
  std::size_t dispatch_version = 0;  ///< global version of its snapshot
  double dispatch_clock = 0.0;
  double arrival_clock = 0.0;
  double compute_seconds = 0.0;  ///< virtual local-training time
  double download_seconds = 0.0;
  double upload_seconds = 0.0;
};

struct AsyncSimulationConfig {
  SimulationConfig base;  ///< rounds = number of commits (= sync rounds)
  AggregationMode mode = AggregationMode::kBarrier;
  StalenessConfig staleness;
  std::size_t buffer_size = 4;  ///< K for kBufferedK
  /// Per-client device/link heterogeneity; homogeneous by default.
  netsim::HeterogeneityConfig heterogeneity;
  /// Scenario extension points (availability, churn, deadlines,
  /// over-selection) — see fl/engine_hooks.hpp for the determinism
  /// contract and src/scenario for the declarative JSON implementation.
  /// Null (the default) preserves the engine's original behaviour exactly;
  /// trajectories and rng draws are bit-identical to a hook-free run.
  std::shared_ptr<EngineHooks> hooks;
  /// Label recorded in SimulationResult::scenario (traces, benches).
  std::string scenario_name;
  /// Crash-safe checkpointing (see checkpoint/checkpoint.hpp): with a
  /// directory configured, the engine snapshots its full state at commit
  /// boundaries; with `resume` also set, run() restores the newest valid
  /// snapshot and continues the trajectory bit-identically to an
  /// uninterrupted run. Disabled (empty directory) by default.
  checkpoint::CheckpointConfig checkpoint;
};

class AsyncSimulation {
 public:
  AsyncSimulation(AsyncSimulationConfig cfg, nn::ModelFactory factory,
                  data::DatasetPtr train_data, data::DatasetPtr test_data,
                  data::Partition partition, StrategyPtr strategy);

  /// Runs the event-driven simulation until cfg.base.rounds commits.
  SimulationResult run();

 private:
  AsyncSimulationConfig cfg_;
  nn::ModelFactory factory_;
  data::DatasetPtr train_data_;
  data::DatasetPtr test_data_;
  // The dense data::Partition costs 24 bytes per registered client even for
  // an empty shard, which at 1M+ populations dominates engine memory. The
  // constructor compacts it: only populated clients' shard lists are kept
  // (aligned with the ascending id list), so steady-state footprint is
  // O(populated), matching the registry's O(active) ClientState contract.
  std::size_t population_;
  std::vector<std::size_t> populated_;             ///< ascending client ids
  std::vector<std::vector<std::size_t>> shards_;   ///< aligned with populated_
  StrategyPtr strategy_;
};

}  // namespace fedbiad::fl
