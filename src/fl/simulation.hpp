// The synchronous federated simulation (paper §IV-B, Algorithm 1 server
// side).
//
// Each round: select c = max(⌊κK⌋, 1) clients, train them in parallel on the
// thread pool (one model replica per worker), aggregate their outcomes into
// the global parameters, and evaluate the global model. Traffic and timing
// are accounted through the LinkModel for the LTTR/TTA analyses.
//
// Since the event-driven engine landed, this class is a thin adapter over
// fl::AsyncSimulation in barrier mode with a homogeneous fleet — the
// trajectories are bit-identical (enforced by tests/test_async.cpp and the
// golden traces). Use AsyncSimulation directly for heterogeneous clients or
// staleness-aware aggregation.
#pragma once

#include <memory>

#include "data/partition.hpp"
#include "fl/metrics.hpp"
#include "fl/strategy.hpp"
#include "netsim/link.hpp"

namespace fedbiad::fl {

struct SimulationConfig {
  std::size_t rounds = 60;
  double selection_fraction = 0.1;  ///< κ
  TrainSettings train;
  netsim::LinkModel link;
  std::uint64_t seed = 42;
  std::size_t eval_batch_size = 64;
  std::size_t eval_every = 1;   ///< evaluate global model every k rounds
  /// The whole thread budget: training workers, which the engine thread
  /// joins for commit kernels (0 = hardware concurrency).
  std::size_t threads = 0;
  bool verbose = false;         ///< print per-round progress to stderr
};

class Simulation {
 public:
  /// `partition[k]` is client k's index list into `train_data`. All clients
  /// with empty shards are excluded from selection.
  Simulation(SimulationConfig cfg, nn::ModelFactory factory,
             data::DatasetPtr train_data, data::DatasetPtr test_data,
             data::Partition partition, StrategyPtr strategy);

  /// Runs the full simulation and returns per-round records.
  SimulationResult run();

 private:
  SimulationConfig cfg_;
  nn::ModelFactory factory_;
  data::DatasetPtr train_data_;
  data::DatasetPtr test_data_;
  data::Partition partition_;
  StrategyPtr strategy_;
};

}  // namespace fedbiad::fl
