// The benchmark's three workloads. One call runs one rep of one workload in
// the calling process — set-up, the closed loop, and the bookkeeping the
// benchmark's gates and metrics need — and returns it as one JSON object.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/fedbiad_strategy.hpp"
#include "data/partition.hpp"
#include "decorators.hpp"
#include "fl/simulation.hpp"
#include "loadgen.hpp"
#include "nn/model.hpp"
#include "tracer.hpp"
#include "transport/server_runtime.hpp"

namespace perfbench {

struct RepOptions {
  std::string workload;
  std::uint64_t seed = 1;
  bool traced = false;
  std::string trace_path;  ///< Chrome trace-event output (traced reps)
  unsigned nproc = 1;
  Clock::time_point process_start;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// The replay workload's inputs: MLP job, data, and a few recorded FedBIAD
/// uploads per client, sealed as the transport carries them.
struct ReplaySetup {
  fedbiad::fl::SimulationConfig base;
  fedbiad::data::DatasetPtr test;
  fedbiad::data::Partition partition;
  fedbiad::nn::ModelFactory factory;
  fedbiad::core::FedBiadConfig strategy;
  std::vector<std::vector<fedbiad::fl::ClientOutcome>> uploads;  ///< [client]
};

[[nodiscard]] ReplaySetup make_replay_setup(std::uint64_t seed,
                                            std::size_t clients,
                                            std::size_t rounds,
                                            std::size_t image_side,
                                            std::size_t hidden,
                                            std::size_t threads);

struct ReplayRun {
  fedbiad::transport::TransportServerResult result;
  LoadgenResult loadgen;
  double server_cpu_frac = 0.0;
  bool done = false;  ///< every round committed
};

/// Serves `setup` over epoll TCP on the loopback interface to a load
/// generator replaying the recorded uploads, through the transport
/// decorator; `server_strategy` decodes on the server.
[[nodiscard]] ReplayRun serve_replay(const ReplaySetup& setup,
                                     std::size_t decode_workers,
                                     fedbiad::fl::StrategyPtr server_strategy,
                                     Probe& probe);

/// Runs one rep and returns its JSON record (a single line). Throws on
/// set-up failure; a run that completes but breaks a gate is reported in
/// the record, not thrown.
[[nodiscard]] std::string run_rep(const RepOptions& opt);

}  // namespace perfbench
