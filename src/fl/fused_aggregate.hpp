// Fused decode→aggregate: commits compact client updates straight into the
// global model without ever materializing a dense per-client value vector.
//
// A dense commit would stream length-N `values`/`present` pairs — O(model)
// bytes per pending client, which caps how many uploads the event-driven
// engine can hold in flight. The fused path takes wire::CompactUpdate views
// (O(transmitted) each) and accumulates them in a fixed floating-point
// operation sequence: coordinate blocks outer, clients middle in batch
// order, coordinates inner ascending, every contribution added as
// `w * (double)v` into a double panel. Per coordinate the adds land in the
// same order with the same operands as the dense test oracle
// (tests/support/dense_oracle.hpp), so the committed global is
// bit-identical to it — tests/test_scale.cpp pins this per payload form,
// and the 12 engine goldens pin it end to end.
//
// ShardedAccumulator owns the per-block accumulator panels: each parallel
// chunk leases a cache-aligned panel pair from a free list, so concurrent
// commits never share an accumulator cache line (no false sharing) and the
// allocations persist across rounds instead of being rebuilt per commit.
//
// Partitioning is block-owner: the parallel loop iterates whole kBlock
// panels, so every block starts at a kBlock-aligned coordinate regardless
// of thread count. That buys two things. Determinism: a block is touched by
// exactly one thread and clients are walked in batch (slot) order within
// it, so the per-coordinate double-add order — and with it every golden,
// checkpoint, and conservation ledger — is a function of the batch alone,
// never of how many workers ran. Speed: kBlock == CompactUpdate::kRankStride,
// so entering a bitmap block costs a single rank-directory probe with no
// popcount remainder walk.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "fl/strategy.hpp"
#include "wire/compact.hpp"

namespace fedbiad::fl {

/// Inner kernels of the fused committer, compiled with wide vector lanes
/// but -ffp-contract=off (see src/CMakeLists.txt): per coordinate they
/// execute exactly `acc += w * (double)v` as separate IEEE multiply and
/// add, so their results are bit-identical to plain scalar loops (the
/// scalar oracles in tests/support/dense_oracle.hpp; tests/test_scale.cpp
/// pins the two against each other on ragged lengths). Vectorization
/// batches *across* coordinates only — the operation sequence at any one
/// coordinate is unchanged.
namespace fused {

/// Contiguous run: acc[i] += weight * (double)values[i] and
/// present_weight[i] += weight for i in [0, len).
void accumulate_run(double* acc, double* present_weight, const float* values,
                    std::size_t len, double weight);

/// Parameter-payload merge run: acc[i] += weight * ((double)values[i] -
/// (double)global[i]) and weight_acc[i] += weight for i in [0, len).
void merge_param_run(double* acc, double* weight_acc, const float* values,
                     const float* global, std::size_t len, double weight);

/// Sparse gather: for c in [0, count), acc[indices[c] - base] +=
/// weight * (double)values[c] (and present_weight likewise). `indices` must
/// be strictly ascending and within [base, base + kBlock).
void accumulate_sparse(double* acc, double* present_weight,
                       const std::uint32_t* indices, const float* values,
                       std::size_t count, std::size_t base, double weight);

/// Sparse parameter-payload merge: delta is values[c] minus the global at
/// the absolute coordinate indices[c].
void merge_param_sparse(double* acc, double* weight_acc,
                        const std::uint32_t* indices, const float* values,
                        const float* global, std::size_t count,
                        std::size_t base, double weight);

}  // namespace fused

/// One pending update as the fused committer sees it: a borrowed compact
/// view plus the already-resolved aggregation weight. The caller owns the
/// CompactUpdate; it must outlive the commit call.
struct FusedUpdate {
  const wire::CompactUpdate* update = nullptr;
  /// Aggregation weight: |D_k| for the FedAvg-style rules, or the
  /// staleness-damped |D_k|·(1+τ)^-a for the async merge.
  double weight = 0.0;
  bool is_update = false;  ///< delta payload vs full-parameter payload
};

class ShardedAccumulator {
 public:
  /// Coordinates per accumulator block. Equals CompactUpdate::kRankStride,
  /// so a block start costs one rank-directory probe.
  static constexpr std::size_t kBlock = 4096;

  // Out of line: Panel is incomplete here, and both special members
  // instantiate the panel vector's destructor.
  ShardedAccumulator();
  ~ShardedAccumulator();
  ShardedAccumulator(const ShardedAccumulator&) = delete;
  ShardedAccumulator& operator=(const ShardedAccumulator&) = delete;

  /// FedAvg-style commit (eq. 10). `weight` must be each update's sample
  /// count |D_k|; total weight is their sum in batch order. Parameter-type
  /// updates replace coordinates and update-type ones add a weighted-average
  /// delta; all updates in one call must agree on is_update.
  /// kMaskedAverage implements eq. 10 literally (untransmitted coordinates
  /// count as zeros); kPerCoordinateNormalized averages every coordinate
  /// over the clients that transmitted it and keeps the previous global
  /// value where none did.
  void aggregate(std::span<float> global_params,
                 std::span<const FusedUpdate> updates, AggregationRule rule);

  /// Staleness-weighted merge (FedAsync / FedBuff): mirrors the engine's
  /// coordinate-outer merge bit for bit. Every update becomes a delta
  /// against the current global (parameter payloads subtract it), deltas
  /// are weight-averaged per coordinate over the transmitting clients, and
  /// the global takes a mixing_rate-sized step along the mean.
  void merge(std::span<float> global_params,
             std::span<const FusedUpdate> updates, double mixing_rate);

 private:
  struct Panel;
  class PanelLease;

  [[nodiscard]] std::unique_ptr<Panel> lease_panel();
  void restore_panel(std::unique_ptr<Panel> panel);

  std::mutex mutex_;
  std::vector<std::unique_ptr<Panel>> free_panels_;
};

}  // namespace fedbiad::fl
