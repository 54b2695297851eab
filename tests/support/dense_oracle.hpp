// Dense test oracles for the server's compact decode→aggregate path.
//
// The library decodes every upload into a wire::CompactUpdate and commits
// it through fl::ShardedAccumulator without ever building a per-client
// dense vector. Tests still want the wide view: to read a decoded upload
// coordinate by coordinate, and to check the fused committer against a
// plain dense kernel. Both live here, outside the library:
//
//   * DenseOutcome / decode_dense: a ClientOutcome after the server's
//     receive step, with the dense view expanded from its compact decode.
//   * aggregate: the dense eq. 10 commit the fused committer must match bit
//     for bit (coordinate blocks outer, clients middle, coordinates inner).
//   * fused_ref: scalar twins of the fused committer's vector kernels.
//
// This code is compiled with -ffp-contract=off (tests/CMakeLists.txt), so
// every `acc += w * (double)v` stays a separate IEEE multiply and add — the
// per-element operations the library's kernels are pinned against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "fl/strategy.hpp"
#include "nn/parameter_store.hpp"
#include "wire/bitset.hpp"
#include "wire/compact.hpp"

namespace fedbiad::oracle {

/// A client outcome plus its dense view: `values` (length N, untransmitted
/// coordinates zeroed) and `present` (1 bit per transmitted coordinate).
struct DenseOutcome : fl::ClientOutcome {
  std::vector<float> values;
  wire::Bitset present;
};

/// Runs the server's receive step (fl::decode_outcome_compact) on `out` and
/// returns it with the dense view expanded from `compact`.
[[nodiscard]] DenseOutcome decode_dense(const fl::Strategy& strategy,
                                        const nn::ParameterStore& layout,
                                        fl::ClientOutcome out);

/// A hand-built dense update with the given samples and direction.
[[nodiscard]] DenseOutcome make_dense(std::vector<float> values,
                                      wire::Bitset present,
                                      std::size_t samples,
                                      bool is_update = false);

/// The compact form of a dense view: kDense when every coordinate is
/// present, kBitmap otherwise. Throws CheckError when values and present
/// disagree in length.
[[nodiscard]] wire::CompactUpdate to_compact(const DenseOutcome& dense);

/// Commits `outcomes` into `global_params` through the library's fused
/// committer (fl::ShardedAccumulator::aggregate, the server's only commit
/// path), each as to_compact of its dense view with weight |D_k|.
void commit(std::span<float> global_params,
            std::span<const DenseOutcome> outcomes, fl::AggregationRule rule);

/// Dense eq. 10 commit over `outcomes` (all of one is_update direction,
/// weights |D_k| = samples). kMaskedAverage counts untransmitted
/// coordinates as zeros; kPerCoordinateNormalized averages over the clients
/// that transmitted a coordinate and keeps the old global value where none
/// did. Throws CheckError on an empty batch, mixed directions, a zero
/// weight, or a size mismatch.
void aggregate(std::span<float> global_params,
               std::span<const DenseOutcome> outcomes,
               fl::AggregationRule rule);

/// Scalar reference kernels: the loops fl::fused's vector kernels must
/// match bit for bit.
namespace fused_ref {
void accumulate_run(double* acc, double* present_weight, const float* values,
                    std::size_t len, double weight);
void merge_param_run(double* acc, double* weight_acc, const float* values,
                     const float* global, std::size_t len, double weight);
void accumulate_sparse(double* acc, double* present_weight,
                       const std::uint32_t* indices, const float* values,
                       std::size_t count, std::size_t base, double weight);
void merge_param_sparse(double* acc, double* weight_acc,
                        const std::uint32_t* indices, const float* values,
                        const float* global, std::size_t count,
                        std::size_t base, double weight);
}  // namespace fused_ref

}  // namespace fedbiad::oracle
