#include "support/dense_oracle.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/check.hpp"
#include "fl/fused_aggregate.hpp"

namespace fedbiad::oracle {

DenseOutcome decode_dense(const fl::Strategy& strategy,
                          const nn::ParameterStore& layout,
                          fl::ClientOutcome out) {
  fl::decode_outcome_compact(strategy, layout, out);
  wire::Decoded dense = wire::expand(out.compact);
  DenseOutcome d;
  static_cast<fl::ClientOutcome&>(d) = std::move(out);
  d.values = std::move(dense.values);
  d.present = std::move(dense.present);
  return d;
}

DenseOutcome make_dense(std::vector<float> values, wire::Bitset present,
                        std::size_t samples, bool is_update) {
  DenseOutcome d;
  d.values = std::move(values);
  d.present = std::move(present);
  d.samples = samples;
  d.is_update = is_update;
  return d;
}

wire::CompactUpdate to_compact(const DenseOutcome& dense) {
  const std::size_t n = dense.values.size();
  FEDBIAD_CHECK(dense.present.size() == n,
                "dense update values/present size mismatch");
  wire::CompactUpdate u;
  u.coords = n;
  if (dense.present.count() == n) {
    u.form = wire::CompactUpdate::Form::kDense;
    u.values = dense.values;
    return u;
  }
  u.form = wire::CompactUpdate::Form::kBitmap;
  for (std::size_t i = 0; i < n; ++i) {
    if (dense.present.test(i)) u.values.push_back(dense.values[i]);
  }
  u.present = dense.present;
  u.build_rank_directory();
  return u;
}

void commit(std::span<float> global_params,
            std::span<const DenseOutcome> outcomes, fl::AggregationRule rule) {
  std::vector<wire::CompactUpdate> compact;
  compact.reserve(outcomes.size());
  std::vector<fl::FusedUpdate> fused;
  for (const DenseOutcome& o : outcomes) {
    compact.push_back(to_compact(o));
    fused.push_back({&compact.back(), static_cast<double>(o.samples),
                     o.is_update});
  }
  fl::ShardedAccumulator sharded;
  sharded.aggregate(global_params, fused, rule);
}

namespace {

// Coordinates per streaming block: the two double accumulator panels stay
// cache-resident while every client's values / present arrays stream
// through them sequentially.
constexpr std::size_t kBlock = 4096;

/// Accumulates one client's contribution over coordinates [begin, end),
/// walking the set bits of each presence word in ascending order.
/// `acc`/`pw` are the block-local panels, indexed i - begin.
void accumulate_client(const DenseOutcome& o, std::size_t begin,
                       std::size_t end, double* acc, double* pw) {
  const double w = static_cast<double>(o.samples);
  const float* v = o.values.data();
  const std::span<const std::uint64_t> words = o.present.words();
  constexpr std::size_t kWordBits = wire::Bitset::kWordBits;
  auto add = [&](std::size_t i) {
    acc[i - begin] += w * static_cast<double>(v[i]);
    pw[i - begin] += w;
  };
  std::size_t i = begin;
  for (; i < end && i % kWordBits != 0; ++i) {
    if (o.present.test(i)) add(i);
  }
  for (; i + kWordBits <= end; i += kWordBits) {
    std::uint64_t bits = words[i / kWordBits];
    while (bits != 0) {
      add(i + static_cast<std::size_t>(std::countr_zero(bits)));
      bits &= bits - 1;
    }
  }
  for (; i < end; ++i) {
    if (o.present.test(i)) add(i);
  }
}

}  // namespace

void aggregate(std::span<float> global_params,
               std::span<const DenseOutcome> outcomes,
               fl::AggregationRule rule) {
  FEDBIAD_CHECK(!outcomes.empty(), "aggregate with no client outcomes");
  const std::size_t n = global_params.size();
  const bool is_update = outcomes.front().is_update;
  double total_weight = 0.0;
  for (const DenseOutcome& o : outcomes) {
    FEDBIAD_CHECK(o.values.size() == n && o.present.size() == n,
                  "client outcome size mismatch");
    FEDBIAD_CHECK(o.is_update == is_update,
                  "cannot mix parameter and update outcomes");
    FEDBIAD_CHECK(o.samples > 0, "client outcome without samples");
    total_weight += static_cast<double>(o.samples);
  }
  std::vector<double> acc(kBlock);
  std::vector<double> present_weight(kBlock);
  for (std::size_t b0 = 0; b0 < n; b0 += kBlock) {
    const std::size_t len = std::min(kBlock, n - b0);
    std::fill_n(acc.begin(), len, 0.0);
    std::fill_n(present_weight.begin(), len, 0.0);
    for (const DenseOutcome& o : outcomes) {
      accumulate_client(o, b0, b0 + len, acc.data(), present_weight.data());
    }
    float* g = global_params.data() + b0;
    for (std::size_t i = 0; i < len; ++i) {
      const double denom = rule == fl::AggregationRule::kMaskedAverage
                               ? total_weight
                               : present_weight[i];
      if (denom <= 0.0) continue;  // nobody transmitted: keep the old value
      const auto mean = static_cast<float>(acc[i] / denom);
      g[i] = is_update ? g[i] + mean : mean;
    }
  }
}

namespace fused_ref {

void accumulate_run(double* acc, double* present_weight, const float* values,
                    std::size_t len, double weight) {
  for (std::size_t i = 0; i < len; ++i) {
    acc[i] += weight * static_cast<double>(values[i]);
    present_weight[i] += weight;
  }
}

void merge_param_run(double* acc, double* weight_acc, const float* values,
                     const float* global, std::size_t len, double weight) {
  for (std::size_t i = 0; i < len; ++i) {
    acc[i] += weight * (static_cast<double>(values[i]) -
                        static_cast<double>(global[i]));
    weight_acc[i] += weight;
  }
}

void accumulate_sparse(double* acc, double* present_weight,
                       const std::uint32_t* indices, const float* values,
                       std::size_t count, std::size_t base, double weight) {
  for (std::size_t c = 0; c < count; ++c) {
    const std::size_t i = indices[c] - base;
    acc[i] += weight * static_cast<double>(values[c]);
    present_weight[i] += weight;
  }
}

void merge_param_sparse(double* acc, double* weight_acc,
                        const std::uint32_t* indices, const float* values,
                        const float* global, std::size_t count,
                        std::size_t base, double weight) {
  for (std::size_t c = 0; c < count; ++c) {
    const std::size_t i = indices[c] - base;
    acc[i] += weight * (static_cast<double>(values[c]) -
                        static_cast<double>(global[indices[c]]));
    weight_acc[i] += weight;
  }
}

}  // namespace fused_ref

}  // namespace fedbiad::oracle
