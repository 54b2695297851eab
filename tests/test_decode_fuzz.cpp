// Seeded mutation fuzz of the server's one update decoder.
//
// Every strategy decodes through Strategy::decode_payload_compact, which
// ends in wire::decode_update_compact (or the width plan's sub-model
// decoder). Hostile clients control every byte it reads, and the CRC seal
// does not help — the sender computes the CRC. So each payload kind's
// corpus, built by the repo's own encoders, is mutated with seeded bit
// flips, truncations, extensions, splices and varint lies, and every
// mutation must either throw wire::DecodeError or decode to a well-formed
// CompactUpdate that one ShardedAccumulator::aggregate call commits
// cleanly. Any other exception, or a sanitizer report under the asan /
// ubsan presets, is a defect and gets its own named regression case below.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "baselines/fedavg.hpp"
#include "baselines/fjord.hpp"
#include "baselines/heterofl.hpp"
#include "baselines/unit_mask.hpp"
#include "compress/compressed_strategy.hpp"
#include "compress/quantize.hpp"
#include "fl/fused_aggregate.hpp"
#include "nn/mlp_model.hpp"
#include "nn/parameter_store.hpp"
#include "tensor/rng.hpp"
#include "wire/compact.hpp"
#include "wire/reader.hpp"
#include "wire/update_codec.hpp"
#include "wire/writer.hpp"

namespace fedbiad {
namespace {

// --- named regressions -----------------------------------------------------

/// A varint-led payload of `kind` whose second gap wraps past 2^64:
/// positions 9000 then 9000 + (10 − 9000 − 1) + 1 ≡ 10 (mod 2^64), i.e. not
/// ascending. Two f32 values follow.
wire::Payload wrapping_varint_payload(wire::PayloadKind kind) {
  wire::Writer w;
  w.varint(2);
  w.varint(9000);
  w.varint(std::uint64_t{10} - 9000 - 1);
  w.f32(1.0F);
  w.f32(2.0F);
  return {.kind = kind, .aux = 0, .bytes = std::move(w).take()};
}

nn::ParameterStore single_group_store(std::size_t rows, std::size_t row_len) {
  nn::ParameterStore store;
  store.add_group("w", nn::GroupKind::kDense, rows, row_len, true);
  store.finalize();
  return store;
}

// A delta-varint gap that wraps the position back below its predecessor
// used to decode to indices [9000, 10]; the fused commit then wrote outside
// its 4096-coordinate panel.
TEST(DecodeRegression, SparseVarintGapWraparoundIsRejected) {
  const auto store = single_group_store(128, 128);
  ASSERT_EQ(store.size(), 16384u);
  EXPECT_THROW(
      (void)wire::decode_update_compact(
          store, wrapping_varint_payload(wire::PayloadKind::kSparseVarint)),
      wire::DecodeError);
}

// The same wraparound in kPrunedVarint's prunable-space positions.
TEST(DecodeRegression, PrunedVarintGapWraparoundIsRejected) {
  const auto store = single_group_store(128, 128);
  EXPECT_THROW(
      (void)wire::decode_update_compact(
          store, wrapping_varint_payload(wire::PayloadKind::kPrunedVarint)),
      wire::DecodeError);
}

// A gap that lands exactly on the coordinate limit is out of range too.
TEST(DecodeRegression, SparseVarintGapToTheLimitIsRejected) {
  const auto store = single_group_store(4, 4);
  wire::Writer w;
  w.varint(2);
  w.varint(3);
  w.varint(store.size() - 3 - 1);  // position 3 + gap + 1 == size()
  w.f32(1.0F);
  w.f32(2.0F);
  const wire::Payload p{.kind = wire::PayloadKind::kSparseVarint,
                        .aux = 0,
                        .bytes = std::move(w).take()};
  EXPECT_THROW((void)wire::decode_update_compact(store, p), wire::DecodeError);
}

// --- the mutation fuzzer ---------------------------------------------------

/// Multi-group ragged layout: droppable and fixed groups interleave, so the
/// row-masked and pruned decoders merge sections across group boundaries.
nn::ParameterStore ragged_store() {
  nn::ParameterStore store;
  store.add_group("fc", nn::GroupKind::kDense, 4, 3, true);
  store.add_group("head", nn::GroupKind::kDense, 2, 5, false);
  store.add_group("conv", nn::GroupKind::kConvFilter, 5, 7, true);
  store.finalize();
  return store;
}

using DecodeFn = std::function<wire::CompactUpdate(const wire::Payload&)>;

struct Seed {
  std::string name;
  const nn::ParameterStore* layout;
  wire::Payload payload;
  DecodeFn decode;
};

std::vector<float> random_values(std::size_t n, tensor::Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

std::vector<std::uint32_t> every_kth(std::size_t n, std::size_t k) {
  std::vector<std::uint32_t> idx;
  for (std::size_t i = 0; i < n; i += k) {
    idx.push_back(static_cast<std::uint32_t>(i));
  }
  return idx;
}

/// Everything the seeds borrow: layouts, strategies, candidate sets.
struct Rig {
  nn::ParameterStore store = ragged_store();
  nn::MlpModel mlp{{.input = 6, .hidden = 8, .classes = 3}};
  baselines::FedAvgStrategy generic;
  baselines::FjordStrategy fjord{baselines::WidthPlan::for_mlp(mlp), 0.5};
  baselines::HeteroFlStrategy heterofl{baselines::WidthPlan::for_mlp(mlp),
                                       {1.0, 0.5, 0.25}};
  compress::ComposedStrategy composed{
      std::make_shared<baselines::FedAvgStrategy>(),
      std::make_shared<compress::SignSgdCompressor>()};
  wire::Bitset candidates;
  std::vector<std::uint8_t> candidate_mask;
  std::vector<std::uint8_t> row_kept;

  Rig() {
    candidate_mask.assign(store.size(), 0);
    for (std::size_t i = 0; i < store.size(); i += 3) candidate_mask[i] = 1;
    candidates = wire::Bitset::from_bytemask(candidate_mask);
    row_kept.assign(store.droppable_rows(), 0);
    for (std::size_t j = 0; j < row_kept.size(); j += 2) row_kept[j] = 1;
  }
};

std::vector<Seed> build_corpus(const Rig& rig, tensor::Rng& rng) {
  const nn::ParameterStore& store = rig.store;
  const std::size_t n = store.size();
  const auto values = random_values(n, rng);
  DecodeFn generic = [&rig](const wire::Payload& p) {
    return rig.generic.decode_payload_compact(rig.store, p);
  };
  DecodeFn narrowed = [&rig](const wire::Payload& p) {
    return wire::decode_update_compact(rig.store, p, &rig.candidates);
  };
  std::vector<Seed> corpus;
  auto add = [&](std::string name, wire::Payload p, DecodeFn fn,
                 const nn::ParameterStore* layout) {
    corpus.push_back({std::move(name), layout, std::move(p), std::move(fn)});
  };

  add("dense-f32", wire::encode_dense_f32(values), generic, &store);
  add("row-masked", wire::encode_row_masked(store, rig.row_kept, values),
      generic, &store);
  for (const std::size_t bits : {16, 32, 64}) {
    const auto idx = every_kth(n, 4);
    std::vector<float> v(idx.size(), 0.5F);
    add("sparse-fixed-" + std::to_string(bits),
        wire::encode_sparse_fixed(idx, v, bits), generic, &store);
    std::vector<std::uint8_t> negative(idx.size());
    for (std::size_t k = 0; k < idx.size(); ++k) negative[k] = k % 2;
    add("ternary-" + std::to_string(bits),
        wire::encode_ternary(0.25F, idx, negative, bits), generic, &store);
  }
  {
    const auto idx = every_kth(n, 3);
    std::vector<float> v(idx.size(), -1.5F);
    add("sparse-varint", wire::encode_sparse_varint(idx, v), generic, &store);
  }
  add("sign-mean", wire::encode_sign_mean(0.5F, {}, values), generic, &store);
  add("sign-mean-candidates",
      wire::encode_sign_mean(0.5F, rig.candidate_mask, values), narrowed,
      &store);
  {
    std::vector<std::int8_t> all(n, 7);
    add("int8-dense", wire::encode_int8_dense(0.1F, all, n), generic, &store);
    const std::size_t c = rig.candidates.count();
    std::vector<std::int8_t> some(c, -3);
    add("int8-dense-candidates", wire::encode_int8_dense(0.1F, some, c),
        narrowed, &store);
  }
  {
    // Keep every fixed coordinate and most (bitmap) or few (varint) of the
    // droppable ones, so both pruned encodings are emitted.
    std::vector<std::uint8_t> most(n, 1);
    std::vector<std::uint8_t> few(n, 1);
    for (const auto& g : store.groups()) {
      if (!g.droppable) continue;
      for (std::size_t i = g.offset; i < g.offset + g.size(); ++i) {
        most[i] = i % 5 != 0;
        few[i] = i % 23 == 0;
      }
    }
    auto bitmap = wire::encode_pruned(store, most, values);
    auto varint = wire::encode_pruned(store, few, values);
    EXPECT_EQ(bitmap.kind, wire::PayloadKind::kPrunedBitmap);
    EXPECT_EQ(varint.kind, wire::PayloadKind::kPrunedVarint);
    add("pruned-bitmap", std::move(bitmap), generic, &store);
    add("pruned-varint", std::move(varint), generic, &store);
  }
  {
    const nn::ParameterStore& mlp = rig.mlp.store();
    const auto mlp_values = random_values(mlp.size(), rng);
    const auto plan = baselines::WidthPlan::for_mlp(rig.mlp);
    DecodeFn fjord = [&rig](const wire::Payload& p) {
      return rig.fjord.decode_payload_compact(rig.mlp.store(), p);
    };
    DecodeFn heterofl = [&rig](const wire::Payload& p) {
      return rig.heterofl.decode_payload_compact(rig.mlp.store(), p);
    };
    add("submodel-fjord", plan.encode_submodel(mlp, 0.5, mlp_values), fjord,
        &mlp);
    for (const double ratio : {1.0, 0.25}) {
      add("submodel-heterofl-" + std::to_string(ratio),
          plan.encode_submodel(mlp, ratio, mlp_values), heterofl, &mlp);
    }
  }
  {
    // Composed framing: the packed row pattern β, then a compressor section
    // over the candidates β keeps.
    DecodeFn composed = [&rig](const wire::Payload& p) {
      return rig.composed.decode_payload_compact(rig.store, p);
    };
    const auto beta =
        wire::Bitset::from_bytemask(rig.row_kept).packed_bytes();
    const wire::Bitset kept = wire::expand_row_mask(store, beta);
    const std::vector<std::uint8_t> kept_mask = kept.to_bytemask();
    auto framed = [&](wire::Payload section) {
      section.bytes.insert(section.bytes.begin(), beta.begin(), beta.end());
      return section;
    };
    add("composed-sign-mean",
        framed(wire::encode_sign_mean(0.5F, kept_mask, values)), composed,
        &store);
    std::vector<std::int8_t> quants(kept.count(), 5);
    add("composed-int8",
        framed(wire::encode_int8_dense(0.1F, quants, kept.count())), composed,
        &store);
    std::vector<std::uint32_t> idx;
    for (std::size_t i = 0; i < n; ++i) {
      if (kept.test(i) && i % 2 == 0) {
        idx.push_back(static_cast<std::uint32_t>(i));
      }
    }
    std::vector<float> v(idx.size(), 0.75F);
    add("composed-sparse-fixed",
        framed(wire::encode_sparse_fixed(idx, v, 32)), composed, &store);
  }
  return corpus;
}

/// Re-encodes one varint of the payload's leading varint run — the entry
/// count or one of the delta-varint gaps after it, as the varint-led kinds
/// lay them out — with `value`, keeping every other byte as it was.
void rewrite_leading_varint(std::vector<std::uint8_t>& bytes,
                            std::size_t which, std::uint64_t value) {
  std::size_t begin = 0;
  std::size_t end = 0;
  for (std::size_t v = 0; v <= which && end < bytes.size(); ++v) {
    begin = end;
    while (end < bytes.size() && (bytes[end] & 0x80U) != 0) ++end;
    if (end < bytes.size()) ++end;
  }
  wire::Writer w;
  w.varint(value);
  const std::vector<std::uint8_t> lie = std::move(w).take();
  bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(begin),
              bytes.begin() + static_cast<std::ptrdiff_t>(end));
  bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(begin),
               lie.begin(), lie.end());
}

/// A varint value worth lying with: small, near the layout size, or huge —
/// including gaps that wrap a position past 2^64 back into [0, n).
std::uint64_t lying_varint(tensor::Rng& rng, std::size_t n) {
  switch (rng.uniform_index(4)) {
    case 0:
      return rng.uniform_index(8);
    case 1:
      return n - 1 + rng.uniform_index(3);
    case 2:
      return ~std::uint64_t{0} - rng.uniform_index(n);
    default:
      return rng.next_u64();
  }
}

wire::Payload mutate(const Seed& seed, const std::vector<Seed>& corpus,
                     tensor::Rng& rng) {
  wire::Payload p = seed.payload;
  std::vector<std::uint8_t>& b = p.bytes;
  switch (rng.uniform_index(6)) {
    case 0: {  // bit flips
      if (b.empty()) break;
      const std::size_t flips = 1 + rng.uniform_index(4);
      for (std::size_t f = 0; f < flips; ++f) {
        b[rng.uniform_index(b.size())] ^=
            static_cast<std::uint8_t>(1U << rng.uniform_index(8));
      }
      break;
    }
    case 1:  // truncation
      b.resize(b.empty() ? 0 : rng.uniform_index(b.size()));
      break;
    case 2: {  // extension
      const std::size_t extra = 1 + rng.uniform_index(8);
      for (std::size_t e = 0; e < extra; ++e) {
        b.push_back(static_cast<std::uint8_t>(rng.uniform_index(256)));
      }
      break;
    }
    case 3: {  // splice: this payload's head, another payload's tail
      const auto& other =
          corpus[rng.uniform_index(corpus.size())].payload.bytes;
      const std::size_t cut = rng.uniform_index(b.size() + 1);
      const std::size_t from = rng.uniform_index(other.size() + 1);
      b.resize(cut);
      b.insert(b.end(), other.begin() + static_cast<std::ptrdiff_t>(from),
               other.end());
      break;
    }
    case 4:  // the entry count or one of the first gaps lies
      rewrite_leading_varint(b, rng.uniform_index(4),
                             lying_varint(rng, seed.layout->size()));
      break;
    default: {  // a varint (gap, count) planted mid-stream
      wire::Writer w;
      w.varint(lying_varint(rng, seed.layout->size()));
      const std::vector<std::uint8_t> lie = std::move(w).take();
      const std::size_t at = rng.uniform_index(b.size() + 1);
      const std::size_t span = std::min(lie.size(), b.size() - at);
      b.erase(b.begin() + static_cast<std::ptrdiff_t>(at),
              b.begin() + static_cast<std::ptrdiff_t>(at + span));
      b.insert(b.begin() + static_cast<std::ptrdiff_t>(at), lie.begin(),
               lie.end());
      break;
    }
  }
  return p;
}

/// The shape contract of a successful decode; returns "" when it holds.
std::string shape_violation(const wire::CompactUpdate& u, std::size_t n) {
  using Form = wire::CompactUpdate::Form;
  if (u.empty()) return "decoded to the empty form";
  if (u.size() != n) return "size() differs from the layout";
  if (u.values.size() != u.transmitted()) return "values != transmitted()";
  switch (u.form) {
    case Form::kEmpty:
      break;
    case Form::kDense:
      if (u.values.size() != n) return "dense form is not full length";
      break;
    case Form::kBitmap:
      if (u.present.size() != n) return "bitmap size differs from layout";
      if (u.values.size() != u.present.count()) {
        return "bitmap value count != present.count()";
      }
      break;
    case Form::kSparse:
      if (u.indices.size() != u.values.size()) return "index/value mismatch";
      for (std::size_t c = 0; c < u.indices.size(); ++c) {
        if (u.indices[c] >= n) return "sparse index out of range";
        if (c > 0 && u.indices[c] <= u.indices[c - 1]) {
          return "sparse indices not strictly ascending";
        }
      }
      break;
  }
  return "";
}

TEST(DecodeFuzz, EveryMutationIsRejectedOrDecodesWellFormed) {
  constexpr std::size_t kMutationsPerSeed = 1500;
  tensor::Rng rng(0xFEDB1AD);
  const Rig rig;
  const std::vector<Seed> corpus = build_corpus(rig, rng);
  ASSERT_GE(corpus.size(), 20u);
  fl::ShardedAccumulator sharded;
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (const Seed& seed : corpus) {
    // The unmutated seed must decode: the corpus is valid by construction.
    ASSERT_NO_THROW((void)seed.decode(seed.payload)) << seed.name;
    const std::size_t n = seed.layout->size();
    std::vector<float> global(n, 0.0F);
    for (std::size_t it = 0; it < kMutationsPerSeed; ++it) {
      const wire::Payload p = mutate(seed, corpus, rng);
      wire::CompactUpdate u;
      try {
        u = seed.decode(p);
      } catch (const wire::DecodeError&) {
        ++rejected;
        continue;
      } catch (const std::exception& e) {
        FAIL() << seed.name << " mutation " << it
               << " threw a non-DecodeError: " << e.what();
      }
      const std::string bad = shape_violation(u, n);
      ASSERT_TRUE(bad.empty()) << seed.name << " mutation " << it << ": "
                               << bad;
      const fl::FusedUpdate fused{&u, 1.0, /*is_update=*/true};
      ASSERT_NO_THROW(sharded.aggregate(
          global, std::span<const fl::FusedUpdate>(&fused, 1),
          fl::AggregationRule::kPerCoordinateNormalized))
          << seed.name << " mutation " << it;
      ++accepted;
    }
  }
  // Both outcomes must actually occur, or the mutators are too weak/strong.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace fedbiad
