// Seeded mutation fuzz of the server's one update decoder and of the
// transport parsers in front of it.
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
//
// The transport parsers in front of that decoder get the same treatment
// (TransportFuzz.*): every protocol message body is mutated against its
// decode_*, and framed byte streams are fed to FrameParser in random
// splits with corrupted, truncated and lying length prefixes.
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
#include "transport/frame.hpp"
#include "transport/protocol.hpp"
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

/// Re-encodes one varint of the varint run starting at byte `from` — for a
/// payload (from 0) the entry count or one of the delta-varint gaps after
/// it, as the varint-led kinds lay them out — with `value`, keeping every
/// other byte as it was.
void rewrite_leading_varint(std::vector<std::uint8_t>& bytes,
                            std::size_t from, std::size_t which,
                            std::uint64_t value) {
  std::size_t begin = from;
  std::size_t end = from;
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

/// Applies one seeded mutation to `b`: bit flips, truncation, extension, a
/// splice with the tail of `pick_other()`'s bytes, a lie in the varint run
/// starting at byte `varint_at`, or a varint planted mid-stream. `n` scales
/// the lies (see lying_varint).
template <typename PickOther>
void mutate_bytes(std::vector<std::uint8_t>& b, PickOther pick_other,
                  std::size_t varint_at, std::size_t n, tensor::Rng& rng) {
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
    case 3: {  // splice: this buffer's head, another buffer's tail
      const std::vector<std::uint8_t>& other = pick_other();
      const std::size_t cut = rng.uniform_index(b.size() + 1);
      const std::size_t from = rng.uniform_index(other.size() + 1);
      b.resize(cut);
      b.insert(b.end(), other.begin() + static_cast<std::ptrdiff_t>(from),
               other.end());
      break;
    }
    case 4:  // a count, gap or length varint lies
      rewrite_leading_varint(b, varint_at, rng.uniform_index(4),
                             lying_varint(rng, n));
      break;
    default: {  // a varint (gap, count) planted mid-stream
      wire::Writer w;
      w.varint(lying_varint(rng, n));
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
}

wire::Payload mutate(const Seed& seed, const std::vector<Seed>& corpus,
                     tensor::Rng& rng) {
  wire::Payload p = seed.payload;
  mutate_bytes(
      p.bytes,
      [&]() -> const std::vector<std::uint8_t>& {
        return corpus[rng.uniform_index(corpus.size())].payload.bytes;
      },
      /*varint_at=*/0, seed.layout->size(), rng);
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

// --- transport parsers ------------------------------------------------------

/// One protocol body per message kind, built by the repo's encoders.
/// `reencode` decodes a body (throwing wire::DecodeError on malformation)
/// and encodes the result again; `varint_at` is where the body's byte-run
/// length varint sits (0 for bodies without one).
struct ProtocolSeed {
  std::string name;
  transport::FrameType type;
  std::vector<std::uint8_t> body;
  std::size_t varint_at;
  std::function<std::vector<std::uint8_t>(std::span<const std::uint8_t>)>
      reencode;
};

template <typename Decode>
auto reencoder(Decode decode) {
  return [decode](std::span<const std::uint8_t> body) {
    return transport::encode(decode(body));
  };
}

std::vector<std::uint8_t> random_bytes(std::size_t n, tensor::Rng& rng) {
  std::vector<std::uint8_t> b(n);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.uniform_index(256));
  return b;
}

std::vector<ProtocolSeed> protocol_corpus(tensor::Rng& rng) {
  using transport::FrameType;
  std::vector<ProtocolSeed> corpus;
  corpus.push_back({"hello", FrameType::kHello,
                    transport::encode(transport::HelloMsg{
                        .client_id = 3,
                        .session_token = 0xDEADBEEF,
                        .payload_kind = 2,
                        .payload_aux = 9}),
                    0, reencoder(transport::decode_hello)});
  corpus.push_back({"welcome", FrameType::kWelcome,
                    transport::encode(transport::WelcomeMsg{
                        .session_token = 5, .version = 2, .resumed = 1}),
                    0, reencoder(transport::decode_welcome)});
  // Broadcast lengths whose varint prefix takes 1 and 2 bytes, and none.
  for (const std::size_t len : {0u, 100u, 300u}) {
    corpus.push_back({"dispatch-" + std::to_string(len), FrameType::kDispatch,
                      transport::encode(transport::DispatchMsg{
                          .dispatch_index = 41,
                          .round = 7,
                          .slot = 2,
                          .model_version = 6,
                          .rng_stream = 0x10029,
                          .broadcast = random_bytes(len, rng)}),
                      40, reencoder(transport::decode_dispatch)});
  }
  corpus.push_back({"upload", FrameType::kUpload,
                    transport::encode(transport::UploadMsg{
                        .dispatch_index = 41,
                        .samples = 17,
                        .is_update = 1,
                        .train_seconds = 0.25,
                        .mean_loss = 1.5,
                        .last_loss = 1.25,
                        .payload = random_bytes(150, rng)}),
                    41, reencoder(transport::decode_upload)});
  corpus.push_back({"upload-ack", FrameType::kUploadAck,
                    transport::encode(transport::UploadAckMsg{41}), 0,
                    reencoder(transport::decode_upload_ack)});
  corpus.push_back({"reject", FrameType::kReject,
                    transport::encode(transport::RejectMsg{
                        .dispatch_index = 41,
                        .retry = 1,
                        .reason = "crc mismatch"}),
                    9, reencoder(transport::decode_reject)});
  corpus.push_back({"fin", FrameType::kFin,
                    transport::encode(transport::FinMsg{9}), 0,
                    reencoder(transport::decode_fin)});
  return corpus;
}

// Every protocol decoder reads a frame body the peer wrote: a mutation must
// throw wire::DecodeError or decode to a message that is well formed — the
// accepted body is exactly delimited (one byte more or one byte less is
// rejected), and its re-encoding is no longer than the input (only an
// overlong varint can shrink) and decodes back to the same bytes.
TEST(TransportFuzz, EveryProtocolMutationIsRejectedOrReencodesStably) {
  constexpr std::size_t kMutationsPerSeed = 1500;
  tensor::Rng rng(0x7A2B5);
  const std::vector<ProtocolSeed> corpus = protocol_corpus(rng);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (const ProtocolSeed& seed : corpus) {
    ASSERT_EQ(seed.reencode(seed.body), seed.body) << seed.name;
    for (std::size_t it = 0; it < kMutationsPerSeed; ++it) {
      std::vector<std::uint8_t> b = seed.body;
      mutate_bytes(
          b,
          [&]() -> const std::vector<std::uint8_t>& {
            return corpus[rng.uniform_index(corpus.size())].body;
          },
          seed.varint_at, seed.body.size(), rng);
      std::vector<std::uint8_t> again;
      try {
        again = seed.reencode(b);
      } catch (const wire::DecodeError&) {
        ++rejected;
        continue;
      } catch (const std::exception& e) {
        FAIL() << seed.name << " mutation " << it
               << " threw a non-DecodeError: " << e.what();
      }
      ASSERT_LE(again.size(), b.size()) << seed.name << " mutation " << it;
      ASSERT_EQ(seed.reencode(again), again)
          << seed.name << " mutation " << it;
      std::vector<std::uint8_t> longer = b;
      longer.push_back(0);
      EXPECT_THROW((void)seed.reencode(longer), wire::DecodeError)
          << seed.name << " mutation " << it;
      if (!b.empty()) {
        EXPECT_THROW((void)seed.reencode(std::span<const std::uint8_t>(
                         b.data(), b.size() - 1)),
                     wire::DecodeError)
            << seed.name << " mutation " << it;
      }
      ++accepted;
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

/// A byte stream of whole frames and where each frame starts.
struct FrameStream {
  std::string name;
  std::vector<std::uint8_t> bytes;
  std::vector<std::size_t> starts;
};

void add_frame(FrameStream& s, transport::FrameType type,
               std::span<const std::uint8_t> body) {
  s.starts.push_back(s.bytes.size());
  transport::append_frame(s.bytes, type, body);
}

void store_u32le(std::vector<std::uint8_t>& b, std::size_t at,
                 std::uint32_t v) {
  for (std::size_t i = 0; i < 4 && at + i < b.size(); ++i) {
    b[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

enum class StreamEnd { kClean, kError };

/// Feeds `bytes` to a fresh parser in seeded random splits, pulling frames
/// after every feed. Each extracted frame must re-frame to exactly the
/// stream bytes it came from; an error must be sticky and drop later bytes;
/// a clean end must leave exactly the unconsumed tail buffered.
StreamEnd parse_in_splits(std::span<const std::uint8_t> bytes,
                          std::size_t limit, tensor::Rng& rng,
                          std::string* error,
                          std::size_t* frames_out = nullptr) {
  transport::FrameParser parser(limit);
  transport::Frame frame;
  std::size_t fed = 0;
  std::size_t consumed = 0;
  std::size_t frames = 0;
  while (fed < bytes.size()) {
    const std::size_t chunk =
        rng.uniform_index(8) == 0 ? bytes.size() - fed
                                  : 1 + rng.uniform_index(64);
    const std::size_t n = std::min(chunk, bytes.size() - fed);
    parser.feed(bytes.subspan(fed, n));
    fed += n;
    for (;;) {
      const auto status = parser.next(frame);
      if (status == transport::FrameParser::Status::kNeedMore) break;
      if (status == transport::FrameParser::Status::kError) {
        *error = parser.error();
        EXPECT_TRUE(parser.failed());
        EXPECT_FALSE(error->empty());
        parser.feed(bytes.subspan(fed));
        EXPECT_EQ(parser.buffered_bytes(), 0u);
        EXPECT_EQ(parser.next(frame), transport::FrameParser::Status::kError);
        EXPECT_EQ(parser.error(), *error);
        return StreamEnd::kError;
      }
      std::vector<std::uint8_t> reframed;
      transport::append_frame(reframed, frame.type, frame.body);
      EXPECT_LE(reframed.size(), limit);
      EXPECT_LE(consumed + reframed.size(), fed);
      EXPECT_TRUE(std::equal(reframed.begin(), reframed.end(),
                             bytes.begin() +
                                 static_cast<std::ptrdiff_t>(consumed)));
      consumed += reframed.size();
      ++frames;
    }
  }
  EXPECT_EQ(consumed + parser.buffered_bytes(), bytes.size());
  if (frames_out != nullptr) *frames_out = frames;
  return StreamEnd::kClean;
}

// The frame parser sits in front of every decoder on both ends of the TCP
// transport. Streams built by append_frame — one per message kind, one of
// every kind back to back, one frame exactly at the size limit — are fed in
// seeded random splits after bit flips, truncations, extensions, splices,
// and length prefixes that lie below the minimum or above the limit. Each
// must end in kError or in frames that re-frame to the exact stream bytes;
// a lying length must be refused as soon as its four bytes are in.
TEST(TransportFuzz, EveryFrameStreamMutationIsRejectedOrReframesExactly) {
  constexpr std::size_t kMutationsPerStream = 1500;
  constexpr std::size_t kLimit = 512;
  tensor::Rng rng(0xF4A3E);
  const std::vector<ProtocolSeed> messages = protocol_corpus(rng);
  std::vector<FrameStream> corpus;
  FrameStream all{"all-kinds", {}, {}};
  for (const ProtocolSeed& m : messages) {
    FrameStream one{m.name, {}, {}};
    add_frame(one, m.type, m.body);
    corpus.push_back(std::move(one));
    add_frame(all, m.type, m.body);
  }
  corpus.push_back(std::move(all));
  FrameStream at_limit{"at-limit", {}, {}};
  add_frame(at_limit, transport::FrameType::kUpload,
            random_bytes(kLimit - transport::kFrameOverheadBytes, rng));
  corpus.push_back(std::move(at_limit));

  std::size_t clean = 0;
  std::size_t errors = 0;
  for (const FrameStream& seed : corpus) {
    std::string error;
    std::size_t frames = 0;
    ASSERT_EQ(parse_in_splits(seed.bytes, kLimit, rng, &error, &frames),
              StreamEnd::kClean)
        << seed.name << ": " << error;
    ASSERT_EQ(frames, seed.starts.size()) << seed.name;
    for (std::size_t it = 0; it < kMutationsPerStream; ++it) {
      std::vector<std::uint8_t> b = seed.bytes;
      const char* want_error = nullptr;
      const std::size_t at = seed.starts[rng.uniform_index(seed.starts.size())];
      switch (rng.uniform_index(5)) {
        case 0: {  // bit flips
          const std::size_t flips = 1 + rng.uniform_index(4);
          for (std::size_t f = 0; f < flips; ++f) {
            b[rng.uniform_index(b.size())] ^=
                static_cast<std::uint8_t>(1U << rng.uniform_index(8));
          }
          break;
        }
        case 1:  // truncation
          b.resize(rng.uniform_index(b.size()));
          break;
        case 2:  // length below the minimum of 5 (type + crc)
          store_u32le(b, at, static_cast<std::uint32_t>(rng.uniform_index(5)));
          want_error = "below minimum";
          break;
        case 3: {  // length above the limit
          const std::uint32_t over = static_cast<std::uint32_t>(kLimit - 4 + 1);
          store_u32le(b, at,
                      rng.uniform_index(2) == 0
                          ? over + static_cast<std::uint32_t>(
                                       rng.uniform_index(16))
                          : static_cast<std::uint32_t>(
                                rng.uniform_index(std::uint64_t{1} << 32) |
                                over));
          want_error = "exceeds limit";
          // Refused at the prefix: no body byte has to arrive first.
          std::string prefix_error;
          ASSERT_EQ(parse_in_splits(std::span<const std::uint8_t>(
                                        b.data(), at + 4),
                                    kLimit, rng, &prefix_error),
                    StreamEnd::kError)
              << seed.name << " mutation " << it;
          break;
        }
        default: {  // extension or splice with another stream's tail
          const auto& other =
              corpus[rng.uniform_index(corpus.size())].bytes;
          b.resize(rng.uniform_index(b.size() + 1));
          const std::size_t from = rng.uniform_index(other.size() + 1);
          b.insert(b.end(), other.begin() + static_cast<std::ptrdiff_t>(from),
                   other.end());
          const std::size_t extra = rng.uniform_index(8);
          for (std::size_t e = 0; e < extra; ++e) {
            b.push_back(static_cast<std::uint8_t>(rng.uniform_index(256)));
          }
          break;
        }
      }
      std::string error;
      const StreamEnd end = parse_in_splits(b, kLimit, rng, &error);
      if (want_error != nullptr) {
        ASSERT_EQ(end, StreamEnd::kError) << seed.name << " mutation " << it;
        ASSERT_NE(error.find(want_error), std::string::npos)
            << seed.name << " mutation " << it << ": " << error;
      }
      ASSERT_FALSE(::testing::Test::HasFailure())
          << seed.name << " mutation " << it;
      ++(end == StreamEnd::kError ? errors : clean);
    }
  }
  EXPECT_GT(clean, 0u);
  EXPECT_GT(errors, 0u);
}

}  // namespace
}  // namespace fedbiad
