// Substrate microbenchmarks (google-benchmark): tensor kernels, LSTM
// forward/backward, mask application, compressors, and aggregation.
// Not a paper artefact — used to track the simulator's own performance.
//
// With FEDBIAD_JSON=<path> set, additionally writes the results as a
// BENCH_micro.json trajectory file following the bench/README.md schema
// (series keyed by "kernel"; items/sec and ns/iter per entry).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "compress/dgc.hpp"
#include "compress/quantize.hpp"
#include "core/drop_pattern.hpp"
#include "fl/fused_aggregate.hpp"
#include "nn/conv2d.hpp"
#include "nn/loss.hpp"
#include "nn/lstm.hpp"
#include "nn/mlp_model.hpp"
#include "tensor/ops.hpp"
#include "wire/compact.hpp"
#include "wire/crc32c.hpp"
#include "wire/update_codec.hpp"

namespace {

using namespace fedbiad;

void BM_MatmulXwt(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  tensor::Rng rng(1);
  tensor::Matrix x(32, n), w(n, n), out;
  x.fill_uniform(rng, -1, 1);
  w.fill_uniform(rng, -1, 1);
  for (auto _ : state) {
    tensor::matmul_xwt(x, w, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 32 *
                          n * n);
}
BENCHMARK(BM_MatmulXwt)->Arg(128)->Arg(512);

void BM_LstmForward(benchmark::State& state) {
  const auto h = static_cast<std::size_t>(state.range(0));
  nn::ParameterStore store;
  nn::LstmLayer lstm(store, "l", h, h);
  store.finalize();
  tensor::Rng rng(2);
  lstm.init(store, rng);
  tensor::Matrix x(16 * 12, h);
  x.fill_uniform(rng, -1, 1);
  nn::LstmLayer::Cache cache;
  for (auto _ : state) {
    lstm.forward(store, x, 16, 12, cache);
    benchmark::DoNotOptimize(cache.h.data());
  }
  // Items = tokens: batch 16 × seq 12 per iteration.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 16 *
                          12);
}
BENCHMARK(BM_LstmForward)->Arg(64)->Arg(128);

void BM_LstmBackward(benchmark::State& state) {
  const auto h = static_cast<std::size_t>(state.range(0));
  nn::ParameterStore store;
  nn::LstmLayer lstm(store, "l", h, h);
  store.finalize();
  tensor::Rng rng(3);
  lstm.init(store, rng);
  tensor::Matrix x(16 * 12, h), g(16 * 12, h), gx;
  x.fill_uniform(rng, -1, 1);
  g.fill_uniform(rng, -1, 1);
  nn::LstmLayer::Cache cache;
  lstm.forward(store, x, 16, 12, cache);
  for (auto _ : state) {
    store.zero_grads();
    lstm.backward(store, x, cache, g, gx);
    benchmark::DoNotOptimize(gx.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 16 *
                          12);
}
BENCHMARK(BM_LstmBackward)->Arg(64);

// The conv benches mirror the ConvModel scenario (MNIST-like single-channel
// input) plus a multi-channel mid-network shape; arg = input channels,
// filters = 8 × channels. Items = output elements per pass.
void conv_shapes(std::size_t channels, std::size_t& filters,
                 std::size_t& kernel, std::size_t& hw) {
  filters = 8 * channels;
  kernel = 5;
  hw = 28;
}

void BM_Conv2dForward(benchmark::State& state) {
  const auto channels = static_cast<std::size_t>(state.range(0));
  std::size_t filters = 0, kernel = 0, hw = 0;
  conv_shapes(channels, filters, kernel, hw);
  nn::ParameterStore store;
  nn::Conv2D conv(store, "c", channels, filters, kernel, hw, hw);
  store.finalize();
  tensor::Rng rng(8);
  conv.init(store, rng);
  tensor::Matrix x(32, channels * hw * hw), out;
  x.fill_uniform(rng, -1, 1);
  for (auto _ : state) {
    conv.forward(store, x, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 32 *
                          static_cast<std::int64_t>(conv.out_size()));
}
BENCHMARK(BM_Conv2dForward)->Arg(1)->Arg(4);

void BM_Conv2dBackward(benchmark::State& state) {
  const auto channels = static_cast<std::size_t>(state.range(0));
  std::size_t filters = 0, kernel = 0, hw = 0;
  conv_shapes(channels, filters, kernel, hw);
  nn::ParameterStore store;
  nn::Conv2D conv(store, "c", channels, filters, kernel, hw, hw);
  store.finalize();
  tensor::Rng rng(9);
  conv.init(store, rng);
  tensor::Matrix x(32, channels * hw * hw), g(32, conv.out_size()), g_in;
  x.fill_uniform(rng, -1, 1);
  g.fill_uniform(rng, -1, 1);
  for (auto _ : state) {
    store.zero_grads();
    conv.backward(store, x, g, &g_in);
    benchmark::DoNotOptimize(g_in.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 32 *
                          static_cast<std::int64_t>(conv.out_size()));
}
BENCHMARK(BM_Conv2dBackward)->Arg(1)->Arg(4);

void BM_SoftmaxXent(benchmark::State& state) {
  const auto cols = static_cast<std::size_t>(state.range(0));
  const std::size_t rows = 64;
  tensor::Rng rng(10);
  tensor::Matrix logits(rows, cols), g;
  logits.fill_uniform(rng, -4, 4);
  std::vector<std::int32_t> labels(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    labels[r] = static_cast<std::int32_t>(rng.uniform_index(cols));
  }
  for (auto _ : state) {
    const float loss = nn::softmax_cross_entropy(logits, labels, g);
    benchmark::DoNotOptimize(loss);
    benchmark::DoNotOptimize(g.data());
  }
  // Items = logits processed per pass.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows * cols));
}
BENCHMARK(BM_SoftmaxXent)->Arg(10)->Arg(2048);

void BM_MaskApply(benchmark::State& state) {
  nn::MlpModel model({.input = 784, .hidden = 256, .classes = 10});
  tensor::Rng rng(4);
  model.init_params(rng);
  const auto pattern = core::DropPattern::sample(
      model.store(), 0.5, core::eligible_all(), rng);
  for (auto _ : state) {
    pattern.apply_to_params(model.store());
    benchmark::DoNotOptimize(model.store().params().data());
  }
  // Items = parameters masked per pass.
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(model.store().params().size()));
}
BENCHMARK(BM_MaskApply);

void BM_DgcCompress(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  tensor::Rng rng(5);
  std::vector<float> update(n);
  for (auto& v : update) v = static_cast<float>(rng.normal(0, 1));
  compress::DgcCompressor dgc({.sparsity = 0.001});
  compress::CompressorState st;
  for (auto _ : state) {
    auto sparse = dgc.compress(update, {}, st);
    benchmark::DoNotOptimize(sparse.values.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DgcCompress)->Arg(100000)->Arg(1000000);

void BM_SignSgdCompress(benchmark::State& state) {
  tensor::Rng rng(6);
  std::vector<float> update(1000000);
  for (auto& v : update) v = static_cast<float>(rng.normal(0, 1));
  compress::SignSgdCompressor sgn;
  compress::CompressorState st;
  for (auto _ : state) {
    auto sparse = sgn.compress(update, {}, st);
    benchmark::DoNotOptimize(sparse.values.data());
  }
  // Items = update coordinates compressed per pass.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(update.size()));
}
BENCHMARK(BM_SignSgdCompress);

// The wire-path benches cover the new per-client serialization work on both
// ends of the uplink: the client-side §IV-B row-masked encode, the engine-
// thread decode that precedes aggregation, and the delta-varint sparse
// encode used by the compressed paths. Items = model coordinates processed.
void BM_EncodeRowMasked(benchmark::State& state) {
  nn::MlpModel model({.input = 784, .hidden = 256, .classes = 10});
  tensor::Rng rng(11);
  model.init_params(rng);
  const auto& store = model.store();
  const auto pattern = core::DropPattern::sample(
      store, 0.5, core::eligible_all(), rng);
  for (auto _ : state) {
    auto payload = wire::encode_row_masked(store, pattern.bits(),
                                           store.params());
    benchmark::DoNotOptimize(payload.bytes.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(store.size()));
}
BENCHMARK(BM_EncodeRowMasked);

void BM_DecodeRowMasked(benchmark::State& state) {
  nn::MlpModel model({.input = 784, .hidden = 256, .classes = 10});
  tensor::Rng rng(12);
  model.init_params(rng);
  const auto& store = model.store();
  const auto pattern = core::DropPattern::sample(
      store, 0.5, core::eligible_all(), rng);
  const auto payload =
      wire::encode_row_masked(store, pattern.bits(), store.params());
  for (auto _ : state) {
    auto decoded = wire::decode_update_compact(store, payload);
    benchmark::DoNotOptimize(decoded.values.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(store.size()));
}
BENCHMARK(BM_DecodeRowMasked);

void BM_EncodeSparse(benchmark::State& state) {
  const std::size_t n = 1000000;
  const auto k = static_cast<std::size_t>(state.range(0));
  tensor::Rng rng(13);
  const auto sampled = rng.sample_without_replacement(n, k);
  std::vector<std::uint32_t> indices(sampled.begin(), sampled.end());
  std::sort(indices.begin(), indices.end());
  std::vector<float> values(k);
  for (auto& v : values) v = static_cast<float>(rng.normal(0, 1));
  for (auto _ : state) {
    auto payload = wire::encode_sparse_varint(indices, values);
    benchmark::DoNotOptimize(payload.bytes.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k));
}
BENCHMARK(BM_EncodeSparse)->Arg(1000)->Arg(100000);

// The server's actual ingest hot path: compact decode of a row-masked wire
// payload straight into the shard-parallel fused committer, never
// materializing a dense per-client vector. Items = model coordinates
// offered per pass (clients × n), transmitted or not.
void BM_FusedIngest(benchmark::State& state) {
  nn::MlpModel model({.input = 784, .hidden = 256, .classes = 10});
  tensor::Rng rng(14);
  model.init_params(rng);
  const auto& store = model.store();
  const std::size_t clients = 10;
  std::vector<wire::Payload> payloads;
  for (std::size_t c = 0; c < clients; ++c) {
    const auto pattern = core::DropPattern::sample(
        store, 0.5, core::eligible_all(), rng);
    payloads.push_back(
        wire::encode_row_masked(store, pattern.bits(), store.params()));
  }
  std::vector<float> global(store.size(), 0.0F);
  fl::ShardedAccumulator sharded;
  for (auto _ : state) {
    std::vector<wire::CompactUpdate> compacts;
    compacts.reserve(clients);
    std::vector<fl::FusedUpdate> batch;
    for (const auto& p : payloads) {
      compacts.push_back(wire::decode_update_compact(store, p));
      batch.push_back({&compacts.back(), /*weight=*/100.0,
                       /*is_update=*/true});
    }
    sharded.aggregate(global, batch,
                      fl::AggregationRule::kPerCoordinateNormalized);
    benchmark::DoNotOptimize(global.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(store.size() * clients));
}
BENCHMARK(BM_FusedIngest);

// CRC32C over a frame-sized buffer, both implementations: the slice-by-8
// table walk every build carries, and the SSE4.2 dispatch the release
// build seals/verifies every upload with. Items = bytes checksummed.
void BM_Crc32cSw(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  tensor::Rng rng(15);
  std::vector<std::uint8_t> data(n);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_index(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::crc32c_sw(data));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Crc32cSw)->Arg(4096)->Arg(1 << 20);

void BM_Crc32cHw(benchmark::State& state) {
  if (!wire::crc32c_hw_available()) {
    state.SkipWithError("SSE4.2 CRC32 not compiled in (portable build)");
    return;
  }
  const auto n = static_cast<std::size_t>(state.range(0));
  tensor::Rng rng(16);
  std::vector<std::uint8_t> data(n);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_index(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::crc32c(data));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Crc32cHw)->Arg(4096)->Arg(1 << 20);

// Console output plus collection of every run for the FEDBIAD_JSON emitter.
class MicroJsonReporter : public benchmark::ConsoleReporter {
 public:
  struct Entry {
    std::string kernel;
    double ns_per_iter = 0.0;
    double items_per_second = 0.0;  // 0 when the bench reports none
    std::int64_t iterations = 0;
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      Entry e;
      e.kernel = run.benchmark_name();
      e.iterations = run.iterations;
      if (run.iterations > 0) {
        e.ns_per_iter = run.GetAdjustedRealTime();
      }
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) e.items_per_second = it->second.value;
      entries_.push_back(std::move(e));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

[[nodiscard]] bool write_json(
    const std::string& path,
    const std::vector<MicroJsonReporter::Entry>& entries) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\n  \"bench\": \"micro\",\n  \"schema_version\": 1,\n"
      << "  \"scale\": 1.0,\n  \"seed\": 0,\n  \"series\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& e = entries[i];
    out << "    {\"kernel\": \"" << e.kernel << "\", \"ns_per_iter\": "
        << e.ns_per_iter << ", \"items_per_second\": " << e.items_per_second
        << ", \"iterations\": " << e.iterations << "}"
        << (i + 1 == entries.size() ? "\n" : ",\n");
  }
  out << "  ]\n}\n";
  out.flush();
  return out.good();
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  MicroJsonReporter reporter;
  // Every benchmark runs on this thread, so one binding covers them all.
  const fedbiad::bench::KernelPool kernels;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (const char* path = std::getenv("FEDBIAD_JSON")) {
    if (!write_json(path, reporter.entries())) {
      std::fprintf(stderr, "bench_micro: failed to write FEDBIAD_JSON=%s\n",
                   path);
      return 1;
    }
  }
  return 0;
}
