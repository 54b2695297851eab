#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "baselines/fedavg.hpp"
#include "core/fedbiad_strategy.hpp"
#include "data/image_synth.hpp"
#include "data/partition.hpp"
#include "data/text_synth.hpp"
#include "decorators.hpp"
#include "fl/async_simulation.hpp"
#include "loadgen.hpp"
#include "nn/lstm_lm_model.hpp"
#include "nn/mlp_model.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/ops.hpp"
#include "transport/epoll.hpp"
#include "transport/protocol.hpp"
#include "transport/server_runtime.hpp"
#include "wire/crc32c.hpp"

namespace perfbench {

namespace fl = fedbiad::fl;
namespace tp = fedbiad::transport;
namespace data = fedbiad::data;
namespace nn = fedbiad::nn;
namespace wire = fedbiad::wire;

namespace {

// --- workload shapes (fixed; only the seed varies between runs) -----------

// Each workload's dataset is fixed, so accuracy compares runs on the same
// data; the run seed drives everything else: the engine seed (selection,
// initialization, client rng streams) and the client partition where the
// workload draws one.
constexpr std::uint64_t kDataSeed = 505;

// sim-fedbiad-lstm: the paper's Reddit-like next-word task at the scale of
// the repo's table benches (100 clients, κ = 0.1).
constexpr std::size_t kLstmClients = 100;
constexpr std::size_t kLstmRounds = 101;
constexpr std::size_t kLstmLocalIterations = 6;
// Every commit is evaluated, so commit intervals are one mode, not a mix
// of evaluated and unevaluated rounds.
constexpr std::size_t kLstmEvalEvery = 1;

// sim-fedavg-1m-buffered: registered population far above the in-flight
// set, which is far above K, so the engine's own bookkeeping dominates.
constexpr std::size_t kScaleRegistered = 1'000'000;
constexpr std::size_t kScaleInFlight = 10'000;
constexpr std::size_t kScaleBufferK = 100;
constexpr std::size_t kScaleCommits = 1000;

// tcp-fedbiad-replay: ~400k-coordinate MLP (784-500-10 = 397,510).
constexpr std::size_t kReplayRounds = 250;
constexpr std::size_t kReplayHidden = 500;
constexpr std::size_t kReplaySamplesPerClient = 64;
constexpr std::size_t kReplayRecordings = 2;  ///< uploads recorded per client

// --- small helpers ----------------------------------------------------------

class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return raw(key, buf);
  }
  JsonObject& integer(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    return raw(key, quoted + "\"");
  }
  JsonObject& array(const std::string& key, const std::vector<double>& v) {
    std::string out = "[";
    char buf[64];
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s%.9g", i ? "," : "", v[i]);
      out += buf;
    }
    return raw(key, out + "]");
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    os_ << (first_ ? "{" : ",") << '"' << key << "\":" << json;
    first_ = false;
    return *this;
  }
  [[nodiscard]] std::string done() const { return os_.str() + (first_ ? "{}" : "}"); }

 private:
  std::ostringstream os_;
  bool first_ = true;
};

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string hex32(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x", v);
  return buf;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, idx == 0 ? 0 : idx - 1)];
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

/// Spans by name, restricted to those that start inside the measured
/// window (first dispatch → last commit).
struct SpanIndex {
  std::map<std::string, std::vector<const Span*>> by_name;
  std::map<std::uint64_t, double> child_seconds;  ///< parent id → sum

  SpanIndex(const std::vector<Span>& spans, double from, double to) {
    for (const Span& s : spans) {
      if (s.start < from || s.start > to) continue;
      by_name[s.name].push_back(&s);
      if (s.parent != 0) child_seconds[s.parent] += s.duration();
    }
  }
  [[nodiscard]] std::vector<double> durations(const std::string& name) const {
    std::vector<double> d;
    auto it = by_name.find(name);
    if (it == by_name.end()) return d;
    for (const Span* s : it->second) d.push_back(s->duration());
    return d;
  }
  [[nodiscard]] double busy(const std::string& name) const {
    return sum(durations(name));
  }
  [[nodiscard]] std::size_t count(const std::string& name) const {
    auto it = by_name.find(name);
    return it == by_name.end() ? 0 : it->second.size();
  }
  [[nodiscard]] double arg_sum(const std::string& name) const {
    double s = 0.0;
    auto it = by_name.find(name);
    if (it == by_name.end()) return s;
    for (const Span* sp : it->second) s += static_cast<double>(sp->arg);
    return s;
  }
};

struct TransportCounters {
  std::size_t decode_parked = 0;
  std::size_t decode_shed = 0;
  double loadgen_cpu_frac = 0.0;
};

/// The per-layer split of one traced rep (README.md lists each metric and
/// the end-to-end metric it should move).
std::string layer_metrics(const Tracer& tracer, double from, double to,
                          std::size_t pool_threads,
                          const std::vector<double>& aggregate_seconds,
                          const TransportCounters& tc) {
  const std::vector<Span> spans = tracer.spans();
  const SpanIndex idx(spans, from, to);
  const double wall = std::max(to - from, 1e-9);
  JsonObject j;

  const std::vector<double> client = idx.durations("client.run_client");
  const double client_busy = sum(client);
  j.integer("client.run_client.count", client.size())
      .num("client.run_client.busy_s", client_busy)
      .num("client.run_client.p50_s", quantile(client, 0.5))
      .num("client.run_client.p90_s", quantile(client, 0.9))
      .num("client.pool_util",
           pool_threads == 0
               ? 0.0
               : client_busy / (wall * static_cast<double>(pool_threads)));

  const double decode_busy = idx.busy("wire.decode");
  j.integer("wire.decode.count", idx.count("wire.decode"))
      .num("wire.decode.busy_s", decode_busy)
      .num("wire.decode.bytes_per_s",
           decode_busy > 0.0 ? idx.arg_sum("wire.decode") / decode_busy : 0.0);

  // The engine thread is the one that runs the round hooks.
  std::uint32_t engine_thread = 0;
  auto begins = idx.by_name.find("fl.begin_round");
  if (begins != idx.by_name.end() && !begins->second.empty()) {
    engine_thread = begins->second.front()->thread;
  }
  double engine_decode = 0.0;
  if (auto it = idx.by_name.find("wire.decode"); it != idx.by_name.end()) {
    for (const Span* s : it->second) {
      if (s->thread == engine_thread) engine_decode += s->duration();
    }
  }
  const double hooks = idx.busy("fl.begin_round") + idx.busy("fl.end_round");
  const double gap = idx.busy("fl.commit_gap");
  const double aggregate = sum(aggregate_seconds);
  j.num("fl.aggregate.busy_s", aggregate)
      .num("fl.aggregate.p50_s", quantile(aggregate_seconds, 0.5))
      .num("fl.hooks.busy_s", hooks)
      .num("fl.commit_gap.busy_s", gap)
      .num("fl.engine_other_s",
           std::max(0.0, wall - hooks - gap - aggregate - engine_decode));

  double step_children = 0.0;
  if (auto it = idx.by_name.find("transport.step"); it != idx.by_name.end()) {
    for (const Span* s : it->second) {
      auto c = idx.child_seconds.find(s->id);
      if (c != idx.child_seconds.end()) step_children += c->second;
    }
  }
  const double step_busy = idx.busy("transport.step");
  const std::vector<double> upload = idx.durations("transport.on_upload");
  const std::size_t sends = idx.count("transport.send");
  const std::size_t refused = idx.count("transport.send_refused");
  j.num("transport.step.busy_s", step_busy)
      .num("transport.step.self_s", std::max(0.0, step_busy - step_children))
      .integer("transport.on_upload.count", upload.size())
      .num("transport.on_upload.busy_s", sum(upload))
      .num("transport.on_upload.p50_s", quantile(upload, 0.5))
      .num("transport.tick.busy_s", idx.busy("transport.tick"))
      .integer("transport.send.count", sends + refused)
      .num("transport.send.bytes", idx.arg_sum("transport.send"))
      .num("transport.send.busy_s",
           idx.busy("transport.send") + idx.busy("transport.send_refused"))
      .num("transport.send.refused_frac",
           sends + refused == 0
               ? 0.0
               : static_cast<double>(refused) /
                     static_cast<double>(sends + refused))
      .integer("transport.decode_parked", tc.decode_parked)
      .integer("transport.decode_shed", tc.decode_shed)
      .num("loadgen.cpu_frac", tc.loadgen_cpu_frac);
  return j.done();
}

/// Fields every workload reports, from the engine's result and the probe.
struct RepFacts {
  const fl::SimulationResult* sim = nullptr;
  std::size_t expected_commits = 0;
  std::size_t expected_updates = 0;
  bool conserved = false;
};

std::string record(const RepOptions& opt, const Probe& probe,
                   const RepFacts& f, const std::string& layers,
                   const std::string& extra) {
  const fl::SimulationResult& sim = *f.sim;
  const std::vector<double>& commits = probe.commits();
  const double first = probe.first_dispatch().value_or(0.0);
  const double last = commits.empty() ? first : commits.back();
  std::vector<double> intervals;
  for (std::size_t i = 1; i < commits.size(); ++i) {
    intervals.push_back(commits[i] - commits[i - 1]);
  }
  std::uint64_t uplink = 0;
  std::size_t participants = 0;
  for (const fl::RoundRecord& r : sim.rounds) {
    uplink += r.uplink_bytes_total;
    participants += r.participants;
  }
  const std::uint32_t crc = wire::crc32c(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(sim.final_params.data()),
      sim.final_params.size() * sizeof(float)));

  JsonObject j;
  j.str("workload", opt.workload)
      .integer("seed", opt.seed)
      .boolean("traced", opt.traced)
      .boolean("dispatched_once", probe.first_dispatch().has_value())
      .num("setup_s", first)
      .num("wall_s", last - first)
      .integer("commits", commits.size())
      .integer("rounds_recorded", sim.rounds.size())
      .integer("expected_commits", f.expected_commits)
      .integer("committed", sim.total_committed)
      .integer("expected_updates", f.expected_updates)
      .integer("dispatched", sim.total_dispatched)
      // Shed uploads and refused retries are rejected deliveries.
      .integer("failed", sim.total_abandoned + sim.total_rejected +
                             sim.total_rejected_deliveries)
      .integer("final_buffered", sim.final_buffered)
      .integer("final_in_flight", sim.final_in_flight)
      .boolean("conserved", f.conserved)
      .array("round_intervals_s", intervals)
      .array("ack_s", probe.acks())
      .integer("unacked", probe.unacked())
      .integer("uplink_bytes", uplink)
      .integer("uplink_updates", participants)
      .num("final_topk_acc", sim.rounds.empty() ? 0.0 : sim.rounds.back().topk)
      .str("params_crc32c", hex32(crc))
      .num("peak_rss_mb", peak_rss_mb())
#if defined(__clang__)
      .str("compiler", "clang " __clang_version__)
#else
      .str("compiler", "gcc " __VERSION__)
#endif
      .str("build_type", PERFBENCH_BUILD_TYPE);
  if (!extra.empty()) j.raw("extra", extra);
  if (!layers.empty()) j.raw("layers", layers);
  return j.done();
}

std::string finish_traced(const RepOptions& opt, const Tracer* tracer,
                          const Probe& probe, std::size_t pool_threads,
                          const std::vector<double>& aggregate_seconds,
                          const TransportCounters& tc) {
  if (tracer == nullptr) return {};
  const double from = probe.first_dispatch().value_or(0.0);
  const double to = probe.commits().empty() ? from : probe.commits().back();
  if (!opt.trace_path.empty() && !tracer->write_chrome(opt.trace_path, opt.workload)) {
    throw std::runtime_error("cannot write trace file " + opt.trace_path);
  }
  return layer_metrics(*tracer, from, to, pool_threads, aggregate_seconds, tc);
}

// --- in-process workloads ---------------------------------------------------

struct SimJob {
  fl::AsyncSimulationConfig cfg;
  nn::ModelFactory factory;
  data::DatasetPtr train;
  data::DatasetPtr test;
  data::Partition partition;
  fl::StrategyPtr strategy;
  std::size_t expected_updates = 0;
};

std::string run_sim(const RepOptions& opt, SimJob job) {
  std::unique_ptr<Tracer> tracer;
  if (opt.traced) tracer = std::make_unique<Tracer>(opt.process_start);
  Probe probe(opt.process_start, tracer.get());
  auto traced = std::make_shared<TracedStrategy>(job.strategy, probe,
                                                 /*track_acks=*/true);
  const std::size_t pool_threads = job.cfg.base.threads;
  const std::size_t rounds = job.cfg.base.rounds;
  fl::AsyncSimulation engine(job.cfg, job.factory, job.train, job.test,
                             std::move(job.partition), traced);
  const fl::SimulationResult result = engine.run();

  std::vector<double> aggregate_seconds;
  for (const fl::RoundRecord& r : result.rounds) {
    aggregate_seconds.push_back(r.aggregate_seconds);
  }
  RepFacts facts;
  facts.sim = &result;
  facts.expected_commits = rounds;
  facts.expected_updates = job.expected_updates;
  facts.conserved = result.total_dispatched ==
                    result.total_committed + result.total_abandoned +
                        result.total_rejected + result.final_buffered +
                        result.final_in_flight;
  const std::string layers = finish_traced(opt, tracer.get(), probe,
                                           pool_threads, aggregate_seconds, {});
  return record(opt, probe, facts, layers, {});
}

std::string run_lstm(const RepOptions& opt) {
  auto text = data::TextSynthConfig::reddit_like(kDataSeed);
  text.vocab = 500;
  text.train_sequences = 4000;
  text.test_sequences = 160;
  text.structure_prob = 0.5;
  data::TextDatasets ds = data::make_text_datasets_noniid(text, kLstmClients, 0.3);
  const nn::LstmLmConfig mcfg{.vocab = text.vocab, .embed = 48, .hidden = 64,
                              .layers = 2};

  SimJob job;
  fl::SimulationConfig& base = job.cfg.base;
  base.rounds = kLstmRounds;
  base.selection_fraction = 0.1;
  base.train.local_iterations = kLstmLocalIterations;
  base.train.batch_size = 16;
  base.train.topk = 3;
  base.train.sgd = {.lr = 1.0F, .weight_decay = 0.0F, .clip_norm = 5.0F};
  base.eval_every = kLstmEvalEvery;
  base.seed = opt.seed;
  // The training pool plus the engine thread fill the machine.
  base.threads = std::max(1U, opt.nproc - 1);
  job.cfg.mode = fl::AggregationMode::kBarrier;
  job.factory = [mcfg] { return std::make_unique<nn::LstmLmModel>(mcfg); };
  job.train = ds.train;
  job.test = ds.test;
  job.partition = std::move(ds.client_indices);
  // Rb = 55/60 of the run, so both FedBIAD stages run.
  job.strategy = std::make_shared<fedbiad::core::FedBiadStrategy>(
      fedbiad::core::FedBiadConfig{.dropout_rate = 0.5, .tau = 3,
                                   .stage_boundary = kLstmRounds * 55 / 60});
  job.expected_updates = kLstmRounds * kLstmClients / 10;
  return run_sim(opt, std::move(job));
}

std::string run_scale(const RepOptions& opt) {
  auto img = data::ImageSynthConfig::mnist_like(kDataSeed);
  img.train_samples = 2 * kScaleInFlight;
  img.test_samples = 1000;
  img.height = 8;
  img.width = 8;
  const data::ImageDatasets ds = data::make_image_datasets(img);
  fedbiad::tensor::Rng part_rng(opt.seed ^ 0x5CA1E);
  const nn::MlpConfig mcfg{.input = 64, .hidden = 16, .classes = 10};

  SimJob job;
  fl::SimulationConfig& base = job.cfg.base;
  base.rounds = kScaleCommits;
  base.selection_fraction = static_cast<double>(kScaleInFlight) /
                            static_cast<double>(kScaleRegistered);
  base.train.local_iterations = 1;
  base.train.batch_size = 4;
  base.train.topk = 3;
  base.train.sgd = {.lr = 0.1F, .weight_decay = 0.0F, .clip_norm = 0.0F};
  base.eval_every = kScaleCommits + 1;  // the final commit only
  base.seed = opt.seed;
  // One pool thread: training is a small share here, and more threads
  // only add hand-off cost to the engine thread.
  base.threads = 1;
  job.cfg.mode = fl::AggregationMode::kBufferedK;
  job.cfg.buffer_size = kScaleBufferK;
  // A mildly hostile fleet: 6× device spread, 3× link spread, 20% of
  // clients 4× slower (the heterogeneous setting of the repo's benches).
  job.cfg.heterogeneity.seconds_per_unit = 2e-3;
  job.cfg.heterogeneity.compute_spread = 6.0;
  job.cfg.heterogeneity.bandwidth_spread = 3.0;
  job.cfg.heterogeneity.straggler_fraction = 0.2;
  job.cfg.heterogeneity.straggler_multiplier = 4.0;
  job.factory = [mcfg] { return std::make_unique<nn::MlpModel>(mcfg); };
  job.train = ds.train;
  job.test = ds.test;
  job.partition = data::partition_iid(img.train_samples, kScaleRegistered, part_rng);
  job.strategy = std::make_shared<fedbiad::baselines::FedAvgStrategy>();
  job.expected_updates = kScaleCommits * kScaleBufferK;
  return run_sim(opt, std::move(job));
}

// --- TCP replay -------------------------------------------------------------

std::string run_replay(const RepOptions& opt) {
  const std::size_t clients = std::max(1U, opt.nproc);
  // Server thread + load generator + decode workers <= nproc (two workers
  // on the 4-core reference machine).
  const std::size_t decode_workers =
      std::clamp<std::size_t>(opt.nproc > 2 ? opt.nproc - 2 : 1, 1, 2);
  const ReplaySetup setup =
      make_replay_setup(opt.seed, clients, kReplayRounds, 28, kReplayHidden, opt.nproc);

  std::unique_ptr<Tracer> tracer;
  if (opt.traced) tracer = std::make_unique<Tracer>(opt.process_start);
  Probe probe(opt.process_start, tracer.get());
  auto strategy = std::make_shared<TracedStrategy>(
      std::make_shared<fedbiad::core::FedBiadStrategy>(setup.strategy), probe,
      /*track_acks=*/false);
  const ReplayRun run = serve_replay(setup, decode_workers, strategy, probe);

  const LoadgenResult& lg = run.loadgen;
  const double lg_cpu_frac =
      lg.wall_seconds > 0 ? lg.cpu_seconds / lg.wall_seconds : 0.0;
  RepFacts facts;
  facts.sim = &run.result.sim;
  facts.expected_commits = kReplayRounds;
  facts.expected_updates = kReplayRounds * clients;
  facts.conserved = run.result.conserved();
  const TransportCounters tc{run.result.decode_parked, run.result.decode_shed,
                             lg_cpu_frac};
  const std::string layers = finish_traced(opt, tracer.get(), probe, 0, {}, tc);
  JsonObject extra;
  extra.integer("connections", clients)
      .integer("decode_workers", decode_workers)
      .num("loadgen_cpu_frac", lg_cpu_frac)
      .num("server_cpu_frac", run.server_cpu_frac)
      .integer("loadgen_dispatches", lg.dispatches)
      .integer("loadgen_acks", lg.acks)
      .integer("loadgen_fins", lg.fins)
      .str("loadgen_error", run.done || !lg.error.empty()
                                ? lg.error
                                : "load generator stopped early");
  return record(opt, probe, facts, layers, extra.done());
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "sim-fedbiad-lstm", "sim-fedavg-1m-buffered", "tcp-fedbiad-replay"};
  return names;
}

ReplaySetup make_replay_setup(std::uint64_t seed, std::size_t clients,
                              std::size_t rounds, std::size_t image_side,
                              std::size_t hidden, std::size_t threads) {
  ReplaySetup setup;
  auto img = data::ImageSynthConfig::mnist_like(kDataSeed);
  img.height = image_side;
  img.width = image_side;
  img.train_samples = kReplaySamplesPerClient * clients;
  img.test_samples = 1000;
  const data::ImageDatasets ds = data::make_image_datasets(img);
  fedbiad::tensor::Rng part_rng(seed ^ 0x7E91A);
  setup.test = ds.test;
  setup.partition = data::partition_iid(img.train_samples, clients, part_rng);
  const nn::MlpConfig mcfg{.input = image_side * image_side, .hidden = hidden,
                           .classes = 10};
  setup.factory = [mcfg] { return std::make_unique<nn::MlpModel>(mcfg); };
  setup.strategy = {.dropout_rate = 0.5, .tau = 3,
                    .stage_boundary = std::max<std::size_t>(1, rounds * 55 / 60)};

  fl::SimulationConfig& base = setup.base;
  base.rounds = rounds;
  base.selection_fraction = 1.0;
  base.train.local_iterations = 50;
  base.train.batch_size = 16;
  base.train.topk = 3;
  base.eval_every = rounds + 1;  // the final commit only
  base.seed = seed;
  base.threads = 1;

  // Real FedBIAD client rounds from the server's initial model, keyed like
  // the engine's rng streams for rounds 1..kReplayRecordings. Replaying
  // them in turn varies the row masks between rounds, as live clients do.
  // Clients record in parallel, one pool task each.
  setup.uploads.resize(clients);
  fedbiad::parallel::ThreadPool pool(std::min<std::size_t>(clients, threads));
  std::vector<std::future<void>> done;
  for (std::size_t k = 0; k < clients; ++k) {
    done.push_back(pool.submit([&, k] {
      fedbiad::core::FedBiadStrategy client_strategy(setup.strategy);
      std::unique_ptr<nn::Model> model = setup.factory();
      fedbiad::tensor::Rng init = fedbiad::tensor::Rng(seed).split(0xF0F0);
      model->init_params(init);
      const std::vector<float> global(model->store().params().begin(),
                                      model->store().params().end());
      for (std::size_t round = 1; round <= kReplayRecordings; ++round) {
        fedbiad::tensor::copy(global, model->store().params());
        fl::ClientContext ctx{
            .client_id = k,
            .round = round,
            .model = *model,
            .global_params = global,
            .dataset = *ds.train,
            .shard = setup.partition[k],
            .settings = base.train,
            .rng = fedbiad::tensor::Rng(seed).split(0x1000 + k).split(round),
        };
        fl::ClientOutcome out = client_strategy.run_client(ctx);
        wire::seal_payload(out.payload);
        setup.uploads[k].push_back(std::move(out));
      }
    }));
  }
  for (auto& f : done) f.get();
  return setup;
}

ReplayRun serve_replay(const ReplaySetup& setup, std::size_t decode_workers,
                       fl::StrategyPtr server_strategy, Probe& probe) {
  std::vector<ReplayClient> replay(setup.uploads.size());
  for (std::size_t k = 0; k < replay.size(); ++k) {
    const wire::Payload& first = setup.uploads[k].front().payload;
    const tp::HelloMsg hello{
        .client_id = k,
        .session_token = 0,
        .payload_kind = static_cast<std::uint8_t>(first.kind),
        .payload_aux = first.aux};
    tp::append_frame(replay[k].hello_frame, tp::FrameType::kHello,
                     tp::encode(hello));
    for (const fl::ClientOutcome& out : setup.uploads[k]) {
      tp::UploadMsg up;
      up.samples = out.samples;
      up.is_update = out.is_update ? 1 : 0;
      up.mean_loss = out.mean_loss;
      up.last_loss = out.last_loss;
      up.payload = out.payload.bytes;
      replay[k].upload_frames.emplace_back();
      tp::append_frame(replay[k].upload_frames.back(), tp::FrameType::kUpload,
                       tp::encode(up));
      if (k == 0 && replay[k].upload_frames.size() == 1) {
        // The in-place patch must produce exactly what the encoder would.
        std::vector<std::uint8_t> patched = replay[k].upload_frames.back();
        patch_upload_frame(patched, 0x0123456789ABCDEFULL);
        up.dispatch_index = 0x0123456789ABCDEFULL;
        std::vector<std::uint8_t> encoded;
        tp::append_frame(encoded, tp::FrameType::kUpload, tp::encode(up));
        if (patched != encoded) {
          throw std::runtime_error("upload frame patch differs from the encoder");
        }
      }
    }
  }

  tp::TransportServerConfig scfg;
  scfg.base = setup.base;
  scfg.mode = fl::AggregationMode::kBarrier;
  scfg.decode_workers = decode_workers;
  scfg.scenario_name = "tcp-fedbiad-replay";
  tp::EpollServerTransport net(tp::TransportLimits{}, 0);
  TracedServerTransport transport(net, probe);
  tp::ServerRuntime server(scfg, transport, setup.factory, setup.test,
                           setup.partition, std::move(server_strategy));
  server.start();

  ReplayRun run;
  std::atomic<bool> loadgen_done{false};
  std::thread loadgen([&] {
    run.loadgen = run_loadgen(net.port(), std::move(replay), probe, 30.0);
    loadgen_done.store(true);
  });
  const double cpu0 = thread_cpu_seconds();
  const double wall0 = probe.elapsed();
  while (!server.done() && !loadgen_done.load()) server.pump(0.05);
  const double wall = probe.elapsed() - wall0;
  run.server_cpu_frac = wall > 0 ? (thread_cpu_seconds() - cpu0) / wall : 0.0;
  run.done = server.done();
  run.result = server.finish();
  loadgen.join();
  return run;
}

std::string run_rep(const RepOptions& opt) {
  if (opt.workload == "sim-fedbiad-lstm") return run_lstm(opt);
  if (opt.workload == "sim-fedavg-1m-buffered") return run_scale(opt);
  if (opt.workload == "tcp-fedbiad-replay") return run_replay(opt);
  throw std::runtime_error("unknown workload " + opt.workload);
}

}  // namespace perfbench
