#include "checkpoint/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "common/check.hpp"
#include "wire/crc32c.hpp"
#include "wire/reader.hpp"
#include "wire/writer.hpp"

namespace fedbiad::checkpoint {

namespace {

namespace fs = std::filesystem;

constexpr char kMagic[4] = {'F', 'B', 'C', 'K'};
constexpr std::uint32_t kFormatVersion = 1;
constexpr const char* kPrefix = "ckpt-";
constexpr const char* kSuffix = ".fbck";

void put_string(wire::Writer& w, const std::string& s) {
  w.varint(s.size());
  w.bytes(std::span(reinterpret_cast<const std::uint8_t*>(s.data()),
                    s.size()));
}

std::string get_string(wire::Reader& r) {
  const auto b = r.bytes(static_cast<std::size_t>(r.varint()));
  return {b.begin(), b.end()};
}

/// Exactly 0 or 1: any other byte would not be what the flag rewrites as.
bool get_flag(wire::Reader& r) {
  const std::uint8_t b = r.u8();
  if (b > 1) throw wire::DecodeError("snapshot flag is neither 0 nor 1");
  return b == 1;
}

void put_blob(wire::Writer& w, std::span<const std::uint8_t> b) {
  w.varint(b.size());
  w.bytes(b);
}

std::vector<std::uint8_t> get_blob(wire::Reader& r) {
  const auto len = static_cast<std::size_t>(r.varint());
  const auto b = r.bytes(len);
  return {b.begin(), b.end()};
}

void put_round(wire::Writer& w, const fl::RoundRecord& rec) {
  w.varint(rec.round);
  w.f64(rec.train_loss);
  w.f64(rec.test_loss);
  w.f64(rec.top1);
  w.f64(rec.topk);
  w.varint(rec.participants);
  w.varint(rec.uplink_bytes_total);
  w.varint(rec.uplink_bytes_max);
  w.varint(rec.downlink_bytes);
  w.f64(rec.lttr_seconds);
  w.f64(rec.upload_seconds);
  w.f64(rec.download_seconds);
  w.f64(rec.aggregate_seconds);
  w.f64(rec.clock_seconds);
  w.f64(rec.mean_staleness);
  w.varint(rec.abandoned);
  w.varint(rec.wasted_uplink_bytes);
  w.varint(rec.rejected);
  w.varint(rec.rejected_bytes);
}

fl::RoundRecord get_round(wire::Reader& r) {
  fl::RoundRecord rec;
  rec.round = static_cast<std::size_t>(r.varint());
  rec.train_loss = r.f64();
  rec.test_loss = r.f64();
  rec.top1 = r.f64();
  rec.topk = r.f64();
  rec.participants = static_cast<std::size_t>(r.varint());
  rec.uplink_bytes_total = r.varint();
  rec.uplink_bytes_max = r.varint();
  rec.downlink_bytes = r.varint();
  rec.lttr_seconds = r.f64();
  rec.upload_seconds = r.f64();
  rec.download_seconds = r.f64();
  rec.aggregate_seconds = r.f64();
  rec.clock_seconds = r.f64();
  rec.mean_staleness = r.f64();
  rec.abandoned = static_cast<std::size_t>(r.varint());
  rec.wasted_uplink_bytes = r.varint();
  rec.rejected = static_cast<std::size_t>(r.varint());
  rec.rejected_bytes = r.varint();
  return rec;
}

void put_job(wire::Writer& w, const JobSnapshot& j) {
  w.varint(j.client);
  w.varint(j.slot);
  w.varint(j.version);
  w.varint(j.dispatch_index);
  w.varint(j.attempt);
  w.f64(j.dispatch_clock);
  w.f64(j.download_seconds);
  w.f64(j.compute_seconds);
  w.f64(j.upload_start);
  w.u8(j.churn_fails ? 1 : 0);
  w.f64(j.churn_fraction);
  w.u8(j.has_pending ? 1 : 0);
  w.varint(j.samples);
  w.u8(j.is_update ? 1 : 0);
  w.u8(static_cast<std::uint8_t>(j.payload.kind));
  w.u8(j.payload.aux);
  put_blob(w, j.payload.bytes);
  w.f64(j.train_seconds);
  w.f64(j.mean_loss);
  w.f64(j.last_loss);
}

JobSnapshot get_job(wire::Reader& r) {
  JobSnapshot j;
  j.client = r.varint();
  j.slot = r.varint();
  j.version = r.varint();
  j.dispatch_index = r.varint();
  j.attempt = r.varint();
  j.dispatch_clock = r.f64();
  j.download_seconds = r.f64();
  j.compute_seconds = r.f64();
  j.upload_start = r.f64();
  j.churn_fails = get_flag(r);
  j.churn_fraction = r.f64();
  j.has_pending = get_flag(r);
  j.samples = r.varint();
  j.is_update = get_flag(r);
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(wire::PayloadKind::kSubModel)) {
    throw wire::DecodeError("snapshot job has an unknown payload kind");
  }
  j.payload.kind = static_cast<wire::PayloadKind>(kind);
  j.payload.aux = r.u8();
  j.payload.bytes = get_blob(r);
  j.train_seconds = r.f64();
  j.mean_loss = r.f64();
  j.last_loss = r.f64();
  return j;
}

std::vector<std::uint8_t> encode_body(const EngineSnapshot& snap) {
  wire::Writer w;
  put_string(w, snap.engine);
  w.u64(snap.seed);
  w.varint(snap.rounds_target);
  w.varint(snap.param_count);
  w.f64(snap.clock);
  w.varint(snap.version);
  w.varint(snap.dispatched);
  for (const std::uint64_t s : snap.rng.s) w.u64(s);
  w.u8(snap.rng.has_cached_normal ? 1 : 0);
  w.f64(snap.rng.cached_normal);
  w.varint(snap.committed);
  w.varint(snap.abandoned);
  w.varint(snap.rejected);
  w.varint(snap.rejected_deliveries);
  w.varint(snap.wasted_uplink_bytes);
  w.varint(snap.rejected_bytes);
  w.varint(snap.global.size());
  w.f32_run(snap.global);
  w.varint(snap.rounds.size());
  for (const fl::RoundRecord& rec : snap.rounds) put_round(w, rec);
  put_blob(w, snap.strategy_state);
  w.varint(snap.jobs.size());
  for (const JobSnapshot& j : snap.jobs) put_job(w, j);
  w.varint(snap.events.size());
  for (const EventSnapshot& ev : snap.events) {
    w.u8(static_cast<std::uint8_t>(ev.kind));
    // job_index + 1, 0 reserved for kNoJob, so the sentinel stays one byte.
    w.varint(ev.job_index == kNoJob ? 0 : ev.job_index + 1);
    w.f64(ev.time);
    w.varint(ev.aux);
  }
  return std::move(w).take();
}

EngineSnapshot decode_body(std::span<const std::uint8_t> body) {
  wire::Reader r(body);
  EngineSnapshot snap;
  snap.engine = get_string(r);
  snap.seed = r.u64();
  snap.rounds_target = r.varint();
  snap.param_count = r.varint();
  snap.clock = r.f64();
  snap.version = r.varint();
  snap.dispatched = r.varint();
  for (std::uint64_t& s : snap.rng.s) s = r.u64();
  snap.rng.has_cached_normal = get_flag(r);
  snap.rng.cached_normal = r.f64();
  snap.committed = r.varint();
  snap.abandoned = r.varint();
  snap.rejected = r.varint();
  snap.rejected_deliveries = r.varint();
  snap.wasted_uplink_bytes = r.varint();
  snap.rejected_bytes = r.varint();
  // Counts are checked against the body before anything is sized from
  // them (lists grow as records decode), so a corrupt one cannot allocate.
  const std::uint64_t n_global = r.varint();
  if (n_global > r.remaining() / sizeof(float)) {
    throw wire::DecodeError("snapshot model is longer than its body");
  }
  snap.global.resize(static_cast<std::size_t>(n_global));
  r.f32_run(snap.global);
  const std::uint64_t n_rounds = r.varint();
  for (std::uint64_t i = 0; i < n_rounds; ++i) {
    snap.rounds.push_back(get_round(r));
  }
  snap.strategy_state = get_blob(r);
  const std::uint64_t n_jobs = r.varint();
  for (std::uint64_t i = 0; i < n_jobs; ++i) snap.jobs.push_back(get_job(r));
  const std::uint64_t n_events = r.varint();
  for (std::uint64_t i = 0; i < n_events; ++i) {
    EventSnapshot ev;
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(EventKind::kDuplicate)) {
      throw wire::DecodeError("snapshot event has an unknown kind");
    }
    ev.kind = static_cast<EventKind>(kind);
    const std::uint64_t ji = r.varint();
    ev.job_index = ji == 0 ? kNoJob : ji - 1;
    if (ev.job_index != kNoJob && ev.job_index >= n_jobs) {
      throw wire::DecodeError("snapshot event references a missing job");
    }
    ev.time = r.f64();
    ev.aux = r.varint();
    snap.events.push_back(ev);
  }
  r.expect_done();
  return snap;
}

std::string snapshot_name(std::uint64_t version) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%s%08llu%s", kPrefix,
                static_cast<unsigned long long>(version), kSuffix);
  return buf;
}

}  // namespace

void write_snapshot(const std::string& directory,
                    const EngineSnapshot& snap) {
  FEDBIAD_CHECK(!directory.empty(), "checkpoint directory required");
  fs::create_directories(directory);

  const std::vector<std::uint8_t> body = encode_body(snap);
  wire::Writer w;
  w.bytes(std::span(reinterpret_cast<const std::uint8_t*>(kMagic), 4));
  w.u32(kFormatVersion);
  w.u64(body.size());
  w.bytes(body);
  w.u32(wire::crc32c(body));
  const std::vector<std::uint8_t> file = std::move(w).take();

  const std::string name = snapshot_name(snap.version);
  const std::string tmp = directory + "/.tmp-" + name;
  const std::string final_path = directory + "/" + name;
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  FEDBIAD_CHECK(f != nullptr, "checkpoint: cannot open " + tmp);
  const std::size_t written = std::fwrite(file.data(), 1, file.size(), f);
  const bool flushed = std::fflush(f) == 0 && fsync(fileno(f)) == 0;
  std::fclose(f);
  FEDBIAD_CHECK(written == file.size() && flushed,
                "checkpoint: short write to " + tmp);
  std::error_code ec;
  fs::rename(tmp, final_path, ec);
  FEDBIAD_CHECK(!ec, "checkpoint: rename failed: " + ec.message());
  // fsync the directory so the rename itself survives a power cut.
  const int dir_fd = open(directory.c_str(), O_RDONLY);
  if (dir_fd >= 0) {
    fsync(dir_fd);
    close(dir_fd);
  }
}

EngineSnapshot read_snapshot(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  FEDBIAD_CHECK(f != nullptr, "checkpoint: cannot read " + path);
  std::vector<std::uint8_t> file;
  std::uint8_t buf[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) {
    file.insert(file.end(), buf, buf + got);
  }
  std::fclose(f);

  wire::Reader r(file);
  const auto magic = r.bytes(4);
  if (!std::equal(magic.begin(), magic.end(),
                  reinterpret_cast<const std::uint8_t*>(kMagic))) {
    throw wire::DecodeError("snapshot magic mismatch (not a checkpoint)");
  }
  const std::uint32_t format = r.u32();
  if (format != kFormatVersion) {
    throw wire::DecodeError("snapshot format version " +
                            std::to_string(format) + " not supported");
  }
  const std::uint64_t body_len = r.u64();
  const auto body = r.bytes(static_cast<std::size_t>(body_len));
  const std::uint32_t stored = r.u32();
  r.expect_done();
  if (wire::crc32c(body) != stored) {
    throw wire::DecodeError("snapshot CRC mismatch (torn or corrupt file)");
  }
  return decode_body(body);
}

std::vector<std::string> list_snapshots(const std::string& directory) {
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(directory, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.starts_with(kPrefix) && name.ends_with(kSuffix)) {
      out.push_back(entry.path().string());
    }
  }
  // Names embed a zero-padded version, so lexicographic == numeric order.
  std::sort(out.begin(), out.end());
  return out;
}

std::optional<std::string> find_latest_valid(const std::string& directory) {
  const std::vector<std::string> all = list_snapshots(directory);
  for (auto it = all.rbegin(); it != all.rend(); ++it) {
    try {
      (void)read_snapshot(*it);
      return *it;
    } catch (const wire::DecodeError&) {
      // torn or corrupt — fall back to the previous snapshot
    } catch (const CheckError&) {
    }
  }
  return std::nullopt;
}

void prune(const std::string& directory, std::size_t keep) {
  const std::vector<std::string> all = list_snapshots(directory);
  if (all.size() <= keep) return;
  for (std::size_t i = 0; i + keep < all.size(); ++i) {
    std::error_code ec;
    fs::remove(all[i], ec);
  }
}

}  // namespace fedbiad::checkpoint
