#include "tracer.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {

namespace {
// One tracer at a time per thread is all the benchmark needs; the owner
// serial makes a thread that outlives one tracer register with the next.
std::atomic<std::uint64_t> next_serial{1};
thread_local std::uint64_t tl_owner = 0;
thread_local void* tl_buffer = nullptr;
}  // namespace

Tracer::Tracer(Clock::time_point epoch)
    : epoch_(epoch), serial_(next_serial.fetch_add(1)) {}

Tracer::ThreadBuffer& Tracer::buffer() {
  if (tl_owner != serial_) {
    std::scoped_lock lock(mutex_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    buffers_.back()->index = static_cast<std::uint32_t>(buffers_.size());
    buffers_.back()->spans.reserve(1 << 12);
    tl_owner = serial_;
    tl_buffer = buffers_.back().get();
  }
  return *static_cast<ThreadBuffer*>(tl_buffer);
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, std::uint64_t arg)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  ThreadBuffer& buf = tracer_->buffer();
  span_.name = name;
  span_.arg = arg;
  span_.thread = buf.index;
  span_.id = tracer_->next_id_.fetch_add(1, std::memory_order_relaxed);
  span_.parent = buf.open.empty() ? 0 : buf.open.back();
  buf.open.push_back(span_.id);
  span_.start = tracer_->now();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.end = tracer_->now();
  ThreadBuffer& buf = tracer_->buffer();
  buf.open.pop_back();
  buf.spans.push_back(span_);
}

void Tracer::record(const char* name, double start, double end,
                    std::uint64_t arg) {
  ThreadBuffer& buf = buffer();
  Span s;
  s.name = name;
  s.start = start;
  s.end = end;
  s.thread = buf.index;
  s.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  s.parent = buf.open.empty() ? 0 : buf.open.back();
  s.arg = arg;
  buf.spans.push_back(s);
}

std::vector<Span> Tracer::spans() const {
  std::scoped_lock lock(mutex_);
  std::vector<Span> all;
  for (const auto& buf : buffers_) {
    all.insert(all.end(), buf->spans.begin(), buf->spans.end());
  }
  std::sort(all.begin(), all.end(),
            [](const Span& a, const Span& b) { return a.start < b.start; });
  return all;
}

bool Tracer::write_chrome(const std::string& path,
                          const std::string& process_name) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
               "\"args\":{\"name\":\"%s\"}}",
               process_name.c_str());
  for (const Span& s : spans()) {
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"arg\":%llu}}",
                 s.name, s.thread, s.start * 1e6, s.duration() * 1e6,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.arg));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
