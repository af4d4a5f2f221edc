#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

namespace tkc::e2e {
namespace {

struct SpanRecord {
  const char* name = nullptr;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request_id = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t thread = 0;
};

struct OpenSpan {
  uint64_t id = 0;
  uint64_t request_id = 0;
};

struct ThreadBuffer {
  uint32_t thread = 0;
  std::vector<OpenSpan> open;
  std::vector<SpanRecord> spans;
};

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};
std::mutex g_buffers_mu;
// Buffers outlive their threads: spans are read after the threads join.
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;
thread_local ThreadBuffer* t_buffer = nullptr;

ThreadBuffer* Buffer() {
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    t_buffer = g_buffers.back().get();
    t_buffer->thread = static_cast<uint32_t>(g_buffers.size() - 1);
  }
  return t_buffer;
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// A well-spread hash of a request id (SplitMix64's finalizer).
uint64_t Mix(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::vector<const SpanRecord*> AllSpans() {
  std::vector<const SpanRecord*> all;
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& buffer : g_buffers) {
    for (const SpanRecord& span : buffer->spans) all.push_back(&span);
  }
  return all;
}

/// Self time of every span: its duration minus the union of its children's
/// intervals (clipped to the parent's interval).
std::unordered_map<uint64_t, uint64_t> SelfTimes(
    const std::vector<const SpanRecord*>& all) {
  std::unordered_map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>>
      children;
  for (const SpanRecord* span : all) {
    if (span->parent != 0) {
      children[span->parent].emplace_back(span->start_ns, span->end_ns);
    }
  }
  std::unordered_map<uint64_t, uint64_t> self;
  for (const SpanRecord* span : all) {
    uint64_t covered = 0;
    auto it = children.find(span->id);
    if (it != children.end()) {
      auto& intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      uint64_t cursor = span->start_ns;
      for (auto [lo, hi] : intervals) {
        lo = std::max(lo, cursor);
        hi = std::min(hi, span->end_ns);
        if (hi > lo) {
          covered += hi - lo;
          cursor = hi;
        }
      }
    }
    const uint64_t duration = span->end_ns - span->start_ns;
    self[span->id] = duration > covered ? duration - covered : 0;
  }
  return self;
}

}  // namespace

void EnableTracing(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool TracingEnabled() { return g_enabled.load(std::memory_order_relaxed); }

Span::Span(const char* name, uint64_t request_id) {
  if (!TracingEnabled()) return;
  ThreadBuffer* buffer = Buffer();
  active_ = true;
  name_ = name;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  if (!buffer->open.empty()) {
    parent_ = buffer->open.back().id;
    if (request_id == 0) request_id = buffer->open.back().request_id;
  }
  request_id_ = request_id;
  buffer->open.push_back(OpenSpan{id_, request_id_});
  start_ns_ = NowNs();
}

Span::~Span() {
  if (!active_) return;
  const uint64_t end_ns = NowNs();
  ThreadBuffer* buffer = Buffer();
  buffer->open.pop_back();
  buffer->spans.push_back(SpanRecord{name_, id_, parent_, request_id_,
                                     start_ns_, end_ns, buffer->thread});
}

long WriteSpans(const std::string& path) {
  std::vector<const SpanRecord*> all = AllSpans();
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return -1;
  uint64_t origin = UINT64_MAX;
  for (const SpanRecord* span : all) origin = std::min(origin, span->start_ns);
  std::unordered_map<uint64_t, uint64_t> self = SelfTimes(all);
  const uint64_t stride = (all.size() + kMaxDumpedSpans - 1) / kMaxDumpedSpans;
  long written = 0;
  for (const SpanRecord* span : all) {
    if (stride > 1 && span->request_id != 0 &&
        Mix(span->request_id) % stride != 0) {
      continue;
    }
    ++written;
    std::fprintf(out,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                 "\"request\":%llu,\"thread\":%u,\"start_ns\":%llu,"
                 "\"end_ns\":%llu,\"self_ns\":%llu}\n",
                 span->name, static_cast<unsigned long long>(span->id),
                 static_cast<unsigned long long>(span->parent),
                 static_cast<unsigned long long>(span->request_id),
                 span->thread,
                 static_cast<unsigned long long>(span->start_ns - origin),
                 static_cast<unsigned long long>(span->end_ns - origin),
                 static_cast<unsigned long long>(self[span->id]));
  }
  const bool ok = std::fclose(out) == 0;
  return ok ? written : -1;
}

void PrintSelfTimes() {
  std::vector<const SpanRecord*> all = AllSpans();
  std::unordered_map<uint64_t, uint64_t> self = SelfTimes(all);
  struct Row {
    uint64_t count = 0;
    uint64_t total_ns = 0;
    uint64_t self_ns = 0;
  };
  std::map<std::string, Row> rows;
  for (const SpanRecord* span : all) {
    Row& row = rows[span->name];
    ++row.count;
    row.total_ns += span->end_ns - span->start_ns;
    row.self_ns += self[span->id];
  }
  std::printf("%-44s %10s %12s %12s\n", "span", "count", "total ms",
              "self ms");
  for (const auto& [name, row] : rows) {
    std::printf("%-44s %10llu %12.3f %12.3f\n", name.c_str(),
                static_cast<unsigned long long>(row.count),
                static_cast<double>(row.total_ns) / 1e6,
                static_cast<double>(row.self_ns) / 1e6);
  }
}

}  // namespace tkc::e2e
