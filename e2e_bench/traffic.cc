#include "traffic.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "inputs.h"
#include "net/wire_format.h"
#include "trace.h"
#include "util/rng.h"
#include "util/timer.h"

namespace tkc::e2e {
namespace {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

class WireTransportImpl : public Transport {
 public:
  explicit WireTransportImpl(std::unique_ptr<net::TkcClient> client)
      : client_(std::move(client)) {}

  void RoundTrip(Request* r) override {
    StatusOr<uint64_t> id = Status::Internal("unsent");
    {
      Span span("net.TkcClient::Send");
      id = client_->Send(r->queries, kRequestDeadlineMs);
    }
    if (!id.ok()) {
      r->error = id.status().ToString();
      return;
    }
    StatusOr<net::ClientResponse> response = Status::Internal("unanswered");
    {
      Span span("net.TkcClient::Wait");
      response = client_->Wait(*id);
    }
    if (!response.ok()) {
      r->error = response.status().ToString();
      return;
    }
    if (response->verdicts.size() != r->queries.size()) {
      r->error = "verdict count differs from query count";
      return;
    }
    r->snapshot_version = response->snapshot_version;
    for (const net::VerdictFrame& v : response->verdicts) {
      r->verdicts.push_back(Verdict{v.status_code, v.num_cores,
                                    v.result_size_edges, v.vct_size,
                                    v.ecs_size, 0.0});
    }
    r->answered = true;
  }

 private:
  std::unique_ptr<net::TkcClient> client_;
};

class EngineTransportImpl : public Transport {
 public:
  explicit EngineTransportImpl(LiveQueryEngine* live) : live_(live) {}

  void RoundTrip(Request* r) override {
    std::future<BatchResult> future;
    {
      Span span("serve.LiveQueryEngine::SubmitAsync");
      future = live_->SubmitAsync(
          r->queries, Deadline::AfterSeconds(kRequestDeadlineMs / 1000.0));
    }
    BatchResult result;
    {
      Span span("serve.future_wait");
      result = future.get();
    }
    r->snapshot_version = result.snapshot_version;
    for (const RunOutcome& o : result.outcomes) {
      r->verdicts.push_back(
          Verdict{net::StatusCodeToWire(o.status.code()), o.num_cores,
                  o.result_size_edges, o.vct_size, o.ecs_size, o.seconds});
    }
    r->answered = r->verdicts.size() == r->queries.size();
    if (!r->answered) r->error = "outcome count differs from query count";
  }

 private:
  LiveQueryEngine* live_;
};

class FreshSourceImpl : public QuerySource {
 public:
  FreshSourceImpl(const std::vector<Query>* keys, int batch_size)
      : keys_(keys), batch_size_(static_cast<size_t>(batch_size)) {}

  bool Next(uint32_t, std::vector<Query>* batch) override {
    const size_t first = cursor_.fetch_add(batch_size_);
    batch->clear();
    for (size_t i = first; i < first + batch_size_; ++i) {
      batch->push_back((*keys_)[i % keys_->size()]);
    }
    return true;
  }

 private:
  const std::vector<Query>* keys_;
  size_t batch_size_;
  std::atomic<size_t> cursor_{0};
};

class ZipfSourceImpl : public QuerySource {
 public:
  ZipfSourceImpl(const std::vector<Query>* keys, int batch_size,
                 uint64_t seed, int connections)
      : keys_(keys), batch_size_(batch_size) {
    double total = 0;
    for (size_t rank = 0; rank < keys->size(); ++rank) {
      total += 1.0 / std::pow(static_cast<double>(rank + 1), kZipfExponent);
      cdf_.push_back(total);
    }
    for (int c = 0; c < connections; ++c) {
      rngs_.emplace_back(seed * 0x2545f4914f6cdd1dULL +
                         static_cast<uint64_t>(c) + 1);
    }
  }

  bool Next(uint32_t conn, std::vector<Query>* batch) override {
    Rng& rng = rngs_[conn];
    batch->clear();
    for (int i = 0; i < batch_size_; ++i) {
      const double u = rng.NextDouble() * cdf_.back();
      const size_t rank = static_cast<size_t>(
          std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
      batch->push_back((*keys_)[std::min(rank, keys_->size() - 1)]);
    }
    return true;
  }

 private:
  const std::vector<Query>* keys_;
  int batch_size_;
  std::vector<double> cdf_;
  std::vector<Rng> rngs_;  // one per connection: no sharing across threads
};

}  // namespace

std::unique_ptr<Transport> WireTransport(
    std::unique_ptr<net::TkcClient> client) {
  return std::make_unique<WireTransportImpl>(std::move(client));
}

std::unique_ptr<Transport> EngineTransport(LiveQueryEngine* live) {
  return std::make_unique<EngineTransportImpl>(live);
}

std::unique_ptr<QuerySource> FreshSource(const std::vector<Query>* keys,
                                         int batch_size) {
  return std::make_unique<FreshSourceImpl>(keys, batch_size);
}

std::unique_ptr<QuerySource> ZipfSource(const std::vector<Query>* keys,
                                        int batch_size, uint64_t seed,
                                        int connections) {
  return std::make_unique<ZipfSourceImpl>(keys, batch_size, seed,
                                          connections);
}

namespace {

constexpr int kSubBits = 8;  // exact below 2^8 ns; 128 buckets per octave
constexpr int kMaxOctave = 40;  // about 18 minutes

size_t BucketOf(uint64_t ns) {
  if (ns < (1u << kSubBits)) return ns;
  const int octave = std::min(63 - __builtin_clzll(ns), kMaxOctave);
  const int shift = octave - (kSubBits - 1);
  const uint64_t mantissa =
      std::min<uint64_t>(ns >> shift, (1u << kSubBits) - 1);
  return (1u << kSubBits) +
         static_cast<size_t>(octave - kSubBits) * (1u << (kSubBits - 1)) +
         static_cast<size_t>(mantissa - (1u << (kSubBits - 1)));
}

/// [lower bound, width) of bucket `b`, in nanoseconds.
std::pair<double, double> BucketRange(size_t b) {
  if (b < (1u << kSubBits)) return {static_cast<double>(b), 1.0};
  const size_t rest = b - (1u << kSubBits);
  const int octave = kSubBits + static_cast<int>(rest >> (kSubBits - 1));
  const uint64_t mantissa =
      (rest & ((1u << (kSubBits - 1)) - 1)) + (1u << (kSubBits - 1));
  const int shift = octave - (kSubBits - 1);
  return {static_cast<double>(mantissa << shift),
          static_cast<double>(uint64_t{1} << shift)};
}

}  // namespace

LatencyHistogram::LatencyHistogram()
    : buckets_(BucketOf(~uint64_t{0}) + 1, 0) {}

void LatencyHistogram::Record(double seconds) {
  ++buckets_[BucketOf(static_cast<uint64_t>(std::max(0.0, seconds) * 1e9))];
  ++count_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t b = 0; b < buckets_.size(); ++b) buckets_[b] += other.buckets_[b];
  count_ += other.count_;
}

double LatencyHistogram::QuantileMs(double p) const {
  if (count_ == 0) return 0;
  const double rank = p * static_cast<double>(count_ - 1);
  uint64_t below = 0;
  for (size_t b = 0; b < buckets_.size(); ++b) {
    if (buckets_[b] == 0) continue;
    if (rank < static_cast<double>(below + buckets_[b])) {
      const auto [lo, width] = BucketRange(b);
      const double within = (rank - static_cast<double>(below) + 0.5) /
                            static_cast<double>(buckets_[b]);
      return (lo + width * within) / 1e6;
    }
    below += buckets_[b];
  }
  return 0;
}

namespace {

/// A verdict's (snapshot version, query), for folding repeated answers.
struct AnswerKey {
  uint64_t version;
  Query query;
  bool operator==(const AnswerKey& o) const {
    return version == o.version && query.k == o.query.k &&
           query.range.start == o.query.range.start &&
           query.range.end == o.query.range.end;
  }
};

struct AnswerKeyHash {
  size_t operator()(const AnswerKey& key) const {
    uint64_t h = key.version * 0x9e3779b97f4a7c15ULL;
    for (uint64_t part : {uint64_t{key.query.k},
                          uint64_t{key.query.range.start},
                          uint64_t{key.query.range.end}}) {
      h = (h ^ part) * 0xff51afd7ed558ccdULL;
    }
    return static_cast<size_t>(h ^ (h >> 32));
  }
};

bool SameAnswer(const Verdict& a, const Verdict& b) {
  return a.status == b.status && a.num_cores == b.num_cores &&
         a.result_size_edges == b.result_size_edges &&
         a.vct_size == b.vct_size && a.ecs_size == b.ecs_size;
}

/// The first answer a connection got for each (snapshot version, query).
using SeenAnswers = std::unordered_map<AnswerKey, Verdict, AnswerKeyHash>;

/// Drops from answered `r` the verdicts that repeat an answer in `seen`,
/// and records the new ones; returns how many it dropped.
uint64_t FoldRepeats(SeenAnswers* seen, Request* r) {
  if (!r->answered) return 0;
  size_t kept = 0;
  for (size_t i = 0; i < r->queries.size(); ++i) {
    const auto [it, inserted] = seen->try_emplace(
        AnswerKey{r->snapshot_version, r->queries[i]}, r->verdicts[i]);
    if (inserted || !SameAnswer(it->second, r->verdicts[i])) {
      r->queries[kept] = r->queries[i];
      r->verdicts[kept] = r->verdicts[i];
      ++kept;
    }
  }
  const uint64_t dropped = r->queries.size() - kept;
  if (dropped > 0) {
    r->queries.resize(kept);
    r->verdicts.resize(kept);
    r->queries.shrink_to_fit();
    r->verdicts.shrink_to_fit();
  }
  return dropped;
}

}  // namespace

LoopResult RunClosedLoop(
    const std::vector<std::unique_ptr<Transport>>& transports,
    QuerySource* source, Clock::time_point start, double stop_after_s,
    const std::vector<uint64_t>& max_requests, const char* root_span,
    size_t keep_per_conn, uint64_t seed) {
  const size_t num_windows = stop_after_s > 0 ? kWindows : 1;
  const double window_s = stop_after_s / static_cast<double>(num_windows);
  std::vector<LoopResult> per_conn(transports.size());
  std::vector<std::thread> threads;
  for (size_t c = 0; c < transports.size(); ++c) {
    threads.emplace_back([&, c] {
      const auto conn = static_cast<uint32_t>(c);
      LoopResult& out = per_conn[c];
      out.windows.resize(num_windows);
      Rng reservoir(seed * 0x9e3779b97f4a7c15ULL + c + 1);
      SeenAnswers seen;
      for (uint64_t seq = 1;; ++seq) {
        if (stop_after_s > 0 && SecondsSince(start) >= stop_after_s) break;
        if (stop_after_s <= 0 && out.requests >= max_requests[c]) break;
        Request r;
        r.conn = conn;
        if (!source->Next(conn, &r.queries)) break;
        {
          Span span(root_span, (static_cast<uint64_t>(conn) << 40) | seq);
          r.send_s = SecondsSince(start);
          transports[c]->RoundTrip(&r);
          r.done_s = SecondsSince(start);
        }
        ++out.requests;
        out.queries += r.queries.size();
        out.wall_s = std::max(out.wall_s, r.done_s);
        if (r.answered) {
          WindowStats& window = out.windows[std::min(
              num_windows - 1,
              num_windows == 1 ? 0 : static_cast<size_t>(r.done_s / window_s))];
          out.latency.Record(r.done_s - r.send_s);
          window.latency.Record(r.done_s - r.send_s);
          for (const Verdict& v : r.verdicts) {
            if (net::StatusCodeFromWire(v.status) == StatusCode::kOk) {
              ++out.ok;
              ++window.ok;
            } else {
              ++out.failed;
            }
          }
        } else {
          out.failed += r.queries.size();
          out.missing += r.queries.size();
        }
        if (keep_per_conn == 0) {
          out.folded += FoldRepeats(&seen, &r);
          if (!r.queries.empty()) out.kept.push_back(std::move(r));
        } else if (out.kept.size() < keep_per_conn) {
          out.kept.push_back(std::move(r));
        } else {
          const uint64_t slot = reservoir.NextBounded(out.requests);
          if (slot < keep_per_conn) out.kept[slot] = std::move(r);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoopResult all;
  all.windows.resize(num_windows);
  for (LoopResult& one : per_conn) {
    for (size_t w = 0; w < num_windows; ++w) {
      all.windows[w].ok += one.windows[w].ok;
      all.windows[w].latency.Merge(one.windows[w].latency);
    }
    all.requests += one.requests;
    all.queries += one.queries;
    all.ok += one.ok;
    all.failed += one.failed;
    all.missing += one.missing;
    all.folded += one.folded;
    all.requests_per_conn.push_back(one.requests);
    all.wall_s = std::max(all.wall_s, one.wall_s);
    all.latency.Merge(one.latency);
    std::sort(one.kept.begin(), one.kept.end(),
              [](const Request& a, const Request& b) {
                return a.send_s < b.send_s;
              });
    for (Request& r : one.kept) all.kept.push_back(std::move(r));
  }
  return all;
}

TickRunner::TickRunner(LiveQueryEngine* live,
                       const std::vector<std::vector<RawTemporalEdge>>* ticks,
                       Clock::time_point start, double period_s)
    : live_(live),
      ticks_(ticks),
      start_(start),
      period_s_(period_s),
      records_(ticks->size()) {
  futures_.reserve(ticks->size());  // SettleLoop reads slots unlocked
  submitter_ = std::thread([this] { SubmitLoop(); });
  settler_ = std::thread([this] { SettleLoop(); });
}

TickRunner::~TickRunner() {
  if (submitter_.joinable()) submitter_.join();
  if (settler_.joinable()) settler_.join();
}

void TickRunner::SubmitLoop() {
  for (size_t i = 0; i < ticks_->size(); ++i) {
    const double due_s = static_cast<double>(i) * period_s_;
    std::this_thread::sleep_until(
        start_ + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(due_s)));
    std::future<Status> future;
    {
      Span span("serve.LiveQueryEngine::ApplyUpdates");
      future = live_->ApplyUpdates((*ticks_)[i]);
    }
    const double sent_s = SecondsSince(start_);
    {
      std::lock_guard<std::mutex> lock(mu_);
      records_[i].due_s = due_s;
      records_[i].sent_s = sent_s;
      futures_.push_back(std::move(future));
      ++num_submitted_;
    }
    cv_.notify_all();
  }
}

void TickRunner::SettleLoop() {
  for (size_t i = 0; i < ticks_->size(); ++i) {
    std::future<Status>* future = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return num_submitted_ > i; });
      future = &futures_[i];
    }
    const Status status = future->get();
    const double settled_s = SecondsSince(start_);
    {
      std::lock_guard<std::mutex> lock(mu_);
      records_[i].settled_s = settled_s;
      records_[i].ok = status.ok();
    }
  }
}

std::vector<TickRecord> TickRunner::Join() {
  submitter_.join();
  settler_.join();
  return records_;
}

SnapshotPinner::SnapshotPinner(LiveQueryEngine* live) : live_(live) {
  poller_ = std::thread([this] { Poll(); });
}

SnapshotPinner::~SnapshotPinner() {
  stop_.store(true);
  if (poller_.joinable()) poller_.join();
}

void SnapshotPinner::Poll() {
  struct Held {
    std::shared_ptr<const GraphSnapshot> snapshot;
    Clock::time_point replaced_at;  ///< epoch while still current
  };
  std::map<uint64_t, Held> held;
  auto read = [&](uint64_t version, const Held& h) {
    read_[version] = VersionStats{h.snapshot->engine().stats(), Clock::now()};
  };
  const auto grace = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kRetireGraceS));
  for (bool last = false; !last;) {
    last = stop_.load(std::memory_order_relaxed);
    std::shared_ptr<const GraphSnapshot> s = live_->snapshot();
    const Clock::time_point now = Clock::now();
    if (held.count(s->version()) == 0) {
      for (auto& [version, h] : held) {
        if (h.replaced_at == Clock::time_point{}) h.replaced_at = now;
      }
      const uint64_t version = s->version();
      held.emplace(version, Held{std::move(s), Clock::time_point{}});
    }
    for (auto it = held.begin(); it != held.end();) {
      if (last || (it->second.replaced_at != Clock::time_point{} &&
                   now - it->second.replaced_at > grace)) {
        read(it->first, it->second);
        it = held.erase(it);
      } else {
        ++it;
      }
    }
    if (!last) std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

std::map<uint64_t, VersionStats> SnapshotPinner::Stop() {
  stop_.store(true);
  if (poller_.joinable()) poller_.join();
  return read_;
}

}  // namespace tkc::e2e
