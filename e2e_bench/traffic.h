#ifndef TKC_E2E_BENCH_TRAFFIC_H_
#define TKC_E2E_BENCH_TRAFFIC_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "serve/snapshot.h"
#include "workload/query_workload.h"

/// \file traffic.h
/// Load generation: closed-loop query connections over a transport (the
/// wire, or in-process SubmitAsync), the open-loop update tick stream, and
/// the pinner that keeps every published snapshot alive so its serve
/// counters can be summed.

namespace tkc::e2e {

using Clock = std::chrono::steady_clock;

/// Wire deadline of every request: far above any workload's p99, so a
/// healthy run sheds nothing, yet finite, so no submission ever blocks.
inline constexpr uint32_t kRequestDeadlineMs = 30000;

/// One query's answer, as the wire carries it.
struct Verdict {
  uint32_t status = 0;  ///< StatusCode as on the wire
  uint64_t num_cores = 0;
  uint64_t result_size_edges = 0;
  uint64_t vct_size = 0;
  uint64_t ecs_size = 0;
  double seconds = 0;  ///< RunOutcome.seconds (in-process transport only)
};

/// One request of a closed-loop connection.
struct Request {
  uint32_t conn = 0;
  std::vector<Query> queries;
  double send_s = 0;  ///< seconds since the phase started
  double done_s = 0;
  bool answered = false;  ///< every verdict and the batch end arrived
  std::string error;      ///< why not answered
  uint64_t snapshot_version = 0;
  std::vector<Verdict> verdicts;
};

/// One connection's way to the server.
class Transport {
 public:
  virtual ~Transport() = default;
  /// Sends `r->queries` and blocks for the answer; fills the answer fields.
  virtual void RoundTrip(Request* r) = 0;
};

/// A TkcClient connection to a TkcServer.
std::unique_ptr<Transport> WireTransport(std::unique_ptr<net::TkcClient> c);

/// In-process LiveQueryEngine::SubmitAsync, waiting on the future.
std::unique_ptr<Transport> EngineTransport(LiveQueryEngine* live);

/// Where a connection's batches come from.
class QuerySource {
 public:
  virtual ~QuerySource() = default;
  /// Fills the next batch of connection `conn`; false when it has none.
  virtual bool Next(uint32_t conn, std::vector<Query>* batch) = 0;
};

/// Consecutive keys of one shared stream, wrapping around at its end.
std::unique_ptr<QuerySource> FreshSource(const std::vector<Query>* keys,
                                         int batch_size);

/// Zipf draws over `keys` (index 0 the most frequent), one seeded stream
/// per connection.
std::unique_ptr<QuerySource> ZipfSource(const std::vector<Query>* keys,
                                        int batch_size, uint64_t seed,
                                        int connections);

/// Round-trip times in a fixed-size log-linear histogram (about 0.8%
/// relative bucket width), so the client's memory does not grow with the
/// number of requests and cannot pass for the server's.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void Record(double seconds);
  void Merge(const LatencyHistogram& other);
  uint64_t count() const { return count_; }
  /// The p-quantile (0..1) in milliseconds, interpolated inside its bucket.
  double QuantileMs(double p) const;

 private:
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

/// A timed phase is cut into this many equal windows. Its rate and tail
/// percentiles are the medians of their values over the windows (see
/// WindowedQuantileMs in main.cc), so a burst of interference from other
/// tenants of the host moves one window, not the result.
inline constexpr int kWindows = 5;

/// What one window of a closed loop got back, by completion time.
struct WindowStats {
  uint64_t ok = 0;  ///< OK verdicts
  LatencyHistogram latency;
};

/// What one closed loop sent and got back.
struct LoopResult {
  uint64_t requests = 0;
  uint64_t queries = 0;
  uint64_t ok = 0;       ///< OK verdicts
  uint64_t failed = 0;   ///< non-OK verdicts plus queries never answered
  uint64_t missing = 0;  ///< queries of requests never answered
  double wall_s = 0;     ///< phase start until the last answer
  LatencyHistogram latency;
  /// kWindows windows of stop_after_s / kWindows seconds each; the last
  /// also holds the requests answered after the stop. One window when the
  /// loop runs until its source is dry.
  std::vector<WindowStats> windows;
  std::vector<uint64_t> requests_per_conn;  ///< by connection
  /// The requests kept for checking and replay (see RunClosedLoop).
  std::vector<Request> kept;
  /// Verdicts left out of `kept` as repeats of a kept one (see
  /// RunClosedLoop).
  uint64_t folded = 0;
};

/// Runs one closed-loop thread per transport until `stop_after_s` seconds
/// have passed since `start` (<= 0: until connection c has sent
/// `max_requests[c]` requests). Each request is traced as a root span
/// named `root_span` (a string literal).
///
/// Keeps a uniform sample of `keep_per_conn` requests per connection
/// (reservoir sampling seeded by `seed`), or, when `keep_per_conn` is 0,
/// every verdict: a request is kept with the verdicts whose (snapshot
/// version, query) the connection has not seen before or whose answer
/// differs from the first one seen, so a repeated answer is kept once and
/// memory stays bounded by the distinct answers, not the run's length. A
/// request left with no verdict is dropped unless it went unanswered.
/// Kept requests are ordered by connection then send time.
LoopResult RunClosedLoop(
    const std::vector<std::unique_ptr<Transport>>& transports,
    QuerySource* source, Clock::time_point start, double stop_after_s,
    const std::vector<uint64_t>& max_requests, const char* root_span,
    size_t keep_per_conn, uint64_t seed);

/// One update tick's timeline, in seconds since the phase started.
struct TickRecord {
  double due_s = 0;
  double sent_s = 0;
  double settled_s = 0;
  bool ok = false;
};

/// Submits `ticks` to ApplyUpdates open loop: tick i is due at
/// start + i * period, whether or not earlier ticks have settled. Join()
/// waits until every tick settled and returns the records.
class TickRunner {
 public:
  TickRunner(LiveQueryEngine* live,
             const std::vector<std::vector<RawTemporalEdge>>* ticks,
             Clock::time_point start, double period_s);
  ~TickRunner();
  TickRunner(const TickRunner&) = delete;
  TickRunner& operator=(const TickRunner&) = delete;

  std::vector<TickRecord> Join();

 private:
  void SubmitLoop();
  void SettleLoop();

  LiveQueryEngine* live_;
  const std::vector<std::vector<RawTemporalEdge>>* ticks_;
  Clock::time_point start_;
  double period_s_;
  std::vector<TickRecord> records_;
  std::vector<std::future<Status>> futures_;
  std::mutex mu_;
  std::condition_variable cv_;
  size_t num_submitted_ = 0;
  std::thread submitter_;
  std::thread settler_;
};

/// A published snapshot's serve counters, read once no request could
/// still add to them.
struct VersionStats {
  ServeStats stats;
  Clock::time_point read_at;
};

/// Keeps every snapshot LiveQueryEngine publishes alive, by polling far
/// faster than any update cycle can publish, until kRetireGraceS after a
/// newer one replaced it; then reads its serve counters and lets it go.
/// A request pinned to a snapshot finishes long before that, and memory
/// holds only the last second's snapshots, however many were published.
class SnapshotPinner {
 public:
  static constexpr double kRetireGraceS = 1.0;

  explicit SnapshotPinner(LiveQueryEngine* live);
  ~SnapshotPinner();
  SnapshotPinner(const SnapshotPinner&) = delete;
  SnapshotPinner& operator=(const SnapshotPinner&) = delete;

  /// Stops polling; returns the counters of every snapshot seen, by
  /// version, the ones still held read now.
  std::map<uint64_t, VersionStats> Stop();

 private:
  void Poll();

  LiveQueryEngine* live_;
  std::atomic<bool> stop_{false};
  std::map<uint64_t, VersionStats> read_;  ///< owned by the poller
  std::thread poller_;
};

}  // namespace tkc::e2e

#endif  // TKC_E2E_BENCH_TRAFFIC_H_
