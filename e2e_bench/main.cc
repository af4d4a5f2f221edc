// The repository's end-to-end benchmark: one process stands up a
// LiveQueryEngine behind a TkcServer on loopback, drives one workload's
// traffic at it from closed-loop client connections, checks the answers
// against the paper's pipeline, and prints its metrics. README.md next to
// this file describes the workloads, the metrics and how to run it.
//
//   tkc_e2e_bench --workload cold_miss|hot_repeat|live_ingest --seed N
//                 --seconds S --trace 0|1 [--out-dir DIR]
//
// --trace 0 prints the end-to-end metrics. --trace 1 records spans around
// every call into the library, replays the run layer by layer, prints the
// per-layer metrics and writes the spans to DIR. The last line of standard
// output is one JSON object; the exit code is non-zero when any checked
// verdict differs from the reference or never arrived.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <utility>
#include <vector>

#include "inputs.h"
#include "layers.h"
#include "net/server.h"
#include "reference.h"
#include "trace.h"
#include "traffic.h"
#include "util/mem.h"
#include "util/timer.h"
#include "vct/phc_index.h"

namespace tkc::e2e {
namespace {

/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 3;
/// Threads of the benchmark's own parallel work (inputs, references,
/// replayed index builds): the machine's four cores, idle while timing.
constexpr int kAuxThreads = 4;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

// --- statistics -------------------------------------------------------------

/// The p-quantile (0..1) by linear interpolation between closest ranks.
double Quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

double Beyond(uint64_t samples, double p) {
  return std::floor(static_cast<double>(samples) * (1 - p));
}

/// Prints a metric for humans; a percentile also gets its sample count and
/// how many samples lie beyond it, or `note` instead of the latter.
void Show(const Metric& m, size_t samples = 0, double p = 0,
          const std::string& note = "") {
  std::printf("  %-40s %16.6f %-8s", m.name.c_str(), m.value, m.unit.c_str());
  if (samples > 0 && !note.empty()) {
    std::printf(" (n=%zu, %s)", samples, note.c_str());
  } else if (samples > 0 && p > 0) {
    std::printf(" (n=%zu, %.0f beyond)", samples, Beyond(samples, p));
  } else if (samples > 0) {
    std::printf(" (n=%zu)", samples);
  }
  std::printf("\n");
}

/// A percentile of a timed phase, taken per window where the samples allow.
struct Windowed {
  double ms = 0;
  uint64_t samples = 0;
  std::string note;  ///< how it was taken, for Show
};

/// The p-quantile of a timed phase split into `windows`. A tail percentile
/// (p > 0.5) is the median of the windows' p-quantiles when every window
/// holds at least ten samples beyond p: a burst of interference can move
/// the tail of the whole phase, but only a window or two. A median, or a
/// tail with too few samples per window, is taken over all samples
/// together: a burst moves a median only by the share of samples it
/// touches, and a window's median is a noisier estimate than the phase's.
Windowed WindowedQuantileMs(const std::vector<LatencyHistogram>& windows,
                            double p) {
  Windowed out;
  LatencyHistogram all;
  uint64_t fewest_beyond = ~uint64_t{0};
  std::vector<double> per_window;
  for (const LatencyHistogram& w : windows) {
    all.Merge(w);
    fewest_beyond = std::min<uint64_t>(
        fewest_beyond, static_cast<uint64_t>(Beyond(w.count(), p)));
    per_window.push_back(w.QuantileMs(p));
  }
  out.samples = all.count();
  char note[96];
  if (p > 0.5 && windows.size() > 1 && fewest_beyond >= 10) {
    out.ms = Quantile(per_window, 0.50);
    std::snprintf(note, sizeof(note), "median of %zu windows, >= %llu beyond "
                  "in each", windows.size(),
                  static_cast<unsigned long long>(fewest_beyond));
  } else {
    out.ms = all.QuantileMs(p);
    std::snprintf(note, sizeof(note), "%.0f beyond, whole phase",
                  Beyond(all.count(), p));
  }
  out.note = note;
  return out;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

// --- the system under test --------------------------------------------------

/// One LiveQueryEngine behind one TkcServer. The server is declared last so
/// it is destroyed (stopped) before the engine it fronts.
struct System {
  TemporalGraph graph;  ///< the initial graph (version 0)
  std::unique_ptr<LiveQueryEngine> live;
  std::unique_ptr<net::TkcServer> server;
  double generate_s = 0;
  double setup_s = 0;
};

/// The serving configuration under test: the shared serve pool, the default
/// update pool and cache, and the admission index.
LiveEngineOptions ServingOptions() {
  LiveEngineOptions options;
  options.engine.build_index = true;
  return options;
}

StatusOr<std::unique_ptr<System>> SetUp(const WorkloadDef& def) {
  auto sys = std::make_unique<System>();
  WallTimer total;
  {
    Span span("datasets.GenerateSynthetic");
    sys->graph = GenerateSynthetic(GraphSpec(def));
  }
  sys->generate_s = total.ElapsedSeconds();
  {
    Span span("serve.LiveQueryEngine::Create");
    auto live = LiveQueryEngine::Create(sys->graph, ServingOptions());
    if (!live.ok()) return live.status();
    sys->live = std::move(*live);
  }
  {
    Span span("net.TkcServer::Start");
    auto server = net::TkcServer::Start(sys->live.get());
    if (!server.ok()) return server.status();
    sys->server = std::move(*server);
  }
  sys->setup_s = total.ElapsedSeconds();
  return sys;
}

// --- one phase of traffic ---------------------------------------------------

struct Phase {
  LoopResult loop;
  std::vector<TickRecord> ticks;
  uint64_t peak_rss_bytes = 0;
  uint64_t net_bytes = 0;  ///< wire bytes read + written while timed
  uint64_t net_dropped = 0;
  /// The version serving when timing started (after any warm-up), and its
  /// serve counters then.
  uint64_t baseline_version = 0;
  ServeStats baseline;
  /// The snapshot serving when timing started, version 0 (traced only).
  std::shared_ptr<const GraphSnapshot> initial;
  /// When timing started.
  Clock::time_point start;
  /// The serve counters of every snapshot published while timing (traced
  /// wire phase only).
  std::map<uint64_t, VersionStats> versions;
  LiveStats live_stats;
};

/// Runs `def`'s traffic against `sys`: over the wire for `seconds` when
/// `replay` is null, else in-process SubmitAsync replaying the same query
/// stream, each connection sending as many requests as it did in
/// `replay`. Keeps every verdict when tracing, else a sample for the
/// correctness check (see RunClosedLoop).
StatusOr<Phase> RunPhase(const WorkloadDef& def, const Inputs& in,
                         System* sys, const Args& args,
                         const LoopResult* replay) {
  Phase phase;
  const bool wire = replay == nullptr;
  std::vector<std::unique_ptr<Transport>> transports;
  for (int c = 0; c < def.connections; ++c) {
    if (wire) {
      auto client = net::TkcClient::Connect("127.0.0.1", sys->server->port());
      if (!client.ok()) return client.status();
      transports.push_back(WireTransport(std::move(*client)));
    } else {
      transports.push_back(EngineTransport(sys->live.get()));
    }
  }

  if (def.keys == KeyMix::kZipf) {
    // Warm the cache with every key, untimed.
    for (size_t i = 0; i < in.hot.size(); i += def.batch_size) {
      Request r;
      r.queries.assign(in.hot.begin() + i,
                       in.hot.begin() + std::min(in.hot.size(),
                                                 i + def.batch_size));
      transports[0]->RoundTrip(&r);
      if (!r.answered) return Status::Internal("warm-up failed: " + r.error);
    }
  }

  std::unique_ptr<SnapshotPinner> pinner;
  if (wire && args.trace) {
    pinner = std::make_unique<SnapshotPinner>(sys->live.get());
  }
  {
    std::shared_ptr<const GraphSnapshot> current = sys->live->snapshot();
    phase.baseline_version = current->version();
    phase.baseline = current->engine().stats();
    // The layer replays start from it; an untraced run lets it go, so it
    // does not count in peak RSS.
    if (args.trace) phase.initial = std::move(current);
  }
  const net::ServerStats net_before = sys->server->stats();

  std::unique_ptr<QuerySource> source;
  if (def.keys == KeyMix::kZipf) {
    source = ZipfSource(&in.hot, def.batch_size, args.seed, def.connections);
  } else {
    source = FreshSource(&in.fresh, def.batch_size);
  }

  const Clock::time_point start = Clock::now();
  phase.start = start;
  TickRunner ticks(sys->live.get(), &in.ticks, start, def.tick_period_s);
  phase.loop = RunClosedLoop(
      transports, source.get(), start, wire ? args.seconds : 0,
      wire ? std::vector<uint64_t>{} : replay->requests_per_conn,
      wire ? "net.request" : "serve.request",
      args.trace ? 0 : kCheckSample / def.connections + 1, args.seed);
  phase.peak_rss_bytes = ReadVmHWMBytes();
  const net::ServerStats net_after = sys->server->stats();
  phase.net_bytes = (net_after.bytes_read + net_after.bytes_written) -
                    (net_before.bytes_read + net_before.bytes_written);
  phase.ticks = ticks.Join();

  if (pinner != nullptr) phase.versions = pinner->Stop();
  phase.live_stats = sys->live->stats();

  if (wire) {
    // Close the connections and let the server settle them, so a
    // connection still closing is not read as dropped.
    transports.clear();
    for (int i = 0; i < 2000; ++i) {
      const net::ServerStats s = sys->server->stats();
      if (s.connections_closed + s.connections_dropped ==
          s.connections_accepted) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const net::ServerStats s = sys->server->stats();
    phase.net_dropped = s.connections_dropped + s.responses_dropped;
  }
  return phase;
}

// --- metrics ----------------------------------------------------------------

/// The end-to-end metrics of a wire phase timed for `seconds`, shown as
/// they are computed. `qps` is the median of the windows' rates; for the
/// percentiles see WindowedQuantileMs.
std::vector<Metric> EndToEnd(const Phase& phase, double seconds,
                             const std::vector<double>& setup_s) {
  const LoopResult& loop = phase.loop;
  const size_t num_windows = loop.windows.size();
  const double window_s = seconds / static_cast<double>(num_windows);
  std::vector<double> window_qps;
  std::vector<LatencyHistogram> latency, visible(num_windows);
  for (size_t w = 0; w < num_windows; ++w) {
    // The last window runs on to the last answer.
    const double length = w + 1 < num_windows
                              ? window_s
                              : loop.wall_s - window_s * static_cast<double>(w);
    window_qps.push_back(
        Ratio(static_cast<double>(loop.windows[w].ok), length));
    latency.push_back(loop.windows[w].latency);
  }
  for (const TickRecord& t : phase.ticks) {
    const size_t w = std::min(num_windows - 1,
                              static_cast<size_t>(t.due_s / window_s));
    visible[w].Record(t.settled_s - t.due_s);
  }
  const Windowed p50 = WindowedQuantileMs(latency, 0.50);
  const Windowed p99 = WindowedQuantileMs(latency, 0.99);
  const Windowed visible_p50 = WindowedQuantileMs(visible, 0.50);
  const Windowed visible_p80 = WindowedQuantileMs(visible, 0.80);
  std::vector<Metric> m = {
      {"qps", Quantile(window_qps, 0.50), "queries/s"},
      {"latency_p50_ms", p50.ms, "ms"},
      {"latency_p99_ms", p99.ms, "ms"},
      {"ok_ratio",
       Ratio(static_cast<double>(loop.ok), static_cast<double>(loop.queries)),
       "share"},
      {"update_visible_p50_ms", visible_p50.ms, "ms"},
      {"update_visible_p80_ms", visible_p80.ms, "ms"},
      {"setup_s", Quantile(setup_s, 0.50), "s"},
      {"peak_rss_mb", static_cast<double>(phase.peak_rss_bytes) / (1 << 20),
       "MB"},
  };
  std::printf("end-to-end (%llu queries in %llu requests, %.3f s, %llu "
              "failed):\n",
              static_cast<unsigned long long>(loop.queries),
              static_cast<unsigned long long>(loop.requests), loop.wall_s,
              static_cast<unsigned long long>(loop.failed));
  Show(m[0], loop.ok, 0,
       "median of " + std::to_string(num_windows) + " windows");
  Show(m[1], p50.samples, 0.50, p50.note);
  Show(m[2], p99.samples, 0.99, p99.note);
  Show(m[3], loop.queries);
  Show(m[4], visible_p50.samples, 0.50, visible_p50.note);
  Show(m[5], visible_p80.samples, 0.80, visible_p80.note);
  Show(m[6], setup_s.size(), 0.50);
  Show(m[7]);
  return m;
}

/// `folded`: verdicts not checked themselves because they repeat a checked
/// answer for the same snapshot version and query (see RunClosedLoop).
bool ReportCheck(const char* what, const CheckReport& report,
                 uint64_t folded) {
  std::printf(
      "check %s: %llu verdicts (and %llu repeats of them) against %llu "
      "references, %llu mismatches, %llu missing; oracle %llu checked, %llu "
      "mismatches\n",
      what, static_cast<unsigned long long>(report.verdicts_checked),
      static_cast<unsigned long long>(folded),
      static_cast<unsigned long long>(report.references_run),
      static_cast<unsigned long long>(report.mismatches),
      static_cast<unsigned long long>(report.missing),
      static_cast<unsigned long long>(report.oracle_checked),
      static_cast<unsigned long long>(report.oracle_mismatches));
  for (const std::string& note : report.notes) {
    std::fprintf(stderr, "  %s\n", note.c_str());
  }
  return report.ok();
}

/// The per-layer metrics of a traced run (see the layer map in README.md).
StatusOr<std::vector<Metric>> PerLayer(const Inputs& in, const System& sys,
                                       const Phase& wire,
                                       const Phase& engine,
                                       const std::vector<double>& generate_s,
                                       Reference* reference, ThreadPool* aux) {
  std::vector<Metric> m;
  auto add = [&](const char* name, double value, const char* unit,
                 size_t samples = 0, double p = 0) {
    m.push_back(Metric{name, value, unit});
    Show(m.back(), samples, p);
  };
  std::printf("per-layer:\n");

  // net. Queue wait and busy time come from the kept requests, which are
  // whole wherever every query executes (no answer repeats); elsewhere
  // they are not measurable (see below).
  const LatencyHistogram& engine_latency = engine.loop.latency;
  std::vector<double> queue_wait_ms;
  double busy_s = 0;
  for (const Request& r : engine.loop.kept) {
    const double ms = (r.done_s - r.send_s) * 1e3;
    double slowest = 0;
    for (const Verdict& v : r.verdicts) {
      slowest = std::max(slowest, v.seconds);
      busy_s += v.seconds;
    }
    queue_wait_ms.push_back(ms - slowest * 1e3);
  }
  add("net.overhead_p50_ms",
      wire.loop.latency.QuantileMs(0.5) - engine_latency.QuantileMs(0.5),
      "ms");
  add("net.codec_us_per_query", CodecMicrosPerQuery(wire.loop.kept), "us");
  add("net.bytes_per_query",
      Ratio(static_cast<double>(wire.net_bytes),
            static_cast<double>(wire.loop.queries)),
      "bytes");
  add("net.dropped", static_cast<double>(wire.net_dropped), "count");

  // serve: counters summed over every version the wire phase published.
  ServeStats sum;
  for (const auto& [version, read] : wire.versions) {
    ServeStats s = read.stats;
    if (version == wire.baseline_version) {
      s.queries_served -= wire.baseline.queries_served;
      s.cache_hits -= wire.baseline.cache_hits;
      s.index_rejections -= wire.baseline.index_rejections;
      s.executed -= wire.baseline.executed;
      s.batches_shed -= wire.baseline.batches_shed;
      s.deadlines_expired -= wire.baseline.deadlines_expired;
    }
    sum.queries_served += s.queries_served;
    sum.cache_hits += s.cache_hits;
    sum.index_rejections += s.index_rejections;
    sum.executed += s.executed;
    sum.batches_shed += s.batches_shed;
    sum.deadlines_expired += s.deadlines_expired;
  }
  // A version is unpinned when the pinner missed it, or read its counters
  // before a request it answered was done.
  std::set<uint64_t> unpinned;
  for (const Request& r : wire.loop.kept) {
    if (!r.answered) continue;
    const auto it = wire.versions.find(r.snapshot_version);
    if (it == wire.versions.end() ||
        std::chrono::duration<double>(it->second.read_at - wire.start)
                .count() < r.done_s) {
      unpinned.insert(r.snapshot_version);
    }
  }
  if (!unpinned.empty()) {
    std::printf("  note: %zu answering versions were missed or read early; "
                "serve ratios may miss some of their queries\n",
                unpinned.size());
  }
  const double served = static_cast<double>(sum.queries_served);
  const int pool_threads = ThreadPool::Shared().num_threads();
  add("serve.engine_p50_ms", engine_latency.QuantileMs(0.50), "ms",
      engine_latency.count(), 0.50);
  add("serve.engine_p99_ms", engine_latency.QuantileMs(0.99), "ms",
      engine_latency.count(), 0.99);
  // A cache hit replays the stored outcome of the run that produced it,
  // seconds included, so outcome times describe work done only when every
  // query executed; otherwise these two read 0 ("not measurable").
  const bool all_executed = sum.executed == sum.queries_served;
  if (!all_executed) {
    std::printf("  serve.queue_wait_p50_ms and serve.worker_busy_share: not "
                "measurable, cache hits replay stored outcome times\n");
  }
  add("serve.queue_wait_p50_ms",
      all_executed ? Quantile(queue_wait_ms, 0.50) : 0.0, "ms",
      queue_wait_ms.size(), 0.50);
  add("serve.worker_busy_share",
      all_executed ? Ratio(busy_s, engine.loop.wall_s * pool_threads) : 0.0,
      "share");
  add("serve.cache_hit_ratio",
      Ratio(static_cast<double>(sum.cache_hits), served), "share",
      sum.queries_served);
  add("serve.index_rejection_ratio",
      Ratio(static_cast<double>(sum.index_rejections), served), "share",
      sum.queries_served);
  add("serve.executed_ratio",
      Ratio(static_cast<double>(sum.executed), served), "share",
      sum.queries_served);
  add("serve.shed", static_cast<double>(sum.batches_shed +
                                        sum.deadlines_expired),
      "count");
  add("serve.versions_unpinned", static_cast<double>(unpinned.size()),
      "count");

  // vct + core: every distinct (graph, query) of the wire phase, serially.
  std::set<std::tuple<const TemporalGraph*, uint32_t, Timestamp, Timestamp>>
      seen;
  std::vector<double> coretime_ms, enum_ms;
  double entries = 0, fixpoints = 0, windows = 0, result_edges = 0;
  for (const Request& r : wire.loop.kept) {
    for (const Query& q : r.queries) {
      StatusOr<const TemporalGraph*> g = reference->Graph(r.snapshot_version);
      if (!g.ok()) return g.status();
      if (!seen.emplace(*g, q.k, q.range.start, q.range.end).second) {
        continue;
      }
      const QueryReplay replay = ReplayQuery(**g, q);
      coretime_ms.push_back(replay.coretime_ms);
      enum_ms.push_back(replay.enum_ms);
      entries += static_cast<double>(replay.vct_entries);
      fixpoints += static_cast<double>(replay.fixpoint_recomputations);
      windows += static_cast<double>(replay.ecs_windows);
      result_edges += static_cast<double>(replay.result_edges);
    }
  }
  const double replayed = static_cast<double>(coretime_ms.size());
  double coretime_total = 0, enum_total = 0;
  for (double v : coretime_ms) coretime_total += v;
  for (double v : enum_ms) enum_total += v;
  add("vct.coretime_p50_ms", Quantile(coretime_ms, 0.50), "ms",
      coretime_ms.size(), 0.50);
  add("vct.coretime_p99_ms", Quantile(coretime_ms, 0.99), "ms",
      coretime_ms.size(), 0.99);
  add("vct.coretime_share", Ratio(coretime_total, coretime_total + enum_total),
      "share");
  add("vct.entries_per_query", Ratio(entries, replayed), "count");
  add("vct.fixpoint_recomputations_per_query", Ratio(fixpoints, replayed),
      "count");

  WallTimer build_timer;
  {
    Span span("vct.PhcIndex::Build");
    PhcBuildOptions build;
    build.pool = aux;
    auto index = PhcIndex::Build(sys.graph, sys.graph.FullRange(), build);
    if (!index.ok()) return index.status();
  }
  add("vct.index_build_s", build_timer.ElapsedSeconds(), "s");
  const PhcIndex* index = wire.initial->engine().index();
  add("vct.index_bytes",
      index != nullptr ? static_cast<double>(index->MemoryUsageBytes()) : 0,
      "bytes");

  QueryEngineOptions snapshot_options = ServingOptions().engine;
  snapshot_options.index_build_pool = aux;
  auto ticks = ReplayTicks(wire.initial, in.ticks, snapshot_options, aux);
  if (!ticks.ok()) return ticks.status();
  std::vector<double> append_ms, rebuild_ms, successor_ms, wait_ms;
  double rows_reused = 0, rows_total = 0;
  for (size_t i = 0; i < ticks->size(); ++i) {
    const TickReplay& t = (*ticks)[i];
    append_ms.push_back(t.append_ms);
    rebuild_ms.push_back(t.rebuild_ms);
    successor_ms.push_back(t.successor_ms);
    rows_reused += static_cast<double>(t.rows_reused);
    rows_total += static_cast<double>(t.rows_total);
    if (i < wire.ticks.size()) {
      const TickRecord& live = wire.ticks[i];
      wait_ms.push_back((live.settled_s - live.due_s) * 1e3 - t.append_ms -
                        t.successor_ms);
    }
  }
  add("vct.rebuild_p50_ms", Quantile(rebuild_ms, 0.50), "ms",
      rebuild_ms.size(), 0.50);
  add("vct.rebuild_p90_ms", Quantile(rebuild_ms, 0.90), "ms",
      rebuild_ms.size(), 0.90);
  add("vct.row_reuse_ratio", Ratio(rows_reused, rows_total), "share");
  add("core.enum_p50_ms", Quantile(enum_ms, 0.50), "ms", enum_ms.size(),
      0.50);
  add("core.enum_p99_ms", Quantile(enum_ms, 0.99), "ms", enum_ms.size(),
      0.99);
  add("core.ns_per_result_edge", Ratio(enum_total * 1e6, result_edges), "ns");
  add("core.ecs_windows_per_query", Ratio(windows, replayed), "count");
  add("core.result_edges_per_query", Ratio(result_edges, replayed), "count");

  // graph
  add("graph.generate_s", Quantile(generate_s, 0.50), "s", generate_s.size());
  add("graph.append_p50_ms", Quantile(append_ms, 0.50), "ms",
      append_ms.size(), 0.50);

  // update path
  const UpdateStats& u = wire.live_stats.update;
  double max_lag_ms = 0;
  for (const TickRecord& t : wire.ticks) {
    max_lag_ms = std::max(max_lag_ms, (t.sent_s - t.due_s) * 1e3);
  }
  add("update.successor_p50_ms", Quantile(successor_ms, 0.50), "ms",
      successor_ms.size(), 0.50);
  add("update.wait_p50_ms", Quantile(wait_ms, 0.50), "ms", wait_ms.size(),
      0.50);
  add("update.coalesced_ratio",
      Ratio(static_cast<double>(u.batches_coalesced),
            static_cast<double>(u.batches_submitted)),
      "share", u.batches_submitted);
  add("update.failed", static_cast<double>(wire.live_stats.failed_updates),
      "count");
  add("update.generator_lag_ms", max_lag_ms, "ms", wire.ticks.size());
  return m;
}

int Run(const Args& args) {
  const WorkloadDef* def = FindWorkload(args.workload);
  if (def == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  EnableTracing(args.trace);
  ThreadPool aux(kAuxThreads);

  // Set up several times; keep the last system. The traced run reports no
  // set-up time, so it sets up once.
  std::vector<double> setup_s, generate_s;
  std::unique_ptr<System> sys;
  for (int rep = 0; rep < (args.trace ? 1 : kSetupReps); ++rep) {
    sys.reset();
    auto next = SetUp(*def);
    if (!next.ok()) {
      std::fprintf(stderr, "setup: %s\n", next.status().ToString().c_str());
      return 1;
    }
    sys = std::move(*next);
    setup_s.push_back(sys->setup_s);
    generate_s.push_back(sys->generate_s);
  }
  const Inputs in = MakeInputs(*def, sys->graph, args.seed, args.seconds, &aux);
  std::printf(
      "workload %s seed %llu: %u vertices, %u edges, %u timestamps, kmax %u; "
      "k %u..%u, range length %u..%u; %zu fresh keys, %zu hot keys (%u "
      "without a core), %zu ticks; %d connections x batch %d\n",
      def->name, static_cast<unsigned long long>(args.seed),
      sys->graph.num_vertices(), sys->graph.num_edges(),
      sys->graph.num_timestamps(), in.kmax, in.k_lo, in.k_hi, in.len_lo,
      in.len_hi, in.fresh.size(), in.hot.size(), in.hot_without_core,
      in.ticks.size(), def->connections, def->batch_size);

  auto wire = RunPhase(*def, in, sys.get(), args, nullptr);
  if (!wire.ok()) {
    std::fprintf(stderr, "wire phase: %s\n", wire.status().ToString().c_str());
    return 1;
  }
  const LoopResult& loop = wire->loop;
  if (def->keys == KeyMix::kFresh && loop.queries > in.fresh.size()) {
    // Keys then recur thousands of queries apart, far beyond the cache's
    // 1024 outcomes, so they still miss; the run says so all the same.
    std::printf("note: the run wrapped around its %zu fresh keys\n",
                in.fresh.size());
  }
  const std::vector<Metric> e2e = EndToEnd(*wire, args.seconds, setup_s);

  Reference reference(sys->graph, in.ticks);
  bool correct = ReportCheck(
      "wire", reference.Check(loop.kept, args.trace, args.seed, &aux),
      loop.folded);
  correct = correct && loop.missing == 0;
  for (const TickRecord& t : wire->ticks) correct = correct && t.ok;

  if (!args.trace) {
    PrintResult(correct, loop.queries, loop.failed, e2e);
    return correct ? 0 : 1;
  }

  // Traced: the same query stream in-process on a fresh system, for the
  // engine's own latency; then the layer replays.
  auto engine_sys = SetUp(*def);
  if (!engine_sys.ok()) {
    std::fprintf(stderr, "setup: %s\n",
                 engine_sys.status().ToString().c_str());
    return 1;
  }
  auto engine = RunPhase(*def, in, engine_sys->get(), args, &loop);
  if (!engine.ok()) {
    std::fprintf(stderr, "engine phase: %s\n",
                 engine.status().ToString().c_str());
    return 1;
  }
  correct = ReportCheck("in-process",
                        reference.Check(engine->loop.kept, true, args.seed,
                                        &aux),
                        engine->loop.folded) &&
            correct && engine->loop.missing == 0;
  for (const TickRecord& t : engine->ticks) correct = correct && t.ok;
  engine_sys->reset();

  auto layers =
      PerLayer(in, *sys, *wire, *engine, generate_s, &reference, &aux);
  if (!layers.ok()) {
    std::fprintf(stderr, "layer replay: %s\n",
                 layers.status().ToString().c_str());
    return 1;
  }
  PrintSelfTimes();
  ::mkdir(args.out_dir.c_str(), 0755);
  const std::string path = args.out_dir + "/spans-" + def->name + "-seed" +
                           std::to_string(args.seed) + ".jsonl";
  const long spans = WriteSpans(path);
  if (spans < 0) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %ld spans to %s\n", spans, path.c_str());
  PrintResult(correct, loop.queries, loop.failed, *layers);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace tkc::e2e

int main(int argc, char** argv) {
  // Line-buffered, so a run cut short still shows how far it got.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  tkc::e2e::Args args;
  if (!tkc::e2e::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR]\n",
                 argv[0]);
    return 2;
  }
  return tkc::e2e::Run(args);
}
