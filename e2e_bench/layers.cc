#include "layers.h"

#include <algorithm>
#include <string>
#include <utility>

#include "core/enum_algorithm.h"
#include "core/sinks.h"
#include "net/wire_format.h"
#include "trace.h"
#include "util/timer.h"
#include "vct/phc_index.h"
#include "vct/vct_builder.h"

namespace tkc::e2e {
namespace {

double Millis(const WallTimer& timer) { return timer.ElapsedSeconds() * 1e3; }

}  // namespace

QueryReplay ReplayQuery(const TemporalGraph& g, const Query& query) {
  Span span("workload.replay_query");
  QueryReplay out;
  VctBuildStats vct_stats;
  WallTimer timer;
  VctBuildResult built;
  {
    Span phase("vct.BuildVctAndEcsWithStats");
    built = BuildVctAndEcsWithStats(g, query.k, query.range, &vct_stats);
  }
  out.coretime_ms = Millis(timer);
  out.vct_entries = built.vct.size();
  out.fixpoint_recomputations = vct_stats.fixpoint_recomputations;
  out.ecs_windows = built.ecs.size();
  CountingSink sink;
  EnumStats enum_stats;
  timer.Restart();
  {
    Span phase("core.EnumerateFromEcs");
    (void)EnumerateFromEcs(built.ecs, &sink, &enum_stats);
  }
  out.enum_ms = Millis(timer);
  out.result_edges = sink.result_size_edges();
  return out;
}

StatusOr<std::vector<TickReplay>> ReplayTicks(
    std::shared_ptr<const GraphSnapshot> base,
    const std::vector<std::vector<RawTemporalEdge>>& ticks,
    const QueryEngineOptions& options, ThreadPool* update_pool) {
  std::vector<TickReplay> out;
  for (size_t i = 0; i < ticks.size(); ++i) {
    Span span("workload.replay_tick");
    TickReplay tick;
    WallTimer timer;
    StatusOr<GraphUpdate> update = Status::Internal("not appended");
    {
      Span step("graph.TemporalGraph::AppendEdges");
      update = base->graph().AppendEdges(ticks[i]);
    }
    tick.append_ms = Millis(timer);
    if (!update.ok()) return update.status();

    const PhcIndex* old_index = base->engine().index();
    if (old_index == nullptr) {
      return Status::FailedPrecondition("snapshot has no admission index");
    }
    PhcBuildOptions build;
    build.pool = update_pool;
    PhcRebuildStats stats;
    timer.Restart();
    {
      Span step("vct.PhcIndex::Rebuild");
      StatusOr<PhcIndex> rebuilt = PhcIndex::Rebuild(
          *old_index, update->graph, update->delta, build, &stats);
      if (!rebuilt.ok()) return rebuilt.status();
    }
    tick.rebuild_ms = Millis(timer);
    tick.rows_reused = stats.rows_reused;
    tick.rows_total = stats.rows_total;

    timer.Restart();
    StatusOr<std::shared_ptr<const GraphSnapshot>> next =
        Status::Internal("not built");
    {
      Span step("serve.GraphSnapshot::CreateSuccessor");
      next = GraphSnapshot::CreateSuccessor(*base, std::move(*update),
                                            base->version() + 1, options);
    }
    tick.successor_ms = Millis(timer);
    if (!next.ok()) return next.status();
    base = std::move(*next);
    out.push_back(tick);
  }
  return out;
}

double CodecMicrosPerQuery(const std::vector<Request>& requests) {
  Span span("net.codec");
  uint64_t queries = 0;
  for (const Request& r : requests) queries += r.queries.size();
  if (queries == 0) return 0;
  // One pass is a few milliseconds; the median of several is steadier.
  std::vector<double> passes;
  WallTimer total;
  while (passes.size() < 5 || total.ElapsedSeconds() < 0.2) {
    WallTimer timer;
    uint64_t frames = 0;
    std::string wire;
    for (size_t i = 0; i < requests.size(); ++i) {
      const Request& r = requests[i];
      wire.clear();
      net::QueryRequestFrame request;
      request.request_id = i + 1;
      request.deadline_ms = kRequestDeadlineMs;
      request.queries = r.queries;
      net::AppendQueryRequest(request, &wire);
      for (size_t q = 0; q < r.verdicts.size(); ++q) {
        const Verdict& v = r.verdicts[q];
        net::AppendVerdict(
            net::VerdictFrame{i + 1, static_cast<uint32_t>(q), v.status,
                              v.num_cores, v.result_size_edges, v.vct_size,
                              v.ecs_size},
            &wire);
      }
      net::AppendBatchEnd(
          net::BatchEndFrame{i + 1, r.snapshot_version,
                             static_cast<uint32_t>(r.verdicts.size())},
          &wire);
      net::FrameParser parser;
      parser.Feed(wire.data(), wire.size());
      net::Frame frame;
      while (parser.Next(&frame) == net::FrameParser::Result::kFrame) {
        ++frames;
      }
    }
    passes.push_back(timer.ElapsedSeconds());
    if (frames == 0) return 0;
  }
  std::nth_element(passes.begin(), passes.begin() + passes.size() / 2,
                   passes.end());
  return passes[passes.size() / 2] * 1e6 / static_cast<double>(queries);
}

}  // namespace tkc::e2e
