#ifndef TKC_E2E_BENCH_LAYERS_H_
#define TKC_E2E_BENCH_LAYERS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "serve/snapshot.h"
#include "traffic.h"

/// \file layers.h
/// Serial replays that time one layer at a time, for the traced run: the
/// two phases of a query (vct's CoreTime, core's Enum), the steps of an
/// update (graph append, index rebuild, successor snapshot), and the wire
/// codec.

namespace tkc::e2e {

/// One query's two phases, as RunAlgorithm(kEnum) runs them.
struct QueryReplay {
  double coretime_ms = 0;  ///< BuildVctAndEcsWithStats
  double enum_ms = 0;      ///< EnumerateFromEcs
  uint64_t vct_entries = 0;
  uint64_t fixpoint_recomputations = 0;
  uint64_t ecs_windows = 0;
  uint64_t result_edges = 0;
};

QueryReplay ReplayQuery(const TemporalGraph& g, const Query& query);

/// One update tick, applied to the previous tick's replayed snapshot.
struct TickReplay {
  double append_ms = 0;     ///< TemporalGraph::AppendEdges
  double rebuild_ms = 0;    ///< PhcIndex::Rebuild on the tick's delta
  double successor_ms = 0;  ///< GraphSnapshot::CreateSuccessor
  uint64_t rows_reused = 0;
  uint64_t rows_total = 0;
};

/// Replays `ticks` one at a time from `base`, building each successor with
/// `options` (the live engine's per-snapshot options) and rebuilding the
/// index on `update_pool`.
StatusOr<std::vector<TickReplay>> ReplayTicks(
    std::shared_ptr<const GraphSnapshot> base,
    const std::vector<std::vector<RawTemporalEdge>>& ticks,
    const QueryEngineOptions& options, ThreadPool* update_pool);

/// Microseconds per query to encode and parse the frames of `requests`:
/// each request frame, and each answer's verdict and batch-end frames.
double CodecMicrosPerQuery(const std::vector<Request>& requests);

}  // namespace tkc::e2e

#endif  // TKC_E2E_BENCH_LAYERS_H_
