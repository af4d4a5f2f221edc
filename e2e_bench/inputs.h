#ifndef TKC_E2E_BENCH_INPUTS_H_
#define TKC_E2E_BENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "datasets/generators.h"
#include "graph/temporal_graph.h"
#include "util/thread_pool.h"
#include "workload/query_workload.h"

/// \file inputs.h
/// The three workloads and the inputs each draws from its seed: the graph
/// spec, the query keys, and the update ticks. Inputs are computed from
/// the graph with the window peeler alone, never from the index or the
/// engine under test.

namespace tkc::e2e {

/// How a connection picks the (k, range) keys of its next batch.
enum class KeyMix {
  kFresh,  ///< the next keys of one shuffled stream: no key repeats
  kZipf,   ///< Zipf-skewed draws over a small fixed key set
};

/// What the update ticks that run beside the queries carry.
enum class TickKind {
  /// Edges the graph already holds, re-delivered the way an at-least-once
  /// feed replays its input: each tick is a full update cycle with an
  /// empty delta (every index slice and cache entry carries over).
  kRedelivered,
  /// New edges: the stream clock (see MakeInputs).
  kNewEdges,
};

struct WorkloadDef {
  const char* name;
  uint32_t vertices;
  uint32_t edges;
  uint32_t timestamps;
  int connections;  ///< closed-loop client connections
  int batch_size;   ///< queries per request
  KeyMix keys;
  TickKind ticks;
  double tick_period_s;  ///< open-loop update tick period
};

/// nullptr for an unknown name.
const WorkloadDef* FindWorkload(const std::string& name);

/// Edges per update tick, on every workload.
inline constexpr uint32_t kTickEdges = 20;
/// Keys of a kZipf workload, and how many of them hold no k-core.
inline constexpr uint32_t kHotKeys = 256;
inline constexpr uint32_t kHotKeysWithoutCore = 64;
/// Zipf exponent of kZipf draws.
inline constexpr double kZipfExponent = 1.0;

/// The graph of `def`: the activity-driven generator with bench_scaling's
/// burstiness and default seed. It is the same on every run: the run's seed
/// draws the traffic, so runs with different seeds measure the same data.
SyntheticSpec GraphSpec(const WorkloadDef& def);

struct Inputs {
  /// Query-parameter space of the paper's protocol: k is 10-40% of kmax,
  /// the range length 5-40% of tmax.
  uint32_t kmax = 0;
  uint32_t k_lo = 0, k_hi = 0;
  uint32_t len_lo = 0, len_hi = 0;
  /// Every key of the space whose range holds a k-core, in a seeded order
  /// whose every stretch of a few hundred keys has about the cost mix of
  /// the whole space (see MakeInputs).
  std::vector<Query> fresh;
  /// kZipf keys, hottest first.
  std::vector<Query> hot;
  /// How many keys of `hot` hold no k-core.
  uint32_t hot_without_core = 0;
  /// Update ticks, one per tick period of the run.
  std::vector<std::vector<RawTemporalEdge>> ticks;
};

/// Draws the inputs of `def` over `g` for a run of `seconds`. The peeler
/// work fans out over `pool`.
Inputs MakeInputs(const WorkloadDef& def, const TemporalGraph& g,
                  uint64_t seed, double seconds, ThreadPool* pool);

}  // namespace tkc::e2e

#endif  // TKC_E2E_BENCH_INPUTS_H_
