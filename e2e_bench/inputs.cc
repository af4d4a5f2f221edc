#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "graph/graph_stats.h"
#include "graph/window_peeler.h"
#include "util/rng.h"

namespace tkc::e2e {
namespace {

// Why each workload exists is recorded in README.md next to this file.
constexpr WorkloadDef kWorkloads[] = {
    {"cold_miss", 900, 22000, 140, 2, 1, KeyMix::kFresh,
     TickKind::kRedelivered, 0.05},
    {"hot_repeat", 900, 22000, 140, 1, 64, KeyMix::kZipf,
     TickKind::kRedelivered, 0.05},
    {"live_ingest", 300, 6000, 64, 2, 1, KeyMix::kFresh,
     TickKind::kNewEdges, 0.25},
};

template <typename T>
void Shuffle(std::vector<T>* items, Rng* rng) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng->NextBounded(i)]);
  }
}

/// Hands of the systematic key order.
constexpr size_t kHands = 32;

bool HoldsCore(const TemporalGraph& g, uint32_t k, Window range) {
  std::vector<bool> in_core = ComputeWindowCoreVertices(g, k, range);
  return std::find(in_core.begin(), in_core.end(), true) != in_core.end();
}

}  // namespace

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& def : kWorkloads) {
    if (name == def.name) return &def;
  }
  return nullptr;
}

SyntheticSpec GraphSpec(const WorkloadDef& def) {
  SyntheticSpec spec;
  spec.name = def.name;
  spec.num_vertices = def.vertices;
  spec.num_edges = def.edges;
  spec.num_timestamps = def.timestamps;
  spec.burstiness = 0.2;
  spec.seed = 42;
  return spec;
}

Inputs MakeInputs(const WorkloadDef& def, const TemporalGraph& g,
                  uint64_t seed, double seconds, ThreadPool* pool) {
  Inputs in;
  const Timestamp tmax = g.num_timestamps();
  in.kmax = ComputeGraphStats(g).kmax;
  in.k_lo = DeriveK(in.kmax, 0.10);
  in.k_hi = DeriveK(in.kmax, 0.40);
  in.len_lo = std::min<uint32_t>(DeriveRangeLength(tmax, 0.05), tmax);
  in.len_hi = std::min<uint32_t>(DeriveRangeLength(tmax, 0.40), tmax);

  // For every (k, start): the least end whose window holds a k-core, by
  // binary search (a window's k-core only grows with its end), or 0 when
  // even the longest range of the space holds none.
  const uint32_t num_k = in.k_hi - in.k_lo + 1;
  std::vector<Timestamp> least_end(static_cast<size_t>(num_k) * tmax, 0);
  pool->ParallelFor(least_end.size(), [&](size_t slot, int) {
    const uint32_t k = in.k_lo + static_cast<uint32_t>(slot / tmax);
    const Timestamp start = 1 + static_cast<Timestamp>(slot % tmax);
    const Timestamp first = start + in.len_lo - 1;
    const Timestamp last = std::min<Timestamp>(tmax, start + in.len_hi - 1);
    if (first > tmax || !HoldsCore(g, k, Window{start, last})) return;
    Timestamp lo = first, hi = last;
    while (lo < hi) {
      const Timestamp mid = lo + (hi - lo) / 2;
      if (HoldsCore(g, k, Window{start, mid})) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    least_end[slot] = lo;
  });

  std::vector<Query> without_core;
  for (size_t slot = 0; slot < least_end.size(); ++slot) {
    const uint32_t k = in.k_lo + static_cast<uint32_t>(slot / tmax);
    const Timestamp start = 1 + static_cast<Timestamp>(slot % tmax);
    for (uint32_t len = in.len_lo; len <= in.len_hi; ++len) {
      const Timestamp end = start + len - 1;
      if (end > tmax) break;
      const Query q{k, Window{start, end}};
      if (least_end[slot] != 0 && end >= least_end[slot]) {
        in.fresh.push_back(q);
      } else {
        without_core.push_back(q);
      }
    }
  }
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  Shuffle(&without_core, &rng);
  // Systematic sampling: a run consumes only a few thousand keys, and the
  // cost of a key grows steeply with its range length, so a plain shuffle
  // lets the seed swing the measured cost mix. Instead deal the keys, in
  // (length, k) order with ties shuffled, round-robin into hands, shuffle
  // each hand, and play the hands one after another: every hand is a
  // stratified sample of the whole space.
  Shuffle(&in.fresh, &rng);
  std::stable_sort(in.fresh.begin(), in.fresh.end(),
                   [](const Query& a, const Query& b) {
                     const Timestamp la = a.range.end - a.range.start;
                     const Timestamp lb = b.range.end - b.range.start;
                     return la != lb ? la < lb : a.k < b.k;
                   });
  std::vector<std::vector<Query>> hands(kHands);
  for (size_t i = 0; i < in.fresh.size(); ++i) {
    hands[i % kHands].push_back(in.fresh[i]);
  }
  in.fresh.clear();
  for (std::vector<Query>& hand : hands) {
    Shuffle(&hand, &rng);
    in.fresh.insert(in.fresh.end(), hand.begin(), hand.end());
  }

  if (def.keys == KeyMix::kZipf) {
    in.hot_without_core = std::min<uint32_t>(
        kHotKeysWithoutCore, static_cast<uint32_t>(without_core.size()));
    in.hot.assign(without_core.begin(),
                  without_core.begin() + in.hot_without_core);
    in.hot.insert(in.hot.end(), in.fresh.begin(),
                  in.fresh.begin() + (kHotKeys - in.hot_without_core));
    Shuffle(&in.hot, &rng);  // which keys are hot is part of the seed
  }

  const size_t num_ticks =
      static_cast<size_t>(std::ceil(seconds / def.tick_period_s));
  // The stream clock of kNewEdges: three ticks in four land on the newest
  // existing raw timestamp, every fourth mints the next one.
  uint64_t newest = g.RawTimestamp(tmax);
  for (size_t i = 0; i < num_ticks; ++i) {
    std::vector<RawTemporalEdge> tick;
    if ((i + 1) % 4 == 0) ++newest;
    for (uint32_t j = 0; j < kTickEdges; ++j) {
      if (def.ticks == TickKind::kRedelivered) {
        const TemporalEdge& e =
            g.edge(static_cast<EdgeId>(rng.NextBounded(g.num_edges())));
        tick.push_back(RawTemporalEdge{e.u, e.v, g.RawTimestamp(e.t)});
        continue;
      }
      RawTemporalEdge e;
      e.u = static_cast<VertexId>(rng.NextBounded(g.num_vertices()));
      do {
        e.v = static_cast<VertexId>(rng.NextBounded(g.num_vertices()));
      } while (e.v == e.u);
      e.raw_time = newest;
      tick.push_back(e);
    }
    in.ticks.push_back(std::move(tick));
  }
  return in;
}

}  // namespace tkc::e2e
