#ifndef TKC_E2E_BENCH_REFERENCE_H_
#define TKC_E2E_BENCH_REFERENCE_H_

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "graph/temporal_graph.h"
#include "traffic.h"
#include "util/thread_pool.h"

/// \file reference.h
/// The verdict correctness gate. Every checked verdict is compared with a
/// serial RunAlgorithm(kEnum) — the paper's CoreTime + Enum pipeline, never
/// the serving engine or its index — on the graph of the verdict's
/// snapshot version; the checks with the shortest ranges are also compared
/// with the naive per-window oracle.

namespace tkc::e2e {

struct CheckReport {
  uint64_t verdicts_checked = 0;
  uint64_t references_run = 0;
  uint64_t mismatches = 0;
  uint64_t missing = 0;  ///< queries of requests that were never answered
  uint64_t oracle_checked = 0;
  uint64_t oracle_mismatches = 0;
  std::vector<std::string> notes;  ///< the first few failures, for humans

  bool ok() const {
    return mismatches == 0 && missing == 0 && oracle_mismatches == 0;
  }
};

/// Verdicts checked per run when not checking all of them.
inline constexpr size_t kCheckSample = 64;
/// Checked keys with the shortest ranges, also run through the oracle.
inline constexpr size_t kOracleChecks = 3;

/// The graphs of every snapshot version and the reference answers on them.
/// Version v is numbered as LiveQueryEngine numbers it: the initial graph
/// plus ticks 1..v, rebuilt here one TemporalGraph::AppendEdges per tick.
/// A tick whose delta is empty leaves the graph bit-identical, so its
/// version shares its predecessor's graph and answers.
class Reference {
 public:
  Reference(const TemporalGraph& initial,
            const std::vector<std::vector<RawTemporalEdge>>& ticks);

  /// The graph of `version`. Fails for a version past the last tick, or
  /// when rebuilding the chain failed.
  StatusOr<const TemporalGraph*> Graph(uint64_t version) const;

  /// Checks the verdicts of `requests`: every one when `check_all`, else a
  /// sample of kCheckSample drawn with `seed`. Verdicts the server shed or
  /// timed out (ResourceExhausted, Timeout) are failures, not mismatches;
  /// the caller counts them. Reference answers are computed once per
  /// (version, query), in parallel on `pool`.
  CheckReport Check(const std::vector<Request>& requests, bool check_all,
                    uint64_t seed, ThreadPool* pool);

 private:
  struct Key {
    uint64_t version = 0;
    Query query;
    friend bool operator<(const Key& a, const Key& b) {
      return std::tie(a.version, a.query.k, a.query.range.start,
                      a.query.range.end) <
             std::tie(b.version, b.query.k, b.query.range.start,
                      b.query.range.end);
    }
  };

  Status chain_status_;
  /// distinct_[v]: the earliest version whose graph equals version v's.
  std::vector<uint64_t> distinct_;
  std::map<uint64_t, TemporalGraph> graphs_;  ///< by distinct version
  std::map<Key, RunOutcome> answers_;         ///< keyed by distinct version
};

}  // namespace tkc::e2e

#endif  // TKC_E2E_BENCH_REFERENCE_H_
