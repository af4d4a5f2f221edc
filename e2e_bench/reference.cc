#include "reference.h"

#include <algorithm>
#include <set>
#include <utility>

#include "net/wire_format.h"
#include "trace.h"
#include "util/rng.h"
#include "workload/query_workload.h"

namespace tkc::e2e {
namespace {

std::string Describe(uint64_t version, const Query& q) {
  std::string s = "v";
  s += std::to_string(version);
  s += " k=";
  s += std::to_string(q.k);
  s += " [";
  s += std::to_string(q.range.start);
  s += ",";
  s += std::to_string(q.range.end);
  s += "]";
  return s;
}

void Note(CheckReport* report, std::string note) {
  if (report->notes.size() < 8) report->notes.push_back(std::move(note));
}

bool IsLoadFailure(uint32_t wire_status) {
  const StatusCode code = net::StatusCodeFromWire(wire_status);
  return code == StatusCode::kTimeout ||
         code == StatusCode::kResourceExhausted;
}

}  // namespace

Reference::Reference(const TemporalGraph& initial,
                     const std::vector<std::vector<RawTemporalEdge>>& ticks)
    : distinct_{0} {
  const TemporalGraph* at = &graphs_.emplace(0, initial).first->second;
  for (size_t v = 1; v <= ticks.size(); ++v) {
    StatusOr<GraphUpdate> next = at->AppendEdges(ticks[v - 1]);
    if (!next.ok()) {
      chain_status_ = next.status();
      return;
    }
    if (next->delta.empty()) {
      distinct_.push_back(distinct_.back());
    } else {
      distinct_.push_back(v);
      at = &graphs_.emplace(v, std::move(next->graph)).first->second;
    }
  }
}

StatusOr<const TemporalGraph*> Reference::Graph(uint64_t version) const {
  if (!chain_status_.ok()) return chain_status_;
  if (version >= distinct_.size()) {
    return Status::OutOfRange("version " + std::to_string(version) +
                              " is past the last tick");
  }
  return &graphs_.at(distinct_[version]);
}

CheckReport Reference::Check(const std::vector<Request>& requests,
                             bool check_all, uint64_t seed,
                             ThreadPool* pool) {
  Span span("workload.CheckVerdicts");
  CheckReport report;
  std::vector<std::pair<size_t, size_t>> picks;  // (request, verdict)
  for (size_t r = 0; r < requests.size(); ++r) {
    const Request& req = requests[r];
    if (!req.answered) {
      report.missing += req.queries.size();
      Note(&report, "request never answered: " + req.error);
      continue;
    }
    for (size_t v = 0; v < req.verdicts.size(); ++v) {
      if (!IsLoadFailure(req.verdicts[v].status)) picks.emplace_back(r, v);
    }
  }
  if (!check_all && picks.size() > kCheckSample) {
    Rng rng(seed ^ 0x5bd1e995ULL);
    for (size_t i = 0; i < kCheckSample; ++i) {
      std::swap(picks[i], picks[i + rng.NextBounded(picks.size() - i)]);
    }
    picks.resize(kCheckSample);
  }

  // Reference answers this check needs and no earlier check computed.
  // Keys name a version by the earliest one with the same graph.
  auto key_of = [&](size_t r, size_t v) {
    const uint64_t version = requests[r].snapshot_version;
    return Key{version < distinct_.size() ? distinct_[version] : version,
               requests[r].queries[v]};
  };
  std::vector<Key> keys;
  std::set<Key> checked;
  for (const auto& [r, v] : picks) {
    const Key key = key_of(r, v);
    if (checked.insert(key).second && answers_.count(key) == 0) {
      keys.push_back(key);
    }
  }
  std::vector<const TemporalGraph*> graphs;
  for (const Key& key : keys) {
    StatusOr<const TemporalGraph*> g = Graph(key.version);
    if (!g.ok()) {
      ++report.mismatches;
      Note(&report, Describe(key.version, key.query) + ": " +
                        g.status().ToString());
      return report;
    }
    graphs.push_back(*g);
  }
  std::vector<RunOutcome> computed(keys.size());
  pool->ParallelFor(keys.size(), [&](size_t i, int) {
    computed[i] = RunAlgorithm(AlgorithmKind::kEnum, *graphs[i],
                               keys[i].query);
  });
  for (size_t i = 0; i < keys.size(); ++i) {
    answers_.emplace(keys[i], std::move(computed[i]));
  }
  report.references_run = keys.size();

  for (const auto& [r, v] : picks) {
    const Key key = key_of(r, v);
    const RunOutcome& want = answers_.at(key);
    const Verdict& got = requests[r].verdicts[v];
    ++report.verdicts_checked;
    if (net::StatusCodeFromWire(got.status) != want.status.code() ||
        got.num_cores != want.num_cores ||
        got.result_size_edges != want.result_size_edges ||
        got.vct_size != want.vct_size || got.ecs_size != want.ecs_size) {
      ++report.mismatches;
      Note(&report,
           Describe(key.version, key.query) + ": verdict (cores " +
               std::to_string(got.num_cores) + ", |R| " +
               std::to_string(got.result_size_edges) + ", |VCT| " +
               std::to_string(got.vct_size) + ", |ECS| " +
               std::to_string(got.ecs_size) + ") != reference (cores " +
               std::to_string(want.num_cores) + ", |R| " +
               std::to_string(want.result_size_edges) + ", |VCT| " +
               std::to_string(want.vct_size) + ", |ECS| " +
               std::to_string(want.ecs_size) + ")");
    }
  }

  // The oracle costs O(tmax^2 * m) per query, so only the shortest ranges.
  std::vector<Key> shortest(checked.begin(), checked.end());
  std::stable_sort(shortest.begin(), shortest.end(),
                   [](const Key& a, const Key& b) {
                     return a.query.range.end - a.query.range.start <
                            b.query.range.end - b.query.range.start;
                   });
  shortest.resize(std::min(shortest.size(), kOracleChecks));
  for (const Key& key : shortest) {
    StatusOr<const TemporalGraph*> g = Graph(key.version);
    if (!g.ok()) return report;  // unreachable: resolved above
    const RunOutcome oracle =
        RunAlgorithm(AlgorithmKind::kNaive, **g, key.query);
    const RunOutcome& want = answers_.at(key);
    ++report.oracle_checked;
    if (oracle.status.code() != want.status.code() ||
        oracle.num_cores != want.num_cores ||
        oracle.result_size_edges != want.result_size_edges) {
      ++report.oracle_mismatches;
      Note(&report, Describe(key.version, key.query) +
                        ": oracle disagrees with reference");
    }
  }
  return report;
}

}  // namespace tkc::e2e
