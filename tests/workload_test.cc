#include "workload/query_workload.h"

#include <gtest/gtest.h>

#include "datasets/generators.h"
#include "graph/graph_stats.h"
#include "graph/window_peeler.h"
#include "util/thread_pool.h"

namespace tkc {
namespace {

TemporalGraph WorkloadGraph() {
  SyntheticSpec spec;
  spec.name = "t";
  spec.num_vertices = 40;
  spec.num_edges = 800;
  spec.num_timestamps = 200;
  spec.burstiness = 0.3;
  spec.seed = 3;
  return GenerateSynthetic(spec);
}

TEST(DeriveTest, KAndRangeFractions) {
  EXPECT_EQ(DeriveK(20, 0.30), 6u);
  EXPECT_EQ(DeriveK(20, 0.10), 2u);
  EXPECT_EQ(DeriveK(3, 0.10), 2u);  // floor at 2
  EXPECT_EQ(DeriveRangeLength(1000, 0.10), 100u);
  EXPECT_EQ(DeriveRangeLength(5, 0.01), 1u);  // floor at 1
}

TEST(GenerateQueriesTest, EveryQueryContainsACore) {
  TemporalGraph g = WorkloadGraph();
  GraphStats stats = ComputeGraphStats(g);
  WorkloadSpec spec;
  spec.num_queries = 5;
  spec.range_fraction = 0.20;
  auto queries = GenerateQueries(g, stats.kmax, spec);
  ASSERT_TRUE(queries.ok()) << queries.status().ToString();
  ASSERT_EQ(queries->size(), 5u);
  for (const Query& q : *queries) {
    EXPECT_EQ(q.k, DeriveK(stats.kmax, 0.30));
    EXPECT_GE(q.range.start, 1u);
    EXPECT_LE(q.range.end, g.num_timestamps());
    EXPECT_FALSE(ComputeWindowCore(g, q.k, q.range).Empty())
        << "range [" << q.range.start << "," << q.range.end << "]";
  }
}

TEST(GenerateQueriesTest, DeterministicInSeed) {
  TemporalGraph g = WorkloadGraph();
  GraphStats stats = ComputeGraphStats(g);
  WorkloadSpec spec;
  spec.num_queries = 3;
  auto a = GenerateQueries(g, stats.kmax, spec);
  auto b = GenerateQueries(g, stats.kmax, spec);
  ASSERT_TRUE(a.ok() && b.ok());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i].range, (*b)[i].range);
  }
}

TEST(GenerateQueriesTest, ImpossibleKFails) {
  TemporalGraph g = WorkloadGraph();
  WorkloadSpec spec;
  spec.k_fraction = 1.0;
  spec.max_attempts = 5;
  // kmax passed deliberately too high: no range can contain a 100-core.
  auto queries = GenerateQueries(g, 100, spec);
  EXPECT_FALSE(queries.ok());
}

TEST(RunAlgorithmTest, AllKindsAgreeOnCounts) {
  TemporalGraph g = WorkloadGraph();
  GraphStats stats = ComputeGraphStats(g);
  WorkloadSpec spec;
  spec.num_queries = 2;
  spec.range_fraction = 0.15;
  auto queries = GenerateQueries(g, stats.kmax, spec);
  ASSERT_TRUE(queries.ok());
  for (const Query& q : *queries) {
    RunOutcome enum_out = RunAlgorithm(AlgorithmKind::kEnum, g, q);
    RunOutcome base_out = RunAlgorithm(AlgorithmKind::kEnumBase, g, q);
    RunOutcome otcd_out = RunAlgorithm(AlgorithmKind::kOtcd, g, q);
    RunOutcome naive_out = RunAlgorithm(AlgorithmKind::kNaive, g, q);
    ASSERT_TRUE(enum_out.status.ok());
    ASSERT_TRUE(base_out.status.ok());
    ASSERT_TRUE(otcd_out.status.ok());
    ASSERT_TRUE(naive_out.status.ok());
    EXPECT_EQ(enum_out.num_cores, naive_out.num_cores);
    EXPECT_EQ(base_out.num_cores, naive_out.num_cores);
    EXPECT_EQ(otcd_out.num_cores, naive_out.num_cores);
    EXPECT_EQ(enum_out.result_size_edges, naive_out.result_size_edges);
    EXPECT_EQ(otcd_out.result_size_edges, naive_out.result_size_edges);
  }
}

TEST(RunAlgorithmTest, CoreTimeKindReportsSizes) {
  TemporalGraph g = WorkloadGraph();
  GraphStats stats = ComputeGraphStats(g);
  WorkloadSpec spec;
  spec.num_queries = 1;
  auto queries = GenerateQueries(g, stats.kmax, spec);
  ASSERT_TRUE(queries.ok());
  RunOutcome out = RunAlgorithm(AlgorithmKind::kCoreTime, g, (*queries)[0]);
  ASSERT_TRUE(out.status.ok());
  EXPECT_GT(out.vct_size, 0u);
  EXPECT_GT(out.ecs_size, 0u);
  EXPECT_EQ(out.num_cores, 0u);  // the phase enumerates nothing
}

TEST(RunAlgorithmOnQueriesTest, AggregatesAndFlagsTimeouts) {
  TemporalGraph g = WorkloadGraph();
  GraphStats stats = ComputeGraphStats(g);
  WorkloadSpec spec;
  spec.num_queries = 2;
  auto queries = GenerateQueries(g, stats.kmax, spec);
  ASSERT_TRUE(queries.ok());

  AggregateOutcome ok_agg =
      RunAlgorithmOnQueries(AlgorithmKind::kEnum, g, *queries, 0);
  EXPECT_TRUE(ok_agg.completed);
  EXPECT_GT(ok_agg.avg_num_cores, 0.0);

  // An absurdly small limit must report "did not finish".
  AggregateOutcome timeout_agg =
      RunAlgorithmOnQueries(AlgorithmKind::kOtcd, g, *queries, 1e-9);
  EXPECT_FALSE(timeout_agg.completed);
  EXPECT_EQ(timeout_agg.first_error.code(), StatusCode::kTimeout);
}

TEST(RunAlgorithmOnQueriesTest, DuplicatesAreAveragedAsSubmitted) {
  TemporalGraph g = WorkloadGraph();
  GraphStats stats = ComputeGraphStats(g);
  WorkloadSpec spec;
  spec.num_queries = 2;
  spec.seed = 5;
  auto queries = GenerateQueries(g, stats.kmax, spec);
  ASSERT_TRUE(queries.ok());
  // Two distinct answers, one submitted three times: collapsing duplicates
  // (or averaging over distinct queries) would weigh them 1:1, not 3:1.
  Query other = (*queries)[0];
  other.k = 2;
  other.range = g.FullRange();
  const std::vector<Query> batch = {(*queries)[0], other, (*queries)[0],
                                    (*queries)[0]};
  const RunOutcome dup = RunAlgorithm(AlgorithmKind::kEnum, g, batch[0]);
  const RunOutcome single = RunAlgorithm(AlgorithmKind::kEnum, g, other);
  ASSERT_TRUE(dup.status.ok());
  ASSERT_TRUE(single.status.ok());
  ASSERT_NE(dup.num_cores, single.num_cores);

  ThreadPool pool(4);
  AggregateOutcome agg =
      RunAlgorithmOnQueries(AlgorithmKind::kEnum, g, batch, 0, &pool);
  ASSERT_TRUE(agg.completed) << agg.first_error.ToString();
  auto weighted = [](uint64_t dup_value, uint64_t single_value) {
    return (3.0 * static_cast<double>(dup_value) +
            static_cast<double>(single_value)) /
           4.0;
  };
  EXPECT_DOUBLE_EQ(agg.avg_num_cores,
                   weighted(dup.num_cores, single.num_cores));
  EXPECT_DOUBLE_EQ(agg.avg_result_size_edges,
                   weighted(dup.result_size_edges, single.result_size_edges));
  EXPECT_DOUBLE_EQ(agg.avg_vct_size, weighted(dup.vct_size, single.vct_size));
  EXPECT_DOUBLE_EQ(agg.avg_ecs_size, weighted(dup.ecs_size, single.ecs_size));
}

TEST(RunAlgorithmOnQueriesTest, ReportsLowestIndexedErrorInParallel) {
  TemporalGraph g = WorkloadGraph();
  GraphStats stats = ComputeGraphStats(g);
  WorkloadSpec spec;
  spec.num_queries = 3;
  auto queries = GenerateQueries(g, stats.kmax, spec);
  ASSERT_TRUE(queries.ok());
  // Every query fails: the generated ones time out under the 1e-9 s limit,
  // the reversed range is rejected as InvalidArgument. Whichever worker
  // fails first, the aggregate reports the lowest-indexed failure.
  const Query invalid{3, Window{10, 5}};
  std::vector<Query> invalid_last = *queries;
  invalid_last.push_back(invalid);
  std::vector<Query> invalid_first = {invalid};
  invalid_first.insert(invalid_first.end(), queries->begin(), queries->end());

  ThreadPool pool(4);
  for (int rep = 0; rep < 5; ++rep) {
    AggregateOutcome last = RunAlgorithmOnQueries(
        AlgorithmKind::kOtcd, g, invalid_last, 1e-9, &pool);
    EXPECT_FALSE(last.completed);
    EXPECT_EQ(last.first_error.code(), StatusCode::kTimeout);
    AggregateOutcome first = RunAlgorithmOnQueries(
        AlgorithmKind::kOtcd, g, invalid_first, 1e-9, &pool);
    EXPECT_FALSE(first.completed);
    EXPECT_EQ(first.first_error.code(), StatusCode::kInvalidArgument);
  }
}

TEST(AlgorithmNameTest, Names) {
  EXPECT_STREQ(AlgorithmName(AlgorithmKind::kOtcd), "OTCD");
  EXPECT_STREQ(AlgorithmName(AlgorithmKind::kCoreTime), "CoreTime");
  EXPECT_STREQ(AlgorithmName(AlgorithmKind::kEnumBase), "EnumBase");
  EXPECT_STREQ(AlgorithmName(AlgorithmKind::kEnum), "Enum");
  EXPECT_STREQ(AlgorithmName(AlgorithmKind::kNaive), "Naive");
}

}  // namespace
}  // namespace tkc
