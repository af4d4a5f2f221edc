// The fault-mode differential sweep: every scenario runs with all the
// injection points armed (rebuild.fail, queue.full, dispatch.slow_worker,
// plus an index_io.corrupt_load round trip) and seeded deadlines attached
// to every submission. The contract under fire is weaker than the clean
// sweep's — per query, not per scenario — but still exact: every submitted
// batch terminates, every delivered outcome is either oracle-exact against
// its pinned graph version or carries an explicit Timeout /
// ResourceExhausted / FailedPrecondition verdict, and the updater's
// `applied + failed == submitted` accounting balances after every
// scenario. Registered under the `faults` ctest label; TKC_FAULT_SCENARIOS
// overrides the per-thread-count scenario count.

#include "tests/differential_harness.h"

#include <gtest/gtest.h>

#include <future>

#include "datasets/generators.h"
#include "serve/snapshot.h"
#include "util/fault_injection.h"
#include "util/thread_pool.h"

namespace tkc {
namespace {

/// One rebuild cycle that exhausts its retries by construction, whatever
/// the timing: the paused updater holds one known batch while rebuild.fail
/// is armed to fail every attempt of its cycle, so that batch fails; once
/// disarmed, the next batch lands and health recovers. Returns the
/// engine's failed_updates count.
uint64_t RunScriptedExhaustedCycle(int threads) {
  constexpr int kAttempts = 3;
  TemporalGraph g = GenerateUniformRandom(16, 120, 10, 9);
  ThreadPool pool(threads);
  LiveEngineOptions options;
  options.engine.pool = &pool;
  options.max_rebuild_attempts = kAttempts;
  options.retry_backoff_initial_ms = 0.2;
  options.retry_backoff_max_ms = 2.0;
  auto live = LiveQueryEngine::Create(g, options);
  EXPECT_TRUE(live.ok()) << live.status().ToString();
  if (!live.ok()) return 0;

  (*live)->PauseUpdates();
  std::future<Status> failing = (*live)->ApplyUpdates({{0, 1, 500}});
  {
    // max_fires == attempts: every attempt of the held batch's cycle fails.
    ScopedFault fault(kFaultRebuildFail, FaultSchedule{1.0, 7, kAttempts});
    (*live)->ResumeUpdates();
    EXPECT_FALSE(failing.get().ok());
  }
  const uint64_t failed = (*live)->stats().failed_updates;
  EXPECT_EQ(failed, 1u);
  EXPECT_EQ((*live)->health(), HealthState::kUpdatesFailed);

  EXPECT_TRUE((*live)->ApplyUpdates({{2, 3, 501}}).get().ok());
  EXPECT_EQ((*live)->health(), HealthState::kHealthy);
  return failed;
}

// Fault scenarios are slower than clean ones (injected backoff waits and
// slow-worker sleeps), so sweep fewer by default; CI pins the count.
#ifdef NDEBUG
constexpr uint32_t kDefaultScenarios = 24;
#else
constexpr uint32_t kDefaultScenarios = 6;
#endif

class DifferentialFaultTest : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialFaultTest, EveryOutcomeExactOrExplicitUnderFaults) {
  const int threads = GetParam();
  const uint32_t scenarios =
      DifferentialScenarioCount(kDefaultScenarios, "TKC_FAULT_SCENARIOS");
  uint64_t total_checked = 0;
  uint64_t total_explicit = 0;
  uint64_t total_retries = 0;
  uint64_t total_failed = 0;
  uint64_t total_applied = 0;
  for (uint32_t s = 0; s < scenarios; ++s) {
    DifferentialConfig config;
    config.seed = 9000 + s;
    config.threads = threads;
    config.faults = true;
    DifferentialReport report = RunDifferentialScenario(config);
    ASSERT_EQ(report.mismatches, 0u) << report.first_mismatch;
    EXPECT_GT(report.queries_checked + report.explicit_outcomes, 0u);
    total_checked += report.queries_checked;
    total_explicit += report.explicit_outcomes;
    total_retries += report.rebuild_retries;
    total_failed += report.failed_updates;
    total_applied += report.updates_applied;
  }
  // How many random cycles exhaust their retries depends on timing
  // (coalescing decides how many cycles run), so one scripted cycle makes
  // the exhausted-retries path happen on every run.
  total_failed += RunScriptedExhaustedCycle(threads);
  // The sweep is vacuous unless the faults both bit and were survived:
  // retries happened, some updates still landed, some cycles exhausted
  // their retries, deadlines/shedding produced explicit verdicts, and
  // plenty of outcomes stayed oracle-exact.
  EXPECT_GT(total_retries, 0u);
  EXPECT_GT(total_applied, 0u);
  EXPECT_GT(total_checked, 0u);
  EXPECT_GT(total_failed, 0u);  // some cycles exhaust their retries
  if (scenarios >= 8) {
    EXPECT_GT(total_explicit, 0u);
  }
  RecordProperty("queries_checked", static_cast<int>(total_checked));
  RecordProperty("explicit_outcomes", static_cast<int>(total_explicit));
  RecordProperty("rebuild_retries", static_cast<int>(total_retries));
}

INSTANTIATE_TEST_SUITE_P(Threads, DifferentialFaultTest,
                         ::testing::Values(1, 2, 8));

}  // namespace
}  // namespace tkc
