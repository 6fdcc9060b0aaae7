// The streaming substrate's correctness contract: at small N, a streaming
// World and its materialized twin (the same per-user seeded streams run
// out to full trajectories up front) are bit-exact — alerts, CommStats,
// rebuild counts and the deterministic obs digest — for every paper
// method, across thread counts in-process and shard counts under the
// transported runner; the heavy-churn scenario additionally pins the
// streaming oracle against the dynamic-graph update machinery, and the
// flash-crowd scenario (also at high degree) is the density-adversarial
// input: clustered users with many close friends. Plus the
// memoized Workload::GroundTruth() regression: concurrent first calls
// (the SweepRunner fan-out shape) must produce one scan and one answer —
// this suite carries the `scale` label so scripts/check.sh runs it under
// -DPROXDET_SANITIZE=thread.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/simulation.h"
#include "core/world.h"
#include "exec/thread_pool.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "traj/scenario.h"

namespace proxdet {
namespace {

ScenarioSpec SmallSpec(ScenarioKind kind) {
  ScenarioSpec spec;
  spec.kind = kind;
  spec.num_users = 32;
  spec.epochs = 20;
  spec.avg_friends = 3.0;
  spec.alert_radius_m = 400.0;
  spec.seed = 1234;
  return spec;
}

Workload BuildSmall(const ScenarioSpec& spec, bool stream) {
  ScenarioWorkloadConfig config;
  config.scenario = spec;
  config.stream = stream;
  config.compute_ground_truth = true;
  config.training_users = 12;
  config.training_epochs = 40;
  return BuildScenarioWorkload(config);
}

Workload BuildSmall(ScenarioKind kind, bool stream) {
  return BuildSmall(SmallSpec(kind), stream);
}

std::string RunWithDigest(Method method, const Workload& workload,
                          RunResult* result) {
  obs::Metrics().Reset();
  *result = RunMethod(method, workload);
  return obs::Metrics().Snapshot().DeterministicDigest();
}

void ExpectSameRun(const RunResult& stream, const RunResult& mat,
                   const std::string& what) {
  EXPECT_TRUE(stream.alerts_exact) << what << ": streaming run != oracle";
  EXPECT_TRUE(mat.alerts_exact) << what << ": materialized run != oracle";
  EXPECT_EQ(stream.alert_count, mat.alert_count) << what;
  EXPECT_TRUE(stream.stats == mat.stats) << what << ": CommStats differ";
  EXPECT_EQ(stream.rebuild_count, mat.rebuild_count) << what;
}

// The three parity checks, shared by the per-scenario suite and the
// high-degree flash-crowd instance below. `label` names the instance in
// failure messages.
void ExpectOraclesAgree(const ScenarioSpec& spec, const std::string& label) {
  const Workload stream = BuildSmall(spec, /*stream=*/true);
  const Workload mat = BuildSmall(spec, /*stream=*/false);
  // The streaming oracle replays the ring via a cloned generator; the
  // materialized one sweeps stored trajectories. Same alert stream, or
  // everything downstream is meaningless.
  EXPECT_EQ(stream.GroundTruth(), mat.GroundTruth());
  EXPECT_FALSE(stream.GroundTruth().empty())
      << "vacuous parity: no alerts at all in " << label;
}

void ExpectAllMethodsAcrossThreads(const ScenarioSpec& spec,
                                   const std::string& label) {
  const Workload stream = BuildSmall(spec, /*stream=*/true);
  const Workload mat = BuildSmall(spec, /*stream=*/false);
  for (const Method method : PaperMethodSet()) {
    for (const unsigned threads : {1u, 4u}) {
      ThreadPool::SetGlobalThreads(threads);
      RunResult rs;
      RunResult rm;
      const std::string ds = RunWithDigest(method, stream, &rs);
      const std::string dm = RunWithDigest(method, mat, &rm);
      const std::string what = MethodName(method) + " @" +
                               std::to_string(threads) + " threads on " +
                               label;
      ExpectSameRun(rs, rm, what);
      EXPECT_EQ(ds, dm) << what << ": obs digests differ";
    }
  }
  ThreadPool::SetGlobalThreads(4);
}

void ExpectAllMethodsAcrossShards(const ScenarioSpec& spec,
                                  const std::string& label) {
  const Workload stream = BuildSmall(spec, /*stream=*/true);
  const Workload mat = BuildSmall(spec, /*stream=*/false);
  for (const Method method : PaperMethodSet()) {
    for (const int shards : {1, 2}) {
      net::NetConfig config;
      config.shards = shards;
      config.batch_downlink = true;
      config.compress_installs = true;
      const net::TransportedRunResult ts =
          net::RunTransportedMethod(method, stream, config);
      const net::TransportedRunResult tm =
          net::RunTransportedMethod(method, mat, config);
      const std::string what = MethodName(method) + " @" +
                               std::to_string(shards) + " shards on " +
                               label;
      ExpectSameRun(ts.run, tm.run, what);
    }
  }
}

class StreamingParityTest : public ::testing::TestWithParam<ScenarioKind> {};

TEST_P(StreamingParityTest, OraclesAgree) {
  ExpectOraclesAgree(SmallSpec(GetParam()), ScenarioName(GetParam()));
}

TEST_P(StreamingParityTest, AllMethodsAcrossThreads) {
  ExpectAllMethodsAcrossThreads(SmallSpec(GetParam()),
                                ScenarioName(GetParam()));
}

TEST_P(StreamingParityTest, AllMethodsAcrossShards) {
  ExpectAllMethodsAcrossShards(SmallSpec(GetParam()),
                               ScenarioName(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, StreamingParityTest,
    ::testing::Values(ScenarioKind::kCommuterRush, ScenarioKind::kFlashCrowd,
                      ScenarioKind::kHeavyChurn, ScenarioKind::kMixedFleet),
    [](const ::testing::TestParamInfo<ScenarioKind>& info) {
      std::string name = ScenarioName(info.param);
      for (char& c : name) {
        if (c == '_') c = 'X';
      }
      return name;
    });

// Density-adversarial instance: the flash crowd at F = 12 packs many
// friends into the event cluster, so many pairs sit near their alert
// radius at the same epochs.
ScenarioSpec FlashCrowdHighDegreeSpec() {
  ScenarioSpec spec = SmallSpec(ScenarioKind::kFlashCrowd);
  spec.avg_friends = 12.0;
  return spec;
}

TEST(FlashCrowdHighDegreeParityTest, OraclesAgree) {
  ExpectOraclesAgree(FlashCrowdHighDegreeSpec(), "flash_crowd F=12");
}

TEST(FlashCrowdHighDegreeParityTest, AllMethodsAcrossThreads) {
  ExpectAllMethodsAcrossThreads(FlashCrowdHighDegreeSpec(),
                                "flash_crowd F=12");
}

TEST(FlashCrowdHighDegreeParityTest, AllMethodsAcrossShards) {
  ExpectAllMethodsAcrossShards(FlashCrowdHighDegreeSpec(), "flash_crowd F=12");
}

// The churn scenario's streaming oracle must agree with the core layer's
// dynamic-graph machinery end to end: run the naive detector (which
// applies GraphUpdates epoch by epoch) on the streaming World and compare
// against the memoized oracle.
TEST(StreamingChurnTest, StreamingOracleMatchesDynamicGraphDetector) {
  const Workload stream = BuildSmall(ScenarioKind::kHeavyChurn, true);
  ASSERT_FALSE(stream.world.scheduled_updates().empty())
      << "heavy churn scheduled no updates; the scenario lost its point";
  const RunResult naive = RunMethod(Method::kNaive, stream);
  EXPECT_TRUE(naive.alerts_exact);
}

// Regression for the memoized GroundTruth(): SweepRunner fans method cells
// across the pool and every cell hits the first GroundTruth() call at the
// same time on dynamic-graph workloads. All callers must observe the same
// fully-built vector (call_once), not a torn or repeated scan. Runs under
// TSan via the `scale` label.
TEST(GroundTruthMemoTest, ConcurrentFirstCallIsSafeAndStable) {
  const Workload workload = BuildSmall(ScenarioKind::kHeavyChurn, true);
  ASSERT_FALSE(workload.world.scheduled_updates().empty());
  const int kCallers = 8;
  std::vector<const std::vector<AlertEvent>*> seen(kCallers, nullptr);
  {
    std::vector<std::thread> callers;
    callers.reserve(kCallers);
    for (int i = 0; i < kCallers; ++i) {
      callers.emplace_back(
          [&workload, &seen, i] { seen[i] = &workload.GroundTruth(); });
    }
    for (std::thread& t : callers) t.join();
  }
  for (int i = 1; i < kCallers; ++i) {
    EXPECT_EQ(seen[i], seen[0]) << "caller " << i << " saw a different cache";
  }
  // And the memo equals a fresh full scan.
  EXPECT_EQ(*seen[0], workload.world.GroundTruthAlerts());
}

// Repeated Run() over the same streaming World must rewind the stream and
// reproduce the run exactly (detectors are documented as re-runnable).
TEST(StreamingWorldTest, RepeatedRunsAreBitExact) {
  const Workload stream = BuildSmall(ScenarioKind::kCommuterRush, true);
  const RunResult first = RunMethod(Method::kCmd, stream);
  const RunResult second = RunMethod(Method::kCmd, stream);
  EXPECT_TRUE(first.alerts_exact);
  EXPECT_TRUE(second.alerts_exact);
  EXPECT_EQ(first.alert_count, second.alert_count);
  EXPECT_TRUE(first.stats == second.stats);
  EXPECT_EQ(first.rebuild_count, second.rebuild_count);
}

}  // namespace
}  // namespace proxdet
