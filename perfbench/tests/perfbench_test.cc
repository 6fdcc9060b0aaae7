// Tests of the benchmark's own code: the percentile rule, self-time
// subtraction, metric-name validation and bit-exact forwarding of the
// layer decorators.

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/simulation.h"
#include "exec/thread_pool.h"
#include "layers.h"
#include "metrics.h"
#include "net/transport.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(n - i));
  return v;
}

TEST(PercentileTest, P90IsWithheldBelowOneHundredSamples) {
  EXPECT_FALSE(P90({}).has_value());
  EXPECT_FALSE(P90(Ramp(kMinP90Samples - 1)).has_value());
  ASSERT_TRUE(P90(Ramp(kMinP90Samples)).has_value());
  // Samples 1..100: the 0.9 quantile interpolates between 90 and 91.
  EXPECT_DOUBLE_EQ(*P90(Ramp(100)), 90.1);
}

TEST(PercentileTest, QuantilesInterpolateOverTheSortedSample) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(Quantile({5.0}, 0.9), 5.0);
  EXPECT_DOUBLE_EQ(Quantile({1.0, 2.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile({1.0, 2.0}, 1.0), 2.0);
}

void Spin(std::chrono::microseconds d) {
  const Clock::time_point until = Clock::now() + d;
  while (Clock::now() < until) {
  }
}

TEST(LayerSpanTest, SelfTimeExcludesNestedSpans) {
  LayerClock parent;
  LayerClock child;
  LayerClock grandchild;
  {
    LayerSpan p(parent);
    Spin(std::chrono::microseconds(200));
    for (int i = 0; i < 3; ++i) {
      LayerSpan c(child);
      Spin(std::chrono::microseconds(100));
      LayerSpan g(grandchild);
      Spin(std::chrono::microseconds(50));
    }
  }
  EXPECT_EQ(parent.calls(), 1u);
  EXPECT_EQ(child.calls(), 3u);
  // Subtraction is exact in integer nanoseconds at every level.
  EXPECT_EQ(parent.self_ns() + child.total_ns(), parent.total_ns());
  EXPECT_EQ(child.self_ns() + grandchild.total_ns(), child.total_ns());
  EXPECT_EQ(grandchild.self_ns(), grandchild.total_ns());
  EXPECT_GE(parent.self_ns(), 200000);
  EXPECT_GE(child.self_ns(), 300000);
}

TEST(LayerSpanTest, SiblingSpansAfterANestedOneStartClean) {
  LayerClock outer;
  LayerClock inner;
  { LayerSpan a(inner); }
  {
    LayerSpan o(outer);
    Spin(std::chrono::microseconds(50));
  }
  // The earlier top-level span must not be charged to the later one.
  EXPECT_EQ(outer.self_ns(), outer.total_ns());
}

TEST(LayerSpanTest, ConcurrentSpansAccumulateEveryCall) {
  LayerClock parent;
  LayerClock child;
  constexpr int kThreads = 4;
  constexpr int kCalls = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kCalls; ++i) {
        LayerSpan p(parent);
        LayerSpan c(child);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(parent.calls(), static_cast<uint64_t>(kThreads * kCalls));
  EXPECT_EQ(child.calls(), static_cast<uint64_t>(kThreads * kCalls));
  // Nesting is per thread, so the identity holds for the sums too.
  EXPECT_EQ(parent.self_ns() + child.total_ns(), parent.total_ns());
}

TEST(MetricNameTest, AcceptsOnlyTheContractAlphabet) {
  EXPECT_TRUE(ValidMetricName("setup_s"));
  EXPECT_TRUE(ValidMetricName("net.link.end_epoch_share"));
  EXPECT_TRUE(ValidMetricName("9lives-x"));
  EXPECT_TRUE(ValidMetricName(std::string(64, 'a')));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
  EXPECT_FALSE(ValidMetricName("_leading"));
  EXPECT_FALSE(ValidMetricName(".leading"));
  EXPECT_FALSE(ValidMetricName("has space"));
  EXPECT_FALSE(ValidMetricName("slash/name"));
  EXPECT_FALSE(ValidMetricName("quote\""));
  EXPECT_TRUE(ValidUnit("count/user-epoch"));
  EXPECT_TRUE(ValidUnit("%"));
  EXPECT_FALSE(ValidUnit("seconds per epoch"));
  EXPECT_FALSE(ValidUnit("count/user-epochs"));  // 17 characters.
}

TEST(CpuTicksTest, StolenShareIsStealOverBusyTime) {
  const CpuTicks a = ParseCpuTicks("cpu  100 5 20 900 3 1 2 10 0 0");
  EXPECT_EQ(a.busy, 138u);  // user + nice + system + irq + softirq + steal.
  EXPECT_EQ(a.steal, 10u);
  const CpuTicks b = ParseCpuTicks("cpu  160 5 30 990 9 1 2 30 0 0");
  EXPECT_DOUBLE_EQ(StolenShare(a, b), 20.0 / 90.0);  // Idle, iowait left out.
  EXPECT_EQ(StolenShare(a, a), 0.0);
  EXPECT_EQ(ParseCpuTicks("cpu0 1 2 3 4 5 6 7 8").busy, 0u);
  EXPECT_EQ(ParseCpuTicks("cpu  1 2 3").busy, 0u);
}

TEST(MetricSetTest, RejectsBadNamesRepeatsAndNonFiniteValues) {
  MetricSet m;
  EXPECT_TRUE(m.Add("a", "s", 1.5));
  EXPECT_FALSE(m.Add("a", "s", 2.0));
  EXPECT_FALSE(m.Add("b c", "s", 1.0));
  EXPECT_FALSE(m.Add("b", "s", std::numeric_limits<double>::quiet_NaN()));
  EXPECT_FALSE(m.Add("b", "s", std::numeric_limits<double>::infinity()));
  EXPECT_TRUE(m.Add("b", "count", 0.1));
  EXPECT_EQ(ResultJson(true, 3, 0, m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
            "\"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, "
            "\"b\": {\"value\": 0.10000000000000001, \"unit\": \"count\"}}}");
}

// Small versions of the benchmark's workloads: same methods, scenarios and
// transport, a few hundred users.
std::vector<WorkloadDef> TinyDefs() {
  std::vector<WorkloadDef> defs;
  for (WorkloadDef def : Workloads()) {
    def.users = 300;
    def.epochs = 16;
    defs.push_back(def);
  }
  return defs;
}

class ForwardingTest : public ::testing::TestWithParam<WorkloadDef> {
 protected:
  void SetUp() override { proxdet::ThreadPool::SetGlobalThreads(4); }
  void TearDown() override { proxdet::ThreadPool::SetGlobalThreads(1); }
};

TEST_P(ForwardingTest, DecoratedRunEqualsPlainRunAndTheLibraryPath) {
  const WorkloadDef& def = GetParam();
  BenchWorkload bench = BuildBenchWorkload(def, 7);
  const proxdet::World& world = bench.workload.world;
  std::vector<proxdet::AlertEvent> oracle = world.GroundTruthAlerts();
  proxdet::SortAlerts(&oracle);
  ASSERT_FALSE(oracle.empty());

  std::unique_ptr<proxdet::Detector> plain =
      MakePlainDetector(def, bench.workload);
  bench.stream->ClearBoundaries();
  // `ran` is called once, when Detector::Run has returned: every epoch has
  // been stamped already.
  int ran_calls = 0;
  const auto ran = [&] {
    ++ran_calls;
    EXPECT_EQ(bench.stream->Boundaries().size(),
              static_cast<size_t>(def.epochs));
  };
  const RunOutput plain_out = RunPlain(*plain, world, ran);
  EXPECT_EQ(ran_calls, 1);
  EXPECT_EQ(plain_out.alerts, oracle);

  TracedDetector traced = MakeTracedDetector(def, bench.workload);
  TimedLink link;
  const int64_t traj0 = bench.stream->clock().total_ns();
  bench.stream->ClearBoundaries();
  const RunOutput traced_out = RunTraced(def, traced, world, link, ran);
  EXPECT_EQ(ran_calls, 2);
  EXPECT_EQ(CompareOutputs(plain_out, traced_out), "");
  EXPECT_GT(bench.stream->clock().total_ns(), traj0);
  if (traced.policy != nullptr) {
    EXPECT_EQ(traced.policy->clock().calls(), traced_out.rebuilds);
  }
  if (def.method == proxdet::Method::kStripeKf) {
    ASSERT_NE(traced.predictor, nullptr);
    EXPECT_GT(traced.predictor->clock().calls(), 0u);
  }
  if (def.transported) {
    EXPECT_EQ(link.clock(TimedLink::kEndEpoch).calls(),
              static_cast<uint64_t>(def.epochs));
    EXPECT_TRUE(traced_out.net->codec_exact);
    EXPECT_FALSE(traced_out.net->failed);
  }

  // The benchmark's workload assembly reproduces the library's own
  // BuildScenarioWorkload + RunMethod / RunTransportedMethod.
  proxdet::ScenarioWorkloadConfig config;
  config.scenario.kind = def.scenario;
  config.scenario.num_users = def.users;
  config.scenario.epochs = def.epochs;
  config.scenario.seed = 7;
  const proxdet::Workload library = proxdet::BuildScenarioWorkload(config);
  proxdet::RunResult result;
  if (def.transported) {
    const proxdet::net::TransportedRunResult tr =
        proxdet::net::RunTransportedMethod(def.method, library,
                                           TransportConfig());
    result = tr.run;
    EXPECT_EQ(tr.net.schedule_hash, plain_out.net->schedule_hash);
  } else {
    result = proxdet::RunMethod(def.method, library);
  }
  EXPECT_TRUE(result.alerts_exact);
  EXPECT_EQ(result.stats, plain_out.stats);
  EXPECT_EQ(result.rebuild_count, plain_out.rebuilds);
  EXPECT_EQ(result.alert_count, plain_out.alerts.size());
}

// A cold probe's World: the workload's first epochs, run by the same
// detector assembly, give the full workload's alerts of those epochs.
TEST_P(ForwardingTest, ShortWorldRunsTheWorkloadsFirstEpochs) {
  const WorkloadDef& def = GetParam();
  BenchWorkload full = BuildBenchWorkload(def, 7);
  std::vector<proxdet::AlertEvent> prefix =
      full.workload.world.GroundTruthAlerts();
  proxdet::SortAlerts(&prefix);
  const int epochs = 2;
  prefix.erase(std::find_if(prefix.begin(), prefix.end(),
                            [&](const proxdet::AlertEvent& a) {
                              return a.epoch >= epochs;
                            }),
               prefix.end());
  ASSERT_FALSE(prefix.empty());

  BenchWorkload probe = BuildBenchWorkload(def, 7, epochs);
  const proxdet::World& world = probe.workload.world;
  ASSERT_EQ(world.epochs(), epochs);
  std::vector<proxdet::AlertEvent> oracle = world.GroundTruthAlerts();
  proxdet::SortAlerts(&oracle);
  EXPECT_EQ(oracle, prefix);
  std::unique_ptr<proxdet::Detector> detector =
      MakePlainDetector(def, probe.workload);
  probe.stream->ClearBoundaries();
  const RunOutput out = RunPlain(*detector, world, [] {});
  EXPECT_EQ(out.alerts, prefix);
  EXPECT_EQ(probe.stream->Boundaries().size(), static_cast<size_t>(epochs));

  EXPECT_THROW(BuildBenchWorkload(def, 7, 0), std::invalid_argument);
  EXPECT_THROW(BuildBenchWorkload(def, 7, def.epochs + 1),
               std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(Workloads, ForwardingTest,
                         ::testing::ValuesIn(TinyDefs()),
                         [](const ::testing::TestParamInfo<WorkloadDef>& i) {
                           return i.param.name;
                         });

TEST(InstanceSeedTest, InstanceZeroIsTheSeedAndInstancesDiffer) {
  EXPECT_EQ(InstanceSeed(101, 0), 101u);
  std::vector<uint64_t> seeds;
  for (uint64_t seed = 101; seed <= 110; ++seed) {
    for (int i = 0; i < 8; ++i) seeds.push_back(InstanceSeed(seed, i));
  }
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
}

TEST(TimedPredictorTest, ConcurrentPredictCallsAreAllCounted) {
  TimedPredictor predictor(
      proxdet::MakePredictor(proxdet::PredictorKind::kKalman, 1.0, 1));
  proxdet::ThreadPool pool(4);
  const std::vector<proxdet::Vec2> window = {{0, 0}, {1, 1}, {2, 2}};
  std::vector<std::vector<proxdet::Vec2>> out(500);
  proxdet::ParallelFor(pool, out.size(), [&](size_t i) {
    out[i] = predictor.Predict(window, 5);
  });
  EXPECT_EQ(predictor.clock().calls(), out.size());
  auto reference =
      proxdet::MakePredictor(proxdet::PredictorKind::kKalman, 1.0, 1);
  const std::vector<proxdet::Vec2> expected = reference->Predict(window, 5);
  for (const auto& o : out) {
    ASSERT_EQ(o.size(), expected.size());
    for (size_t k = 0; k < o.size(); ++k) {
      EXPECT_EQ(o[k].x, expected[k].x);
      EXPECT_EQ(o[k].y, expected[k].y);
    }
  }
}

}  // namespace
}  // namespace perfbench
