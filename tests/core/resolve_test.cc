// The resolve phase's output contract: regions are built on the pool but
// committed in queue order, so every observable output equals the serial
// FIFO's. The goldens below were recorded by the serial FIFO resolve loop
// (one build at a time, in queue order) on the same cells; every thread
// count must reproduce them bit-exactly: CommStats, rebuild_count, the
// sorted alert stream, the deterministic obs digest (minus the
// engine.resolve.* window counters, which the serial loop did not have)
// and, for the transported cell, the SimNet schedule hash. Labelled
// `sanitize` (built into proxdet_exec_test), so scripts/check.sh also runs
// it under TSan.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_support/obs_artifacts.h"
#include "core/simulation.h"
#include "exec/thread_pool.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "traj/scenario.h"

namespace proxdet {
namespace {

struct GlobalPoolGuard {
  ~GlobalPoolGuard() {
    ThreadPool::SetGlobalThreads(ThreadPool::DefaultThreadCount());
  }
};

uint64_t Fnv1a(const void* data, size_t n, uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

constexpr uint64_t kFnvOffset = 14695981039346656037ULL;

uint64_t HashAlerts(const std::vector<AlertEvent>& alerts) {
  uint64_t h = kFnvOffset;
  for (const AlertEvent& a : alerts) {
    const int64_t fields[3] = {a.epoch, a.u, a.w};
    h = Fnv1a(fields, sizeof(fields), h);
  }
  return h;
}

/// The deterministic digest without the engine.resolve.* lines: those
/// describe how the resolve phase batched its builds, which the serial
/// loop that recorded the goldens did not report.
uint64_t HashDigest(const std::string& digest) {
  std::istringstream in(digest);
  std::string kept;
  for (std::string line; std::getline(in, line);) {
    if (line.find(" engine.resolve.") != std::string::npos) continue;
    kept += line;
    kept += '\n';
  }
  return Fnv1a(kept.data(), kept.size(), kFnvOffset);
}

struct Golden {
  uint64_t reports, probes, alerts, region_installs, match_installs;
  uint64_t rebuilds;
  uint64_t alert_hash;
  uint64_t digest_hash;
};

std::string Describe(const Golden& g) {
  std::ostringstream out;
  out << "{" << g.reports << "u, " << g.probes << "u, " << g.alerts << "u, "
      << g.region_installs << "u, " << g.match_installs << "u, " << g.rebuilds
      << "u, 0x" << std::hex << g.alert_hash << "ULL, 0x" << g.digest_hash
      << "ULL}";
  return out.str();
}

ScenarioSpec CommuterSpec() {
  ScenarioSpec spec;
  spec.kind = ScenarioKind::kCommuterRush;
  spec.num_users = 400;
  spec.epochs = 16;
  spec.seed = 2018;
  return spec;
}

// Dense and high-degree: many friends rebuild in the same epoch, so the
// resolve phase flushes often on borrowed-region dependencies.
ScenarioSpec FlashCrowdSpec() {
  ScenarioSpec spec;
  spec.kind = ScenarioKind::kFlashCrowd;
  spec.num_users = 160;
  spec.epochs = 16;
  spec.avg_friends = 12.0;
  spec.seed = 2018;
  return spec;
}

Workload BuildCell(const ScenarioSpec& spec) {
  ScenarioWorkloadConfig config;
  config.scenario = spec;
  config.training_users = 12;
  config.training_epochs = 40;
  return BuildScenarioWorkload(config);
}

Golden RunCell(Method method, const Workload& workload,
               std::string* digest = nullptr) {
  obs::Metrics().Reset();
  const std::unique_ptr<Detector> detector = MakeDetector(method, workload);
  detector->Run(workload.world);
  const std::vector<AlertEvent> alerts = detector->SortedAlerts();
  EXPECT_EQ(alerts, workload.GroundTruth()) << MethodName(method);
  const auto* region = dynamic_cast<const RegionDetector*>(detector.get());
  const CommStats& s = detector->stats();
  const std::string d = obs::Metrics().Snapshot().DeterministicDigest();
  if (digest != nullptr) *digest = d;
  return {s.reports,
          s.probes,
          s.alerts,
          s.region_installs,
          s.match_installs,
          region != nullptr ? region->rebuild_count() : 0,
          HashAlerts(alerts),
          HashDigest(d)};
}

void ExpectGolden(Golden want, Golden got, const std::string& what) {
#ifdef PROXDET_OBS_DISABLED
  got.digest_hash = want.digest_hash;  // No digest without the obs layer.
#endif
  const bool same =
      want.reports == got.reports && want.probes == got.probes &&
      want.alerts == got.alerts &&
      want.region_installs == got.region_installs &&
      want.match_installs == got.match_installs &&
      want.rebuilds == got.rebuilds && want.alert_hash == got.alert_hash &&
      want.digest_hash == got.digest_hash;
  EXPECT_TRUE(same) << what << "\n  want " << Describe(want) << "\n  got  "
                    << Describe(got);
}

struct Cell {
  Method method;
  Golden golden;
};

void ExpectCellsAcrossThreads(const ScenarioSpec& spec,
                              const std::vector<Cell>& cells,
                              const std::string& label) {
  GlobalPoolGuard guard;
  const Workload workload = BuildCell(spec);
  for (const Cell& cell : cells) {
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      ThreadPool::SetGlobalThreads(threads);
      ExpectGolden(cell.golden, RunCell(cell.method, workload),
                   MethodName(cell.method) + " on " + label + " @" +
                       std::to_string(threads) + " threads");
    }
  }
}

TEST(ResolveGoldenTest, CommuterRushMatchesSerialFifo) {
  ExpectCellsAcrossThreads(
      CommuterSpec(),
      {
          {Method::kStripeKf,
           {2867u, 345u, 316u, 2739u, 852u, 2739u, 0x83e77e2c9cd59060ULL,
            0xd7a5959ce6ca3403ULL}},
          {Method::kStatic,
           {2976u, 387u, 316u, 2836u, 852u, 2836u, 0x83e77e2c9cd59060ULL,
            0x98524e042b441863ULL}},
          {Method::kCmd,
           {3282u, 574u, 316u, 3162u, 852u, 3162u, 0x83e77e2c9cd59060ULL,
            0xb94042be2a4d9194ULL}},
      },
      "commuter_rush");
}

TEST(ResolveGoldenTest, FlashCrowdHighDegreeMatchesSerialFifo) {
  ExpectCellsAcrossThreads(
      FlashCrowdSpec(),
      {
          {Method::kStripeKf,
           {1812u, 147u, 376u, 1714u, 1028u, 1714u, 0xb3d2f57a819fa2bfULL,
            0xd2c58063d8a7ba53ULL}},
          {Method::kStatic,
           {1866u, 225u, 376u, 1756u, 1028u, 1756u, 0xb3d2f57a819fa2bfULL,
            0xdd86ad081e918ea7ULL}},
          {Method::kCmd,
           {1849u, 193u, 376u, 1735u, 1028u, 1735u, 0xb3d2f57a819fa2bfULL,
            0xb05f9193f265359aULL}},
      },
      "flash_crowd F=12");
}

// Transported, the planner flushes before every link call, so the wire
// carries the serial loop's exact call sequence: same frames, same Rng
// draws, same schedule hash.
TEST(ResolveGoldenTest, TransportedScheduleMatchesSerialFifo) {
  GlobalPoolGuard guard;
  const Workload workload = BuildCell(CommuterSpec());
  net::NetConfig config;
  config.shards = 2;
  config.batch_downlink = true;
  const uint64_t kScheduleHash = 0x23f38ac44a3885f4ULL;
  const uint64_t kBytesUp = 455758u;
  const uint64_t kBytesDown = 235240u;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    ThreadPool::SetGlobalThreads(threads);
    const net::TransportedRunResult r =
        net::RunTransportedMethod(Method::kStripeKf, workload, config);
    const std::string what = "@" + std::to_string(threads) + " threads";
    EXPECT_TRUE(r.run.alerts_exact) << what;
    EXPECT_FALSE(r.net.failed) << what;
    EXPECT_EQ(kScheduleHash, r.net.schedule_hash)
        << what << " measured 0x" << std::hex << r.net.schedule_hash;
    EXPECT_EQ(kBytesUp, r.run.stats.bytes_up) << what;
    EXPECT_EQ(kBytesDown, r.run.stats.bytes_down) << what;
  }
}

// Non-vacuity of the goldens above: the parallel section must actually be
// wider than one build. The engine.resolve.* counters account for every
// build and every flush, land in the RunReport, and show no link flushes
// in-process but some over a transport.
TEST(ResolveWindowTest, CommuterRushBuildsWindowsWiderThanOne) {
#ifdef PROXDET_OBS_DISABLED
  GTEST_SKIP() << "the window counters need the obs layer";
#else
  GlobalPoolGuard guard;
  ThreadPool::SetGlobalThreads(4);
  const Workload workload = BuildCell(CommuterSpec());
  std::string digest;
  const Golden in_process =
      RunCell(Method::kStripeKf, workload, &digest);
  const obs::MetricsSnapshot snap = obs::Metrics().Snapshot();
  const obs::Histogram& window =
      snap.histograms.at("engine.resolve.window").value;
  EXPECT_GT(window.max(), 1.0) << "every flush built a single region";
  EXPECT_EQ(window.sum(), static_cast<double>(in_process.rebuilds));
  const auto flushes = [&](const char* cause) {
    return snap.counters.at(std::string("engine.resolve.flush.") + cause)
        .second;
  };
  EXPECT_EQ(flushes("dependency") + flushes("link") + flushes("cap") +
                flushes("end"),
            window.count());
  EXPECT_EQ(flushes("link"), 0u);
  EXPECT_EQ(flushes("end"), static_cast<uint64_t>(CommuterSpec().epochs));
  EXPECT_NE(digest.find("histogram engine.resolve.window ="),
            std::string::npos);
  const std::string json =
      MakeRunReport("resolve_window", CommStats()).ToJson();
  EXPECT_NE(json.find("\"engine.resolve.window\""), std::string::npos);

  obs::Metrics().Reset();
  net::NetConfig config;
  config.shards = 2;
  const net::TransportedRunResult r =
      net::RunTransportedMethod(Method::kStripeKf, workload, config);
  EXPECT_TRUE(r.run.alerts_exact);
  EXPECT_GT(obs::Metrics()
                .Snapshot()
                .counters.at("engine.resolve.flush.link")
                .second,
            0u);
#endif
}

}  // namespace
}  // namespace proxdet
