// Epoch-loop throughput of the detection engine itself — not the sweep
// harness. Each (method, users) cell is re-run under a 1/2/4/8-thread
// global pool; the alert stream, CommStats, rebuild counts and the
// deterministic metrics digest must be bit-exact across thread counts (the
// run aborts otherwise), and only wall-clock may improve. The parallel
// paths measured are the SafeRegionExitPhase / MatchRegionPhase /
// PerEpochPairCheck scans, the Naive O(edges) distance scan and the
// resolve phase's region builds.
//
// Two same-process A/B sections follow the sweep:
//  - simd_gate: Stripe+KF single-thread, the dispatched SIMD backend
//    against the same detector forced onto the scalar reference, in
//    interleaved repeats. The median scalar/dispatched time ratio must be
//    at least kSimdSpeedupFloor; otherwise the bench still writes every
//    row, with the gate row marked failed, and exits non-zero. Skipped in
//    quick mode and when no vector backend is active.
//  - resolve_scaling: Stripe+KF epochs/s at 1, 2 and 4 threads, in
//    interleaved repeats (medians). Recorded, not gated.
//
// Emits BENCH_detector.json (PROXDET_BENCH_JSON: "0" disables, unset/"1"
// writes to the current directory, anything else is the target directory).
// PROXDET_QUICK=1 shrinks to smoke-test size; PROXDET_BENCH_FULL=1 adds
// the 100k-user point.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench_support/bench_json.h"
#include "bench_support/obs_artifacts.h"
#include "common/stats.h"
#include "common/timer.h"
#include "core/events.h"
#include "core/simulation.h"
#include "geom/simd/simd.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"

namespace proxdet {
namespace {

struct Row {
  Method method = Method::kNaive;
  size_t users = 0;
  int epochs = 0;
  unsigned threads = 0;
  double run_seconds = 0.0;
  double epochs_per_second = 0.0;
  double epochs_per_core = 0.0;  // epochs_per_second / threads.
  double speedup_vs_1t = 1.0;
  // Per-phase wall-clock split of the run (Detector::phase_times()):
  // match-region scan, safe-region exit scan, per-epoch pair check, and
  // the resolve/rebuild queue (probes + region builds).
  double match_region_seconds = 0.0;
  double exit_check_seconds = 0.0;
  double pair_check_seconds = 0.0;
  double rebuild_seconds = 0.0;
  uint64_t total_io = 0;
  uint64_t rebuild_count = 0;
  size_t alert_count = 0;
  bool alerts_exact = false;
};

// The SIMD gate: the dispatched backend must run Stripe+KF at least this
// much faster than the scalar reference, as the median over
// kAbRepeats interleaved same-process repeats.
constexpr double kSimdSpeedupFloor = 1.5;
constexpr int kAbRepeats = 5;

struct SimdGateRow {
  size_t users = 0;
  std::string backend;
  double dispatched_epochs_per_second = 0.0;  // Median over repeats.
  double scalar_epochs_per_second = 0.0;      // Median over repeats.
  std::vector<double> ratios;  // scalar / dispatched Run time, per repeat.
  double median_ratio = 0.0;
};

struct ScalingRow {
  size_t users = 0;
  unsigned threads = 0;
  double epochs_per_second = 0.0;  // Median over repeats.
  double speedup_vs_1t = 1.0;      // Ratio of the medians.
};

/// One timed Run of an already-built detector. Aborts the bench when the
/// alert stream leaves the oracle or the message totals move: a backend or
/// thread count may only change wall-clock.
double TimedRun(Detector& detector, const Workload& workload,
                uint64_t expect_io, const char* what) {
  WallTimer timer;
  detector.Run(workload.world);
  const double seconds = timer.ElapsedSeconds();
  if (detector.SortedAlerts() != workload.GroundTruth() ||
      detector.stats().TotalMessages() != expect_io) {
    std::fprintf(stderr, "FATAL: %s changed the run's outputs.\n", what);
    std::exit(1);
  }
  return seconds;
}

WorkloadConfig DetectorConfig(size_t users, int epochs) {
  WorkloadConfig config;
  config.dataset = DatasetKind::kTruck;
  config.num_users = users;
  config.epochs = epochs;
  config.speed_steps = 8;
  config.avg_friends = 30.0;     // Paper default F.
  config.alert_radius_m = 6000.0;  // Paper default r.
  config.seed = 20180416;
  // Predictor training happens outside the timed Run(); keep it modest so
  // the bench spends its time in the epoch loop under test.
  config.training_users = 40;
  config.training_epochs = 120;
  return config;
}

std::string WriteJson(const std::vector<Row>& rows,
                      const std::vector<SimdGateRow>& gate,
                      const std::vector<ScalingRow>& scaling) {
  const std::string path = BenchJsonPath("BENCH_detector.json");
  if (path.empty()) return "";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return "";
  }
  std::fprintf(f, "{\n  \"figure\": \"detector\",\n  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        f,
        "    {\"method\": \"%s\", \"users\": %zu, \"epochs\": %d, "
        "\"threads\": %u, \"run_seconds\": %.6f, "
        "\"epochs_per_second\": %.3f, \"epochs_per_core\": %.3f, "
        "\"speedup_vs_1t\": %.3f, "
        "\"match_region_seconds\": %.6f, \"exit_check_seconds\": %.6f, "
        "\"pair_check_seconds\": %.6f, \"rebuild_seconds\": %.6f, "
        "\"total_io\": %llu, \"rebuild_count\": %llu, "
        "\"alert_count\": %zu, \"alerts_exact\": %s}%s\n",
        MethodName(r.method).c_str(), r.users, r.epochs, r.threads,
        r.run_seconds, r.epochs_per_second, r.epochs_per_core,
        r.speedup_vs_1t, r.match_region_seconds, r.exit_check_seconds,
        r.pair_check_seconds, r.rebuild_seconds,
        static_cast<unsigned long long>(r.total_io),
        static_cast<unsigned long long>(r.rebuild_count), r.alert_count,
        r.alerts_exact ? "true" : "false",
        i + 1 == rows.size() ? "" : ",");
  }
  std::fprintf(f, "  ],\n  \"simd_gate\": [\n");
  for (size_t i = 0; i < gate.size(); ++i) {
    const SimdGateRow& g = gate[i];
    std::string ratios;
    for (const double r : g.ratios) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%s%.3f", ratios.empty() ? "" : ", ",
                    r);
      ratios += buf;
    }
    std::fprintf(
        f,
        "    {\"method\": \"Stripe+KF\", \"users\": %zu, \"threads\": 1, "
        "\"backend\": \"%s\", \"repeats\": %zu, "
        "\"dispatched_epochs_per_second\": %.3f, "
        "\"scalar_epochs_per_second\": %.3f, \"ratios\": [%s], "
        "\"median_ratio\": %.3f, \"floor\": %.2f, \"passed\": %s}%s\n",
        g.users, g.backend.c_str(), g.ratios.size(),
        g.dispatched_epochs_per_second, g.scalar_epochs_per_second,
        ratios.c_str(), g.median_ratio, kSimdSpeedupFloor,
        g.median_ratio >= kSimdSpeedupFloor ? "true" : "false",
        i + 1 == gate.size() ? "" : ",");
  }
  std::fprintf(f, "  ],\n  \"resolve_scaling\": [\n");
  for (size_t i = 0; i < scaling.size(); ++i) {
    const ScalingRow& r = scaling[i];
    std::fprintf(f,
                 "    {\"method\": \"Stripe+KF\", \"users\": %zu, "
                 "\"threads\": %u, \"repeats\": %d, "
                 "\"epochs_per_second\": %.3f, \"speedup_vs_1t\": %.3f}%s\n",
                 r.users, r.threads, kAbRepeats, r.epochs_per_second,
                 r.speedup_vs_1t, i + 1 == scaling.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return path;
}

/// The same-process A/B sections on one sweep point: the SIMD ratio gate
/// and the resolve thread scaling. Returns false when the gate failed; the
/// caller still records every row before it exits non-zero.
bool RunAbSections(const Workload& workload, size_t ab_users, int epochs,
                   bool quick, std::vector<SimdGateRow>* gate,
                   std::vector<ScalingRow>* scaling) {
  const std::unique_ptr<Detector> detector =
      MakeDetector(Method::kStripeKf, workload);
  ThreadPool::SetGlobalThreads(1);
  detector->Run(workload.world);  // Warm-up; fixes the reference totals.
  const uint64_t io = detector->stats().TotalMessages();

  bool gate_ok = true;
  const simd::Backend dispatched = simd::ActiveBackend();
  if (!quick && dispatched != simd::Backend::kScalar) {
    // Scalar-only builds (-DPROXDET_SIMD=OFF, or a self-check fallback)
    // have nothing to compare; the bit-exactness checks cover them.
    SimdGateRow g;
    g.users = ab_users;
    g.backend = simd::BackendName(dispatched);
    std::vector<double> fast_eps, scalar_eps;
    for (int rep = 0; rep < kAbRepeats; ++rep) {
      // Alternate which backend goes first, so drift favours neither.
      double fast = 0.0, scalar = 0.0;
      for (int leg = 0; leg < 2; ++leg) {
        const bool scalar_leg = (leg == 0) == (rep % 2 == 1);
        simd::SetActiveBackendForTest(scalar_leg ? simd::Backend::kScalar
                                                 : dispatched);
        (scalar_leg ? scalar : fast) =
            TimedRun(*detector, workload, io, "the SIMD backend");
      }
      fast_eps.push_back(epochs / fast);
      scalar_eps.push_back(epochs / scalar);
      g.ratios.push_back(scalar / fast);
    }
    simd::SetActiveBackendForTest(dispatched);
    g.dispatched_epochs_per_second = Quantile(fast_eps, 0.5);
    g.scalar_epochs_per_second = Quantile(scalar_eps, 0.5);
    g.median_ratio = Quantile(g.ratios, 0.5);
    std::printf("simd gate: Stripe+KF %zu users 1 thread  %s %.2f vs scalar "
                "%.2f epochs/s  median ratio %.2fx (floor %.2fx)\n",
                ab_users, g.backend.c_str(), g.dispatched_epochs_per_second,
                g.scalar_epochs_per_second, g.median_ratio,
                kSimdSpeedupFloor);
    gate->push_back(g);
    if (g.median_ratio < kSimdSpeedupFloor) {
      std::fprintf(stderr,
                   "FATAL: the %s backend ran Stripe+KF only %.2fx faster "
                   "than scalar at %zu users (median of %d interleaved "
                   "repeats; floor %.2fx).\n",
                   g.backend.c_str(), g.median_ratio, ab_users, kAbRepeats,
                   kSimdSpeedupFloor);
      gate_ok = false;
    }
  }

  const std::vector<unsigned> scaling_threads = {1, 2, 4};
  std::vector<std::vector<double>> eps(scaling_threads.size());
  for (int rep = 0; rep < kAbRepeats; ++rep) {
    for (size_t k = 0; k < scaling_threads.size(); ++k) {
      // Rotate the start so no thread count always runs first.
      const size_t i = (k + static_cast<size_t>(rep)) % scaling_threads.size();
      ThreadPool::SetGlobalThreads(scaling_threads[i]);
      eps[i].push_back(epochs /
                       TimedRun(*detector, workload, io, "the thread count"));
    }
  }
  for (size_t i = 0; i < scaling_threads.size(); ++i) {
    ScalingRow r;
    r.users = ab_users;
    r.threads = scaling_threads[i];
    r.epochs_per_second = Quantile(eps[i], 0.5);
    r.speedup_vs_1t = r.epochs_per_second / Quantile(eps[0], 0.5);
    std::printf("resolve scaling: Stripe+KF %zu users  %u thread%s  %.2f "
                "epochs/s  (%.2fx)\n",
                ab_users, r.threads, r.threads == 1 ? " " : "s",
                r.epochs_per_second, r.speedup_vs_1t);
    scaling->push_back(r);
  }
  return gate_ok;
}

int Main() {
  const bool quick = QuickMode();
  const bool full = [] {
    const char* v = std::getenv("PROXDET_BENCH_FULL");
    return v != nullptr && std::strcmp(v, "0") != 0;
  }();
  std::vector<size_t> user_sweep;
  if (quick) {
    user_sweep = {1000};
  } else {
    user_sweep = {10000, 30000};
    if (full) user_sweep.push_back(100000);
  }
  const int epochs = quick ? 10 : 30;
  const std::vector<Method> methods = {Method::kNaive, Method::kCmd,
                                       Method::kStripeKf};
  const std::vector<unsigned> thread_sweep = {1, 2, 4, 8};

  std::vector<Row> rows;
  std::vector<SimdGateRow> gate;
  std::vector<ScalingRow> scaling;
  bool gates_ok = true;
  for (const size_t users : user_sweep) {
    std::printf("building %zu-user workload (%d epochs)...\n", users, epochs);
    std::fflush(stdout);
    const Workload workload = BuildWorkload(DetectorConfig(users, epochs));
    for (const Method method : methods) {
      Row baseline;
      std::string baseline_digest;
      for (const unsigned threads : thread_sweep) {
        ThreadPool::SetGlobalThreads(threads);
        // Fresh detector per cell: CMD's self-tuning multipliers persist
        // across Run() calls, and training under the cell's own pool keeps
        // every cell self-contained (training is deterministic per the
        // engine contract, so cells differ only in wall-clock).
        const std::unique_ptr<Detector> detector =
            MakeDetector(method, workload);
        obs::Metrics().Reset();  // Scope the registry to this cell.
        WallTimer timer;
        detector->Run(workload.world);
        const std::string metrics_digest =
            obs::Metrics().Snapshot().DeterministicDigest();
        Row row;
        row.method = method;
        row.users = users;
        row.epochs = epochs;
        row.threads = threads;
        row.run_seconds = timer.ElapsedSeconds();
        row.epochs_per_second =
            row.run_seconds > 0.0 ? epochs / row.run_seconds : 0.0;
        row.epochs_per_core = row.epochs_per_second / threads;
        const Detector::PhaseTimes& phases = detector->phase_times();
        row.match_region_seconds = phases.match_region;
        row.exit_check_seconds = phases.exit_check;
        row.pair_check_seconds = phases.pair_check;
        row.rebuild_seconds = phases.rebuild;
        row.total_io = detector->stats().TotalMessages();
        const std::vector<AlertEvent> alerts = detector->SortedAlerts();
        row.alert_count = alerts.size();
        row.alerts_exact = alerts == workload.GroundTruth();
        if (const auto* rd =
                dynamic_cast<const RegionDetector*>(detector.get())) {
          row.rebuild_count = rd->rebuild_count();
        }
        if (!row.alerts_exact) {
          std::fprintf(stderr,
                       "FATAL: %s deviated from ground truth at %u threads "
                       "(%zu users) — the engine broke the correctness "
                       "contract.\n",
                       MethodName(method).c_str(), threads, users);
          return 1;
        }
        if (threads == 1) {
          baseline = row;
          baseline_digest = metrics_digest;
        } else {
          // Bit-exact determinism across thread counts: everything except
          // wall-clock must match the 1-thread run — including the
          // observability layer's deterministic metrics.
          if (metrics_digest != baseline_digest) {
            std::fprintf(stderr,
                         "FATAL: %s at %u threads produced a different "
                         "deterministic-metrics digest than the 1-thread run "
                         "(%zu users) — observability broke determinism.\n",
                         MethodName(method).c_str(), threads, users);
            return 1;
          }
          const bool identical = row.total_io == baseline.total_io &&
                                 row.alert_count == baseline.alert_count &&
                                 row.rebuild_count == baseline.rebuild_count;
          if (!identical) {
            std::fprintf(stderr,
                         "FATAL: %s at %u threads diverged from the 1-thread "
                         "run (%zu users) — determinism contract broken.\n",
                         MethodName(method).c_str(), threads, users);
            return 1;
          }
          row.speedup_vs_1t = row.run_seconds > 0.0
                                  ? baseline.run_seconds / row.run_seconds
                                  : 0.0;
        }
        rows.push_back(row);
        std::printf(
            "  %-11s %7zu users  %u thread%s  %8.3f s  %7.2f epochs/s  "
            "(%.2fx)  [mr %.2f  exit %.2f  pair %.2f  rebuild %.2f]\n",
            MethodName(method).c_str(), users, threads,
            threads == 1 ? " " : "s", rows.back().run_seconds,
            rows.back().epochs_per_second, rows.back().speedup_vs_1t,
            row.match_region_seconds, row.exit_check_seconds,
            row.pair_check_seconds, row.rebuild_seconds);
        std::fflush(stdout);
      }
    }
    gates_ok &= RunAbSections(workload, users, epochs, quick, &gate,
                              &scaling);
  }
  ThreadPool::SetGlobalThreads(ThreadPool::DefaultThreadCount());
  const std::string json = WriteJson(rows, gate, scaling);
  if (!json.empty()) std::printf("wrote %s\n", json.c_str());
  return gates_ok ? 0 : 1;
}

}  // namespace
}  // namespace proxdet

int main() { return proxdet::Main(); }
