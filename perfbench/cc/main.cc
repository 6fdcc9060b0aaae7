// The repository benchmark: one workload, one seed, one process.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--revision <text>]
//
// --trace 0 measures the end-to-end metrics on plain Runs; --trace 1
// measures the per-layer metrics on Runs whose public seams are wrapped in
// the timing decorators of layers.h, alternating with plain Runs for the
// tracing overhead. Every Run is checked against the ground-truth oracle.
// The last stdout line is the result JSON; the line before it stamps the
// host, build and run settings. Exit status 0 only when every check held.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <ctime>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_support/mem_probe.h"
#include "core/simulation.h"
#include "exec/thread_pool.h"
#include "geom/simd/simd.h"
#include "layers.h"
#include "metrics.h"
#include "workloads.h"

PROXDET_INSTALL_ALLOC_PROBE()

namespace perfbench {
namespace {

// Pool threads: fixed, capped by the host's processors. Two, not all four
// of the 4-vCPU VM the benchmark was tuned on: with four threads busy, steal
// was 12-25% of all CPU ticks and the steady-epoch p50 spread 0.23 (IQR over
// median) over seeds; with two, 6-7% and 0.01 (README.md).
constexpr unsigned kPoolThreads = 2;
// Set-up is repeated at least kMinSetups times and until it has taken
// kSetupSeconds, at most kMaxSetups times; setup_s is the median.
constexpr size_t kMinSetups = 9;
constexpr size_t kMaxSetups = 101;
constexpr double kSetupSeconds = 2.0;
// Measurement stops at this many seconds of Runs even if the p90 pool is
// short (the result then withholds p90 and the run fails).
constexpr double kMaxMeasureSeconds = 120.0;
// Share of --seconds of Run time spent on cold probes (ProbeCold), and the
// epochs of a probe's World: two, so that epoch 0 ends at the epoch-1
// stamp as in a full Run, not when Run returns.
constexpr double kColdProbeShare = 0.35;
constexpr int kProbeEpochs = 2;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string revision = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        args->workload = value;
      } else if (key == "--seed") {
        args->seed = std::stoull(value);
      } else if (key == "--seconds") {
        args->seconds = std::stod(value);
      } else if (key == "--trace") {
        args->trace = std::stoi(value);
      } else if (key == "--revision") {
        args->revision = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0 &&
         (args->trace == 0 || args->trace == 1);
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

CpuTicks ReadCpuTicks() {
  std::ifstream in("/proc/stat");
  std::string line;
  std::getline(in, line);
  return ParseCpuTicks(line);
}

std::string CpuInfoField(const std::string& field) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, field.size(), field) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(std::min(line.size(), colon + 2));
      }
    }
  }
  return "unknown";
}

std::string HostName() {
  char buf[256] = {};
  if (gethostname(buf, sizeof(buf) - 1) != 0) return "unknown";
  return buf;
}

// Per-epoch wall times of one Run from its NextEpoch boundary stamps: epoch
// e runs from the e-th stamp to the next one, the last epoch to the return
// of Detector::Run. The Run's prologue, before the first stamp, is in no
// epoch. The clocks and the heap high-water mark stop when Run returns, so
// collecting the RunOutput afterwards is not counted.
struct TimedRun {
  RunOutput out;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double stolen = 0.0;  // StolenShare over the Run.
  std::vector<double> epoch_s;
  uint64_t heap_peak = 0;
  uint64_t rss_peak = 0;  // VmHWM, reset when the Run starts.
};

// Hands the heap's free pages back to the kernel and resets the process's
// VmHWM to the RSS that is left (Linux 4.0 and later), so that the next read
// gives the peak since now, of memory in use, not of memory the allocator
// kept from earlier Runs and instances.
bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

// `run` runs the detector and calls the function it is given as soon as
// Detector::Run returns (RunPlain / RunTraced).
using RunFn = std::function<RunOutput(const std::function<void()>& ran)>;

TimedRun TimeRun(TimedGenerator& stream, int epochs, const RunFn& run,
                 std::string* error) {
  TimedRun r;
  stream.ClearBoundaries();
  if (!ResetPeakRss()) {
    *error = "cannot reset VmHWM through /proc/self/clear_refs";
    return r;
  }
  proxdet::AllocProbe::ResetPeak();
  const CpuTicks ticks0 = ReadCpuTicks();
  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  std::optional<Clock::time_point> end;
  r.out = run([&] {
    end = Clock::now();
    r.cpu_s = ProcessCpuSeconds() - cpu0;
    r.heap_peak = proxdet::AllocProbe::PeakLiveBytes();
    r.rss_peak = proxdet::PeakRssBytes();
    r.stolen = StolenShare(ticks0, ReadCpuTicks());
  });
  if (!end) {
    *error = "the Run did not report its end";
    return r;
  }
  r.wall_s = Seconds(*end - start);
  std::vector<Clock::time_point> b = stream.Boundaries();
  if (b.size() != static_cast<size_t>(epochs)) {
    *error = "expected one NextEpoch per epoch, got " +
             std::to_string(b.size()) + " for " + std::to_string(epochs);
    return r;
  }
  b.push_back(*end);
  for (size_t e = 0; e + 1 < b.size(); ++e) {
    r.epoch_s.push_back(Seconds(b[e + 1] - b[e]));
  }
  return r;
}

// Raw samples on stderr (for example the per-epoch wall times of the first
// Run, which show where a workload's cost lies along its epochs).
void LogSamples(const std::string& what, const std::vector<double>& samples) {
  std::cerr << "perfbench: " << what << ":";
  for (const double t : samples) std::cerr << " " << t;
  std::cerr << "\n";
}

// Checks one Run's alerts against the oracle (counting misses and spurious
// alerts) and its wire contract. Returns the alert errors; `error` names
// any failure.
uint64_t CheckRun(const RunOutput& out,
                  const std::vector<proxdet::AlertEvent>& oracle,
                  std::string* error) {
  std::vector<proxdet::AlertEvent> missed;
  std::vector<proxdet::AlertEvent> spurious;
  std::set_difference(oracle.begin(), oracle.end(), out.alerts.begin(),
                      out.alerts.end(), std::back_inserter(missed));
  std::set_difference(out.alerts.begin(), out.alerts.end(), oracle.begin(),
                      oracle.end(), std::back_inserter(spurious));
  const uint64_t errors = missed.size() + spurious.size();
  if (errors != 0) {
    *error = std::to_string(missed.size()) + " missed and " +
             std::to_string(spurious.size()) + " spurious alerts";
  } else if (out.net.has_value() && !out.net->codec_exact) {
    *error = "a decoded install differs from the shape sent";
  } else if (out.net.has_value() && out.net->failed) {
    *error = "the transport reported a delivery failure";
  }
  return errors;
}

// Correctness tally of a whole benchmark run.
struct Tally {
  uint64_t attempted = 0;  // Ground-truth alerts checked, summed over Runs.
  uint64_t failed = 0;     // Missed + spurious alerts, plus failed Runs.
  bool correct = true;

  void Fail(const std::string& what) {
    std::cerr << "perfbench: check failed: " << what << "\n";
    correct = false;
  }
  // Folds one checked Run in; `reference` is the first Run's output, which
  // every later Run of the same seed must reproduce exactly.
  void Check(const TimedRun& r, const std::vector<proxdet::AlertEvent>& oracle,
             const RunOutput* reference, const std::string& runtime_error) {
    std::string error;
    attempted += oracle.size();
    const uint64_t errors = CheckRun(r.out, oracle, &error);
    if (error.empty()) error = runtime_error;
    if (error.empty() && reference != nullptr) {
      error = CompareOutputs(*reference, r.out);
    }
    if (!error.empty()) {
      failed += std::max<uint64_t>(errors, 1);
      Fail(error);
    }
  }
};

struct Setting {
  const WorkloadDef* def = nullptr;
  uint64_t seed = 0;
  double seconds = 0.0;
  unsigned threads = 1;
};

std::vector<proxdet::AlertEvent> Oracle(const proxdet::World& world) {
  std::vector<proxdet::AlertEvent> oracle = world.GroundTruthAlerts();
  proxdet::SortAlerts(&oracle);
  return oracle;
}

double PerUserEpoch(double count, const WorkloadDef& def) {
  return count / (static_cast<double>(def.users) * def.epochs);
}

void AddOrFail(MetricSet* metrics, Tally* tally, const std::string& name,
               const std::string& unit, double value) {
  if (!metrics->Add(name, unit, value)) tally->Fail("bad metric " + name);
}

// --- --trace 0: end-to-end metrics from plain Runs -------------------------

// Cold probes of one instance: plain Runs of a World that stops after the
// first kProbeEpochs epochs of the instance's scenario. Detectors read a
// World's epoch count only as their loop bound, so a probe's epoch 0 is the
// full workload's epoch 0, at a fraction of a full Run's cost; it adds
// epoch-0 samples to `cold` until `measured` (probe Run seconds) would pass
// `share_end`, at least one. `oracle_prefix` is the full workload's ground
// truth of those epochs, which the probe World's own oracle must equal.
void ProbeCold(const WorkloadDef& def, uint64_t seed,
               const std::vector<proxdet::AlertEvent>& oracle_prefix,
               double share_end, double* measured, int* probes, Tally* tally,
               std::vector<double>* cold, std::vector<double>* raw) {
  BenchWorkload probe = BuildBenchWorkload(def, seed, kProbeEpochs);
  const proxdet::World& world = probe.workload.world;
  const std::vector<proxdet::AlertEvent> oracle = Oracle(world);
  if (oracle != oracle_prefix) {
    tally->Fail("the probe World's ground truth differs from the workload's");
  }
  std::optional<RunOutput> reference;
  std::vector<double> samples;
  double last_wall = 0.0;
  // One stolen share over all of the instance's probes: a probe is too
  // short for its own /proc/stat ticks to give a steady share.
  const CpuTicks ticks0 = ReadCpuTicks();
  while (!reference || *measured + last_wall <= share_end) {
    std::unique_ptr<proxdet::Detector> detector =
        MakePlainDetector(def, probe.workload);
    std::string error;
    TimedRun r = TimeRun(
        *probe.stream, kProbeEpochs,
        [&](const std::function<void()>& ran) {
          return RunPlain(*detector, world, ran);
        },
        &error);
    detector.reset();
    tally->Check(r, oracle, reference ? &*reference : nullptr, error);
    ++*probes;
    *measured += r.wall_s;
    last_wall = r.wall_s;
    if (!r.epoch_s.empty()) samples.push_back(r.epoch_s[0]);
    if (!reference) reference = std::move(r.out);
  }
  const double held = 1.0 - StolenShare(ticks0, ReadCpuTicks());
  for (const double t : samples) {
    raw->push_back(t);
    cold->push_back(t * held);
  }
}

MetricSet MeasurePlain(const Setting& s, Tally* tally, std::string* notes) {
  const WorkloadDef& def = *s.def;
  // Set-up on its own: the workload and its detector are built for the
  // instances in turn, and thrown away, until enough samples are in.
  std::vector<double> setup_s;
  double setup_total = 0.0;
  const CpuTicks setup_ticks = ReadCpuTicks();
  while (setup_s.size() < kMinSetups ||
         (setup_total < kSetupSeconds && setup_s.size() < kMaxSetups)) {
    const int instance = static_cast<int>(setup_s.size()) % def.instances;
    const Clock::time_point start = Clock::now();
    BenchWorkload built =
        BuildBenchWorkload(def, InstanceSeed(s.seed, instance));
    const std::unique_ptr<proxdet::Detector> detector =
        MakePlainDetector(def, built.workload);
    setup_s.push_back(Seconds(Clock::now() - start));
    setup_total += setup_s.back();
  }
  const double setup_stolen = StolenShare(setup_ticks, ReadCpuTicks());
  LogSamples("set-up s", setup_s);

  // Each instance gets an equal share of the measured time for full Runs:
  // it runs once, and again while another Run would still end within its
  // share. The last instance also runs until the p90 pool is full. Then it
  // gets an equal share of the cold-probe time.
  const double full_seconds = s.seconds * (1.0 - kColdProbeShare);
  const double probe_seconds = s.seconds * kColdProbeShare;
  std::vector<double> cold;
  std::vector<double> probe_raw;
  std::vector<double> steady;
  std::vector<double> heap_per_user;
  std::vector<double> rss_mb;
  double messages = 0.0;
  double measured = 0.0;  // Wall seconds inside Detector::Run.
  double probe_measured = 0.0;
  int runs = 0;
  int reruns = 0;
  int probes = 0;
  const CpuTicks ticks0 = ReadCpuTicks();
  for (int i = 0; i < def.instances; ++i) {
    std::vector<proxdet::AlertEvent> oracle_prefix;
    {  // The full workload is freed before the probe World is built.
      BenchWorkload bench = BuildBenchWorkload(def, InstanceSeed(s.seed, i));
      const proxdet::World& world = bench.workload.world;
      // The heap the benchmark itself keeps live during the Runs (the oracle,
      // its first epochs for the probes, and the reference output) is
      // measured as it is allocated and taken out of every Run's high-water
      // mark.
      uint64_t live = proxdet::AllocProbe::LiveBytes();
      const std::vector<proxdet::AlertEvent> oracle = Oracle(world);
      for (const proxdet::AlertEvent& a : oracle) {
        if (a.epoch >= kProbeEpochs) break;
        oracle_prefix.push_back(a);
      }
      uint64_t bench_bytes = proxdet::AllocProbe::LiveBytes() - live;
      std::optional<RunOutput> reference;
      const double share_end = full_seconds * (i + 1) / def.instances;
      const bool last = i + 1 == def.instances;
      double last_wall = 0.0;
      while (!reference || measured + last_wall <= share_end ||
             (last && steady.size() < kMinP90Samples &&
              measured < kMaxMeasureSeconds)) {
        std::unique_ptr<proxdet::Detector> detector =
            MakePlainDetector(def, bench.workload);
        std::string error;
        TimedRun r = TimeRun(
            *bench.stream, def.epochs,
            [&](const std::function<void()>& ran) {
              return RunPlain(*detector, world, ran);
            },
            &error);
        detector.reset();
        // Every later Run of an instance must reproduce its first
        // bit-exactly.
        tally->Check(r, oracle, reference ? &*reference : nullptr, error);
        ++runs;
        if (reference) ++reruns;
        measured += r.wall_s;
        last_wall = r.wall_s;
        if (!r.epoch_s.empty()) {
          std::cerr << "perfbench: Run " << runs << ", instance " << i
                    << ": wall_s " << r.wall_s << ", cold_epoch_s "
                    << r.epoch_s[0] << ", stolen " << r.stolen << ", peak RSS "
                    << r.rss_peak * 1e-6 << " MB\n";
          // Epoch times count only the time the VM held its vCPUs.
          const double held = 1.0 - r.stolen;
          cold.push_back(r.epoch_s[0] * held);
          for (size_t e = 1; e < r.epoch_s.size(); ++e) {
            steady.push_back(r.epoch_s[e] * held);
          }
          rss_mb.push_back(static_cast<double>(r.rss_peak) * 1e-6);
          heap_per_user.push_back(
              static_cast<double>(r.heap_peak - bench_bytes) /
              static_cast<double>(def.users));
          if (runs == 1) LogSamples("first Run, epoch_s", r.epoch_s);
        }
        if (!reference) {
          messages += static_cast<double>(r.out.stats.TotalMessages());
          live = proxdet::AllocProbe::LiveBytes();
          reference = std::move(r.out);
          bench_bytes += proxdet::AllocProbe::LiveBytes() - live;
        }
      }
    }
    ProbeCold(def, InstanceSeed(s.seed, i), oracle_prefix,
              probe_seconds * (i + 1) / def.instances, &probe_measured,
              &probes, tally, &cold, &probe_raw);
  }
  const CpuTicks ticks1 = ReadCpuTicks();
  LogSamples("cold probes, raw epoch 0 s", probe_raw);

  MetricSet m;
  AddOrFail(&m, tally, "setup_s", "s", Median(setup_s) * (1.0 - setup_stolen));
  if (!cold.empty()) {
    AddOrFail(&m, tally, "cold_epoch_s", "s", Median(cold));
    AddOrFail(&m, tally, "steady_epoch_s_p50", "s", Median(steady));
    AddOrFail(&m, tally, "heap_bytes_per_user", "B/user",
              Median(heap_per_user));
    AddOrFail(&m, tally, "peak_rss_mb", "MB", Median(rss_mb));
  }
  if (const std::optional<double> p90 = P90(steady)) {
    AddOrFail(&m, tally, "steady_epoch_s_p90", "s", *p90);
  } else {
    tally->Fail("p90 withheld: " + std::to_string(steady.size()) +
                " steady-epoch samples, fewer than " +
                std::to_string(kMinP90Samples));
  }
  // From the first Run of every instance, so it is fixed for a seed.
  AddOrFail(&m, tally, "messages_per_user_epoch", "msg/user-epoch",
            PerUserEpoch(messages / def.instances, def));
  *notes = "\"instances\": " + std::to_string(def.instances) +
           ", \"setups\": " + std::to_string(setup_s.size()) +
           ", \"runs\": " + std::to_string(runs) +
           ", \"reruns_checked\": " + std::to_string(reruns) +
           ", \"steady_samples\": " + std::to_string(steady.size()) +
           ", \"measured_s\": " + std::to_string(measured) +
           ", \"cold_probes\": " + std::to_string(probes) +
           ", \"probe_s\": " + std::to_string(probe_measured) +
           ", \"setup_stolen_share\": " + std::to_string(setup_stolen) +
           ", \"stolen_share\": " + std::to_string(StolenShare(ticks0, ticks1));
  return m;
}

// --- --trace 1: per-layer metrics from decorated Runs ----------------------

// Layer times of the traced Runs, summed.
struct LayerTotals {
  int runs = 0;
  double wall = 0.0;
  double traj = 0.0;
  double predict = 0.0;
  double region_self = 0.0;
  double region_total = 0.0;
  double match_region = 0.0;
  double exit_check = 0.0;
  double pair_check = 0.0;
  double rebuild = 0.0;
  std::array<double, TimedLink::kKinds> link{};
  uint64_t predict_calls = 0;
  uint64_t builds = 0;
};

MetricSet MeasureTraced(const Setting& s, Tally* tally, std::string* notes) {
  const WorkloadDef& def = *s.def;
  const Clock::time_point setup_start = Clock::now();
  BenchWorkload bench = BuildBenchWorkload(def, s.seed);
  std::optional<TracedDetector> traced =
      MakeTracedDetector(def, bench.workload);
  const double setup_s = Seconds(Clock::now() - setup_start);
  const double predictor_setup_s = traced->predictor_setup_s;
  const proxdet::World& world = bench.workload.world;
  const std::vector<proxdet::AlertEvent> oracle = Oracle(world);

  TimedLink link_timer;
  LayerTotals t;
  std::vector<double> plain_steady;
  std::vector<double> traced_steady;
  double plain_wall = 0.0;
  double plain_cpu = 0.0;
  std::optional<RunOutput> reference;
  int pairs = 0;
  const CpuTicks ticks0 = ReadCpuTicks();
  const Clock::time_point start = Clock::now();
  // Plain and traced Runs alternate, so both see the same host conditions.
  while (pairs < 1 || Seconds(Clock::now() - start) < s.seconds) {
    if (Seconds(Clock::now() - start) >= kMaxMeasureSeconds) break;
    {
      std::unique_ptr<proxdet::Detector> plain =
          MakePlainDetector(def, bench.workload);
      std::string error;
      TimedRun r = TimeRun(
          *bench.stream, def.epochs,
          [&](const std::function<void()>& ran) {
            return RunPlain(*plain, world, ran);
          },
          &error);
      tally->Check(r, oracle, reference ? &*reference : nullptr, error);
      if (!reference) reference = r.out;
      plain_wall += r.wall_s;
      plain_cpu += r.cpu_s;
      if (!r.epoch_s.empty()) {
        plain_steady.insert(plain_steady.end(), r.epoch_s.begin() + 1,
                            r.epoch_s.end());
      }
    }
    if (!traced) traced.emplace(MakeTracedDetector(def, bench.workload));
    std::array<int64_t, TimedLink::kKinds> link0{};
    for (int k = 0; k < TimedLink::kKinds; ++k) {
      link0[k] = link_timer.clock(static_cast<TimedLink::Kind>(k)).total_ns();
    }
    const int64_t traj0 = bench.stream->clock().total_ns();
    std::string error;
    TimedRun r = TimeRun(
        *bench.stream, def.epochs,
        [&](const std::function<void()>& ran) {
          return RunTraced(def, *traced, world, link_timer, ran);
        },
        &error);
    // Traced-run parity: the decorated assembly must reproduce the plain
    // Run bit-exactly.
    tally->Check(r, oracle, &*reference, error);
    ++t.runs;
    t.wall += r.wall_s;
    t.traj += 1e-9 * static_cast<double>(bench.stream->clock().total_ns() -
                                         traj0);
    for (int k = 0; k < TimedLink::kKinds; ++k) {
      t.link[k] += 1e-9 * static_cast<double>(
                              link_timer.clock(static_cast<TimedLink::Kind>(k))
                                  .total_ns() -
                              link0[k]);
    }
    if (traced->predictor != nullptr) {
      t.predict += traced->predictor->clock().seconds();
      t.predict_calls += traced->predictor->clock().calls();
    }
    if (traced->policy != nullptr) {
      t.region_self += traced->policy->clock().self_seconds();
      t.region_total += traced->policy->clock().seconds();
      t.builds += traced->policy->clock().calls();
    }
    const proxdet::Detector::PhaseTimes& ph = r.out.phases;
    t.match_region += ph.match_region;
    t.exit_check += ph.exit_check;
    t.pair_check += ph.pair_check;
    t.rebuild += ph.rebuild;
    if (!r.epoch_s.empty()) {
      traced_steady.insert(traced_steady.end(), r.epoch_s.begin() + 1,
                           r.epoch_s.end());
    }
    traced.reset();
    ++pairs;
  }
  const CpuTicks ticks1 = ReadCpuTicks();

  MetricSet m;
  if (!reference || t.runs == 0 || plain_steady.empty() ||
      traced_steady.empty()) {
    tally->Fail("no complete plain/traced Run pair");
    return m;
  }
  const double n = t.runs;
  const double wall = t.wall / n;
  double link_total = 0.0;
  for (const double v : t.link) link_total += v;
  // The partition of a traced Run's wall time. Wire calls other than the
  // end-of-epoch barrier happen inside the core phases and are counted
  // there; net.link.*_share breaks them out.
  const double end_epoch = t.link[TimedLink::kEndEpoch];
  const double rebuild_self = t.rebuild - t.region_total;
  const double named = t.traj + t.predict + t.region_self + rebuild_self +
                       t.match_region + t.exit_check + t.pair_check +
                       end_epoch;
  const auto share = [&](double seconds) { return seconds / t.wall; };
  const proxdet::CommStats& cs = reference->stats;

  AddOrFail(&m, tally, "obs.traced_run_s", "s", wall);
  AddOrFail(&m, tally, "obs.trace_overhead", "ratio",
            Median(traced_steady) / Median(plain_steady));
  AddOrFail(&m, tally, "traj.next_epoch_s", "s", t.traj / n);
  AddOrFail(&m, tally, "core.unattributed_s", "s", (t.wall - named) / n);
  AddOrFail(&m, tally, "predict.share", "share", share(t.predict));
  AddOrFail(&m, tally, "predict.setup_share", "share",
            predictor_setup_s / setup_s);
  AddOrFail(&m, tally, "predict.calls", "count",
            static_cast<double>(t.predict_calls) / n);
  AddOrFail(&m, tally, "region.builds", "count",
            static_cast<double>(t.builds) / n);
  AddOrFail(&m, tally, "region.build_self_share", "share",
            share(t.region_self));
  AddOrFail(&m, tally, "core.rebuild_self_share", "share",
            share(rebuild_self));
  AddOrFail(&m, tally, "core.exit_check_share", "share", share(t.exit_check));
  AddOrFail(&m, tally, "core.match_region_share", "share",
            share(t.match_region));
  AddOrFail(&m, tally, "core.pair_check_share", "share", share(t.pair_check));
  AddOrFail(&m, tally, "core.rebuilds_per_user_epoch", "count/user-epoch",
            PerUserEpoch(static_cast<double>(reference->rebuilds), def));
  AddOrFail(&m, tally, "core.probes_per_rebuild", "ratio",
            reference->rebuilds == 0
                ? 0.0
                : static_cast<double>(cs.probes) /
                      static_cast<double>(reference->rebuilds));
  AddOrFail(&m, tally, "core.reports_per_user_epoch", "count/user-epoch",
            PerUserEpoch(cs.reports, def));
  AddOrFail(&m, tally, "core.probes_per_user_epoch", "count/user-epoch",
            PerUserEpoch(cs.probes, def));
  AddOrFail(&m, tally, "core.alerts_per_user_epoch", "count/user-epoch",
            PerUserEpoch(cs.alerts, def));
  AddOrFail(&m, tally, "core.region_installs_per_user_epoch",
            "count/user-epoch", PerUserEpoch(cs.region_installs, def));
  AddOrFail(&m, tally, "core.match_installs_per_user_epoch",
            "count/user-epoch", PerUserEpoch(cs.match_installs, def));
  uint64_t updates = 0;
  for (const proxdet::GraphUpdate& up : world.scheduled_updates()) {
    if (up.epoch < def.epochs) ++updates;
  }
  AddOrFail(&m, tally, "graph.updates", "count", static_cast<double>(updates));
  AddOrFail(&m, tally, "net.link_share", "share", share(link_total));
  for (int k = 0; k < TimedLink::kKinds; ++k) {
    AddOrFail(&m, tally,
              std::string("net.link.") +
                  TimedLink::KindName(static_cast<TimedLink::Kind>(k)) +
                  "_share",
              "share", share(t.link[k]));
  }
  const proxdet::net::NetRunStats net =
      reference->net.value_or(proxdet::net::NetRunStats{});
  AddOrFail(&m, tally, "net.wire_bytes_per_user_epoch", "B/user-epoch",
            PerUserEpoch(static_cast<double>(cs.TotalBytes()), def));
  AddOrFail(&m, tally, "net.frames_up_per_user_epoch", "count/user-epoch",
            PerUserEpoch(net.frames_up, def));
  AddOrFail(&m, tally, "net.frames_down_per_user_epoch", "count/user-epoch",
            PerUserEpoch(net.frames_down, def));
  AddOrFail(&m, tally, "net.frames_xshard_per_user_epoch", "count/user-epoch",
            PerUserEpoch(net.frames_xshard, def));
  AddOrFail(&m, tally, "net.retransmits", "count",
            static_cast<double>(net.retransmits));
  AddOrFail(&m, tally, "net.dedup_discards", "count",
            static_cast<double>(net.dedup_discards));
  AddOrFail(&m, tally, "net.batch_fill", "msg/frame",
            net.batch_frames == 0 ? 0.0
                                  : static_cast<double>(net.batch_messages) /
                                        static_cast<double>(net.batch_frames));
  AddOrFail(&m, tally, "net.compress_share", "share",
            cs.region_installs == 0 || !reference->net
                ? 0.0
                : static_cast<double>(net.compressed_installs) /
                      static_cast<double>(cs.region_installs));
  AddOrFail(&m, tally, "exec.cpu_per_wall", "ratio", plain_cpu / plain_wall);
  AddOrFail(&m, tally, "host.steal_share", "share",
            StolenShare(ticks0, ticks1));
  *notes = "\"traced_runs\": " + std::to_string(t.runs);
  return m;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--revision <text>]\n";
    return 2;
  }
  Setting s;
  s.def = FindWorkload(args.workload);
  if (s.def == nullptr) {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  s.seed = args.seed;
  s.seconds = args.seconds;
  s.threads = std::max(
      1u, std::min(kPoolThreads, std::thread::hardware_concurrency()));
  proxdet::ThreadPool::SetGlobalThreads(s.threads);

  Tally tally;
  std::string notes;
  MetricSet metrics;
  try {
    metrics = args.trace == 1 ? MeasureTraced(s, &tally, &notes)
                              : MeasurePlain(s, &tally, &notes);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }

  std::cout << "{\"stamp\": {\"workload\": " << JsonString(s.def->name)
            << ", \"seed\": " << s.seed << ", \"trace\": " << args.trace
            << ", \"host\": " << JsonString(HostName())
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"pool_threads\": " << s.threads
            << ", \"cpu_model\": " << JsonString(CpuInfoField("model name"))
            << ", \"cpu_flags\": " << JsonString(CpuInfoField("flags"))
            << ", \"simd_backend\": "
            << JsonString(proxdet::simd::BackendName(
                   proxdet::simd::ActiveBackend()))
            << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
            << ", \"revision\": " << JsonString(args.revision)
            << ", " << notes << "}}\n";
  std::cout << ResultJson(tally.correct, tally.attempted, tally.failed,
                          metrics)
            << std::endl;
  return tally.correct ? 0 : 1;
}
