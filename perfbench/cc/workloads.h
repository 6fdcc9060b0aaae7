#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The benchmark's workloads and the two ways it assembles a detector for
// them: plain (the library's own MakeDetector / TransportedDetector) and
// traced (the same assembly with the layer decorators spliced in).

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/simulation.h"
#include "layers.h"
#include "net/transport.h"

namespace perfbench {

/// One workload: method, scenario, population and transport. Every other
/// knob keeps the library default (ScenarioSpec, RegionDetector::Options).
struct WorkloadDef {
  std::string name;
  proxdet::Method method;
  proxdet::ScenarioKind scenario;
  size_t users;
  int epochs;
  bool transported;  // Over TransportConfig(); in-process otherwise.
  // Scenario instances a --trace 0 run measures, each from its own seed
  // (InstanceSeed), so that one run's samples are not one instance's epochs.
  int instances;
};

const std::vector<WorkloadDef>& Workloads();
const WorkloadDef* FindWorkload(const std::string& name);

/// Scenario seed of instance `i` of a run at `seed`; instance 0 uses
/// `seed` itself.
uint64_t InstanceSeed(uint64_t seed, int i);

/// The transport of transported workloads: SimNet, 2 shards, batched
/// downlink, compressed installs.
proxdet::net::NetConfig TransportConfig();

/// The engine Workload of `def` at `seed`, built like BuildScenarioWorkload
/// in streaming mode but with the stream wrapped in a TimedGenerator, and
/// without the ground-truth oracle (the benchmark's own check, built
/// separately and outside set-up time). With `epochs` below def.epochs the
/// World stops after that many epochs of the same scenario (built for
/// def.epochs), so its epochs are the first ones of the full workload.
struct BenchWorkload {
  proxdet::Workload workload;
  TimedGenerator* stream;  // Owned by workload.world.
};
BenchWorkload BuildBenchWorkload(const WorkloadDef& def, uint64_t seed);
BenchWorkload BuildBenchWorkload(const WorkloadDef& def, uint64_t seed,
                                 int epochs);

/// The plain detector: MakeDetector, wrapped in a TransportedDetector for
/// transported workloads (what RunMethod / RunTransportedMethod run).
std::unique_ptr<proxdet::Detector> MakePlainDetector(
    const WorkloadDef& def, const proxdet::Workload& workload);

/// MakeDetector's assembly with TimedPredictor and TimedPolicy spliced in.
/// `engine` is never transported: RunTraced installs a TimedLink over a
/// TransportLink itself, as TransportedDetector::Run would.
struct TracedDetector {
  std::unique_ptr<proxdet::Detector> engine;
  TimedPolicy* policy = nullptr;        // Null for Naive.
  TimedPredictor* predictor = nullptr;  // Null unless a stripe method.
  double predictor_setup_s = 0.0;       // Training, tuning and calibration.
};
TracedDetector MakeTracedDetector(const WorkloadDef& def,
                                  const proxdet::Workload& workload);

/// What one Run produced, in the form both assemblies can be compared in.
struct RunOutput {
  proxdet::CommStats stats;
  uint64_t rebuilds = 0;
  std::vector<proxdet::AlertEvent> alerts;  // Sorted; client-observed when
                                            // transported.
  proxdet::Detector::PhaseTimes phases;
  std::optional<proxdet::net::NetRunStats> net;
};

/// Runs a plain detector over the world. `ran` is called as soon as
/// Detector::Run returns, before the output is collected, so a caller can
/// stop its clocks on the program's own work.
RunOutput RunPlain(proxdet::Detector& detector, const proxdet::World& world,
                   const std::function<void()>& ran);

/// Runs a traced detector over the world, calling `ran` as RunPlain does.
/// Transported workloads go through a fresh TransportLink behind
/// `link_timer`, as TransportedDetector::Run installs one.
RunOutput RunTraced(const WorkloadDef& def, TracedDetector& detector,
                    const proxdet::World& world, TimedLink& link_timer,
                    const std::function<void()>& ran);

/// Empty when `a` and `b` agree on alerts, CommStats, rebuild count and,
/// when transported, the wire schedule; otherwise what differs.
std::string CompareOutputs(const RunOutput& a, const RunOutput& b);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
