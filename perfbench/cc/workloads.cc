#include "workloads.h"

#include <stdexcept>
#include <utility>

#include "core/policies.h"
#include "traj/scenario.h"

namespace perfbench {

using proxdet::Method;
using proxdet::ScenarioKind;

const std::vector<WorkloadDef>& Workloads() {
  // Why each workload exists is in perfbench/README.md.
  static const std::vector<WorkloadDef> kWorkloads = {
      {"kf_commuter_50k", Method::kStripeKf, ScenarioKind::kCommuterRush,
       50000, 60, false, 2},
      {"cmd_flash_simnet_2k", Method::kCmd, ScenarioKind::kFlashCrowd, 2000,
       16, true, 8},
      {"naive_churn_50k", Method::kNaive, ScenarioKind::kHeavyChurn, 50000,
       32, false, 8},
  };
  return kWorkloads;
}

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& def : Workloads()) {
    if (def.name == name) return &def;
  }
  return nullptr;
}

uint64_t InstanceSeed(uint64_t seed, int i) {
  return seed ^ (0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(i));
}

proxdet::net::NetConfig TransportConfig() {
  proxdet::net::NetConfig config;
  config.transport = proxdet::net::TransportKind::kSim;
  config.shards = 2;
  config.batch_downlink = true;
  config.compress_installs = true;
  return config;
}

BenchWorkload BuildBenchWorkload(const WorkloadDef& def, uint64_t seed) {
  return BuildBenchWorkload(def, seed, def.epochs);
}

BenchWorkload BuildBenchWorkload(const WorkloadDef& def, uint64_t seed,
                                 int epochs) {
  if (epochs < 1 || epochs > def.epochs) {
    throw std::invalid_argument("epochs out of range for " + def.name);
  }
  proxdet::ScenarioSpec spec;
  spec.kind = def.scenario;
  spec.num_users = def.users;
  spec.epochs = def.epochs;
  spec.seed = seed;

  // BuildScenarioWorkload's streaming path, step for step, with the stream
  // decorated before the World takes it.
  proxdet::Scenario scenario = proxdet::BuildScenario(spec);
  const proxdet::ScenarioWorkloadConfig defaults;
  std::vector<proxdet::Trajectory> training = proxdet::BuildScenarioTraining(
      spec, defaults.training_users, defaults.training_epochs);
  auto stream = std::make_unique<TimedGenerator>(std::move(scenario.generator));
  TimedGenerator* stream_ptr = stream.get();
  proxdet::World world(std::move(stream), std::move(scenario.graph), epochs);
  for (const proxdet::EdgeChurnEvent& ev : scenario.churn) {
    world.ScheduleUpdate({ev.epoch, ev.insert, ev.u, ev.w, ev.alert_radius});
  }

  proxdet::WorkloadConfig wc;
  wc.num_users = spec.num_users;
  wc.epochs = epochs;
  wc.speed_steps = spec.speed_steps;
  wc.avg_friends = spec.avg_friends;
  wc.alert_radius_m = spec.alert_radius_m;
  wc.seed = spec.seed;
  wc.training_users = defaults.training_users;
  wc.training_epochs = defaults.training_epochs;
  return BenchWorkload{proxdet::Workload(wc, std::move(world),
                                         std::move(training), {}),
                       stream_ptr};
}

std::unique_ptr<proxdet::Detector> MakePlainDetector(
    const WorkloadDef& def, const proxdet::Workload& workload) {
  std::unique_ptr<proxdet::Detector> detector =
      proxdet::MakeDetector(def.method, workload);
  if (!def.transported) return detector;
  return std::make_unique<proxdet::net::TransportedDetector>(
      std::move(detector), TransportConfig());
}

TracedDetector MakeTracedDetector(const WorkloadDef& def,
                                  const proxdet::Workload& workload) {
  TracedDetector out;
  std::unique_ptr<proxdet::RegionPolicy> policy;
  switch (def.method) {
    case Method::kNaive:
      out.engine = std::make_unique<proxdet::NaiveDetector>();
      return out;
    case Method::kCmd: {
      proxdet::MobileCirclePolicy::Options options;
      options.self_tuning = true;
      policy = std::make_unique<proxdet::MobileCirclePolicy>(options);
      break;
    }
    case Method::kStripeKf: {
      const Clock::time_point start = Clock::now();
      auto predictor = std::make_unique<TimedPredictor>(
          proxdet::MakeTrainedPredictor(proxdet::PredictorKind::kKalman,
                                        workload));
      out.predictor = predictor.get();
      const proxdet::StripePolicy::Options options =
          proxdet::CalibratedStripeOptions(predictor.get(), workload);
      out.predictor_setup_s =
          std::chrono::duration<double>(Clock::now() - start).count();
      // Calibration's Predict calls are set-up, not Run time.
      out.predictor->clock().Reset();
      policy = std::make_unique<proxdet::StripePolicy>(std::move(predictor),
                                                       options);
      break;
    }
    default:
      throw std::logic_error("no traced assembly for method " +
                             proxdet::MethodName(def.method));
  }
  auto timed = std::make_unique<TimedPolicy>(std::move(policy));
  out.policy = timed.get();
  out.engine = std::make_unique<proxdet::RegionDetector>(std::move(timed));
  return out;
}

namespace {

uint64_t RebuildCount(const proxdet::Detector& detector) {
  const auto* region = dynamic_cast<const proxdet::RegionDetector*>(&detector);
  return region != nullptr ? region->rebuild_count() : 0;
}

}  // namespace

RunOutput RunPlain(proxdet::Detector& detector, const proxdet::World& world,
                   const std::function<void()>& ran) {
  detector.Run(world);
  ran();
  RunOutput out;
  out.stats = detector.stats();
  out.alerts = detector.SortedAlerts();
  if (auto* transported =
          dynamic_cast<proxdet::net::TransportedDetector*>(&detector)) {
    out.rebuilds = RebuildCount(transported->inner());
    out.phases = transported->inner().phase_times();
    out.net = transported->net_stats();
  } else {
    out.rebuilds = RebuildCount(detector);
    out.phases = detector.phase_times();
  }
  return out;
}

RunOutput RunTraced(const WorkloadDef& def, TracedDetector& detector,
                    const proxdet::World& world, TimedLink& link_timer,
                    const std::function<void()>& ran) {
  proxdet::Detector& engine = *detector.engine;
  RunOutput out;
  if (!def.transported) {
    engine.Run(world);
    ran();
    out.stats = engine.stats();
    out.alerts = engine.SortedAlerts();
  } else {
    // TransportedDetector::Run with the link decorated.
    proxdet::net::TransportLink link(world, TransportConfig());
    link_timer.set_inner(&link);
    engine.set_link(&link_timer);
    engine.Run(world);
    ran();
    engine.set_link(nullptr);
    link_timer.set_inner(nullptr);
    const proxdet::net::NetRunStats net = link.Stats();
    out.stats = engine.stats();
    out.stats.bytes_up = net.bytes_up;
    out.stats.bytes_down = net.bytes_down;
    out.stats.bytes_xshard = net.bytes_xshard;
    out.stats.batch_saved_bytes = net.batch_saved_bytes;
    out.alerts = link.ClientAlerts();
    proxdet::SortAlerts(&out.alerts);
    out.net = net;
  }
  out.rebuilds = RebuildCount(engine);
  out.phases = engine.phase_times();
  return out;
}

std::string CompareOutputs(const RunOutput& a, const RunOutput& b) {
  if (a.alerts != b.alerts) return "alerts differ";
  if (a.stats != b.stats) {
    return "CommStats differ: " + a.stats.ToString() + " vs " +
           b.stats.ToString();
  }
  if (a.rebuilds != b.rebuilds) return "rebuild counts differ";
  if (a.net.has_value() != b.net.has_value()) return "transport differs";
  if (a.net.has_value()) {
    const proxdet::net::NetRunStats& x = *a.net;
    const proxdet::net::NetRunStats& y = *b.net;
    if (x.schedule_hash != y.schedule_hash || x.frames_up != y.frames_up ||
        x.frames_down != y.frames_down || x.frames_xshard != y.frames_xshard ||
        x.retransmits != y.retransmits ||
        x.dedup_discards != y.dedup_discards ||
        x.batch_frames != y.batch_frames ||
        x.batch_messages != y.batch_messages ||
        x.compressed_installs != y.compressed_installs) {
      return "wire schedules differ";
    }
  }
  return "";
}

}  // namespace perfbench
