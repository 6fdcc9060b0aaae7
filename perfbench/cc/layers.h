#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

// Outside-in layer timing: decorators around the engine's public seams
// (StreamingGenerator, Predictor, RegionPolicy, ClientLink). Each forwards
// every call unchanged to the wrapped object and records the call's wall
// time, so a traced run computes exactly what the plain run computes while
// the benchmark learns where the time went. Nothing inside src/ is traced.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/client_link.h"
#include "core/region_detector.h"
#include "predict/predictor.h"
#include "traj/streaming.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Call count, total time and self time of one layer seam. Every member is
/// an atomic, so calls arriving concurrently from pool threads accumulate
/// safely.
class LayerClock {
 public:
  void Add(int64_t total_ns, int64_t self_ns);
  void Reset();

  uint64_t calls() const { return calls_.load(std::memory_order_relaxed); }
  int64_t total_ns() const { return total_ns_.load(std::memory_order_relaxed); }
  int64_t self_ns() const { return self_ns_.load(std::memory_order_relaxed); }
  double seconds() const { return static_cast<double>(total_ns()) * 1e-9; }
  double self_seconds() const { return static_cast<double>(self_ns()) * 1e-9; }

 private:
  std::atomic<uint64_t> calls_{0};
  std::atomic<int64_t> total_ns_{0};
  std::atomic<int64_t> self_ns_{0};
};

/// RAII span over one call into a layer. Spans nest per thread: a span's
/// self time is its duration minus the durations of the spans opened and
/// closed inside it on the same thread (a RegionPolicy build minus the
/// Predictor calls it makes).
class LayerSpan {
 public:
  explicit LayerSpan(LayerClock& clock);
  ~LayerSpan();

  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;

 private:
  LayerClock& clock_;
  int64_t outer_child_ns_;
  Clock::time_point start_;
};

/// Stamps every epoch boundary of a streaming World and times the stream
/// generation itself (layer `traj`). World::BeginEpoch calls NextEpoch
/// once per epoch, serially, before the epoch's detection work, so the
/// stamps split a Run into per-epoch wall times. Clones are undecorated:
/// the ground-truth oracle re-walks a clone without touching the record.
class TimedGenerator final : public proxdet::StreamingGenerator {
 public:
  explicit TimedGenerator(std::unique_ptr<proxdet::StreamingGenerator> inner);

  size_t user_count() const override { return inner_->user_count(); }
  double epoch_seconds() const override { return inner_->epoch_seconds(); }
  void Reset() override { inner_->Reset(); }
  void NextEpoch(proxdet::Vec2* out) override;
  std::unique_ptr<proxdet::StreamingGenerator> Clone() const override {
    return inner_->Clone();
  }

  /// Start time of every NextEpoch call since the last ClearBoundaries.
  std::vector<Clock::time_point> Boundaries() const;
  void ClearBoundaries();
  LayerClock& clock() { return clock_; }

 private:
  std::unique_ptr<proxdet::StreamingGenerator> inner_;
  LayerClock clock_;
  mutable std::mutex mutex_;
  std::vector<Clock::time_point> boundaries_;  // Guarded by mutex_.
};

/// Times Predict (layer `predict`).
class TimedPredictor final : public proxdet::Predictor {
 public:
  explicit TimedPredictor(std::unique_ptr<proxdet::Predictor> inner)
      : inner_(std::move(inner)) {}

  void Train(const std::vector<proxdet::Trajectory>& history) override {
    inner_->Train(history);
  }
  std::vector<proxdet::Vec2> Predict(const std::vector<proxdet::Vec2>& recent,
                                     size_t steps) override;
  std::string name() const override { return inner_->name(); }

  LayerClock& clock() { return clock_; }

 private:
  std::unique_ptr<proxdet::Predictor> inner_;
  LayerClock clock_;
};

/// Times BuildRegion (layer `region`); its self time excludes the Predict
/// calls a stripe policy makes inside it.
class TimedPolicy final : public proxdet::RegionPolicy {
 public:
  explicit TimedPolicy(std::unique_ptr<proxdet::RegionPolicy> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  bool NeedsPerEpochPairCheck() const override {
    return inner_->NeedsPerEpochPairCheck();
  }
  proxdet::SafeRegionShape BuildRegion(
      proxdet::UserId u, const proxdet::Vec2& location,
      const std::vector<proxdet::Vec2>& recent_window, double speed,
      const std::vector<proxdet::FriendView>& friends, int epoch) override;
  void OnExit(proxdet::UserId u) override { inner_->OnExit(u); }
  void OnProbe(proxdet::UserId u) override { inner_->OnProbe(u); }

  LayerClock& clock() { return clock_; }

 private:
  std::unique_ptr<proxdet::RegionPolicy> inner_;
  LayerClock clock_;
};

/// Times every ClientLink call by message kind (layer `net`).
class TimedLink final : public proxdet::ClientLink {
 public:
  enum Kind { kReport, kProbe, kAlert, kInstallRegion, kInstallMatch,
              kEndEpoch, kKinds };
  static const char* KindName(Kind kind);

  /// Routes calls to `inner` (not owned; must outlive its use here), so one
  /// TimedLink accumulates across the transported Runs it is installed in.
  void set_inner(proxdet::ClientLink* inner) { inner_ = inner; }

  void Report(proxdet::UserId u, int epoch, size_t window_len,
              proxdet::Vec2* position,
              std::vector<proxdet::Vec2>* window) override;
  void Probe(proxdet::UserId u, int epoch) override;
  void Alert(proxdet::UserId u, proxdet::UserId a, proxdet::UserId b,
             int epoch) override;
  void InstallRegion(proxdet::UserId u, int epoch,
                     const proxdet::SafeRegionShape& region) override;
  void InstallMatch(proxdet::UserId u, int epoch, proxdet::MatchOp op,
                    proxdet::UserId a, proxdet::UserId b,
                    const proxdet::Circle& region) override;
  void EndEpoch(int epoch) override;

  const LayerClock& clock(Kind kind) const { return clocks_[kind]; }

 private:
  proxdet::ClientLink* inner_ = nullptr;
  std::array<LayerClock, kKinds> clocks_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
