#include "layers.h"

namespace perfbench {
namespace {

// Time spent in spans that opened and closed inside the current span on
// this thread; LayerSpan saves and restores it around each nesting level.
thread_local int64_t t_child_ns = 0;

}  // namespace

void LayerClock::Add(int64_t total_ns, int64_t self_ns) {
  calls_.fetch_add(1, std::memory_order_relaxed);
  total_ns_.fetch_add(total_ns, std::memory_order_relaxed);
  self_ns_.fetch_add(self_ns, std::memory_order_relaxed);
}

void LayerClock::Reset() {
  calls_.store(0, std::memory_order_relaxed);
  total_ns_.store(0, std::memory_order_relaxed);
  self_ns_.store(0, std::memory_order_relaxed);
}

LayerSpan::LayerSpan(LayerClock& clock)
    : clock_(clock), outer_child_ns_(t_child_ns), start_(Clock::now()) {
  t_child_ns = 0;
}

LayerSpan::~LayerSpan() {
  const int64_t total =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start_)
          .count();
  clock_.Add(total, total - t_child_ns);
  t_child_ns = outer_child_ns_ + total;
}

TimedGenerator::TimedGenerator(
    std::unique_ptr<proxdet::StreamingGenerator> inner)
    : inner_(std::move(inner)) {}

void TimedGenerator::NextEpoch(proxdet::Vec2* out) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    boundaries_.push_back(Clock::now());
  }
  LayerSpan span(clock_);
  inner_->NextEpoch(out);
}

std::vector<Clock::time_point> TimedGenerator::Boundaries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return boundaries_;
}

void TimedGenerator::ClearBoundaries() {
  std::lock_guard<std::mutex> lock(mutex_);
  boundaries_.clear();
}

std::vector<proxdet::Vec2> TimedPredictor::Predict(
    const std::vector<proxdet::Vec2>& recent, size_t steps) {
  LayerSpan span(clock_);
  return inner_->Predict(recent, steps);
}

proxdet::SafeRegionShape TimedPolicy::BuildRegion(
    proxdet::UserId u, const proxdet::Vec2& location,
    const std::vector<proxdet::Vec2>& recent_window, double speed,
    const std::vector<proxdet::FriendView>& friends, int epoch) {
  LayerSpan span(clock_);
  return inner_->BuildRegion(u, location, recent_window, speed, friends,
                             epoch);
}

const char* TimedLink::KindName(Kind kind) {
  switch (kind) {
    case kReport:
      return "report";
    case kProbe:
      return "probe";
    case kAlert:
      return "alert";
    case kInstallRegion:
      return "install_region";
    case kInstallMatch:
      return "install_match";
    case kEndEpoch:
      return "end_epoch";
    case kKinds:
      break;
  }
  return "unknown";
}

void TimedLink::Report(proxdet::UserId u, int epoch, size_t window_len,
                       proxdet::Vec2* position,
                       std::vector<proxdet::Vec2>* window) {
  LayerSpan span(clocks_[kReport]);
  inner_->Report(u, epoch, window_len, position, window);
}

void TimedLink::Probe(proxdet::UserId u, int epoch) {
  LayerSpan span(clocks_[kProbe]);
  inner_->Probe(u, epoch);
}

void TimedLink::Alert(proxdet::UserId u, proxdet::UserId a, proxdet::UserId b,
                      int epoch) {
  LayerSpan span(clocks_[kAlert]);
  inner_->Alert(u, a, b, epoch);
}

void TimedLink::InstallRegion(proxdet::UserId u, int epoch,
                              const proxdet::SafeRegionShape& region) {
  LayerSpan span(clocks_[kInstallRegion]);
  inner_->InstallRegion(u, epoch, region);
}

void TimedLink::InstallMatch(proxdet::UserId u, int epoch, proxdet::MatchOp op,
                             proxdet::UserId a, proxdet::UserId b,
                             const proxdet::Circle& region) {
  LayerSpan span(clocks_[kInstallMatch]);
  inner_->InstallMatch(u, epoch, op, a, b, region);
}

void TimedLink::EndEpoch(int epoch) {
  LayerSpan span(clocks_[kEndEpoch]);
  inner_->EndEpoch(epoch);
}

}  // namespace perfbench
