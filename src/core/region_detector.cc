#include "core/region_detector.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <deque>
#include <optional>
#include <unordered_map>
#include <variant>

#include "common/timer.h"
#include "core/client_link.h"
#include "core/cost_model.h"
#include "exec/thread_pool.h"
#include "geom/simd/simd.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "region/match_region.h"

namespace proxdet {

namespace {

/// Handles into the global registry, resolved once. Every counter mirrors a
/// CommStats field (incremented at the same serial-commit sites, so the
/// RunReport reconciliation holds to the unit) or a deterministic engine
/// total; all are pure functions of the workload seed.
struct EngineMetrics {
  obs::Counter& reports;
  obs::Counter& probes;
  obs::Counter& alerts;
  obs::Counter& region_installs;
  obs::Counter& match_installs;
  obs::Counter& rebuilds;
  obs::Counter& epochs;
  obs::Counter& exits;
  obs::Counter& pair_check_probed_edges;

  static const EngineMetrics& Get() {
    static const EngineMetrics m{
        obs::Metrics().GetCounter("engine.reports"),
        obs::Metrics().GetCounter("engine.probes"),
        obs::Metrics().GetCounter("engine.alerts"),
        obs::Metrics().GetCounter("engine.region_installs"),
        obs::Metrics().GetCounter("engine.match_installs"),
        obs::Metrics().GetCounter("engine.rebuilds"),
        obs::Metrics().GetCounter("engine.epochs"),
        obs::Metrics().GetCounter("engine.safe_region_exits"),
        obs::Metrics().GetCounter("engine.pair_check_probed_edges"),
    };
    return m;
  }
};

/// Batched-geometry observability for the engine's chunked scans: one
/// histogram sample per store-kernel dispatch (the SoA lane count handed to
/// the kernel) plus a dispatch counter keyed by the runtime-selected
/// backend. Batch sizes are chunk-shaped — the grains below are fixed, so
/// the histograms are pure functions of the workload and stay in the
/// deterministic digest. The scalar-vs-w4-vs-w8 split depends on CPUID and
/// the compiler, so the dispatch counter is wall-clock-kinded.
/// Recording happens at most a few times per chunk, never per lane.
struct SimdScanMetrics {
  obs::HistogramMetric& exit_batch;
  obs::HistogramMetric& match_batch;
  obs::HistogramMetric& pair_check_batch;
  obs::Counter& dispatches;

  static const SimdScanMetrics& Get() {
    static const std::vector<double> kLaneBuckets{
        0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0,
        1024.0};
    static const SimdScanMetrics m{
        obs::Metrics().GetHistogram("simd.batch.exit_scan", kLaneBuckets,
                                    obs::Kind::kDeterministic),
        obs::Metrics().GetHistogram("simd.batch.match_scan", kLaneBuckets,
                                    obs::Kind::kDeterministic),
        obs::Metrics().GetHistogram("simd.batch.pair_check", kLaneBuckets,
                                    obs::Kind::kDeterministic),
        obs::Metrics().GetCounter(
            std::string("simd.dispatch.") +
                simd::BackendName(simd::ActiveBackend()),
            obs::Kind::kWallClock),
    };
    return m;
  }
};

constexpr double kMinSpeed = 1e-3;  // m/epoch floor for estimates.

// Chunk sizes for the parallel read-only scans. Coarse enough that the
// per-chunk scheduling cost vanishes next to the geometry, fine enough to
// balance 8 threads on 10k-user workloads. Chunk boundaries never affect
// results (scans write index-addressed slots; commits run in index order).
constexpr size_t kUserGrain = 512;   // ShapeContains per user.
constexpr size_t kEdgeGrain = 256;   // ShapeMinDistance per edge.
constexpr size_t kPairGrain = 128;   // MatchRegion::Contains per pair.

// Resolve build windows. The cap bounds the memory held by planned but
// unbuilt regions. A window whose builds are estimated to take less than
// kMinParallelSeconds in total builds inline: handing work to the pool
// costs tens of microseconds, more than a few cheap circle builds (FMD,
// CMD) take, while one stripe build alone takes about 20 us.
constexpr size_t kMaxBuildWindow = 256;
constexpr double kMinParallelSeconds = 50e-6;

/// Why the resolve phase flushed its build window (see ResolvePhase).
enum FlushCause : size_t {
  kFlushDependency,  // A view would borrow a region still in the window.
  kFlushLink,        // A ClientLink call must see the FIFO's sequence.
  kFlushCap,         // The window reached kMaxBuildWindow.
  kFlushEnd,         // The queue ran dry.
  kFlushCauses
};

/// How wide the resolve phase's parallel sections are: builds per flushed
/// window and flushes by cause. Flush points depend only on the workload
/// and on whether a link is attached, never on the thread count, so all
/// of these are deterministic.
struct ResolveMetrics {
  obs::HistogramMetric& window;
  std::array<obs::Counter*, kFlushCauses> flushes;

  static const ResolveMetrics& Get() {
    static const ResolveMetrics m{
        obs::Metrics().GetHistogram(
            "engine.resolve.window",
            {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0},
            obs::Kind::kDeterministic),
        {&obs::Metrics().GetCounter("engine.resolve.flush.dependency"),
         &obs::Metrics().GetCounter("engine.resolve.flush.link"),
         &obs::Metrics().GetCounter("engine.resolve.flush.cap"),
         &obs::Metrics().GetCounter("engine.resolve.flush.end")},
    };
    return m;
  }
};

/// Epoch-resolved circle form of a shape, when it has one. Circle and
/// MovingCircle predicates against these resolved circles are bit-exact
/// with the ShapeContains / ShapeMinDistance visitors (which resolve with
/// the same AtEpoch expression) — the batched kernels below rely on that.
bool AsCircleAt(const SafeRegionShape& s, int epoch, Circle* out) {
  if (const Circle* c = std::get_if<Circle>(&s)) {
    *out = *c;
    return true;
  }
  if (const MovingCircle* mc = std::get_if<MovingCircle>(&s)) {
    *out = mc->AtEpoch(epoch);
    return true;
  }
  return false;
}

bool EdgesEqual(const std::vector<InterestGraph::Edge>& a,
                const std::vector<InterestGraph::Edge>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].u != b[i].u || a[i].w != b[i].w ||
        a[i].alert_radius != b[i].alert_radius) {
      return false;
    }
  }
  return true;
}

}  // namespace

void RegionPolicy::OnExit(UserId u) { (void)u; }
void RegionPolicy::OnProbe(UserId u) { (void)u; }

RegionDetector::RegionDetector(std::unique_ptr<RegionPolicy> policy)
    : RegionDetector(std::move(policy), Options()) {}

RegionDetector::RegionDetector(std::unique_ptr<RegionPolicy> policy,
                               Options options)
    : policy_(std::move(policy)), options_(options) {}

RegionDetector::~RegionDetector() = default;

std::string RegionDetector::name() const { return policy_->name(); }

// Per-run engine state; kept out of the header.
struct RegionDetector::Impl {
  struct UserState {
    std::optional<SafeRegionShape> region;
    double speed = kMinSpeed;  // m/epoch estimate from reported windows.
    Vec2 pos;  // Exact location; server-visible only when reported(u).
  };

  const World& world;
  RegionDetector& self;
  InterestGraph graph;
  std::vector<UserState> users;

  // Per-epoch flags, split out of UserState into one byte per user: the
  // epoch reset collapses to a single fill, and the scan phases touch a
  // dense array instead of striding through the fat region records. All
  // writes happen in serial-commit code; parallel scans only read.
  static constexpr uint8_t kReported = 1;
  static constexpr uint8_t kNeedsRegion = 2;
  static constexpr uint8_t kRebuilt = 4;
  static constexpr uint8_t kQueued = 8;
  static constexpr uint8_t kPlanned = 16;  // Build in the window, uncommitted.
  std::vector<uint8_t> epoch_flags;
  bool reported(UserId u) const { return epoch_flags[u] & kReported; }
  bool needs_region(UserId u) const { return epoch_flags[u] & kNeedsRegion; }
  bool rebuilt(UserId u) const { return epoch_flags[u] & kRebuilt; }
  bool queued(UserId u) const { return epoch_flags[u] & kQueued; }
  bool planned(UserId u) const { return epoch_flags[u] & kPlanned; }
  void mark(UserId u, uint8_t bit) { epoch_flags[u] |= bit; }
  void unmark(UserId u, uint8_t bit) {
    epoch_flags[u] &= static_cast<uint8_t>(~bit);
  }

  std::unordered_map<uint64_t, MatchRegion> matched;
  std::deque<UserId> queue;
  int epoch = 0;

  const bool per_epoch_check;  // Policy has moving regions (FMD/CMD).

  // Reused scratch, kept allocation-free across epochs (clear, don't
  // free). The scan buffers are written by parallel read-only scans
  // (distinct slots per index / per chunk) and consumed by the serial
  // in-order commits below; window_buf and match_keys are only ever
  // touched from serial code, and each build task only by its own build.
  std::vector<Vec2> window_buf;
  std::vector<uint8_t> exit_flags;    // Per user: see ExitFlag.
  std::vector<uint8_t> pair_inside;   // Per sorted matched-pair key.
  std::vector<uint8_t> edge_probe;    // Per cached edge: scan said d < r.
  std::vector<uint64_t> match_keys;   // Sorted matched-pair keys.

  /// One planned region build: everything BuildRegion reads, captured at
  /// plan time, plus the result slot and the build's held metric samples.
  /// Slots are reused across windows and epochs (cleared, never freed).
  struct BuildTask {
    UserId u = -1;
    Vec2 location;
    double speed = 0.0;
    std::vector<Vec2> recent;  // The recent-location window.
    std::vector<FriendView> views;
    SafeRegionShape shape;
    obs::RecordBuffer samples;
  };
  std::vector<BuildTask> build_tasks;
  size_t window_size = 0;  // Planned tasks: build_tasks[0, window_size).
  // Wall time of one build, measured on the last inline window (0 until
  // then, so the first window runs inline). It only picks where builds
  // run, never what they compute.
  double build_seconds = 0.0;

  // Per-chunk SoA staging for the batched geometry kernels. One pool
  // serves every phase (they run sequentially): the exit scan stages
  // (circle, point) lanes, the match scan (circle, point) lane pairs,
  // the pair check (circle, circle, threshold) lanes. Cache-line aligned:
  // the headers are written from pool threads.
  struct alignas(64) BatchScratch {
    std::vector<uint32_t> ids;   // User id or edge slot per lane.
    std::vector<double> ax, ay, ar;  // First circle (center, radius).
    std::vector<double> bx, by, br;  // Point or second circle.
    std::vector<double> thr;         // Per-lane threshold.
    std::vector<uint8_t> flags;      // Kernel verdicts.
  };
  std::vector<BatchScratch> batch_chunks;

  // The edge snapshot, kept sorted by (u, w) and maintained *incrementally*
  // under graph updates (a delete/insert epoch used to re-snapshot and
  // re-sort the whole list via graph.Edges()). validate_builds asserts the
  // delta path equals a from-scratch snapshot after every update batch.
  std::vector<InterestGraph::Edge> edge_cache;

  enum ExitFlag : uint8_t { kInside = 0, kExited = 1, kNeedsInit = 2 };

  Impl(const World& w, RegionDetector& s)
      : world(w),
        self(s),
        graph(w.graph()),
        users(w.user_count()),
        epoch_flags(w.user_count(), 0),
        per_epoch_check(s.policy_->NeedsPerEpochPairCheck()) {
    if (per_epoch_check) edge_cache = graph.Edges();
  }

  bool IsMatched(UserId u, UserId w) const {
    return matched.count(PairKey(u, w)) > 0;
  }

  /// The transport link, with the build window committed first: a link
  /// call made while builds wait in the window would interleave with
  /// their InstallRegion calls differently from the serial queue, and the
  /// wire schedule would change. Null in-process (nothing to flush for).
  ClientLink* SyncedLink() {
    if (self.link_ != nullptr && window_size > 0) FlushBuilds(kFlushLink);
    return self.link_;
  }

  /// Client -> server location upload (at most one per user per epoch).
  /// Serial-commit code only (reuses the shared window buffer).
  void Report(UserId u) {
    if (reported(u)) return;
    mark(u, kReported);
    self.stats_.reports += 1;
    EngineMetrics::Get().reports.Inc();
    // The report carries the recent window; refresh the speed estimate.
    if (ClientLink* link = SyncedLink()) {
      // Transported run: the client uploads through the wire and the engine
      // consumes position + window exactly as the server decoded them (the
      // codec's exact round-trip keeps this bit-identical to the direct
      // read below).
      link->Report(u, epoch, self.options_.window, &users[u].pos,
                   &window_buf);
    } else {
      world.RecentWindow(u, epoch, self.options_.window, &window_buf);
    }
    if (window_buf.size() >= 2) {
      double dist = 0.0;
      for (size_t i = 1; i < window_buf.size(); ++i) {
        dist += Distance(window_buf[i - 1], window_buf[i]);
      }
      users[u].speed = std::max(
          kMinSpeed, dist / static_cast<double>(window_buf.size() - 1));
    }
  }

  void EnqueueRebuild(UserId u) {
    mark(u, kNeedsRegion);
    if (!queued(u)) {
      mark(u, kQueued);
      queue.push_back(u);
    }
  }

  /// Server -> client probe: request the exact location, then rebuild the
  /// probed user's region (Sec. V-B case 2).
  void Probe(UserId u) {
    if (reported(u)) {
      EnqueueRebuild(u);
      return;
    }
    self.stats_.probes += 1;
    EngineMetrics::Get().probes.Inc();
    if (ClientLink* link = SyncedLink()) link->Probe(u, epoch);
    Report(u);
    EnqueueRebuild(u);
    self.policy_->OnProbe(u);
  }

  /// Both endpoints exact and within radius: fire the alert, install the
  /// match region (Def. 3), and drop the pair from safe-region duty.
  void CreateMatch(UserId u, UserId w, double r) {
    const MatchRegion region = MatchRegion::Make(users[u].pos, users[w].pos, r);
    matched.emplace(PairKey(u, w), region);
    const UserId a = std::min(u, w);
    const UserId b = std::max(u, w);
    self.alerts_.push_back({epoch, a, b});
    self.stats_.alerts += 2;
    EngineMetrics::Get().alerts.Inc(2);
    if (ClientLink* link = SyncedLink()) {
      link->Alert(u, a, b, epoch);
      link->Alert(w, a, b, epoch);
    }
    if (self.options_.use_match_regions) {
      self.stats_.match_installs += 2;
      EngineMetrics::Get().match_installs.Inc(2);
      if (self.link_ != nullptr) {
        self.link_->InstallMatch(u, epoch, MatchOp::kCreate, a, b,
                                 region.circle());
        self.link_->InstallMatch(w, epoch, MatchOp::kCreate, a, b,
                                 region.circle());
      }
    }
  }

  void DissolveMatch(UserId u, UserId w) {
    matched.erase(PairKey(u, w));
    if (self.options_.use_match_regions) {
      self.stats_.match_installs += 2;  // Deletion notices.
      EngineMetrics::Get().match_installs.Inc(2);
      if (self.link_ != nullptr) {
        const UserId a = std::min(u, w);
        const UserId b = std::max(u, w);
        self.link_->InstallMatch(u, epoch, MatchOp::kDelete, a, b, Circle{});
        self.link_->InstallMatch(w, epoch, MatchOp::kDelete, a, b, Circle{});
      }
    }
  }

  /// Applies one inserted edge to the incremental structures.
  void OnEdgeInserted(UserId u, UserId w, double r) {
    if (per_epoch_check) {
      const UserId a = std::min(u, w);
      const UserId b = std::max(u, w);
      const InterestGraph::Edge edge{a, b, r};
      const auto it = std::lower_bound(
          edge_cache.begin(), edge_cache.end(), edge,
          [](const InterestGraph::Edge& x, const InterestGraph::Edge& y) {
            return x.u != y.u ? x.u < y.u : x.w < y.w;
          });
      edge_cache.insert(it, edge);
    }
  }

  /// Applies one deleted edge to the incremental structures.
  void OnEdgeRemoved(UserId u, UserId w) {
    if (per_epoch_check) {
      const UserId a = std::min(u, w);
      const UserId b = std::max(u, w);
      const auto it = std::lower_bound(
          edge_cache.begin(), edge_cache.end(), InterestGraph::Edge{a, b, 0.0},
          [](const InterestGraph::Edge& x, const InterestGraph::Edge& y) {
            return x.u != y.u ? x.u < y.u : x.w < y.w;
          });
      if (it != edge_cache.end() && it->u == a && it->w == b) {
        edge_cache.erase(it);
      }
    }
  }

  /// Applies scheduled interest-graph changes at epoch start (Sec. VI-E).
  void ApplyGraphUpdates(size_t* next_update) {
    const auto& updates = world.scheduled_updates();
    bool changed = false;
    while (*next_update < updates.size() &&
           updates[*next_update].epoch <= epoch) {
      const GraphUpdate& up = updates[*next_update];
      ++*next_update;
      if (up.insert) {
        if (!graph.AddEdge(up.u, up.w, up.alert_radius)) continue;
        changed = true;
        OnEdgeInserted(up.u, up.w, up.alert_radius);
        // New pair: probe only when their current regions may violate the
        // radius (the paper's insertion rule).
        if (users[up.u].region && users[up.w].region &&
            ShapeMinDistanceBelow(*users[up.u].region, *users[up.w].region,
                                  epoch, up.alert_radius + self.options_.min_gap,
                                  /*inclusive=*/true)) {
          Probe(up.u);
          Probe(up.w);
        }
      } else {
        if (IsMatched(up.u, up.w)) DissolveMatch(up.u, up.w);
        if (!graph.RemoveEdge(up.u, up.w)) continue;
        changed = true;
        OnEdgeRemoved(up.u, up.w);
        // Safe regions are retained; they were conservative for the
        // deleted edge, which is always sound.
      }
    }
    if (changed && per_epoch_check && self.options_.validate_builds) {
      // The dynamic-graph tests run with validation on: the incremental
      // snapshot must equal a from-scratch re-sort after every batch.
      const bool snapshot_ok = EdgesEqual(edge_cache, graph.Edges());
      assert(snapshot_ok);
      (void)snapshot_ok;
    }
  }

  /// Clients compare their position against match regions (Algorithm 1
  /// lines 10-18). Parallel scan: both containment tests per pair fan out
  /// over the pool (the map and every position are read-only until the
  /// commit). Serial commit: reports, re-centers and dissolutions apply in
  /// sorted-key order, so stats and dissolution side effects are identical
  /// to the historical serial loop for any thread count.
  void MatchRegionPhase() {
    // Collect keys first: dissolution mutates the map.
    match_keys.clear();
    for (const auto& [key, region] : matched) {
      (void)region;
      match_keys.push_back(key);
    }
    std::sort(match_keys.begin(), match_keys.end());  // Deterministic.
    if (self.options_.use_match_regions) {
      const size_t n = match_keys.size();
      pair_inside.assign(n, 0);
      const size_t chunks = n == 0 ? 0 : (n + kPairGrain - 1) / kPairGrain;
      // Both strict containment tests of every pair stage as two adjacent
      // SoA lanes against the pair's match circle and settle in one batched
      // kernel call; ANDing the lane verdicts equals the scalar
      // `Contains(pu) && Contains(pw)` (pure predicates — short-circuiting
      // is unobservable).
      if (batch_chunks.size() < chunks) batch_chunks.resize(chunks);
      ParallelForChunked(n, kPairGrain, [&](size_t lo, size_t hi) {
        BatchScratch& sc = batch_chunks[lo / kPairGrain];
        const size_t m = (hi - lo) * 2;
        sc.ax.resize(m);
        sc.ay.resize(m);
        sc.ar.resize(m);
        sc.bx.resize(m);
        sc.by.resize(m);
        sc.flags.resize(m);
        for (size_t k = lo; k < hi; ++k) {
          const uint64_t key = match_keys[k];
          const Circle& c = matched.find(key)->second.circle();
          const Vec2& pu = users[PairKeyMin(key)].pos;
          const Vec2& pw = users[PairKeyMax(key)].pos;
          const size_t j = (k - lo) * 2;
          sc.ax[j] = sc.ax[j + 1] = c.center.x;
          sc.ay[j] = sc.ay[j + 1] = c.center.y;
          sc.ar[j] = sc.ar[j + 1] = c.radius;
          sc.bx[j] = pu.x;
          sc.by[j] = pu.y;
          sc.bx[j + 1] = pw.x;
          sc.by[j + 1] = pw.y;
        }
        SimdScanMetrics::Get().match_batch.Record(static_cast<double>(m));
        SimdScanMetrics::Get().dispatches.Inc();
        simd::CirclesContainPoints(sc.ax.data(), sc.ay.data(), sc.ar.data(),
                                   sc.bx.data(), sc.by.data(), m,
                                   /*strict=*/true, sc.flags.data());
        for (size_t k = lo; k < hi; ++k) {
          const size_t j = (k - lo) * 2;
          pair_inside[k] = sc.flags[j] != 0 && sc.flags[j + 1] != 0;
        }
      });
    }
    for (size_t k = 0; k < match_keys.size(); ++k) {
      const uint64_t key = match_keys[k];
      const auto it = matched.find(key);
      if (it == matched.end()) continue;
      const UserId u = PairKeyMin(key);
      const UserId w = PairKeyMax(key);
      if (self.options_.use_match_regions && pair_inside[k]) {
        continue;
      }
      Report(u);
      Report(w);
      const double r = graph.AlertRadius(u, w);
      const double d = Distance(users[u].pos, users[w].pos);
      if (d < r) {
        if (self.options_.use_match_regions) {
          it->second = MatchRegion::Make(users[u].pos, users[w].pos, r);
          self.stats_.match_installs += 2;
          EngineMetrics::Get().match_installs.Inc(2);
          if (self.link_ != nullptr) {
            self.link_->InstallMatch(u, epoch, MatchOp::kUpdate, u, w,
                                     it->second.circle());
            self.link_->InstallMatch(w, epoch, MatchOp::kUpdate, u, w,
                                     it->second.circle());
          }
        }
      } else {
        DissolveMatch(u, w);
        // Both return to safe-region tracking against each other.
        EnqueueRebuild(u);
        EnqueueRebuild(w);
      }
    }
  }

  /// Clients compare their position against their safe region (Algorithm 1
  /// lines 19-21). Parallel scan: every user's ShapeContains runs on the
  /// pool into a per-user flag (regions and positions are read-only here).
  /// Serial commit: Report / EnqueueRebuild / OnExit fire in user order,
  /// exactly as the historical serial loop did.
  void SafeRegionExitPhase() {
    const size_t n = users.size();
    exit_flags.assign(n, kInside);
    const size_t chunks = n == 0 ? 0 : (n + kUserGrain - 1) / kUserGrain;
    if (batch_chunks.size() < chunks) batch_chunks.resize(chunks);
    ParallelForChunked(n, kUserGrain, [&](size_t lo, size_t hi) {
      // Circle-form regions (initialization circles, FMD/CMD moving
      // circles) stage into SoA lanes and settle with one batched
      // closed-containment kernel call; stripes go through
      // Stripe::Contains, which is itself vectorized across the stripe's
      // cached segments. Verdicts are bit-exact either way, so exit_flags
      // is identical to the scalar scan's.
      BatchScratch& sc = batch_chunks[lo / kUserGrain];
      sc.ids.clear();
      sc.ax.clear();
      sc.ay.clear();
      sc.ar.clear();
      sc.bx.clear();
      sc.by.clear();
      for (size_t u = lo; u < hi; ++u) {
        if (!users[u].region) {
          // Only possible at epoch 0 before initialization.
          exit_flags[u] = kNeedsInit;
          continue;
        }
        Circle c;
        if (AsCircleAt(*users[u].region, epoch, &c)) {
          sc.ids.push_back(static_cast<uint32_t>(u));
          sc.ax.push_back(c.center.x);
          sc.ay.push_back(c.center.y);
          sc.ar.push_back(c.radius);
          sc.bx.push_back(users[u].pos.x);
          sc.by.push_back(users[u].pos.y);
        } else if (!ShapeContains(*users[u].region, users[u].pos, epoch)) {
          exit_flags[u] = kExited;
        }
      }
      const size_t m = sc.ids.size();
      sc.flags.resize(m);
      SimdScanMetrics::Get().exit_batch.Record(static_cast<double>(m));
      SimdScanMetrics::Get().dispatches.Inc();
      simd::CirclesContainPoints(sc.ax.data(), sc.ay.data(), sc.ar.data(),
                                 sc.bx.data(), sc.by.data(), m,
                                 /*strict=*/false, sc.flags.data());
      for (size_t k = 0; k < m; ++k) {
        if (!sc.flags[k]) exit_flags[sc.ids[k]] = kExited;
      }
    });
    for (UserId u = 0; u < static_cast<UserId>(n); ++u) {
      if (exit_flags[u] == kInside) continue;
      Report(u);
      EnqueueRebuild(u);
      if (exit_flags[u] == kExited) {
        EngineMetrics::Get().exits.Inc();
        self.policy_->OnExit(u);
      }
    }
  }

  /// Moving regions (FMD/CMD) drift toward each other between rebuilds;
  /// the server probes pairs whose regions may now violate the radius.
  ///
  /// Parallel scan: pair decisions run on the pool, filtered on the
  /// phase-*start* state (matched set and regions cannot change during this
  /// phase; needs_region only grows). Serial commit: flagged pairs are
  /// walked in ascending edge order with the skip conditions re-evaluated
  /// against the *current* state, so a probe issued for an earlier edge
  /// suppresses later edges of the same user exactly as the historical
  /// serial loop did.
  ///
  /// The scan covers every cached edge's region-pair comparison into a
  /// per-edge slot, committed in slot order: O(E) = O(F·N) per epoch, the
  /// paper's cost for a fixed average degree F (DESIGN.md §10).
  void PerEpochPairCheck() {
    const size_t n = edge_cache.size();
    edge_probe.assign(n, 0);
    const size_t chunks = n == 0 ? 0 : (n + kEdgeGrain - 1) / kEdgeGrain;
    if (batch_chunks.size() < chunks) batch_chunks.resize(chunks);
    ParallelForChunked(n, kEdgeGrain, [&](size_t lo, size_t hi) {
      // Circle-circle pairs (the only kind FMD/CMD install) stage into
      // SoA lanes; one batched gap < r kernel call settles the chunk.
      // ShapeMinDistanceBelow's AABB prune only ever skips exact math
      // whose outcome is already decided (box distance never exceeds the
      // shape distance), so the direct exact compare is outcome-identical.
      // Mixed/other shapes keep the pruned scalar call.
      BatchScratch& sc = batch_chunks[lo / kEdgeGrain];
      sc.ids.clear();
      sc.ax.clear();
      sc.ay.clear();
      sc.ar.clear();
      sc.bx.clear();
      sc.by.clear();
      sc.br.clear();
      sc.thr.clear();
      for (size_t i = lo; i < hi; ++i) {
        const auto& e = edge_cache[i];
        if (IsMatched(e.u, e.w)) continue;
        if (needs_region(e.u) || needs_region(e.w)) continue;
        if (!users[e.u].region || !users[e.w].region) continue;
        Circle ca, cb;
        if (AsCircleAt(*users[e.u].region, epoch, &ca) &&
            AsCircleAt(*users[e.w].region, epoch, &cb)) {
          sc.ids.push_back(static_cast<uint32_t>(i));
          sc.ax.push_back(ca.center.x);
          sc.ay.push_back(ca.center.y);
          sc.ar.push_back(ca.radius);
          sc.bx.push_back(cb.center.x);
          sc.by.push_back(cb.center.y);
          sc.br.push_back(cb.radius);
          sc.thr.push_back(e.alert_radius);
        } else {
          edge_probe[i] = ShapeMinDistanceBelow(
              *users[e.u].region, *users[e.w].region, epoch, e.alert_radius);
        }
      }
      const size_t m = sc.ids.size();
      sc.flags.resize(m);
      SimdScanMetrics::Get().pair_check_batch.Record(static_cast<double>(m));
      SimdScanMetrics::Get().dispatches.Inc();
      simd::CirclePairsGapBelow(sc.ax.data(), sc.ay.data(), sc.ar.data(),
                                sc.bx.data(), sc.by.data(), sc.br.data(),
                                sc.thr.data(), m, sc.flags.data());
      for (size_t k = 0; k < m; ++k) {
        edge_probe[sc.ids[k]] = sc.flags[k];
      }
    });
    for (size_t i = 0; i < n; ++i) {
      if (!edge_probe[i]) continue;
      const auto& e = edge_cache[i];
      // Re-check with commit-time state: earlier probes may have flagged
      // an endpoint for rebuild, which skips the pair just as the serial
      // loop would have.
      if (IsMatched(e.u, e.w)) continue;
      if (needs_region(e.u) || needs_region(e.w)) continue;
      EngineMetrics::Get().pair_check_probed_edges.Inc();
      Probe(e.u);
      Probe(e.w);
    }
  }

  /// The rebuild loop of Algorithm 1 as plan -> build -> commit. The
  /// planner pops users in FIFO order and does everything the protocol's
  /// control flow depends on: it probes friends that are dangerously close,
  /// detects fresh matches, and collects the friend views. It then appends
  /// a build task to the window instead of building. A flush builds the
  /// window's regions on the pool and commits them in task order.
  ///
  /// The output equals a serial loop that builds each region as it is
  /// popped, because nothing the planner decides reads a build's result:
  /// which users rebuild, every probe and alert, and each view's kind
  /// (borrowed or virtual circle) depend only on flags, positions and
  /// speeds. A result is read only as a borrowed constraint by a later
  /// friend's view, and the planner commits the window before planning
  /// such a view. It also commits before any link call, so a transported
  /// run sends the serial loop's exact call sequence.
  void ResolvePhase() {
    while (!queue.empty()) {
      const UserId u = queue.front();
      queue.pop_front();
      if (!needs_region(u)) continue;
      const Vec2 l_u = users[u].pos;
      const double v_u = users[u].speed;

      // Pass 1: probe friends whose region leaves no slack, then settle
      // alerts against every exact friend. A planned friend is reported,
      // so its uncommitted region is never read here.
      for (const FriendEdge& fe : graph.FriendsOf(u)) {
        const UserId w = fe.other;
        if (IsMatched(u, w)) continue;
        if (!reported(w)) {
          // gap <= min_gap + closing, phrased so the AABB lower bound can
          // settle the comparison without exact point-to-shape geometry.
          const double closing =
              self.options_.probe_horizon_epochs * (v_u + users[w].speed);
          if (ShapeDistanceToPointBelow(
                  *users[w].region, l_u, epoch,
                  fe.alert_radius + self.options_.min_gap + closing,
                  /*inclusive=*/true)) {
            Probe(w);
          }
        }
        if (reported(w)) {
          const double d = Distance(l_u, users[w].pos);
          if (d < fe.alert_radius) CreateMatch(u, w, fe.alert_radius);
        }
      }

      // A planned friend's view would borrow its region, which is not
      // committed yet: flush first.
      if (window_size > 0) {
        for (const FriendEdge& fe : graph.FriendsOf(u)) {
          if (planned(fe.other) && !IsMatched(u, fe.other)) {
            FlushBuilds(kFlushDependency);
            break;
          }
        }
      }

      if (window_size == build_tasks.size()) build_tasks.emplace_back();
      BuildTask& task = build_tasks[window_size++];
      task.u = u;
      task.location = l_u;
      task.speed = v_u;

      // Pass 2: collect effective constraint regions for unmatched friends.
      task.views.clear();
      for (const FriendEdge& fe : graph.FriendsOf(u)) {
        const UserId w = fe.other;
        if (IsMatched(u, w)) continue;
        FriendView view;
        view.id = w;
        view.alert_radius = fe.alert_radius;
        view.speed = std::max(users[w].speed, kMinSpeed);
        if (reported(w) && needs_region(w) && !rebuilt(w)) {
          // Friend rebuilds later this epoch: constrain against a virtual
          // circle holding its Eq. (5) share of the slack, so the pair
          // splits the corridor speed-proportionally (Lemma 2); safety is
          // then sealed when the friend builds against u's real region.
          const double d = Distance(l_u, users[w].pos);
          const double share = InitializationRadius(view.speed, v_u, d,
                                                    fe.alert_radius);
          view.owned_region = Circle{users[w].pos, share};
        } else {
          view.borrowed = &*users[w].region;
        }
        task.views.push_back(std::move(view));
      }
      world.RecentWindow(u, epoch, self.options_.window, &task.recent);

      mark(u, kRebuilt | kPlanned);
      unmark(u, kNeedsRegion);
      if (window_size == kMaxBuildWindow) FlushBuilds(kFlushCap);
    }
    if (window_size > 0) FlushBuilds(kFlushEnd);
  }

  /// Builds every planned region (on the pool when the window holds
  /// enough work; each task writes only its own slot), then commits them
  /// in task order: metric samples, validation, InstallRegion, install.
  void FlushBuilds(FlushCause cause) {
    const size_t n = window_size;
    window_size = 0;
    const ResolveMetrics& rm = ResolveMetrics::Get();
    rm.window.Record(static_cast<double>(n));
    rm.flushes[cause]->Inc();
    const auto build = [this](size_t i) {
      BuildTask& t = build_tasks[i];
      obs::ScopedRecordCapture capture(&t.samples);
      t.shape = self.policy_->BuildRegion(t.u, t.location, t.recent, t.speed,
                                          t.views, epoch);
    };
    if (static_cast<double>(n) * build_seconds < kMinParallelSeconds) {
      const WallTimer timer;
      for (size_t i = 0; i < n; ++i) build(i);
      build_seconds = timer.ElapsedSeconds() / static_cast<double>(n);
    } else {
      ParallelFor(n, build);
    }
    for (size_t i = 0; i < n; ++i) CommitBuild(build_tasks[i]);
  }

  void CommitBuild(BuildTask& t) {
    t.samples.Replay();
    if (self.options_.validate_builds) {
      assert(ShapeContains(t.shape, t.location, epoch));
      for (const FriendView& view : t.views) {
        const double d = ShapeMinDistance(t.shape, view.region(), epoch);
        assert(d >= view.alert_radius - 1e-6);
        (void)d;
      }
    }
    if (self.link_ != nullptr) self.link_->InstallRegion(t.u, epoch, t.shape);
    users[t.u].region = std::move(t.shape);
    unmark(t.u, kPlanned);
    self.stats_.region_installs += 1;
    self.rebuild_count_ += 1;
    EngineMetrics::Get().region_installs.Inc();
    EngineMetrics::Get().rebuilds.Inc();
  }

  void Run() {
    size_t next_update = 0;
    for (epoch = 0; epoch < world.epochs(); ++epoch) {
      // Streaming worlds generate this epoch's positions here — the one
      // serial point before the parallel fetch fan-out below.
      world.BeginEpoch(epoch);
      // Per-epoch flags clear in one pass over the dense byte array;
      // the position fetch fans out over independent slots.
      std::fill(epoch_flags.begin(), epoch_flags.end(), uint8_t{0});
      ParallelForChunked(users.size(), kUserGrain, [&](size_t lo, size_t hi) {
        for (size_t u = lo; u < hi; ++u) {
          users[u].pos = world.Position(static_cast<UserId>(u), epoch);
        }
      });
      queue.clear();
      EngineMetrics::Get().epochs.Inc();
      {
        // Server-side bookkeeping time (Figure 8's CPU axis) now accumulates
        // via RAII: no phase reordering or early exit can skip it. The phase
        // spans only observe — recording happens outside the traced scopes'
        // bodies and never feeds back into the computation.
        ScopedTimer server_timer(self.stats_.server_seconds);
        {
          obs::TraceScope span("graph_updates", "engine");
          ApplyGraphUpdates(&next_update);
        }
        {
          obs::TraceScope span("match_region", "engine");
          ScopedTimer phase_timer(self.phase_times_.match_region);
          MatchRegionPhase();
        }
        {
          obs::TraceScope span("exit_scan", "engine");
          ScopedTimer phase_timer(self.phase_times_.exit_check);
          SafeRegionExitPhase();
        }
        if (per_epoch_check) {
          obs::TraceScope span("pair_check", "engine");
          ScopedTimer phase_timer(self.phase_times_.pair_check);
          PerEpochPairCheck();
        }
        {
          obs::TraceScope span("resolve", "engine");
          ScopedTimer phase_timer(self.phase_times_.rebuild);
          ResolvePhase();
        }
      }
      // Epoch barrier: lets a transported link flush its per-client batch
      // queues. Outside the server timer — it is wire time, not proximity
      // bookkeeping.
      if (self.link_ != nullptr) self.link_->EndEpoch(epoch);
    }
  }
};

void RegionDetector::Run(const World& world) {
  stats_ = CommStats();
  phase_times_ = PhaseTimes();
  alerts_.clear();
  rebuild_count_ = 0;
  Impl impl(world, *this);
  impl.Run();
}

}  // namespace proxdet
