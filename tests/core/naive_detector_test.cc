#include <gtest/gtest.h>

#include "core/detector.h"

namespace proxdet {
namespace {

Trajectory LineFrom(double x0, double step, size_t n) {
  std::vector<Vec2> pts;
  for (size_t i = 0; i < n; ++i) pts.push_back({x0 + step * i, 0.0});
  return Trajectory(std::move(pts), 5.0);
}

TEST(NaiveDetectorTest, ReportsEveryUserEveryEpoch) {
  std::vector<Trajectory> trajs;
  trajs.push_back(LineFrom(0, 0, 11));
  trajs.push_back(LineFrom(10000, 0, 11));
  trajs.push_back(LineFrom(20000, 0, 11));
  InterestGraph g(3);
  g.AddEdge(0, 1, 100.0);
  const World world(std::move(trajs), std::move(g), 1, 10);
  NaiveDetector naive;
  naive.Run(world);
  EXPECT_EQ(naive.stats().reports, 30u);
  EXPECT_EQ(naive.stats().probes, 0u);
  EXPECT_EQ(naive.stats().region_installs, 0u);
  EXPECT_TRUE(naive.SortedAlerts().empty());
}

TEST(NaiveDetectorTest, AlertsMatchGroundTruth) {
  std::vector<Trajectory> trajs;
  trajs.push_back(LineFrom(0, 0, 41));
  trajs.push_back(LineFrom(500, -8, 41));  // Approaches at 8 m/tick.
  InterestGraph g(2);
  g.AddEdge(0, 1, 300.0);  // d < 300 first at epoch 13 (500 - 16e).
  const World world(std::move(trajs), std::move(g), 2, 20);
  NaiveDetector naive;
  naive.Run(world);
  EXPECT_EQ(naive.SortedAlerts(), world.GroundTruthAlerts());
  EXPECT_EQ(naive.SortedAlerts().size(), 1u);
  // Two alert notifications (one per endpoint).
  EXPECT_EQ(naive.stats().alerts, 2u);
}

TEST(NaiveDetectorTest, HonorsDynamicInsertion) {
  std::vector<Trajectory> trajs;
  trajs.push_back(LineFrom(0, 0, 21));
  trajs.push_back(LineFrom(50, 0, 21));
  World world(std::move(trajs), InterestGraph(2), 1, 20);
  world.ScheduleUpdate({.epoch = 7, .insert = true, .u = 0, .w = 1,
                        .alert_radius = 100.0});
  NaiveDetector naive;
  naive.Run(world);
  const auto alerts = naive.SortedAlerts();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].epoch, 7);
  EXPECT_EQ(naive.SortedAlerts(), world.GroundTruthAlerts());
}

TEST(NaiveDetectorTest, PairRemovedAndReAddedInOneBatchStartsUnmatched) {
  // Users 0 and 1 sit 50 m apart under a 100 m radius: matched from epoch
  // 0. Removing and re-adding the pair in epoch 6's batch drops its state,
  // so the re-added pair alerts again.
  std::vector<Trajectory> trajs;
  trajs.push_back(LineFrom(0, 0, 21));
  trajs.push_back(LineFrom(50, 0, 21));
  InterestGraph g(2);
  g.AddEdge(0, 1, 100.0);
  World world(std::move(trajs), std::move(g), 1, 20);
  world.ScheduleUpdate({.epoch = 6, .insert = false, .u = 1, .w = 0});
  world.ScheduleUpdate({.epoch = 6, .insert = true, .u = 0, .w = 1,
                        .alert_radius = 100.0});
  NaiveDetector naive;
  naive.Run(world);
  const auto alerts = naive.SortedAlerts();
  ASSERT_EQ(alerts.size(), 2u);
  EXPECT_EQ(alerts[0].epoch, 0);
  EXPECT_EQ(alerts[1].epoch, 6);
  EXPECT_EQ(alerts, world.GroundTruthAlerts());
}

TEST(NaiveDetectorTest, MatchedStateFollowsItsPairAcrossEdgeRebuilds) {
  // Pair (1, 2) is in range from epoch 0. Inserting (0, 1) and (0, 2) moves
  // it from edge slot 0 to slot 2, removing (0, 1) moves it back to slot 1;
  // its matched state must move with it, so it alerts exactly once.
  std::vector<Trajectory> trajs;
  trajs.push_back(LineFrom(10000, 0, 21));
  trajs.push_back(LineFrom(0, 0, 21));
  trajs.push_back(LineFrom(40, 0, 21));
  InterestGraph g(3);
  g.AddEdge(1, 2, 100.0);
  World world(std::move(trajs), std::move(g), 1, 20);
  world.ScheduleUpdate({.epoch = 4, .insert = true, .u = 0, .w = 1,
                        .alert_radius = 100.0});
  world.ScheduleUpdate({.epoch = 4, .insert = true, .u = 2, .w = 0,
                        .alert_radius = 100.0});
  world.ScheduleUpdate({.epoch = 9, .insert = false, .u = 0, .w = 1});
  NaiveDetector naive;
  naive.Run(world);
  const auto alerts = naive.SortedAlerts();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].epoch, 0);
  EXPECT_EQ(alerts, world.GroundTruthAlerts());
}

TEST(NaiveDetectorTest, RunIsRepeatable) {
  std::vector<Trajectory> trajs;
  trajs.push_back(LineFrom(0, 0, 21));
  trajs.push_back(LineFrom(500, -5, 21));
  InterestGraph g(2);
  g.AddEdge(0, 1, 300.0);
  const World world(std::move(trajs), std::move(g), 1, 20);
  NaiveDetector naive;
  naive.Run(world);
  const auto first = naive.SortedAlerts();
  const auto reports = naive.stats().reports;
  naive.Run(world);
  EXPECT_EQ(naive.SortedAlerts(), first);
  EXPECT_EQ(naive.stats().reports, reports);  // Stats reset per run.
}

}  // namespace
}  // namespace proxdet
