#include "core/sweep.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "data/generators.h"
#include "test_util.h"
#include "topk/scoring.h"

namespace rrr {
namespace core {
namespace {

TEST(ExchangeAngleTest, KnownCrossing) {
  // a = (1, 0), b = (0, 1): equal scores at theta = pi/4.
  const double a[2] = {1.0, 0.0};
  const double b[2] = {0.0, 1.0};
  EXPECT_NEAR(AngularSweep::ExchangeAngle(a, b), M_PI / 4, 1e-15);
}

TEST(ExchangeAngleTest, DominatedPairNeverSwaps) {
  const double a[2] = {0.9, 0.9};
  const double b[2] = {0.5, 0.5};
  EXPECT_LT(AngularSweep::ExchangeAngle(a, b), 0.0);
}

TEST(ExchangeAngleTest, EqualXNeverSwaps) {
  const double a[2] = {0.5, 0.8};
  const double b[2] = {0.5, 0.2};
  EXPECT_LT(AngularSweep::ExchangeAngle(a, b), 0.0);
}

TEST(ExchangeAngleTest, AngleIsWhereScoresCross) {
  const double a[2] = {0.8, 0.2};
  const double b[2] = {0.3, 0.9};
  const double theta = AngularSweep::ExchangeAngle(a, b);
  ASSERT_GT(theta, 0.0);
  const double sa = a[0] * std::cos(theta) + a[1] * std::sin(theta);
  const double sb = b[0] * std::cos(theta) + b[1] * std::sin(theta);
  EXPECT_NEAR(sa, sb, 1e-12);
}

TEST(AngularSweepTest, InitialOrderIsXThenYDescending) {
  data::Dataset ds = testing::MakeDataset(
      {{0.5, 0.9}, {0.8, 0.1}, {0.5, 0.2}, {0.9, 0.4}});
  AngularSweep sweep(ds);
  EXPECT_EQ(sweep.InitialOrder(), (std::vector<int32_t>{3, 1, 0, 2}));
}

TEST(AngularSweepTest, PaperExampleEventCountAndFinalOrder) {
  data::Dataset ds = testing::PaperFigure1Dataset();
  AngularSweep sweep(ds);
  std::vector<int32_t> order = sweep.InitialOrder();
  // Start: ranking by x (t7, t1, t3, t2, t5, t4, t6).
  EXPECT_EQ(order, (std::vector<int32_t>{6, 0, 2, 1, 4, 3, 5}));
  sweep.Run([&](const SweepEvent& ev) {
    std::swap(order[ev.upper_position - 1], order[ev.upper_position]);
    EXPECT_EQ(order[ev.upper_position - 1], ev.item_up);
    EXPECT_EQ(order[ev.upper_position], ev.item_down);
    return true;
  });
  // End: ranking by y: t5(.72), t3(.6), t6(.52), t2(.45), t7(.43),
  // t4(.42), t1(.28).
  EXPECT_EQ(order, (std::vector<int32_t>{4, 2, 5, 1, 6, 3, 0}));
}

TEST(AngularSweepTest, EventsAreMonotoneInAngle) {
  const data::Dataset ds = data::GenerateUniform(100, 2, 17);
  AngularSweep sweep(ds);
  double last = 0.0;
  sweep.Run([&](const SweepEvent& ev) {
    EXPECT_GE(ev.angle, last - 1e-12);
    last = std::max(last, ev.angle);
    EXPECT_LE(ev.angle, M_PI / 2 + 1e-12);
    return true;
  });
}

TEST(AngularSweepTest, EarlyStopHonored) {
  const data::Dataset ds = data::GenerateUniform(50, 2, 18);
  AngularSweep sweep(ds);
  size_t seen = 0;
  const size_t applied = sweep.Run([&](const SweepEvent&) {
    ++seen;
    return seen < 5;
  });
  EXPECT_EQ(seen, 5u);
  EXPECT_EQ(applied, 5u);
}

TEST(AngularSweepTest, TinyInputs) {
  data::Dataset one = testing::MakeDataset({{0.3, 0.7}});
  EXPECT_EQ(AngularSweep(one).Run([](const SweepEvent&) { return true; }),
            0u);
  data::Dataset dominated = testing::MakeDataset({{0.9, 0.9}, {0.1, 0.1}});
  EXPECT_EQ(
      AngularSweep(dominated).Run([](const SweepEvent&) { return true; }),
      0u);
  data::Dataset crossing = testing::MakeDataset({{0.9, 0.1}, {0.1, 0.9}});
  EXPECT_EQ(
      AngularSweep(crossing).Run([](const SweepEvent&) { return true; }),
      1u);
}

TEST(AngularSweepTest, DuplicatePointsNeverSwap) {
  data::Dataset ds =
      testing::MakeDataset({{0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}});
  EXPECT_EQ(AngularSweep(ds).Run([](const SweepEvent&) { return true; }), 0u);
}

class SweepReplayTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SweepReplayTest, ReplayMatchesDirectSortAtSampledAngles) {
  // The fundamental sweep property: applying all exchanges with angle <=
  // theta to the initial order reproduces the ranking at theta.
  const auto [seed, n] = GetParam();
  const data::Dataset ds = data::GenerateUniform(
      static_cast<size_t>(n), 2, static_cast<uint64_t>(seed));
  AngularSweep sweep(ds);

  std::vector<SweepEvent> events;
  sweep.Run([&](const SweepEvent& ev) {
    events.push_back(ev);
    return true;
  });

  std::vector<int32_t> order = sweep.InitialOrder();
  size_t applied = 0;
  for (double theta : testing::AngleGrid(60)) {
    while (applied < events.size() && events[applied].angle <= theta) {
      const auto& ev = events[applied];
      std::swap(order[ev.upper_position - 1], order[ev.upper_position]);
      ++applied;
    }
    // Compare against a direct sort, skipping angles too close to an event
    // (where the exact tie-break at the crossing is ambiguous).
    const bool near_event =
        (applied < events.size() &&
         std::fabs(events[applied].angle - theta) < 1e-9) ||
        (applied > 0 && std::fabs(events[applied - 1].angle - theta) < 1e-9);
    if (near_event) continue;
    const std::vector<int32_t> direct =
        testing::TopKAtAngle(ds, theta, ds.size());
    EXPECT_EQ(order, direct) << "theta=" << theta;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomInputs, SweepReplayTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(8, 40, 150)));

}  // namespace
}  // namespace core
}  // namespace rrr
