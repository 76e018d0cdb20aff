// Audit of the library-wide tie-break contract (topk/scoring.h): higher
// score first, exact score ties broken by lower tuple id. Every component
// that orders tuples — the top-k scans, the 2D angular sweep, the k-set
// enumerations — must agree on this order, or duplicate-score tuples get
// different ranks in different components and the solvers' certificates
// stop composing. These tests pin the contract on duplicate-heavy data.
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/evaluator.h"
#include "core/kset_enum2d.h"
#include "core/kset_graph.h"
#include "core/mdrc.h"
#include "core/rrr2d.h"
#include "core/sweep.h"
#include "geometry/angles.h"
#include "data/generators.h"
#include "topk/scoring.h"
#include "test_util.h"

namespace rrr {
namespace core {
namespace {

/// Duplicate-heavy 2D dataset: exact coordinate duplicates (ids 0/1, 2/3,
/// 8), same-score-at-45-degrees pairs (4/5), an x-tie with distinct y
/// (9 vs 0/1, score tie at theta = 0) and a y-tie with distinct x (10 vs 7,
/// score tie at theta = pi/2).
data::Dataset DuplicateHeavy2D() {
  return testing::MakeDataset({{0.8, 0.2},
                               {0.8, 0.2},
                               {0.5, 0.5},
                               {0.5, 0.5},
                               {0.7, 0.3},
                               {0.3, 0.7},
                               {0.9, 0.1},
                               {0.1, 0.9},
                               {0.5, 0.5},
                               {0.8, 0.6},
                               {0.15, 0.9}});
}

TEST(TieBreakTest, OutranksIsAStrictWeakOrdering) {
  // Exhaustive check over a duplicate-rich score/id set: irreflexivity,
  // asymmetry, transitivity, and transitivity of equivalence.
  struct Item {
    double score;
    int32_t id;
  };
  std::vector<Item> items;
  int32_t next_id = 0;
  for (double s : {0.0, 0.25, 0.25, 0.5, 0.5, 0.5, 1.0}) {
    items.push_back({s, next_id++});
  }
  auto lt = [](const Item& a, const Item& b) {
    return topk::Outranks(a.score, a.id, b.score, b.id);
  };
  for (const Item& a : items) {
    EXPECT_FALSE(lt(a, a)) << "irreflexivity";
    for (const Item& b : items) {
      if (lt(a, b)) {
        EXPECT_FALSE(lt(b, a)) << "asymmetry";
      }
      for (const Item& c : items) {
        if (lt(a, b) && lt(b, c)) {
          EXPECT_TRUE(lt(a, c)) << "transitivity";
        }
        // Equivalence (neither outranks) must also be transitive.
        const bool ab_equiv = !lt(a, b) && !lt(b, a);
        const bool bc_equiv = !lt(b, c) && !lt(c, b);
        if (ab_equiv && bc_equiv) {
          EXPECT_TRUE(!lt(a, c) && !lt(c, a)) << "equivalence transitivity";
        }
      }
    }
  }
  // The tie-break makes the order total: distinct items never tie.
  for (size_t i = 0; i < items.size(); ++i) {
    for (size_t j = i + 1; j < items.size(); ++j) {
      EXPECT_TRUE(lt(items[i], items[j]) || lt(items[j], items[i]));
    }
  }
}

TEST(TieBreakTest, ExactDuplicatesKeepIdOrderThroughTheSweep) {
  // Exact coordinate duplicates tie under every function; the documented
  // order (lower id first) must hold in the sweep's initial order and be
  // preserved across every exchange (duplicates never swap).
  const data::Dataset ds = DuplicateHeavy2D();
  AngularSweep sweep(ds);
  const std::vector<int32_t>& order = sweep.InitialOrder();
  auto pos = [&](int32_t id) {
    return std::find(order.begin(), order.end(), id) - order.begin();
  };
  EXPECT_LT(pos(0), pos(1));  // duplicates (0.8, 0.2)
  EXPECT_LT(pos(2), pos(3));  // duplicates (0.5, 0.5)
  EXPECT_LT(pos(3), pos(8));  // triple duplicate: 2 < 3 < 8
  sweep.Run([&](const SweepEvent& ev) {
    // No exchange may ever involve an exact-duplicate pair.
    const double* a = ds.row(static_cast<size_t>(ev.item_down));
    const double* b = ds.row(static_cast<size_t>(ev.item_up));
    EXPECT_FALSE(a[0] == b[0] && a[1] == b[1])
        << "duplicates " << ev.item_down << "/" << ev.item_up << " swapped";
    return true;
  });
}

TEST(TieBreakTest, SweepOrderMatchesTopKOrderBetweenEvents) {
  // Between consecutive exchange angles the sweep's full order must equal
  // the sort the top-k scan produces — including all duplicate ties. Checks
  // the midpoint of every event gap (and both endpoints' limits).
  const data::Dataset ds = DuplicateHeavy2D();
  const size_t n = ds.size();
  AngularSweep sweep(ds);
  std::vector<double> event_angles{0.0};
  sweep.Run([&](const SweepEvent& ev) {
    event_angles.push_back(ev.angle);
    return true;
  });
  event_angles.push_back(geometry::kHalfPi);
  std::vector<int32_t> current = sweep.InitialOrder();
  size_t next_event = 1;  // index into event_angles of the next exchange
  // Re-run, checking the order against TopK at each gap midpoint.
  sweep.Run([&](const SweepEvent& ev) {
    const double prev = event_angles[next_event - 1];
    const double mid = 0.5 * (prev + ev.angle);
    // Check only midpoints of gaps that are comfortably wide: inside a
    // cluster of numerically-coincident crossings the exact tie-break at
    // the crossing itself is ambiguous (same guard as sweep_test).
    if (mid - prev > 1e-9 && ev.angle - mid > 1e-9) {
      EXPECT_EQ(testing::TopKAtAngle(ds, mid, n), current)
          << "midpoint " << mid;
    }
    // Apply the exchange to the tracked order.
    auto it = std::find(current.begin(), current.end(), ev.item_down);
    EXPECT_NE(it, current.end());
    EXPECT_NE(it + 1, current.end());
    EXPECT_EQ(*(it + 1), ev.item_up);
    std::iter_swap(it, it + 1);
    ++next_event;
    return true;
  });
  // Last gap: up to pi/2. Skipped when the final events sit at exactly
  // pi/2 (endpoint id-tie exchanges model the exact weight vector (0, 1),
  // which a cos/sin-parameterized probe cannot reach: cos(pi/2) != 0 in
  // floating point).
  const double mid =
      0.5 * (event_angles[next_event - 1] + geometry::kHalfPi);
  if (mid - event_angles[next_event - 1] > 1e-9 &&
      geometry::kHalfPi - mid > 1e-9) {
    EXPECT_EQ(testing::TopKAtAngle(ds, mid, n), current);
  }
}

TEST(TieBreakTest, Enum2DContainsEverySampledKSetOnDuplicateData) {
  // Sweep-enumerated k-sets and scan-computed k-sets must agree on
  // duplicate-heavy data; a tie-break mismatch would make some sampled
  // top-k set miss from the enumeration.
  const data::Dataset ds = DuplicateHeavy2D();
  for (size_t k : {1u, 2u, 3u, 4u}) {
    Result<KSetCollection> enumerated = EnumerateKSets2D(ds, k);
    ASSERT_TRUE(enumerated.ok());
    for (double theta : testing::AngleGrid(257)) {
      KSet probe;
      probe.ids = testing::BruteTopKSet(
          ds, topk::LinearFunction::FromAngles({theta}), k);
      EXPECT_TRUE(enumerated->Contains(probe))
          << "k=" << k << " theta=" << theta;
    }
  }
}

TEST(TieBreakTest, MdrcHandlesDuplicateHeavyDataConsistently) {
  // MDRC's corner evaluations go through the same TopKSet; on duplicate
  // data its output must still satisfy the d*k bound under the exact 2D
  // evaluator (which orders via the sweep — the other side of the
  // contract).
  const data::Dataset ds = DuplicateHeavy2D();
  for (size_t k : {2u, 3u}) {
    MdrcStats stats;
    Result<std::vector<int32_t>> rep = SolveMdrc(ds, k, {}, &stats);
    ASSERT_TRUE(rep.ok());
    Result<int64_t> regret = SweepExactRankRegret2D(ds, *rep);
    ASSERT_TRUE(regret.ok());
    EXPECT_LE(*regret, static_cast<int64_t>(2 * k));
  }
}

TEST(TieBreakTest, ThetaZeroEndpointUsesTheIdTieBreak) {
  // Two tuples tied on x: under the endpoint function w = (1, 0) their
  // scores tie exactly, so the global tie-break (lower id) decides. The
  // sweep must start in that order and fire an angle-0 exchange to restore
  // the y-descending order for every theta > 0.
  const data::Dataset ds = testing::MakeDataset({{0.5, 0.2}, {0.5, 0.8}});
  EXPECT_EQ(testing::BruteTopK(ds, topk::LinearFunction({1.0, 0.0}), 2),
            (std::vector<int32_t>{0, 1}));
  AngularSweep sweep(ds);
  EXPECT_EQ(sweep.InitialOrder(), (std::vector<int32_t>{0, 1}));
  std::vector<SweepEvent> events;
  sweep.Run([&](const SweepEvent& ev) {
    events.push_back(ev);
    return true;
  });
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].angle, 0.0);
  EXPECT_EQ(events[0].item_up, 1);
  // Regression: the exact evaluator must see rank 2 for {1} at theta = 0
  // (it used to report 1, silently using the theta -> 0+ limit order at
  // the closed endpoint).
  EXPECT_EQ(*SweepExactRankRegret2D(ds, {1}), 2);
  EXPECT_EQ(*SweepExactRankRegret2D(ds, {0}), 2);  // rank 2 for theta > 0
}

TEST(TieBreakTest, ThetaHalfPiEndpointUsesTheIdTieBreak) {
  // Two tuples tied on y: under w = (0, 1) the lower id wins, so the sweep
  // must exchange them at exactly pi/2.
  const data::Dataset ds = testing::MakeDataset({{0.2, 0.5}, {0.8, 0.5}});
  EXPECT_EQ(testing::BruteTopK(ds, topk::LinearFunction({0.0, 1.0}), 2),
            (std::vector<int32_t>{0, 1}));
  AngularSweep sweep(ds);
  EXPECT_EQ(sweep.InitialOrder(), (std::vector<int32_t>{1, 0}));
  std::vector<SweepEvent> events;
  sweep.Run([&](const SweepEvent& ev) {
    events.push_back(ev);
    return true;
  });
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].angle, geometry::kHalfPi);
  EXPECT_EQ(events[0].item_up, 0);
  // Regression: {1} is rank 1 for every theta < pi/2 but rank 2 at the
  // endpoint; the evaluator used to miss the endpoint and report 1.
  EXPECT_EQ(*SweepExactRankRegret2D(ds, {1}), 2);
  EXPECT_EQ(*SweepExactRankRegret2D(ds, {0}), 2);
}

TEST(TieBreakTest, EndpointKSetsAreEnumerated) {
  // The k-sets of the endpoint functions (exact weight vectors) must be in
  // the sweep-based enumeration on tie-heavy data.
  const data::Dataset ds = DuplicateHeavy2D();
  for (size_t k : {1u, 2u, 3u}) {
    Result<KSetCollection> sets = EnumerateKSets2D(ds, k);
    ASSERT_TRUE(sets.ok());
    for (const auto& weights :
         {std::vector<double>{1.0, 0.0}, std::vector<double>{0.0, 1.0}}) {
      KSet probe;
      probe.ids = testing::BruteTopKSet(ds, topk::LinearFunction(weights), k);
      EXPECT_TRUE(sets->Contains(probe)) << "k=" << k;
    }
  }
}

TEST(TieBreakTest, TwoDrrrCoversTheEndpointFunctions) {
  // 2DRRR's interval cover works in limit semantics; the endpoint
  // functions (1,0) and (0,1) rank ties by id, so on tie data the solver
  // must add endpoint coverage or its own exact evaluator rejects the
  // output (regret 2 for k = 1 on both of these).
  const data::Dataset xtie = testing::MakeDataset({{0.5, 0.1}, {0.5, 0.9}});
  Result<std::vector<int32_t>> rep = Solve2dRrr(xtie, 1);
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(*rep, (std::vector<int32_t>{0, 1}));
  EXPECT_EQ(*SweepExactRankRegret2D(xtie, *rep), 1);

  const data::Dataset ytie = testing::MakeDataset({{0.2, 0.5}, {0.8, 0.5}});
  rep = Solve2dRrr(ytie, 1);
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(*rep, (std::vector<int32_t>{0, 1}));
  EXPECT_EQ(*SweepExactRankRegret2D(ytie, *rep), 1);

  // Duplicate-heavy data: the cover must satisfy its k under the exact
  // evaluator (which includes both endpoints).
  const data::Dataset ds = DuplicateHeavy2D();
  for (size_t k : {1u, 2u, 3u}) {
    Result<std::vector<int32_t>> cover = Solve2dRrr(ds, k);
    ASSERT_TRUE(cover.ok());
    EXPECT_LE(*SweepExactRankRegret2D(ds, *cover),
              static_cast<int64_t>(k))
        << "k=" << k;
  }
}

TEST(TieBreakTest, TieCascadesDoNotLeakPhantomOrders) {
  // Eight tuples all tied on x: exactly two realizable rankings exist
  // (theta = 0: id order; theta > 0: y order). The angle-0 exchange
  // cascade that reorders the block must not leak its intermediate
  // bubble-sort states into consumers — the regret of {0, 7} is
  // max(rank 1 at theta = 0, rank 2 for theta > 0) = 2, and an evaluator
  // observing mid-cascade orders would report up to 7.
  const data::Dataset ds = testing::MakeDataset(
      {{0.5, 0.1},
       {0.5, 0.9},
       {0.5, 0.8},
       {0.5, 0.7},
       {0.5, 0.6},
       {0.5, 0.5},
       {0.5, 0.4},
       {0.5, 0.85}});
  EXPECT_EQ(*SweepExactRankRegret2D(ds, {0, 7}), 2);
  EXPECT_EQ(*SweepExactRankRegret2D(ds, {0}), 8);  // bottom for theta > 0
  EXPECT_EQ(*SweepExactRankRegret2D(ds, {1}), 2);  // top for theta > 0

  // Exactly two k-sets exist for every k < n (one per realizable order,
  // and they may coincide); mid-cascade phantom k-sets must not appear.
  for (size_t k : {1u, 2u, 3u}) {
    Result<KSetCollection> sets = EnumerateKSets2D(ds, k);
    ASSERT_TRUE(sets.ok());
    EXPECT_LE(sets->size(), 2u) << "k=" << k;
    KSet endpoint;
    endpoint.ids =
        testing::BruteTopKSet(ds, topk::LinearFunction({1.0, 0.0}), k);
    EXPECT_TRUE(sets->Contains(endpoint));
    KSet interior;
    interior.ids = testing::BruteTopKSet(
        ds, topk::LinearFunction::FromAngles({0.3}), k);
    EXPECT_TRUE(sets->Contains(interior));
  }

  // The settled flag itself: every angle-0 event except the last is
  // unsettled, and the final maintained order is the y-descending one.
  AngularSweep sweep(ds);
  size_t unsettled = 0;
  size_t settled = 0;
  sweep.Run([&](const SweepEvent& ev) {
    EXPECT_EQ(ev.angle, 0.0);
    if (ev.settled) {
      ++settled;
    } else {
      ++unsettled;
    }
    return true;
  });
  EXPECT_EQ(settled, 1u);
  EXPECT_GT(unsettled, 0u);
}

TEST(TieBreakTest, DuplicateBandsProduceIdenticalRanksEverywhere) {
  // A dataset that is *only* duplicates: two bands of identical points.
  // Every component must rank band members purely by id.
  const data::Dataset ds = testing::MakeDataset(
      {{0.6, 0.6}, {0.2, 0.2}, {0.6, 0.6}, {0.2, 0.2}, {0.6, 0.6}});
  // TopK: high band by id, then low band by id.
  EXPECT_EQ(testing::TopKAtAngle(ds, 0.3, 5),
            (std::vector<int32_t>{0, 2, 4, 1, 3}));
  // Sweep initial order agrees, and no exchange ever fires.
  AngularSweep sweep(ds);
  EXPECT_EQ(sweep.InitialOrder(), (std::vector<int32_t>{0, 2, 4, 1, 3}));
  EXPECT_EQ(sweep.Run([](const SweepEvent&) { return true; }), 0u);
  // Exactly one k-set per k (the order never changes).
  for (size_t k : {1u, 2u, 3u}) {
    Result<KSetCollection> sets = EnumerateKSets2D(ds, k);
    ASSERT_TRUE(sets.ok());
    EXPECT_EQ(sets->size(), 1u) << "k=" << k;
  }
  // The exact evaluator sees rank 1 for {0} and rank 2 for {2} alone.
  EXPECT_EQ(*SweepExactRankRegret2D(ds, {0}), 1);
  EXPECT_EQ(*SweepExactRankRegret2D(ds, {2}), 2);
}

}  // namespace
}  // namespace core
}  // namespace rrr
