// Unit tests for the priority model (eqs. 1-3) and the data scheduling
// algorithms (Algorithm 1 + the CoolStreaming rarest-first baseline).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "core/params.hpp"
#include "core/priority.hpp"
#include "core/scheduler.hpp"
#include "util/rng.hpp"

namespace continu::core {
namespace {

PriorityInputs paper_inputs(SegmentId play_point = 100) {
  PriorityInputs in;
  in.play_point = play_point;
  in.rarest_weight = 0.0;  // test eq. 3 literally unless stated otherwise
  return in;
}

Candidate make_candidate(SegmentId id, std::vector<SupplierOffer> offers) {
  Candidate c;
  c.id = id;
  c.offers = std::move(offers);
  return c;
}

// ---------------------------------------------------------------------------
// Priority model
// ---------------------------------------------------------------------------

TEST(Priority, SlackMatchesEq1) {
  // t_i = (id_i - id_play)/p - 1/R_i, R_i the best offered rate.
  const auto c = make_candidate(120, {{1, 4.0, 10}, {2, 5.0, 10}});
  const auto in = paper_inputs(100);
  // distance = 20/10 = 2.0 s; best rate 5.0 -> 1/R = 0.2; slack = 1.8.
  EXPECT_NEAR(expected_slack(c, in), 1.8, 1e-12);
}

TEST(Priority, UrgencyIsInverseSlack) {
  const auto c = make_candidate(120, {{1, 5.0, 10}});
  EXPECT_NEAR(urgency(c, paper_inputs(100)), 1.0 / 1.8, 1e-12);
}

TEST(Priority, UrgencyGrowsAsDeadlineNears) {
  const auto in = paper_inputs(100);
  const auto far = make_candidate(200, {{1, 5.0, 10}});
  const auto near = make_candidate(105, {{1, 5.0, 10}});
  EXPECT_GT(urgency(near, in), urgency(far, in));
}

TEST(Priority, UrgencyClampedWhenSlackNonPositive) {
  // Segment just past reach: distance 0.1 s but transfer needs 0.5 s.
  const auto c = make_candidate(101, {{1, 2.0, 10}});
  EXPECT_DOUBLE_EQ(urgency(c, paper_inputs(100)), 100.0);
}

TEST(Priority, UrgencyZeroBeforePlayback) {
  const auto c = make_candidate(120, {{1, 5.0, 10}});
  EXPECT_DOUBLE_EQ(urgency(c, paper_inputs(kInvalidSegment)), 0.0);
}

TEST(Priority, RarityMatchesEq2) {
  // rarity = prod(p_ij / B).
  const auto c = make_candidate(120, {{1, 5.0, 300}, {2, 5.0, 600}});
  // 300/600 * 600/600 = 0.5.
  EXPECT_NEAR(rarity(c), 0.5, 1e-12);
}

TEST(Priority, RarityHigherNearEviction) {
  const auto fresh = make_candidate(1, {{1, 5.0, 10}});   // far from eviction
  const auto dying = make_candidate(2, {{1, 5.0, 590}});  // about to vanish
  EXPECT_GT(rarity(dying), rarity(fresh));
}

TEST(Priority, RarityDecreasesWithMoreSuppliers) {
  const auto one = make_candidate(1, {{1, 5.0, 300}});
  const auto two = make_candidate(1, {{1, 5.0, 300}, {2, 5.0, 300}});
  EXPECT_GT(rarity(one), rarity(two));
}

TEST(Priority, PositionsClampToBuffer) {
  const auto c = make_candidate(1, {{1, 5.0, 10000}});  // beyond B
  EXPECT_DOUBLE_EQ(rarity(c), 1.0);
  const auto z = make_candidate(1, {{1, 5.0, 0}});      // below 1
  EXPECT_NEAR(rarity(z), 1.0 / 600.0, 1e-12);
}

TEST(Priority, PriorityIsMaxOfBoth) {
  const auto in = paper_inputs(100);
  // Rare but not urgent.
  const auto rare = make_candidate(500, {{1, 5.0, 599}});
  EXPECT_DOUBLE_EQ(priority(rare, in), rarity(rare));
  // Urgent but common.
  const auto urgent_c = make_candidate(102, {{1, 5.0, 10}, {2, 5.0, 10}});
  EXPECT_DOUBLE_EQ(priority(urgent_c, in), urgency(urgent_c, in));
}

TEST(Priority, CompositeIncludesRarestFirstTerm) {
  auto in = paper_inputs(100);
  in.rarest_weight = 0.9;
  // A fresh single-holder segment far from its deadline: urgency and
  // eq. 2 rarity are both tiny, the pipeline term dominates.
  const auto fresh = make_candidate(400, {{1, 5.0, 1}});
  EXPECT_DOUBLE_EQ(priority(fresh, in), 0.9);
  // With more holders the term decays as w/n_i.
  const auto spread = make_candidate(400, {{1, 5.0, 1}, {2, 5.0, 1}, {3, 5.0, 1}});
  EXPECT_NEAR(priority(spread, in), 0.3, 1e-12);
}

TEST(Priority, UrgencyStillDominatesComposite) {
  auto in = paper_inputs(100);
  in.rarest_weight = 0.9;
  // A segment 0.4 s from its deadline outranks any fresh segment.
  const auto urgent_c = make_candidate(104, {{1, 10.0, 10}, {2, 10.0, 10}});
  EXPECT_GT(priority(urgent_c, in), 0.9);
}

TEST(Priority, RarestFirstScore) {
  const auto one = make_candidate(1, {{1, 5.0, 10}});
  const auto three = make_candidate(1, {{1, 5.0, 10}, {2, 5.0, 10}, {3, 5.0, 10}});
  EXPECT_DOUBLE_EQ(rarest_first_score(one), 1.0);
  EXPECT_NEAR(rarest_first_score(three), 1.0 / 3.0, 1e-12);
}

TEST(Priority, EmptyOfferListsRejected) {
  const auto c = make_candidate(1, {});
  EXPECT_THROW((void)rarity(c), std::invalid_argument);
  EXPECT_THROW((void)expected_slack(c, paper_inputs()), std::invalid_argument);
  EXPECT_THROW((void)rarest_first_score(c), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Algorithm 1 (greedy supplier selection)
// ---------------------------------------------------------------------------

ScheduleRequest simple_request(std::vector<Candidate> candidates,
                               std::size_t budget = 100) {
  ScheduleRequest r;
  r.candidates = std::move(candidates);
  r.priority_inputs = paper_inputs(0);
  r.inbound_budget = budget;
  return r;
}

TEST(Scheduler, AssignsEverySuppliableSegment) {
  auto request = simple_request({
      make_candidate(10, {{1, 10.0, 100}}),
      make_candidate(11, {{2, 10.0, 100}}),
  });
  const auto result = schedule_continu(request);
  EXPECT_EQ(result.assignments.size(), 2u);
  EXPECT_EQ(result.unassigned, 0u);
}

TEST(Scheduler, RespectsInboundBudget) {
  std::vector<Candidate> candidates;
  for (SegmentId id = 10; id < 30; ++id) {
    candidates.push_back(make_candidate(id, {{1, 100.0, 100}}));
  }
  auto request = simple_request(std::move(candidates), /*budget=*/5);
  const auto result = schedule_continu(request);
  EXPECT_EQ(result.assignments.size(), 5u);
  EXPECT_EQ(result.unassigned, 15u);
}

TEST(Scheduler, QueueTimeAccumulatesPerSupplier) {
  // One supplier at rate 4/s: each transfer costs 0.25 s of its queue.
  std::vector<Candidate> candidates;
  for (SegmentId id = 10; id < 16; ++id) {
    candidates.push_back(make_candidate(id, {{1, 4.0, 100}}));
  }
  auto request = simple_request(std::move(candidates));
  const auto result = schedule_continu(request);
  // Only 3 fit within the 1 s period (0.25, 0.5, 0.75; the 4th would
  // finish exactly at 1.0 which violates the strict < of line 7).
  EXPECT_EQ(result.assignments.size(), 3u);
  std::vector<double> times;
  for (const auto& a : result.assignments) times.push_back(a.expected_time);
  std::sort(times.begin(), times.end());
  EXPECT_NEAR(times[0], 0.25, 1e-12);
  EXPECT_NEAR(times[1], 0.50, 1e-12);
  EXPECT_NEAR(times[2], 0.75, 1e-12);
}

TEST(Scheduler, SpillsToSecondSupplierUnderLoad) {
  // Two suppliers; greedy should interleave once the first queues up.
  std::vector<Candidate> candidates;
  for (SegmentId id = 10; id < 18; ++id) {
    candidates.push_back(make_candidate(id, {{1, 4.0, 100}, {2, 4.0, 100}}));
  }
  auto request = simple_request(std::move(candidates));
  const auto result = schedule_continu(request);
  EXPECT_EQ(result.assignments.size(), 6u);  // 3 per supplier fit < 1 s
  std::map<NodeId, int> per_supplier;
  for (const auto& a : result.assignments) ++per_supplier[a.supplier];
  EXPECT_EQ(per_supplier[1], 3);
  EXPECT_EQ(per_supplier[2], 3);
}

TEST(Scheduler, PrefersFasterSupplier) {
  auto request = simple_request({
      make_candidate(10, {{1, 2.0, 100}, {2, 20.0, 100}}),
  });
  const auto result = schedule_continu(request);
  ASSERT_EQ(result.assignments.size(), 1u);
  EXPECT_EQ(result.assignments[0].supplier, 2u);
  EXPECT_NEAR(result.assignments[0].expected_time, 0.05, 1e-12);
}

TEST(Scheduler, SkipsTransfersSlowerThanPeriod) {
  // Rate 0.5/s: a single transfer takes 2 s > tau = 1 s.
  auto request = simple_request({make_candidate(10, {{1, 0.5, 100}})});
  const auto result = schedule_continu(request);
  EXPECT_TRUE(result.assignments.empty());
  EXPECT_EQ(result.unassigned, 1u);
}

TEST(Scheduler, ZeroRateOffersIgnored) {
  auto request = simple_request({make_candidate(10, {{1, 0.0, 100}})});
  const auto result = schedule_continu(request);
  EXPECT_TRUE(result.assignments.empty());
}

TEST(Scheduler, HighPriorityScheduledFirst) {
  // The urgent segment must win the fast supplier's front queue slot.
  // Supplier 1 is shared; segment 11 is much closer to its deadline.
  auto request = simple_request({
      make_candidate(500, {{1, 4.0, 10}}),
      make_candidate(11, {{1, 4.0, 10}}),
  });
  request.priority_inputs = paper_inputs(10);
  const auto result = schedule_continu(request);
  ASSERT_EQ(result.assignments.size(), 2u);
  EXPECT_EQ(result.assignments[0].segment, 11);
  EXPECT_LT(result.assignments[0].expected_time, result.assignments[1].expected_time);
}

TEST(Scheduler, NoDoubleAssignment) {
  std::vector<Candidate> candidates;
  for (SegmentId id = 0; id < 50; ++id) {
    candidates.push_back(make_candidate(id, {{1, 30.0, 100}, {2, 30.0, 100}}));
  }
  auto request = simple_request(std::move(candidates));
  const auto result = schedule_continu(request);
  std::set<SegmentId> seen;
  for (const auto& a : result.assignments) {
    EXPECT_TRUE(seen.insert(a.segment).second) << "segment assigned twice";
  }
}

TEST(Scheduler, CoolStreamingPicksRarest) {
  // Segment 20 has one supplier, 10 has three: rarest-first must take
  // 20 first even though 10 is earlier.
  auto request = simple_request({
      make_candidate(10, {{1, 10.0, 10}, {2, 10.0, 10}, {3, 10.0, 10}}),
      make_candidate(20, {{1, 10.0, 10}}),
  });
  const auto result = schedule_coolstreaming(request);
  ASSERT_EQ(result.assignments.size(), 2u);
  EXPECT_EQ(result.assignments[0].segment, 20);
}

TEST(Scheduler, CoolStreamingTieBreaksByEarlierId) {
  auto request = simple_request({
      make_candidate(30, {{1, 10.0, 10}}),
      make_candidate(20, {{2, 10.0, 10}}),
  });
  const auto result = schedule_coolstreaming(request);
  ASSERT_EQ(result.assignments.size(), 2u);
  EXPECT_EQ(result.assignments[0].segment, 20);
}

TEST(Scheduler, EmptyRequestYieldsEmptyResult) {
  auto request = simple_request({});
  const auto result = schedule_continu(request);
  EXPECT_TRUE(result.assignments.empty());
  EXPECT_EQ(result.unassigned, 0u);
}

TEST(Scheduler, ZeroBudgetAssignsNothing) {
  auto request = simple_request({make_candidate(10, {{1, 10.0, 100}})}, /*budget=*/0);
  const auto result = schedule_continu(request);
  EXPECT_TRUE(result.assignments.empty());
  EXPECT_EQ(result.unassigned, 1u);
}

// Property sweep: across random instances, both schedulers satisfy the
// structural invariants of Algorithm 1.
class SchedulerProperty : public ::testing::TestWithParam<int> {};

TEST_P(SchedulerProperty, InvariantsHoldOnRandomInstances) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n_candidates = 1 + rng.next_below(60);
    const std::size_t n_suppliers = 1 + rng.next_below(5);
    std::vector<Candidate> candidates;
    for (std::size_t i = 0; i < n_candidates; ++i) {
      Candidate c;
      c.id = 100 + static_cast<SegmentId>(i);
      for (std::size_t s = 0; s < n_suppliers; ++s) {
        if (rng.next_bool(0.6)) {
          c.offers.push_back(SupplierOffer{static_cast<NodeId>(s + 1),
                                           rng.next_range(0.5, 30.0),
                                           1 + rng.next_below(600)});
        }
      }
      if (!c.offers.empty()) candidates.push_back(std::move(c));
    }
    ScheduleRequest request;
    request.candidates = std::move(candidates);
    request.priority_inputs = paper_inputs(90);
    request.inbound_budget = 1 + rng.next_below(20);

    for (const bool continu : {true, false}) {
      const auto result =
          continu ? schedule_continu(request) : schedule_coolstreaming(request);
      // Invariant 1: budget respected.
      EXPECT_LE(result.assignments.size(), request.inbound_budget);
      // Invariant 2: unique segments.
      std::set<SegmentId> seen;
      // Invariant 3: per-supplier completion times fit in the period
      // and are consistent with cumulative queueing.
      std::map<NodeId, double> queue_time;
      for (const auto& a : result.assignments) {
        EXPECT_TRUE(seen.insert(a.segment).second);
        EXPECT_LT(a.expected_time, kSchedulingPeriod);
        EXPECT_GT(a.expected_time, queue_time[a.supplier]);
        queue_time[a.supplier] = a.expected_time;
      }
      // Invariant 4: assignments + unassigned == candidates considered.
      EXPECT_EQ(result.assignments.size() + result.unassigned,
                request.candidates.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerProperty, ::testing::Range(0, 10));

}  // namespace
}  // namespace continu::core
