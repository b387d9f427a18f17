// Differential and cache-invalidation tests for the incremental AS-RTM
// decision engine.
//
// The incremental engine (epoch cache, per-constraint columns, scratch
// buffers, bounded top-k) must be *bit-identical* to the retained
// brute-force reference (set_decision_cache_enabled(false)): the fuzz
// test drives randomized mutation/decide/feedback sequences through one
// instance per mode and asserts identical chosen indices, feasibility,
// corrections and journal records at every step.  The targeted tests
// pin the invalidation rules one by one: clean epochs are served from
// the cache, correction drift invalidates if and only if it exceeds the
// decision epsilon, quarantine transitions dirty the epoch (and ticks
// without active cooldowns do not), restore always lands dirty with a
// monotonic epoch, and a correction move recomputes only the columns of
// constraints on that metric.  The bound-pruned rank selection gets its
// own differential edge cases (exact ties, ties at the runner-up
// boundary, minimize and linear ranks, extreme weights and magnitudes,
// rank switches under quarantine, a Context-driven adapt loop) and a
// pin that a dirty decision evaluates only a handful of ranks exactly.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "margot/asrtm.hpp"
#include "margot/context.hpp"
#include "observability/metrics.hpp"
#include "platform/clock.hpp"
#include "platform/rapl.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace socrates::margot {
namespace {

constexpr std::size_t kTime = 0;
constexpr std::size_t kPower = 1;
constexpr std::size_t kThr = 2;

KnowledgeBase random_kb(Rng& rng, std::size_t n) {
  KnowledgeBase kb({"k"}, {"exec_time_s", "power_w", "throughput"});
  for (std::size_t i = 0; i < n; ++i) {
    const double t = rng.uniform(0.1, 10.0);
    const double p = rng.uniform(45.0, 150.0);
    kb.add(OperatingPoint{{static_cast<int>(i)},
                          {{t, 0.05 * t}, {p, 0.02 * p}, {1.0 / t, 0.01 / t}}});
  }
  return kb;
}

KnowledgeBase fixed_kb() {
  KnowledgeBase kb({"k"}, {"exec_time_s", "power_w", "throughput"});
  kb.add(OperatingPoint{{0}, {{10.0, 0.5}, {50.0, 1.0}, {0.1, 0.005}}});
  kb.add(OperatingPoint{{1}, {{4.0, 0.2}, {80.0, 2.0}, {0.25, 0.0125}}});
  kb.add(OperatingPoint{{2}, {{1.0, 0.05}, {140.0, 3.0}, {1.0, 0.05}}});
  return kb;
}

/// Compares every journal field except the epoch: the reference
/// instance pays one extra epoch bump for set_decision_cache_enabled(
/// false), so epochs run at a constant offset while all decision
/// content must match exactly.
void expect_same_journals(const DecisionJournal& incremental,
                          const DecisionJournal& brute) {
  ASSERT_EQ(incremental.size(), brute.size());
  ASSERT_EQ(incremental.total_decisions(), brute.total_decisions());
  auto it = incremental.records().begin();
  auto jt = brute.records().begin();
  for (; it != incremental.records().end(); ++it, ++jt) {
    EXPECT_EQ(it->sequence, jt->sequence);
    EXPECT_DOUBLE_EQ(it->timestamp_s, jt->timestamp_s);
    EXPECT_EQ(it->trigger, jt->trigger);
    EXPECT_EQ(it->chosen, jt->chosen);
    EXPECT_DOUBLE_EQ(it->chosen_score, jt->chosen_score);
    EXPECT_EQ(it->feasible, jt->feasible);
    ASSERT_EQ(it->rejected.size(), jt->rejected.size());
    for (std::size_t r = 0; r < it->rejected.size(); ++r) {
      EXPECT_EQ(it->rejected[r].op_index, jt->rejected[r].op_index);
      EXPECT_DOUBLE_EQ(it->rejected[r].score, jt->rejected[r].score);
    }
    EXPECT_EQ(it->quarantined, jt->quarantined);
  }
}

class AsrtmIncrementalFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AsrtmIncrementalFuzz, MatchesBruteForceReference) {
  Rng rng(GetParam());
  const KnowledgeBase kb = random_kb(rng, 24);

  Asrtm fast(kb);
  Asrtm slow(kb);
  slow.set_decision_cache_enabled(false);
  for (Asrtm* a : {&fast, &slow}) {
    a->set_quarantine_options({1, 2, 16});
    a->set_feedback_inertia(0.4);
    a->set_rank(Rank::maximize_throughput_per_watt2(kThr, kPower));
    a->enable_decision_journal(256);
    a->add_constraint({kPower, ComparisonOp::kLessEqual, 120.0, 0, 1.0});
    a->add_constraint({kThr, ComparisonOp::kGreaterEqual, 0.15, 1, 0.0});
    // Strict comparison: exercises the sign/violation mapping of the
    // branchless column pass for kLess as well.
    a->add_constraint({kTime, ComparisonOp::kLess, 9.5, 2, 0.5});
  }
  const std::size_t goal_handle = 0;

  double now = 0.0;
  for (int round = 0; round < 400; ++round) {
    const int op = static_cast<int>(rng.uniform_int(0, 8));
    switch (op) {
      case 0: {
        const double goal = rng.uniform(40.0, 160.0);
        fast.set_constraint_goal(goal_handle, goal);
        slow.set_constraint_goal(goal_handle, goal);
        break;
      }
      case 1: {
        const auto point = rng.uniform_int(0, kb.size() - 1);
        const std::size_t metric = rng.uniform_int(0, 2);
        const double observed =
            kb[point].metrics[metric].mean * rng.uniform(0.7, 1.4);
        fast.send_feedback(point, metric, observed);
        slow.send_feedback(point, metric, observed);
        break;
      }
      case 2: {
        const auto point = rng.uniform_int(0, kb.size() - 1);
        fast.report_variant_failure(point);
        slow.report_variant_failure(point);
        break;
      }
      case 3: {
        const auto point = rng.uniform_int(0, kb.size() - 1);
        fast.report_variant_success(point);
        slow.report_variant_success(point);
        break;
      }
      case 4:
        fast.advance_quarantine();
        slow.advance_quarantine();
        break;
      case 5: {
        now += rng.uniform(0.0, 0.5);
        fast.set_decision_time(now);
        slow.set_decision_time(now);
        break;
      }
      case 6: {
        std::ostringstream note;
        note << "fuzz trigger " << round;
        fast.note_decision_trigger(note.str());
        slow.note_decision_trigger(note.str());
        break;
      }
      default:
        break;  // decide on an untouched epoch (exercises the cache)
    }
    const std::size_t chosen_fast = fast.find_best_operating_point();
    const std::size_t chosen_slow = slow.find_best_operating_point();
    ASSERT_EQ(chosen_fast, chosen_slow) << "round " << round;
    ASSERT_EQ(fast.last_selection_feasible(), slow.last_selection_feasible())
        << "round " << round;
    for (std::size_t m = 0; m < 3; ++m)
      ASSERT_DOUBLE_EQ(fast.correction(m), slow.correction(m));
  }
  EXPECT_GT(fast.decision_journal().total_decisions(), 0u);
  expect_same_journals(fast.decision_journal(), slow.decision_journal());
}

INSTANTIATE_TEST_SUITE_P(Seeds, AsrtmIncrementalFuzz,
                         ::testing::Values(7, 42, 101, 2024, 31337, 5550123,
                                           987654321));

TEST(AsrtmIncremental, CleanEpochIsCached) {
  Asrtm asrtm(fixed_kb());
  asrtm.set_rank(Rank::minimize_exec_time(kTime));
  asrtm.add_constraint({kPower, ComparisonOp::kLessEqual, 100.0, 0, 0.0});

  Counter& cached = MetricsRegistry::global().counter("asrtm.decisions_cached");
  const std::uint64_t before = cached.value();
  const std::uint64_t epoch = asrtm.decision_epoch();

  const std::size_t first = asrtm.find_best_operating_point();
  EXPECT_FALSE(asrtm.last_decision_was_cached());
  const std::size_t second = asrtm.find_best_operating_point();
  EXPECT_TRUE(asrtm.last_decision_was_cached());
  EXPECT_EQ(first, second);
  EXPECT_TRUE(asrtm.last_selection_feasible());
  EXPECT_EQ(asrtm.decision_epoch(), epoch);  // queries never dirty
  EXPECT_EQ(cached.value(), before + 1);

  // Any mutation dirties; the next decision recomputes, then re-caches.
  asrtm.set_constraint_goal(0, 60.0);
  EXPECT_GT(asrtm.decision_epoch(), epoch);
  (void)asrtm.find_best_operating_point();
  EXPECT_FALSE(asrtm.last_decision_was_cached());
  (void)asrtm.find_best_operating_point();
  EXPECT_TRUE(asrtm.last_decision_was_cached());
}

TEST(AsrtmIncremental, EpsilonGatesCorrectionInvalidation) {
  Asrtm asrtm(fixed_kb());
  asrtm.set_rank(Rank::minimize_exec_time(kTime));
  asrtm.add_constraint({kPower, ComparisonOp::kLessEqual, 100.0, 0, 0.0});
  asrtm.set_feedback_inertia(1.0);
  asrtm.set_decision_epsilon(0.05);
  (void)asrtm.find_best_operating_point();

  // Drift below epsilon: the EWMA moves, the decision does not.
  const std::uint64_t epoch = asrtm.decision_epoch();
  asrtm.send_feedback(1, kPower, 82.0);  // correction 1.025, drift 0.025
  EXPECT_NEAR(asrtm.correction(kPower), 1.025, 1e-12);
  EXPECT_EQ(asrtm.decision_epoch(), epoch);
  (void)asrtm.find_best_operating_point();
  EXPECT_TRUE(asrtm.last_decision_was_cached());

  // Accumulated drift beyond epsilon from the last *applied* value is
  // accepted even though each step was small.
  asrtm.send_feedback(1, kPower, 85.0);  // correction 1.0625, drift 0.0625
  EXPECT_GT(asrtm.decision_epoch(), epoch);
  (void)asrtm.find_best_operating_point();
  EXPECT_FALSE(asrtm.last_decision_was_cached());

  // Well past epsilon in one step: invalidates immediately and the
  // decision visibly moves (op1's 80 W scales past the 100 W cap).
  asrtm.send_feedback(1, kPower, 104.0);
  (void)asrtm.find_best_operating_point();
  EXPECT_FALSE(asrtm.last_decision_was_cached());
  EXPECT_EQ(asrtm.find_best_operating_point(), 0u);

  // Epsilon 0 (the default) accepts any drift: bit-exact behaviour.
  asrtm.set_decision_epsilon(0.0);
  (void)asrtm.find_best_operating_point();
  const std::uint64_t exact_epoch = asrtm.decision_epoch();
  asrtm.send_feedback(1, kPower, 80.0 * asrtm.correction(kPower) * 1.0001);
  EXPECT_GT(asrtm.decision_epoch(), exact_epoch);
}

// Pins the boundary semantics documented at set_decision_epsilon():
// drift of *exactly* epsilon counts as beyond the threshold and is
// applied, while the re-sync performed by set_decision_epsilon() itself
// applies any nonzero pending drift unconditionally.
TEST(AsrtmIncremental, EpsilonBoundarySemantics) {
  Asrtm asrtm(fixed_kb());
  asrtm.set_rank(Rank::minimize_exec_time(kTime));
  asrtm.add_constraint({kPower, ComparisonOp::kLessEqual, 100.0, 0, 0.0});
  asrtm.set_feedback_inertia(1.0);
  asrtm.set_decision_epsilon(0.5);
  (void)asrtm.find_best_operating_point();

  // op1's power mean is 80 W, so these ratios are exact in double.
  const std::uint64_t e0 = asrtm.decision_epoch();
  asrtm.send_feedback(1, kPower, 120.0);  // correction 1.5, drift exactly 0.5
  EXPECT_GT(asrtm.decision_epoch(), e0) << "drift == epsilon must apply";

  const std::uint64_t e1 = asrtm.decision_epoch();
  asrtm.send_feedback(1, kPower, 100.0);  // correction 1.25, drift 0.25
  EXPECT_EQ(asrtm.decision_epoch(), e1) << "drift < epsilon must defer";
  EXPECT_NEAR(asrtm.correction(kPower), 1.25, 1e-12);

  // Re-setting even the *same* epsilon re-baselines the pending drift.
  asrtm.set_decision_epsilon(0.5);
  EXPECT_GT(asrtm.decision_epoch(), e1) << "set_decision_epsilon must re-sync";

  // After the re-sync the applied value is 1.25: a further 0.25 drift
  // sits below epsilon again.
  const std::uint64_t e2 = asrtm.decision_epoch();
  asrtm.send_feedback(1, kPower, 120.0);  // correction 1.5, drift 0.25
  EXPECT_EQ(asrtm.decision_epoch(), e2);
}

TEST(AsrtmIncremental, ReentrancyGuardTripsOnReentrantDecide) {
#if SOCRATES_ASRTM_REENTRANCY_GUARD
  Asrtm asrtm(fixed_kb());
  asrtm.set_rank(Rank::minimize_exec_time(kTime));
  asrtm.set_feedback_inertia(1.0);
  // A sink that re-enters the decision engine while send_feedback still
  // owns the mutable scratch: the debug guard must trip, not corrupt.
  asrtm.set_event_sink([&asrtm](const RuntimeEvent&) {
    (void)asrtm.find_best_operating_point();
  });
  EXPECT_THROW(asrtm.send_feedback(0, kPower, 55.0), ContractViolation);
  // The guard releases on unwind: the engine stays usable afterwards.
  asrtm.set_event_sink(nullptr);
  EXPECT_NO_THROW((void)asrtm.find_best_operating_point());
#else
  GTEST_SKIP() << "reentrancy guard compiled out (NDEBUG without "
                  "SOCRATES_DEBUG_GUARDS)";
#endif
}

TEST(AsrtmIncremental, QuarantineExpiryMidStreamInvalidates) {
  Asrtm asrtm(fixed_kb());
  asrtm.set_rank(Rank::minimize_exec_time(kTime));
  asrtm.set_quarantine_options({1, 2, 16});
  EXPECT_EQ(asrtm.find_best_operating_point(), 2u);

  asrtm.report_variant_failure(2);  // quarantined for 2 iterations
  EXPECT_TRUE(asrtm.is_quarantined(2));
  EXPECT_EQ(asrtm.find_best_operating_point(), 1u);
  EXPECT_FALSE(asrtm.last_decision_was_cached());
  (void)asrtm.find_best_operating_point();
  EXPECT_TRUE(asrtm.last_decision_was_cached());

  // Ticks with an active cooldown dirty the epoch (the countdown is a
  // decision input); once every cooldown is spent, ticks are free.
  asrtm.advance_quarantine();
  EXPECT_EQ(asrtm.find_best_operating_point(), 1u);
  EXPECT_FALSE(asrtm.last_decision_was_cached());
  asrtm.advance_quarantine();  // cooldown expires: op2 eligible again
  EXPECT_FALSE(asrtm.is_quarantined(2));
  EXPECT_EQ(asrtm.find_best_operating_point(), 2u);
  EXPECT_FALSE(asrtm.last_decision_was_cached());

  const std::uint64_t epoch = asrtm.decision_epoch();
  asrtm.advance_quarantine();  // nothing cooling: clean tick
  EXPECT_EQ(asrtm.decision_epoch(), epoch);
  (void)asrtm.find_best_operating_point();
  EXPECT_TRUE(asrtm.last_decision_was_cached());
}

TEST(AsrtmIncremental, RestoreResumesWithCoherentEpoch) {
  Asrtm asrtm(fixed_kb());
  asrtm.set_rank(Rank::minimize_exec_time(kTime));
  asrtm.add_constraint({kPower, ComparisonOp::kLessEqual, 100.0, 0, 0.0});
  asrtm.set_feedback_inertia(1.0);
  asrtm.send_feedback(1, kPower, 104.0);  // correction 1.3 -> op0 wins
  EXPECT_EQ(asrtm.find_best_operating_point(), 0u);
  const Asrtm::Snapshot snap = asrtm.snapshot();
  EXPECT_EQ(snap.decision_epoch, asrtm.decision_epoch());

  // A second instance restores the snapshot: its epoch must resume
  // strictly after both histories and the first decision must be a full
  // (uncached) one over the restored corrections.
  Asrtm resumed(fixed_kb());
  resumed.set_rank(Rank::minimize_exec_time(kTime));
  resumed.add_constraint({kPower, ComparisonOp::kLessEqual, 100.0, 0, 0.0});
  EXPECT_EQ(resumed.find_best_operating_point(), 1u);  // warm the cache
  resumed.restore(snap);
  EXPECT_GT(resumed.decision_epoch(), snap.decision_epoch);
  EXPECT_EQ(resumed.find_best_operating_point(), 0u);
  EXPECT_FALSE(resumed.last_decision_was_cached());
  (void)resumed.find_best_operating_point();
  EXPECT_TRUE(resumed.last_decision_was_cached());
}

TEST(AsrtmIncremental, ColumnsRecomputedOnlyForDirtyMetric) {
  Asrtm asrtm(fixed_kb());
  asrtm.set_rank(Rank::maximize_throughput(kThr));
  asrtm.add_constraint({kPower, ComparisonOp::kLessEqual, 150.0, 0, 1.0});
  asrtm.add_constraint({kTime, ComparisonOp::kLessEqual, 20.0, 1, 1.0});
  asrtm.set_feedback_inertia(1.0);
  Counter& recomputed =
      MetricsRegistry::global().counter("asrtm.columns_recomputed");

  (void)asrtm.find_best_operating_point();  // builds both columns
  std::uint64_t base = recomputed.value();

  // A goal change keeps every column valid: the cached constraint_value
  // columns are goal-independent.
  asrtm.set_constraint_goal(0, 120.0);
  (void)asrtm.find_best_operating_point();
  EXPECT_EQ(recomputed.value(), base);

  // Power correction moves: only the power column is rebuilt.
  asrtm.send_feedback(1, kPower, 88.0);
  (void)asrtm.find_best_operating_point();
  EXPECT_EQ(recomputed.value(), base + 1);
  base = recomputed.value();

  // Throughput correction moves: no constraint reads it, so a decision
  // rebuilds no column at all.
  asrtm.send_feedback(1, kThr, 0.3);
  (void)asrtm.find_best_operating_point();
  EXPECT_EQ(recomputed.value(), base);

  // invalidate_decision_cache is the sledgehammer: every column redone.
  asrtm.invalidate_decision_cache();
  (void)asrtm.find_best_operating_point();
  EXPECT_EQ(recomputed.value(), base + 2);
}

TEST(AsrtmIncremental, DisablingTheCacheStillDecidesCorrectly) {
  Asrtm asrtm(fixed_kb());
  asrtm.set_rank(Rank::minimize_exec_time(kTime));
  asrtm.add_constraint({kPower, ComparisonOp::kLessEqual, 100.0, 0, 0.0});
  asrtm.set_decision_cache_enabled(false);
  EXPECT_EQ(asrtm.find_best_operating_point(), 1u);
  EXPECT_FALSE(asrtm.last_decision_was_cached());
  EXPECT_EQ(asrtm.find_best_operating_point(), 1u);
  EXPECT_FALSE(asrtm.last_decision_was_cached());  // never serves the cache
  asrtm.set_decision_cache_enabled(true);
  EXPECT_EQ(asrtm.find_best_operating_point(), 1u);
  (void)asrtm.find_best_operating_point();
  EXPECT_TRUE(asrtm.last_decision_was_cached());
}

// ---- bound-pruned rank selection -------------------------------------------

/// expect_same_journals, with every score compared bit for bit: both
/// paths report exact Rank::evaluate values for the chosen point and
/// the runners-up.
void expect_identical_journals(const DecisionJournal& incremental,
                               const DecisionJournal& brute) {
  expect_same_journals(incremental, brute);
  if (incremental.size() != brute.size()) return;
  auto it = incremental.records().begin();
  auto jt = brute.records().begin();
  for (; it != incremental.records().end(); ++it, ++jt) {
    EXPECT_EQ(it->chosen_score, jt->chosen_score) << "record " << it->sequence;
    for (std::size_t r = 0; r < it->rejected.size() && r < jt->rejected.size(); ++r)
      EXPECT_EQ(it->rejected[r].score, jt->rejected[r].score) << "record " << it->sequence;
  }
}

/// A bound-pruned AS-RTM and its brute-force twin, mutated in lockstep.
struct Twins {
  Asrtm fast;
  Asrtm slow;

  explicit Twins(const KnowledgeBase& kb, bool journal = true) : fast(kb), slow(kb) {
    slow.set_decision_cache_enabled(false);
    if (journal) both([](Asrtm& a) { a.enable_decision_journal(4096); });
  }
  void both(const std::function<void(Asrtm&)>& mutate) {
    mutate(fast);
    mutate(slow);
  }
  /// Decides on both; returns the (common) choice.
  std::size_t decide(const std::string& where) {
    const std::size_t chosen = fast.find_best_operating_point();
    EXPECT_EQ(chosen, slow.find_best_operating_point()) << where;
    EXPECT_EQ(fast.last_selection_feasible(), slow.last_selection_feasible()) << where;
    return chosen;
  }
  void expect_same_journals() const {
    expect_identical_journals(fast.decision_journal(), slow.decision_journal());
  }
};

/// Feedback on a random point of a random metric that moves its
/// correction by up to +/- 30%.
void random_feedback(Twins& twins, Rng& rng, std::size_t metrics) {
  const KnowledgeBase& kb = twins.fast.knowledge();
  const std::size_t point = rng.uniform_int(0, kb.size() - 1);
  const std::size_t metric = rng.uniform_int(0, metrics - 1);
  const double observed = kb.metric_means(metric)[point] * rng.uniform(0.7, 1.3);
  twins.both([&](Asrtm& a) { a.send_feedback(point, metric, observed); });
}

std::uint64_t rank_evaluations() {
  return MetricsRegistry::global().counter("asrtm.rank_evaluations").value();
}

TEST(AsrtmRankPruning, DuplicatePointsTieToTheLowestIndex) {
  // Four copies of the Thr/W^2 winner and three of the runner-up,
  // scattered among worse points: equal exact ranks must resolve to the
  // lowest index, and the runners-up are the next copies in index order.
  KnowledgeBase kb({"k"}, {"exec_time_s", "power_w", "throughput"});
  const OperatingPoint winner{{0}, {{1.0, 0.05}, {60.0, 1.0}, {1.0, 0.05}}};
  const OperatingPoint second{{0}, {{1.2, 0.05}, {60.0, 1.0}, {0.9, 0.05}}};
  Rng rng(11);
  for (int i = 0; i < 64; ++i) {
    OperatingPoint op = i % 9 == 4 ? winner : i % 13 == 6 ? second
        : OperatingPoint{{0}, {{2.0, 0.1}, {rng.uniform(70.0, 140.0), 1.0},
                               {rng.uniform(0.2, 0.8), 0.05}}};
    op.knobs = {i};
    kb.add(std::move(op));
  }
  Twins twins(kb);
  twins.both([](Asrtm& a) {
    a.set_feedback_inertia(0.5);
    a.set_rank(Rank::maximize_throughput_per_watt2(kThr, kPower));
  });
  EXPECT_EQ(twins.decide("initial"), 4u);
  for (int step = 0; step < 60; ++step) {
    random_feedback(twins, rng, 3);
    const std::size_t chosen = twins.decide("step " + std::to_string(step));
    EXPECT_EQ(chosen, 4u) << "a copy of the winner wins at its lowest index";
  }
  // Quarantining the first copy hands the win to the next one.
  twins.both([](Asrtm& a) {
    a.set_quarantine_options({1, 4, 4});
    a.report_variant_failure(4);
  });
  EXPECT_EQ(twins.decide("quarantined"), 13u);
  twins.expect_same_journals();
}

TEST(AsrtmRankPruning, TiesAtTheRunnerUpBoundaryKeepJournalOrder) {
  // Journal on: the top 1 + kMaxRejected (= 4) are kept.  One winner,
  // then six equal runners-up: the 4th slot falls inside the tie, so
  // exactly the three lowest-index tied points must be journaled.
  KnowledgeBase kb({"k"}, {"exec_time_s", "power_w", "throughput"});
  for (int i = 0; i < 40; ++i) {
    double thr = 0.3 + 0.001 * i;  // clearly worse points
    if (i == 23) thr = 2.0;        // the winner
    if (i % 5 == 2) thr = 1.5;     // the tied runners-up: 2, 7, 12, 17, ...
    kb.add(OperatingPoint{{i}, {{1.0 / thr, 0.01}, {100.0, 1.0}, {thr, 0.01}}});
  }
  Twins twins(kb);
  twins.both([](Asrtm& a) { a.set_rank(Rank::maximize_throughput(kThr)); });
  EXPECT_EQ(twins.decide("initial"), 23u);
  const DecisionRecord& first = twins.fast.decision_journal().records().front();
  ASSERT_EQ(first.rejected.size(), 3u);
  EXPECT_EQ(first.rejected[0].op_index, 2u);
  EXPECT_EQ(first.rejected[1].op_index, 7u);
  EXPECT_EQ(first.rejected[2].op_index, 12u);
  // Throughput corrections scale every point alike: the tie survives
  // every feedback; a constraint dropping the winner shifts the tie up
  // into the chosen slot.
  Rng rng(5);
  for (int step = 0; step < 40; ++step) {
    random_feedback(twins, rng, 3);
    if (step == 20)
      twins.both([](Asrtm& a) {
        a.add_constraint({kThr, ComparisonOp::kLessEqual, 1.8, 0, 0.0});
      });
    twins.decide("step " + std::to_string(step));
  }
  twins.expect_same_journals();
}

TEST(AsrtmRankPruning, NearTiesWithinRoundingAreNeverPruned) {
  // Every point has the same Thr/W^2 and the same energy in exact
  // arithmetic (thr = r * p^2, t = e / p), so the computed ranks differ
  // only by rounding, and the estimate order need not match the exact
  // order.  The bound must keep all of them in play.
  KnowledgeBase kb({"k"}, {"exec_time_s", "power_w", "throughput"});
  Rng rng(31);
  for (int i = 0; i < 200; ++i) {
    const double p = rng.uniform(40.0, 160.0);
    kb.add(OperatingPoint{{i}, {{3.0 / p, 0.01}, {p, 1.0}, {0.002 * p * p, 0.01}}});
  }
  for (const Rank& rank : {Rank::maximize_throughput_per_watt2(kThr, kPower),
                           Rank::minimize_energy(kTime, kPower)}) {
    Twins twins(kb);
    twins.both([&](Asrtm& a) {
      a.set_feedback_inertia(0.5);
      a.set_rank(rank);
    });
    twins.decide("initial");
    for (int step = 0; step < 100; ++step) {
      random_feedback(twins, rng, 3);
      twins.decide("step " + std::to_string(step));
    }
    twins.expect_same_journals();
  }
}

class AsrtmRankPruningRanks : public ::testing::TestWithParam<int> {};

Rank rank_under_test(int which) {
  switch (which) {
    case 0: return Rank::minimize_energy(kTime, kPower);
    case 1: return Rank::minimize_energy_delay(kTime, kPower);
    case 2: return Rank::linear(RankDirection::kMaximize, {{kThr, 3.0}, {kPower, -0.01}});
    case 3: return Rank::linear(RankDirection::kMinimize, {{kTime, 1.0}, {kPower, 0.02}});
    case 4: return Rank{RankDirection::kMaximize, {{kThr, 20.0}, {kPower, -20.0}}};
    default: return Rank{RankDirection::kMinimize, {{kTime, -20.0}, {kPower, 20.0}}};
  }
}

TEST_P(AsrtmRankPruningRanks, MatchBruteForceUnderMovingCorrections) {
  Rng rng(900 + static_cast<std::uint64_t>(GetParam()));
  const KnowledgeBase kb = random_kb(rng, 200);
  for (const bool journal : {false, true}) {
    Twins twins(kb, journal);
    twins.both([&](Asrtm& a) {
      a.set_feedback_inertia(0.4);
      a.set_rank(rank_under_test(GetParam()));
      a.add_constraint({kPower, ComparisonOp::kLessEqual, 110.0, 0, 1.0});
    });
    for (int step = 0; step < 150; ++step) {
      random_feedback(twins, rng, 3);
      if (step % 37 == 36) {
        const double goal = rng.uniform(50.0, 150.0);
        twins.both([&](Asrtm& a) { a.set_constraint_goal(0, goal); });
      }
      twins.decide("step " + std::to_string(step));
    }
    if (journal) twins.expect_same_journals();
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, AsrtmRankPruningRanks, ::testing::Range(0, 6));

TEST(AsrtmRankPruning, ExtremeMagnitudesOverflowUnderflowAndDenormals) {
  // Weights of +/-20 over metrics spanning 1e-16..1e17: some exact ranks
  // overflow to inf, some underflow to 0 or land on denormals, so B_i*K
  // leaves the normal range (and no bound holds).  The throughput and
  // power factors never meet as 0 * inf, so no rank is NaN.
  KnowledgeBase kb({"k"}, {"exec_time_s", "power_w", "throughput"});
  Rng rng(77);
  for (int i = 0; i < 96; ++i) {
    double thr = rng.uniform(0.5, 2.0);
    if (i % 4 == 1) thr = std::pow(10.0, rng.uniform(14.0, 17.0));    // overflow
    if (i % 4 == 3) thr = std::pow(10.0, rng.uniform(-17.0, -14.5));  // underflow/denormal
    const double power = rng.uniform(50.0, 150.0);
    kb.add(OperatingPoint{{i}, {{1.0, 0.01}, {power, 1.0}, {thr, 0.01 * thr}}});
  }
  for (const Rank& rank : {Rank{RankDirection::kMaximize, {{kThr, 20.0}, {kPower, -20.0}}},
                           Rank{RankDirection::kMinimize, {{kThr, 20.0}, {kPower, 20.0}}},
                           Rank{RankDirection::kMinimize, {{kThr, -20.0}}}}) {
    Twins twins(kb);
    twins.both([&](Asrtm& a) {
      a.set_feedback_inertia(0.5);
      a.set_rank(rank);
    });
    twins.decide("initial");
    for (int step = 0; step < 80; ++step) {
      random_feedback(twins, rng, 3);
      twins.decide("step " + std::to_string(step));
    }
    twins.expect_same_journals();
  }
  // A denormal intermediate under a normal final rank: thr^20 underflows
  // to the coarse denormal grid before power^-20 scales it back up, so
  // the exact ranks carry relative errors far above the bound and an
  // estimate may order near ties unlike them.  No bound holds here, so
  // every survivor must be evaluated.
  KnowledgeBase underflow({"k"}, {"exec_time_s", "power_w", "throughput"});
  for (int i = 0; i < 64; ++i) {
    const double thr = 1e-16 * (1.0 + 1e-3 * rng.uniform(0.0, 1.0));
    const double power = 1e-2 * (1.0 + 1e-3 * rng.uniform(0.0, 1.0));
    underflow.add(
        OperatingPoint{{i}, {{1.0, 0.01}, {power, 0.01 * power}, {thr, 0.01 * thr}}});
  }
  for (const bool journal : {false, true}) {
    Twins twins(underflow, journal);
    twins.both([&](Asrtm& a) {
      a.set_feedback_inertia(0.5);
      a.set_rank(Rank{RankDirection::kMaximize, {{kThr, 20.0}, {kPower, -20.0}}});
    });
    twins.decide("underflow initial");
    for (int step = 0; step < 200; ++step) {
      random_feedback(twins, rng, 3);
      twins.decide("underflow step " + std::to_string(step));
    }
    if (journal) twins.expect_same_journals();
  }

  // Denormal and zero exact ranks really occur in this knowledge base.
  const Rank tiny{RankDirection::kMaximize, {{kThr, 20.0}}};
  bool denormal = false;
  bool zero = false;
  bool infinite = false;
  for (std::size_t i = 0; i < kb.size(); ++i) {
    const double v = tiny.evaluate(kb, i);
    denormal = denormal || std::fpclassify(v) == FP_SUBNORMAL;
    zero = zero || v == 0.0;
    infinite = infinite || std::isinf(v);
  }
  EXPECT_TRUE(denormal);
  EXPECT_TRUE(zero);
  EXPECT_TRUE(infinite);
}

TEST(AsrtmRankPruning, UnorderedLinearRanksEvaluateEverySurvivor) {
  // inf - inf: every third point has a NaN linear rank, which orders
  // against nothing, so no cutoff is sound and the scan must see every
  // survivor exactly like the reference (NaN first seeds and sticks).
  KnowledgeBase kb({"k"}, {"exec_time_s", "power_w", "throughput"});
  Rng rng(3);
  for (int i = 0; i < 30; ++i) {
    const double big = i % 3 == 1 ? 1e300 : rng.uniform(1.0, 2.0);
    kb.add(OperatingPoint{{i}, {{big, 0.01}, {big, 0.01}, {rng.uniform(1.0, 2.0), 0.01}}});
  }
  const Rank rank = Rank::linear(RankDirection::kMaximize,
                                 {{kThr, 1.0}, {kTime, 1e10}, {kPower, -1e10}});
  ASSERT_TRUE(std::isnan(rank.evaluate(kb, 1)));
  Twins twins(kb, /*journal=*/false);
  twins.both([&](Asrtm& a) { a.set_rank(rank); });
  twins.decide("initial");
  for (int step = 0; step < 40; ++step) {
    if (step == 20)
      twins.both([](Asrtm& a) {
        a.set_quarantine_options({1, 100, 100});
        a.report_variant_failure(0);  // a NaN point now leads the scan
      });
    random_feedback(twins, rng, 3);
    twins.decide("step " + std::to_string(step));
  }
}

TEST(AsrtmRankPruning, RankSwitchMidStreamWithQuarantine) {
  Rng rng(4242);
  const KnowledgeBase kb = random_kb(rng, 128);
  Twins twins(kb);
  twins.both([](Asrtm& a) {
    a.set_quarantine_options({1, 3, 24});
    a.set_feedback_inertia(0.4);
    a.set_rank(Rank::maximize_throughput_per_watt2(kThr, kPower));
    a.add_constraint({kPower, ComparisonOp::kLessEqual, 120.0, 0, 1.0});
  });
  const std::vector<Rank> ranks = {
      Rank::minimize_energy(kTime, kPower), Rank::maximize_throughput(kThr),
      Rank::linear(RankDirection::kMaximize, {{kThr, 1.0}, {kPower, -0.002}}),
      Rank::minimize_energy_delay(kTime, kPower),
      Rank::maximize_throughput_per_watt2(kThr, kPower)};
  std::size_t last = twins.decide("initial");
  for (int step = 0; step < 300; ++step) {
    random_feedback(twins, rng, 3);
    if (step % 7 == 3) {
      // Quarantine the current choice so the rank scan runs over holes.
      twins.both([last](Asrtm& a) { a.report_variant_failure(last); });
    }
    twins.both([](Asrtm& a) { a.advance_quarantine(); });
    if (step % 50 == 25) {
      const Rank& next = ranks[static_cast<std::size_t>(step / 50) % ranks.size()];
      twins.both([&](Asrtm& a) { a.set_rank(next); });
    }
    last = twins.decide("step " + std::to_string(step));
  }
  EXPECT_GT(twins.fast.quarantine_events(), 0u);
  twins.expect_same_journals();
}

TEST(AsrtmRankPruning, DirtyDecisionEvaluatesAHandfulOfRanks) {
  Rng rng(2718);
  const KnowledgeBase kb = random_kb(rng, 512);
  Asrtm asrtm(kb);
  asrtm.set_feedback_inertia(0.3);
  asrtm.set_rank(Rank::maximize_throughput_per_watt2(kThr, kPower));
  asrtm.add_constraint({kPower, ComparisonOp::kLessEqual, 110.0, 0, 1.0});
  Counter& built = MetricsRegistry::global().counter("asrtm.rank_base_columns_built");

  const std::uint64_t built_before = built.value();
  (void)asrtm.find_best_operating_point();
  EXPECT_EQ(built.value(), built_before + 1) << "first decision builds the base";

  const std::uint64_t evals_before = rank_evaluations();
  constexpr int kDecisions = 200;
  for (int i = 0; i < kDecisions; ++i) {
    const std::size_t metric = i % 2 == 0 ? kThr : kPower;
    asrtm.send_feedback(0, metric, kb.metric_means(metric)[0] * (i % 4 < 2 ? 1.1 : 0.9));
    (void)asrtm.find_best_operating_point();
    ASSERT_FALSE(asrtm.last_decision_was_cached());
  }
  const double per_decision =
      static_cast<double>(rank_evaluations() - evals_before) / kDecisions;
  EXPECT_LE(per_decision, 4.0) << "exact evaluations per dirty decision";
  EXPECT_EQ(built.value(), built_before + 1) << "feedback never rebuilds the base";

  // invalidate_decision_cache keeps its meaning: the next decision pays
  // the full cold cost, base column included.
  asrtm.invalidate_decision_cache();
  (void)asrtm.find_best_operating_point();
  EXPECT_EQ(built.value(), built_before + 2);
  asrtm.set_rank(Rank::minimize_energy(kTime, kPower));
  EXPECT_EQ(built.value(), built_before + 2) << "set_rank builds nothing eagerly";
  (void)asrtm.find_best_operating_point();
  EXPECT_EQ(built.value(), built_before + 3);
}

TEST(AsrtmRankPruning, ContextAdaptLoopMatchesBruteForceTwin) {
  // The adapt workload's shape: a Context loop over cap and rank
  // segments, with a co-runner slowdown drifting the observations, so
  // every feedback moves a correction and every update decides again.
  Rng rng(8080);
  KnowledgeBase kb({"config", "threads"}, ContextMetrics::names());
  for (int i = 0; i < 256; ++i) {
    const double t = rng.uniform(0.01, 0.2);
    const double p = rng.uniform(40.0, 160.0);
    kb.add(OperatingPoint{{i % 16, i / 16}, {{t, 0.05 * t}, {p, 0.02 * p}, {1.0 / t, 0.01 / t}}});
  }
  struct Runner {
    platform::VirtualClock clock;
    platform::SimulatedRapl rapl;
    Context ctx;
    explicit Runner(const KnowledgeBase& kb) : ctx(kb, clock, rapl) {}
  };
  Runner fast(kb);
  Runner slow(kb);
  slow.ctx.asrtm().set_decision_cache_enabled(false);
  for (Runner* r : {&fast, &slow}) {
    r->ctx.asrtm().enable_decision_journal(4096);
    r->ctx.asrtm().add_constraint(
        {ContextMetrics::kPower, ComparisonOp::kLessEqual, 120.0, 0, 1.0});
  }
  const std::vector<Rank> ranks = {
      Rank::maximize_throughput_per_watt2(ContextMetrics::kThroughput, ContextMetrics::kPower),
      Rank::maximize_throughput(ContextMetrics::kThroughput),
      Rank::minimize_energy(ContextMetrics::kExecTime, ContextMetrics::kPower)};
  std::vector<int> knobs_fast(2);
  std::vector<int> knobs_slow(2);
  std::vector<std::size_t> chosen_fast;
  std::vector<std::size_t> chosen_slow;
  for (int segment = 0; segment < 9; ++segment) {
    const double cap = rng.uniform(60.0, 150.0);
    const Rank& rank = ranks[static_cast<std::size_t>(segment) % ranks.size()];
    for (Runner* r : {&fast, &slow}) {
      r->ctx.asrtm().set_constraint_goal(0, cap);
      r->ctx.asrtm().set_rank(rank);
    }
    for (int iter = 0; iter < 40; ++iter) {
      fast.ctx.update(knobs_fast);
      slow.ctx.update(knobs_slow);
      chosen_fast.push_back(fast.ctx.current_operating_point());
      chosen_slow.push_back(slow.ctx.current_operating_point());
      ASSERT_EQ(chosen_fast.back(), chosen_slow.back())
          << "segment " << segment << " iteration " << iter;
      const std::size_t op = chosen_fast.back();
      const double slowdown = 1.0 + 0.3 * std::sin(0.37 * (segment * 40 + iter));
      const double seconds = kb.metric_means(ContextMetrics::kExecTime)[op] * slowdown;
      const double watts = kb.metric_means(ContextMetrics::kPower)[op] * (2.0 - slowdown);
      for (Runner* r : {&fast, &slow}) {
        r->ctx.start_monitors();
        r->clock.advance(seconds);
        r->rapl.accrue(seconds, watts);
        r->ctx.stop_monitors();
      }
    }
  }
  EXPECT_EQ(chosen_fast, chosen_slow);
  expect_identical_journals(fast.ctx.asrtm().decision_journal(),
                            slow.ctx.asrtm().decision_journal());
}

}  // namespace
}  // namespace socrates::margot
