// OverloadGovernor escalation is a pure function of its policy and the
// elapsed time the caller measures — no clock, no threads — so the spin ->
// backoff -> shed ladder is pinned exactly.
#include "runtime/overload_policy.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace dart::runtime {
namespace {

TEST(OverloadPolicy, SpinsThroughTheBudgetFirst) {
  OverloadPolicy policy;
  policy.spin_budget = 5;
  OverloadGovernor governor(policy);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(governor.spinning()) << i;
    EXPECT_EQ(governor.next(0).action, OverloadAction::kSpin) << i;
  }
  EXPECT_FALSE(governor.spinning());
  const OverloadDecision decision = governor.next(0);
  EXPECT_EQ(decision.action, OverloadAction::kSleep);
  EXPECT_EQ(decision.sleep_ns, policy.backoff_initial_ns);
}

TEST(OverloadPolicy, BackoffDoublesUpToTheCeiling) {
  OverloadPolicy policy;
  policy.spin_budget = 0;
  policy.backoff_initial_ns = 1'000;
  policy.backoff_max_ns = 8'000;
  policy.shed_deadline_ns = 1'000'000'000;
  OverloadGovernor governor(policy);
  std::uint64_t expected[] = {1'000, 2'000, 4'000, 8'000, 8'000, 8'000};
  std::uint64_t elapsed = 0;
  for (std::uint64_t want : expected) {
    const OverloadDecision decision = governor.next(elapsed);
    ASSERT_EQ(decision.action, OverloadAction::kSleep);
    EXPECT_EQ(decision.sleep_ns, want);
    elapsed += decision.sleep_ns;
  }
}

TEST(OverloadPolicy, ShedsExactlyAtTheDeadline) {
  OverloadPolicy policy;
  policy.spin_budget = 0;
  policy.backoff_initial_ns = 4'000;
  policy.backoff_max_ns = 4'000;
  policy.shed_deadline_ns = 10'000;
  OverloadGovernor governor(policy);
  // With sleeps that take exactly what they request: 4k + 4k + 2k
  // (clamped to the deadline's remainder) = exactly 10k.
  EXPECT_EQ(governor.next(0).sleep_ns, 4'000U);
  EXPECT_EQ(governor.next(4'000).sleep_ns, 4'000U);
  EXPECT_EQ(governor.next(8'000).sleep_ns, 2'000U);
  EXPECT_EQ(governor.next(10'000).action, OverloadAction::kShed);
  // Shed is sticky.
  EXPECT_EQ(governor.next(10'000).action, OverloadAction::kShed);
}

TEST(OverloadPolicy, DeadlineCountsWallTimeNotRequestedSleeps) {
  // sleep_for overshoots: here every sleep takes 10x what it requested.
  // The batch must shed once the deadline's worth of wall time has passed,
  // not after the requested sleeps add up to it (10x later).
  OverloadPolicy policy;
  policy.spin_budget = 0;
  policy.backoff_initial_ns = 1'000;
  policy.backoff_max_ns = 1'000;
  policy.shed_deadline_ns = 10'000;
  OverloadGovernor governor(policy);
  std::uint64_t elapsed = 0;
  std::uint64_t requested = 0;
  int sleeps = 0;
  for (;;) {
    const OverloadDecision decision = governor.next(elapsed);
    if (decision.action == OverloadAction::kShed) break;
    ASSERT_EQ(decision.action, OverloadAction::kSleep);
    ASSERT_LT(++sleeps, 100) << "never shed";
    requested += decision.sleep_ns;
    elapsed += 10 * decision.sleep_ns;
  }
  EXPECT_EQ(sleeps, 1);
  EXPECT_EQ(requested, 1'000U);
  EXPECT_EQ(elapsed, policy.shed_deadline_ns);
}

TEST(OverloadPolicy, ZeroDeadlineShedsImmediatelyAfterSpin) {
  OverloadPolicy policy;
  policy.spin_budget = 2;
  policy.shed_deadline_ns = 0;
  OverloadGovernor governor(policy);
  EXPECT_EQ(governor.next(0).action, OverloadAction::kSpin);
  EXPECT_EQ(governor.next(0).action, OverloadAction::kSpin);
  EXPECT_EQ(governor.next(0).action, OverloadAction::kShed);
}

TEST(OverloadPolicy, DisabledSheddingNeverSheds) {
  OverloadPolicy policy;
  policy.spin_budget = 0;
  policy.backoff_initial_ns = 1'000;
  policy.backoff_max_ns = 1'000;
  policy.shed_deadline_ns = UINT64_MAX;
  OverloadGovernor governor(policy);
  std::uint64_t elapsed = 0;
  for (int i = 0; i < 10'000; ++i) {
    const OverloadDecision decision = governor.next(elapsed);
    EXPECT_EQ(decision.action, OverloadAction::kSleep);
    elapsed += decision.sleep_ns;
  }
  EXPECT_EQ(elapsed, 10'000U * 1'000U);
}

TEST(OverloadPolicy, DefaultsNeverShedAHealthyWorkerQuickly) {
  // The default deadline is seconds, not microseconds: a worker that makes
  // any progress within 2 s keeps its batch.
  OverloadPolicy policy;
  EXPECT_GE(policy.shed_deadline_ns, 1'000'000'000U);
  OverloadGovernor governor(policy);
  std::uint64_t slept = 0;
  for (;;) {
    const OverloadDecision decision = governor.next(slept);
    if (decision.action == OverloadAction::kShed) break;
    if (decision.action == OverloadAction::kSleep) slept += decision.sleep_ns;
  }
  EXPECT_EQ(slept, policy.shed_deadline_ns);
}

}  // namespace
}  // namespace dart::runtime
