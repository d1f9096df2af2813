// Tests for the §3.1 measurement-scheduling discipline.
#include <gtest/gtest.h>

#include "src/core/schedule.h"
#include "src/util/check.h"

namespace tormet {
namespace {

using core::measurement_schedule;
using core::planned_round;

TEST(ScheduleTest, AcceptsWellSpacedPlan) {
  measurement_schedule s;
  s.add({"streams", sim_time{0}});
  // Distinct statistic: >= 24 h after the first round *ends*.
  s.add({"domains", sim_time{2 * k_seconds_per_day}});
  s.add({"clients", sim_time{4 * k_seconds_per_day}});
  EXPECT_EQ(s.rounds().size(), 3u);
}

TEST(ScheduleTest, RejectsParallelRounds) {
  measurement_schedule s;
  s.add({"streams", sim_time{0}});
  EXPECT_THROW(s.add({"domains", sim_time{k_seconds_per_day / 2}}),
               precondition_error);
  // Even identical statistics may not overlap.
  EXPECT_THROW(s.add({"streams", sim_time{k_seconds_per_day - 1}}),
               precondition_error);
}

TEST(ScheduleTest, RejectsInsufficientGapBetweenDistinctStatistics) {
  measurement_schedule s;
  s.add({"streams", sim_time{0}});  // ends at 24 h
  // Starting 12 h after the previous round ends: too close.
  EXPECT_THROW(
      s.add({"domains", sim_time{k_seconds_per_day + k_seconds_per_day / 2}}),
      precondition_error);
  // Exactly 24 h after it ends: admissible.
  EXPECT_NO_THROW(s.add({"domains", sim_time{2 * k_seconds_per_day}}));
}

TEST(ScheduleTest, RepeatedStatisticMayBeAdjacent) {
  // The paper repeated the descriptor-failure measurement on consecutive
  // days to confirm the anomaly.
  measurement_schedule s;
  s.add({"hsdir-failures", sim_time{0}});
  EXPECT_NO_THROW(s.add({"hsdir-failures", sim_time{k_seconds_per_day}}));
}

TEST(ScheduleTest, ViolationsForReportsAllConflicts) {
  measurement_schedule s;
  s.add({"streams", sim_time{0}});
  s.add({"domains", sim_time{2 * k_seconds_per_day}});
  const auto violations =
      s.violations_for({"clients", sim_time{k_seconds_per_day}});
  EXPECT_EQ(violations.size(), 2u);  // too close to both existing rounds
  EXPECT_TRUE(s.violations_for({"clients", sim_time{4 * k_seconds_per_day}})
                  .empty());
}

TEST(ScheduleTest, InWindow) {
  measurement_schedule s;
  s.add({"streams", sim_time{100}});
  EXPECT_TRUE(s.in_window(0, sim_time{100}));
  EXPECT_TRUE(s.in_window(0, sim_time{100 + k_seconds_per_day - 1}));
  EXPECT_FALSE(s.in_window(0, sim_time{100 + k_seconds_per_day}));
  EXPECT_THROW((void)s.in_window(5, sim_time{0}), precondition_error);
}

TEST(ScheduleTest, EarliestStartSkipsConflicts) {
  measurement_schedule s;
  s.add({"streams", sim_time{0}});
  // Same statistic can start right when the round ends.
  EXPECT_EQ(s.earliest_start("streams", sim_time{0}).seconds,
            k_seconds_per_day);
  // A distinct statistic needs the additional 24 h gap.
  EXPECT_EQ(s.earliest_start("domains", sim_time{0}).seconds,
            2 * k_seconds_per_day);
  // A request after all conflicts is returned unchanged.
  EXPECT_EQ(s.earliest_start("domains", sim_time{10 * k_seconds_per_day}).seconds,
            10 * k_seconds_per_day);
}

TEST(ScheduleTest, EarliestStartIsAdmissible) {
  measurement_schedule s;
  s.add({"a", sim_time{0}});
  s.add({"b", sim_time{2 * k_seconds_per_day}});
  s.add({"a", sim_time{4 * k_seconds_per_day}});
  for (const char* stat : {"a", "b", "c"}) {
    const sim_time start = s.earliest_start(stat, sim_time{0});
    EXPECT_TRUE(s.violations_for({stat, start}).empty()) << stat;
  }
}

TEST(ScheduleTest, RoundOfPartitionsTimeIntoWindowsAndGaps) {
  measurement_schedule s;
  s.add({"streams", sim_time{100}, 200});
  s.add({"streams", sim_time{400}, 100});
  EXPECT_EQ(s.round_of(sim_time{0}), std::nullopt);   // before the plan
  EXPECT_EQ(s.round_of(sim_time{100}), 0u);           // window start inclusive
  EXPECT_EQ(s.round_of(sim_time{299}), 0u);
  EXPECT_EQ(s.round_of(sim_time{300}), std::nullopt); // window end exclusive
  EXPECT_EQ(s.round_of(sim_time{350}), std::nullopt); // inter-round gap
  EXPECT_EQ(s.round_of(sim_time{400}), 1u);
  EXPECT_EQ(s.round_of(sim_time{499}), 1u);
  EXPECT_EQ(s.round_of(sim_time{500}), std::nullopt); // after the plan
}

TEST(ScheduleTest, UniformScheduleMatchesPlanShape) {
  const measurement_schedule s =
      core::make_uniform_schedule("psc/client_ip", 3, k_seconds_per_day, 3600);
  ASSERT_EQ(s.rounds().size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(s.rounds()[i].start.seconds,
              static_cast<std::int64_t>(i) * (k_seconds_per_day + 3600));
    EXPECT_EQ(s.rounds()[i].duration_seconds, k_seconds_per_day);
    EXPECT_EQ(s.round_of(s.rounds()[i].start), i);
  }
  EXPECT_THROW((void)core::make_uniform_schedule("x", 0, 60, 0),
               precondition_error);
  EXPECT_THROW((void)core::make_uniform_schedule("x", 2, 0, 0),
               precondition_error);
  EXPECT_THROW((void)core::make_uniform_schedule("x", 2, 60, -1),
               precondition_error);
}

}  // namespace
}  // namespace tormet
