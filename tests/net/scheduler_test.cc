#include "src/net/scheduler.h"

#include <gtest/gtest.h>

namespace p2 {
namespace {

TEST(SchedulerTest, EventsRunInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.At(2.0, [&] { order.push_back(2); });
  sched.At(1.0, [&] { order.push_back(1); });
  sched.At(3.0, [&] { order.push_back(3); });
  while (sched.Step()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sched.Now(), 3.0);
}

TEST(SchedulerTest, EqualTimesRunInScheduleOrder) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sched.At(1.0, [&order, i] { order.push_back(i); });
  }
  while (sched.Step()) {
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SchedulerTest, RunUntilStopsAtBoundary) {
  Scheduler sched;
  int ran = 0;
  sched.At(1.0, [&] { ++ran; });
  sched.At(2.0, [&] { ++ran; });
  sched.At(5.0, [&] { ++ran; });
  sched.RunUntil(2.0);
  EXPECT_EQ(ran, 2);
  EXPECT_DOUBLE_EQ(sched.Now(), 2.0);
  sched.RunUntil(10.0);
  EXPECT_EQ(ran, 3);
  EXPECT_DOUBLE_EQ(sched.Now(), 10.0);
}

TEST(SchedulerTest, AfterSchedulesRelative) {
  Scheduler sched;
  double fired_at = -1;
  sched.At(3.0, [&] { sched.After(2.0, [&] { fired_at = sched.Now(); }); });
  sched.RunUntil(10.0);
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(SchedulerTest, PastTimesClampToNow) {
  Scheduler sched;
  sched.At(5.0, [] {});
  sched.RunUntil(5.0);
  double fired_at = -1;
  sched.At(1.0, [&] { fired_at = sched.Now(); });  // in the past
  sched.RunUntil(6.0);
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(SchedulerTest, EventsScheduledDuringRunExecute) {
  Scheduler sched;
  std::vector<int> order;
  sched.At(1.0, [&] {
    order.push_back(1);
    sched.At(1.0, [&] { order.push_back(2); });  // same instant, later seq
  });
  sched.RunUntil(1.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

}  // namespace
}  // namespace p2
