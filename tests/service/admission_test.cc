// AdmissionController contract: concurrency slots, the bounded FIFO
// queue, overload shedding, the memory-commit ledger, deadline-aware
// rejection and drain semantics — all without a socket in sight.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "service/admission.h"

namespace eca {
namespace {

TEST(AdmissionTest, FastPathAdmitsAndReleases) {
  AdmissionConfig config;
  config.max_concurrent = 2;
  AdmissionController ctrl(config);
  StatusOr<Admission> a = ctrl.Admit(/*commit_bytes=*/1 << 20,
                                     /*remaining_deadline_ms=*/0);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_EQ(a->commit_bytes, 1 << 20);
  EXPECT_EQ(a->queue_wait_ms, 0);
  EXPECT_EQ(ctrl.active(), 1);
  EXPECT_EQ(ctrl.committed_bytes(), 1 << 20);
  ctrl.Release(*a);
  EXPECT_EQ(ctrl.active(), 0);
  EXPECT_EQ(ctrl.committed_bytes(), 0);
}

TEST(AdmissionTest, DefaultBudgetChargedWhenNoneDeclared) {
  AdmissionConfig config;
  config.default_commit_bytes = 7 << 20;
  AdmissionController ctrl(config);
  StatusOr<Admission> a = ctrl.Admit(0, 0);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->commit_bytes, 7 << 20);
  EXPECT_EQ(ctrl.committed_bytes(), 7 << 20);
  ctrl.Release(*a);
}

TEST(AdmissionTest, ShedsImmediatelyWhenQueueFull) {
  AdmissionConfig config;
  config.max_concurrent = 1;
  config.max_queue = 0;  // no queue at all: saturation sheds
  AdmissionController ctrl(config);
  StatusOr<Admission> first = ctrl.Admit(0, 0);
  ASSERT_TRUE(first.ok());
  StatusOr<Admission> second = ctrl.Admit(0, 0);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  ctrl.Release(*first);
  // The shed was stateless: a later arrival is admitted normally.
  StatusOr<Admission> third = ctrl.Admit(0, 0);
  ASSERT_TRUE(third.ok());
  ctrl.Release(*third);
}

TEST(AdmissionTest, RejectsHopelessDeadlineBeforeQueueing) {
  AdmissionConfig config;
  config.max_concurrent = 1;
  config.est_run_ms = 100;
  AdmissionController ctrl(config);
  StatusOr<Admission> holder = ctrl.Admit(0, 0);
  ASSERT_TRUE(holder.ok());
  // 50ms of deadline cannot cover a 100ms estimated run: reject now,
  // without burning 50ms in the queue first.
  StatusOr<Admission> hopeless = ctrl.Admit(0, /*remaining_deadline_ms=*/50);
  ASSERT_FALSE(hopeless.ok());
  EXPECT_EQ(hopeless.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ctrl.queued(), 0);
  ctrl.Release(*holder);
}

TEST(AdmissionTest, QueuedWaiterAdmittedAfterRelease) {
  AdmissionConfig config;
  config.max_concurrent = 1;
  AdmissionController ctrl(config);
  StatusOr<Admission> holder = ctrl.Admit(0, 0);
  ASSERT_TRUE(holder.ok());

  StatusOr<Admission> waited = Status::Internal("not yet");
  std::thread waiter([&] { waited = ctrl.Admit(0, /*no deadline*/ 0); });
  while (ctrl.queued() != 1) std::this_thread::yield();
  ctrl.Release(*holder);
  waiter.join();
  ASSERT_TRUE(waited.ok()) << waited.status().ToString();
  EXPECT_EQ(ctrl.active(), 1);
  EXPECT_EQ(ctrl.queued(), 0);
  ctrl.Release(*waited);
}

TEST(AdmissionTest, QueuedWaiterTimesOutAtItsDeadline) {
  AdmissionConfig config;
  config.max_concurrent = 1;
  AdmissionController ctrl(config);
  StatusOr<Admission> holder = ctrl.Admit(0, 0);
  ASSERT_TRUE(holder.ok());
  StatusOr<Admission> timed = ctrl.Admit(0, /*remaining_deadline_ms=*/60);
  ASSERT_FALSE(timed.ok());
  EXPECT_EQ(timed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ctrl.queued(), 0);
  ctrl.Release(*holder);
}

TEST(AdmissionTest, CommitLedgerQueuesUntilBudgetFits) {
  AdmissionConfig config;
  config.max_concurrent = 8;
  config.commit_limit_bytes = 100;
  AdmissionController ctrl(config);
  StatusOr<Admission> big = ctrl.Admit(60, 0);
  ASSERT_TRUE(big.ok());
  // 60 + 60 > 100: the second query waits for the ledger, not a slot.
  StatusOr<Admission> waited = Status::Internal("not yet");
  std::thread waiter([&] { waited = ctrl.Admit(60, 0); });
  while (ctrl.queued() != 1) std::this_thread::yield();
  EXPECT_EQ(ctrl.active(), 1);
  ctrl.Release(*big);
  waiter.join();
  ASSERT_TRUE(waited.ok()) << waited.status().ToString();
  EXPECT_EQ(ctrl.committed_bytes(), 60);
  ctrl.Release(*waited);
}

TEST(AdmissionTest, OversizedBudgetRunsAloneInsteadOfStarving) {
  AdmissionConfig config;
  config.commit_limit_bytes = 100;
  AdmissionController ctrl(config);
  // A budget larger than the whole limit is admitted when nothing runs —
  // the alternative is a permanent queue.
  StatusOr<Admission> oversized = ctrl.Admit(1000, 0);
  ASSERT_TRUE(oversized.ok()) << oversized.status().ToString();
  EXPECT_EQ(ctrl.active(), 1);
  ctrl.Release(*oversized);
}

TEST(AdmissionTest, DrainRejectsArrivalsAndWakesWaiters) {
  AdmissionConfig config;
  config.max_concurrent = 1;
  AdmissionController ctrl(config);
  StatusOr<Admission> holder = ctrl.Admit(0, 0);
  ASSERT_TRUE(holder.ok());
  StatusOr<Admission> waited = Status::Internal("not yet");
  std::thread waiter([&] { waited = ctrl.Admit(0, 0); });
  while (ctrl.queued() != 1) std::this_thread::yield();

  ctrl.BeginDrain();
  waiter.join();
  ASSERT_FALSE(waited.ok());
  EXPECT_EQ(waited.status().code(), StatusCode::kUnavailable);

  StatusOr<Admission> arrival = ctrl.Admit(0, 0);
  ASSERT_FALSE(arrival.ok());
  EXPECT_EQ(arrival.status().code(), StatusCode::kUnavailable);

  // Already-admitted work keeps its slot until it releases; WaitIdle is
  // the drain barrier.
  EXPECT_EQ(ctrl.active(), 1);
  std::thread idler([&] { ctrl.WaitIdle(); });
  ctrl.Release(*holder);
  idler.join();
  EXPECT_EQ(ctrl.active(), 0);
}

// FIFO under churn: when several waiters queue, a freed slot goes to the
// longest waiter; a middle waiter abandoning the queue (deadline) must
// not wedge the head. Regression guard for the ticket-set design.
TEST(AdmissionTest, FifoSurvivesMiddleWaiterTimeout) {
  AdmissionConfig config;
  config.max_concurrent = 1;
  AdmissionController ctrl(config);
  StatusOr<Admission> holder = ctrl.Admit(0, 0);
  ASSERT_TRUE(holder.ok());

  StatusOr<Admission> first = Status::Internal("not yet");
  std::thread first_waiter([&] { first = ctrl.Admit(0, 0); });
  while (ctrl.queued() != 1) std::this_thread::yield();
  // Second waiter times out from the middle of the queue.
  StatusOr<Admission> middle = ctrl.Admit(0, /*remaining_deadline_ms=*/50);
  ASSERT_FALSE(middle.ok());
  // The first waiter must still be admittable.
  ctrl.Release(*holder);
  first_waiter.join();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ctrl.Release(*first);
  EXPECT_EQ(ctrl.active(), 0);
  EXPECT_EQ(ctrl.queued(), 0);
}

}  // namespace
}  // namespace eca
