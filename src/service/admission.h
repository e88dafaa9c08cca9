#ifndef ECA_SERVICE_ADMISSION_H_
#define ECA_SERVICE_ADMISSION_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <set>

#include "common/status.h"

namespace eca {

// Multi-query admission control for the ecad service (docs/robustness.md,
// "Service hardening"). Every query passes through Admit() before it may
// optimize or execute; the controller enforces three independent bounds:
//
//  - concurrency: at most `max_concurrent` queries run at once; further
//    arrivals wait in a bounded FIFO queue.
//  - memory commit: each query declares a memory budget (its hard limit);
//    the sum of admitted budgets stays under `commit_limit_bytes`. A query
//    whose budget does not currently fit queues until running queries
//    release theirs — except when nothing is running, where it is admitted
//    alone so a single over-sized budget cannot starve forever.
//  - overload shedding: an arrival that finds the queue full is rejected
//    immediately with kResourceExhausted — a cheap, clean "try later"
//    instead of unbounded queue growth.
//
// Queued work is deadline-aware: a waiter whose remaining deadline can no
// longer cover its estimated runtime (`est_run_ms`) is rejected early with
// kResourceExhausted instead of being admitted just to blow its deadline
// mid-execution. A query's deadline runs from its arrival: the session
// arms the query's context with the deadline minus its queue wait, so a
// query admitted with less than `degrade_below_ms` of it left plans with
// the sizes-only fallback (Optimizer::Options::sizes_only_fallback_ms)
// and every remaining millisecond goes to execution.
//
// BeginDrain() flips the controller into shutdown mode: every queued
// waiter wakes with kUnavailable and new arrivals are rejected the same
// way, while already-admitted queries keep their slots until Release().
//
// Everything increments the service.* metrics (docs/observability.md):
// admitted / queued / shed / deadline_rejected / drain_rejected counters
// and the queue_wait_ms histogram.
struct AdmissionConfig {
  int max_concurrent = 4;
  int max_queue = 16;
  // Sum of admitted queries' memory budgets; <= 0 = unlimited.
  int64_t commit_limit_bytes = 0;
  // Budget charged for queries that declare none.
  int64_t default_commit_bytes = 64ll << 20;
  // Estimated per-query runtime for deadline-aware queue rejection;
  // <= 0 disables the early reject (waiters still time out at their
  // deadline itself).
  int64_t est_run_ms = 0;
  // Remaining deadline below this when planning starts => degraded
  // (sizes-only) planning; <= 0 disables. The session hands it to the
  // optimizer as sizes_only_fallback_ms.
  int64_t degrade_below_ms = 0;
};

// What Admit() grants; pass back to Release() exactly once.
struct Admission {
  int64_t commit_bytes = 0;
  int64_t queue_wait_ms = 0;
};

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionConfig config);

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  // Blocks until the query may run. `commit_bytes` <= 0 uses the default
  // budget; `remaining_deadline_ms` <= 0 means no deadline (waits
  // indefinitely for a slot). Errors:
  //   kResourceExhausted  queue full on arrival (shed), or the remaining
  //                       deadline cannot cover the estimated runtime
  //   kUnavailable        the controller is draining
  StatusOr<Admission> Admit(int64_t commit_bytes,
                            int64_t remaining_deadline_ms);

  // Returns the admission's slot and commit budget; wakes waiters.
  void Release(const Admission& admission);

  // Shutdown mode: rejects new arrivals and queued waiters with
  // kUnavailable. Idempotent.
  void BeginDrain();
  bool draining() const;

  // Blocks until no admitted query remains (drain completion barrier).
  void WaitIdle();

  int active() const;
  int queued() const;
  int64_t committed_bytes() const;

 private:
  // True when a waiter with this budget may start now (slot + commit).
  bool FitsLocked(int64_t commit_bytes) const;

  const AdmissionConfig config_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool draining_ = false;
  int active_ = 0;
  int queued_ = 0;
  int64_t committed_bytes_ = 0;
  int64_t next_ticket_ = 0;        // FIFO order for queued waiters
  std::set<int64_t> waiting_;      // tickets still in the queue; the
                                   // smallest is the admission head
};

}  // namespace eca

#endif  // ECA_SERVICE_ADMISSION_H_
