#include "service/admission.h"

#include <chrono>
#include <set>

#include "common/metrics.h"
#include "common/trace.h"

namespace eca {

namespace {

using Clock = std::chrono::steady_clock;

struct ServiceCounters {
  Counter* admitted;
  Counter* queued;
  Counter* shed;
  Counter* deadline_rejected;
  Counter* drain_rejected;
  Histogram* queue_wait_ms;
};

// Registered once; pointers are stable for the process lifetime.
const ServiceCounters& Counters() {
  static const ServiceCounters counters = [] {
    auto& reg = MetricsRegistry::Global();
    return ServiceCounters{reg.counter("service.admitted"),
                           reg.counter("service.queued"),
                           reg.counter("service.shed"),
                           reg.counter("service.deadline_rejected"),
                           reg.counter("service.drain_rejected"),
                           reg.histogram("service.queue_wait_ms")};
  }();
  return counters;
}

}  // namespace

AdmissionController::AdmissionController(AdmissionConfig config)
    : config_(config) {
  // Register the service.* metrics up front so the very first METRICS
  // scrape reports the full set at zero rather than omitting counters
  // whose events have not happened yet.
  Counters();
}

bool AdmissionController::FitsLocked(int64_t commit_bytes) const {
  if (active_ >= config_.max_concurrent) return false;
  if (config_.commit_limit_bytes > 0 &&
      committed_bytes_ + commit_bytes > config_.commit_limit_bytes) {
    // A budget larger than the whole commit limit still runs — alone —
    // once everything else has drained; otherwise over-sized queries
    // would starve forever.
    return active_ == 0;
  }
  return true;
}

StatusOr<Admission> AdmissionController::Admit(int64_t commit_bytes,
                                               int64_t remaining_deadline_ms) {
  const ServiceCounters& counters = Counters();
  if (commit_bytes <= 0) commit_bytes = config_.default_commit_bytes;

  Admission granted;
  granted.commit_bytes = commit_bytes;

  std::unique_lock<std::mutex> lock(mu_);
  if (draining_) {
    counters.drain_rejected->Increment();
    return Status::Unavailable("ecad is draining; retry another instance");
  }

  // Fast path: nothing queued ahead of us and resources fit.
  if (queued_ == 0 && FitsLocked(commit_bytes)) {
    ++active_;
    committed_bytes_ += commit_bytes;
    counters.admitted->Increment();
    counters.queue_wait_ms->Record(0);
    return granted;
  }

  // Queue entry: shed on overload, reject hopeless deadlines early.
  if (queued_ >= config_.max_queue) {
    counters.shed->Increment();
    Tracer::Instant("service/shed");
    return Status::ResourceExhausted(
        "ecad overloaded: admission queue is full (" +
        std::to_string(config_.max_queue) + " waiting)");
  }
  if (remaining_deadline_ms > 0 && config_.est_run_ms > 0 &&
      remaining_deadline_ms <= config_.est_run_ms) {
    counters.deadline_rejected->Increment();
    return Status::ResourceExhausted(
        "deadline of " + std::to_string(remaining_deadline_ms) +
        "ms cannot cover estimated query cost of " +
        std::to_string(config_.est_run_ms) + "ms");
  }

  const int64_t ticket = next_ticket_++;
  waiting_.insert(ticket);
  ++queued_;
  counters.queued->Increment();
  const Clock::time_point enqueued = Clock::now();
  // Give up early enough that the estimated runtime still fits.
  const bool has_deadline = remaining_deadline_ms > 0;
  const Clock::time_point give_up =
      enqueued + std::chrono::milliseconds(
                     has_deadline ? remaining_deadline_ms -
                                        (config_.est_run_ms > 0
                                             ? config_.est_run_ms
                                             : 0)
                                  : 0);

  auto wake_reason = [&]() -> int {
    // 1 = admitted, 2 = draining, 0 = keep waiting. FIFO: only the
    // longest-waiting ticket may take a freed slot.
    if (draining_) return 2;
    if (*waiting_.begin() == ticket && FitsLocked(commit_bytes)) return 1;
    return 0;
  };

  int reason = 0;
  for (;;) {
    reason = wake_reason();
    if (reason != 0) break;
    if (has_deadline) {
      if (cv_.wait_until(lock, give_up) == std::cv_status::timeout &&
          wake_reason() == 0) {
        reason = 3;  // deadline-aware rejection
        break;
      }
    } else {
      cv_.wait(lock);
    }
  }

  --queued_;
  waiting_.erase(ticket);
  const int64_t waited_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                                Clock::now() - enqueued)
                                .count();
  cv_.notify_all();

  if (reason == 2) {
    counters.drain_rejected->Increment();
    return Status::Unavailable("ecad is draining; retry another instance");
  }
  if (reason == 3) {
    counters.deadline_rejected->Increment();
    return Status::ResourceExhausted(
        "queued for " + std::to_string(waited_ms) +
        "ms; remaining deadline cannot cover estimated query cost");
  }

  ++active_;
  committed_bytes_ += commit_bytes;
  counters.admitted->Increment();
  counters.queue_wait_ms->Record(waited_ms);
  granted.queue_wait_ms = waited_ms;
  return granted;
}

void AdmissionController::Release(const Admission& admission) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    --active_;
    committed_bytes_ -= admission.commit_bytes;
    ECA_DCHECK(active_ >= 0);
    ECA_DCHECK(committed_bytes_ >= 0);
  }
  cv_.notify_all();
}

void AdmissionController::BeginDrain() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
  }
  cv_.notify_all();
}

bool AdmissionController::draining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

void AdmissionController::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return active_ == 0 && queued_ == 0; });
}

int AdmissionController::active() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_;
}

int AdmissionController::queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_;
}

int64_t AdmissionController::committed_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return committed_bytes_;
}

}  // namespace eca
