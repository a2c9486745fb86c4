// Admission control for the tuning service: one bounded FIFO with load
// shedding, drained by lanes on the shared thread pool, plus an unbounded
// cancel-resolution lane.
//
//  * Shedding — Admit() rejects with ResourceExhausted (and a retry-after
//    hint the protocol layer forwards to clients) when max_queue_depth
//    admitted sessions have not started yet, or when the executor backlog
//    probe — wired to ThreadPool::PendingCount() by the server — reports
//    the pool already saturated. Rejecting at the door keeps latency
//    bounded instead of letting the queue grow without limit.
//
//  * Lanes — Admit() also starts a lane on DefaultThreadPool() whenever
//    fewer than max_lanes are running. A lane runs the queued ids in FIFO
//    order until the queue is empty, then retires, so no job waits for an
//    unrelated one while a lane is free. The lane count check, the push
//    and the retire decision share one lock: an id pushed just as the last
//    lane retires is never left behind.
//
//  * Cancel lane — AdmitCancel() enqueues a session whose pending cancel
//    just needs resolving (RunJob with the cancel flag set resolves
//    without running). The lane is unbounded and never shed: losing a
//    cancel would strand the session queued forever, and each entry costs
//    one O(1) resolution, not a tuning job.

#ifndef SLICETUNER_SERVE_ADMISSION_H_
#define SLICETUNER_SERVE_ADMISSION_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <vector>

#include "common/status.h"

namespace slicetuner {
namespace serve {

struct AdmissionOptions {
  /// Admitted-but-unstarted sessions before Admit sheds load.
  size_t max_queue_depth = 16;
  /// Retry hint attached to shed rejections.
  int retry_after_ms = 50;
  /// When > 0, Admit also sheds while backlog_probe() exceeds this bound.
  size_t max_executor_backlog = 0;
  /// Executor saturation signal (e.g. the shared pool's PendingCount).
  std::function<size_t()> backlog_probe;
};

struct AdmissionStats {
  size_t admitted = 0;
  size_t shed_queue_full = 0;
  size_t shed_backlog = 0;
  size_t max_depth_seen = 0;
  size_t cancels_admitted = 0;
};

class AdmissionController {
 public:
  /// Runs one admitted session's job on a lane; `lanes` is the number of
  /// lanes in flight when the id was popped.
  using Runner = std::function<void(uint64_t session_id, size_t lanes)>;

  /// Without a runner, admitted ids only queue. `max_lanes` 0 means one
  /// lane per DefaultThreadPool() thread.
  explicit AdmissionController(AdmissionOptions options = {},
                               Runner runner = nullptr, size_t max_lanes = 0);
  /// Waits for the running lanes to drain the queue.
  ~AdmissionController();

  /// Enqueues a session id (starting a lane if one is free), or sheds:
  /// ResourceExhausted with the configured retry-after encoded for the
  /// caller via retry_after_ms().
  Status Admit(uint64_t session_id);

  /// Enqueues a session on the cancel-resolution lane (unbounded, never
  /// shed; accepted even after Stop so in-flight sheds still resolve).
  void AdmitCancel(uint64_t session_id);

  /// Blocks until cancel work arrives (returning all of it) or Stop() was
  /// called (returning what is left, possibly empty).
  std::vector<uint64_t> NextCancels();

  /// Unblocks NextCancels; subsequent Admit calls fail FailedPrecondition.
  /// Running lanes keep draining what was admitted before.
  void Stop();

  /// Blocks until no lane is running (the queue is then empty).
  void WaitIdle();

  /// Admitted sessions no lane has started yet (cancel lane excluded).
  size_t depth() const;
  int retry_after_ms() const { return options_.retry_after_ms; }
  AdmissionStats stats() const;

 private:
  void RunLane();

  AdmissionOptions options_;
  const Runner runner_;
  const size_t max_lanes_;
  mutable std::mutex mu_;
  std::condition_variable cancel_cv_;
  std::condition_variable idle_cv_;
  std::deque<uint64_t> queue_;
  std::deque<uint64_t> cancels_;
  size_t lanes_ = 0;
  AdmissionStats stats_;
  bool stopped_ = false;
};

}  // namespace serve
}  // namespace slicetuner

#endif  // SLICETUNER_SERVE_ADMISSION_H_
