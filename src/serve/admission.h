// Admission control for the tuning service: one bounded FIFO with load
// shedding, drained by lanes on the shared thread pool.
//
//  * Shedding — a submit first Reserve()s a queue slot, before the session
//    registry changes. Reserve rejects with ResourceExhausted (and a
//    retry-after hint the protocol layer forwards to clients) when queued
//    ids plus open reservations reach max_queue_depth, so a shed submit
//    creates, resumes and journals nothing. Once the session is registered,
//    Commit() queues its id; a failed registration Release()s the slot.
//    Rejecting at the door keeps latency bounded instead of letting the
//    queue grow without limit.
//
//  * Lanes — Commit() also starts a lane on DefaultThreadPool() whenever
//    fewer than max_lanes are running. A lane runs the queued ids in FIFO
//    order until the queue is empty, then retires, so no job waits for an
//    unrelated one while a lane is free. The lane count check, the push
//    and the retire decision share one lock: an id pushed just as the last
//    lane retires is never left behind.

#ifndef SLICETUNER_SERVE_ADMISSION_H_
#define SLICETUNER_SERVE_ADMISSION_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>

#include "common/status.h"

namespace slicetuner {
namespace serve {

struct AdmissionOptions {
  /// Admitted-but-unstarted sessions (open reservations included) before
  /// Reserve sheds load.
  size_t max_queue_depth = 16;
  /// Retry hint attached to shed rejections.
  int retry_after_ms = 50;
};

struct AdmissionStats {
  size_t admitted = 0;
  size_t shed_queue_full = 0;
  size_t max_depth_seen = 0;
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

  /// Takes a queue slot for a submit about to register its session, or
  /// sheds: ResourceExhausted (retry hint via retry_after_ms()) when the
  /// queue and the open reservations fill max_queue_depth,
  /// FailedPrecondition after Stop. Every OK is resolved by exactly one
  /// Commit or Release.
  Status Reserve();

  /// Turns a reservation into a queued session id, starting a lane if one
  /// is free. Never refused, even after Stop: the session is registered,
  /// so a lane must still resolve it.
  void Commit(uint64_t session_id);

  /// Gives back a reservation whose registration failed.
  void Release();

  /// Subsequent Reserve calls fail FailedPrecondition. Running lanes keep
  /// draining what was admitted before.
  void Stop();

  /// Blocks until no lane is running (the queue is then empty).
  void WaitIdle();

  /// Admitted sessions no lane has started yet.
  size_t depth() const;
  int retry_after_ms() const { return options_.retry_after_ms; }
  AdmissionStats stats() const;

 private:
  void RunLane();

  AdmissionOptions options_;
  const Runner runner_;
  const size_t max_lanes_;
  mutable std::mutex mu_;
  std::condition_variable idle_cv_;
  std::deque<uint64_t> queue_;
  size_t reserved_ = 0;
  size_t lanes_ = 0;
  AdmissionStats stats_;
  bool stopped_ = false;
};

}  // namespace serve
}  // namespace slicetuner

#endif  // SLICETUNER_SERVE_ADMISSION_H_
