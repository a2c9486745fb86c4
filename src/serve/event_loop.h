// Thin epoll wrapper for the serving workers: one EventLoop per worker
// thread, owning an epoll instance plus an eventfd so other threads
// (admission lanes, cancel resolver, shutdown) can wake a sleeping worker.
//
// Connection fds register edge-triggered (EPOLLET): the worker must drain
// reads to EAGAIN and only re-arms EPOLLOUT while output is actually
// queued, so an idle connection costs nothing per tick. The shared listen
// fd registers level-triggered with EPOLLEXCLUSIVE, which lets every
// worker watch the same listen socket while the kernel wakes (at least)
// one of them per pending accept — connections land on exactly the worker
// that accepted them and never migrate (no cross-thread fd handoff).
//
// Poll() retries EINTR internally and reports real epoll_wait failures
// instead of ignoring them (the old ::poll loop dropped its return value
// on the floor).

#ifndef SLICETUNER_SERVE_EVENT_LOOP_H_
#define SLICETUNER_SERVE_EVENT_LOOP_H_

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace slicetuner {
namespace serve {

class EventLoop {
 public:
  /// One readiness report. `tag` is the opaque id passed to Add().
  struct Event {
    uint64_t tag = 0;
    bool readable = false;
    bool writable = false;
    /// Peer hung up or the fd errored: read until EOF, then drop.
    bool hangup = false;
  };

  EventLoop() = default;
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Creates the epoll instance and the wake eventfd.
  Status Init();

  /// Registers `fd` under `tag`. Connection fds pass edge_triggered=true;
  /// the shared listen fd passes edge_triggered=false, exclusive=true.
  Status Add(int fd, uint64_t tag, bool want_write, bool edge_triggered,
             bool exclusive = false);

  /// Re-arms an edge-triggered fd with or without write interest.
  Status Update(int fd, uint64_t tag, bool want_write);

  /// Deregisters `fd` (best effort; fine to call right before close()).
  void Remove(int fd);

  /// Waits up to timeout_ms and appends readiness events to `events`
  /// (cleared first). EINTR is retried with the same timeout; other
  /// epoll_wait failures are counted, logged once per loop, and surface as
  /// -1. Wake() notifications are consumed internally and return an empty
  /// poll instead of an Event.
  int Poll(int timeout_ms, std::vector<Event>* events);

  /// Makes the next (or current) Poll return promptly. Callable from any
  /// thread; coalesces.
  void Wake();

 private:
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  bool poll_error_logged_ = false;
};

}  // namespace serve
}  // namespace slicetuner

#endif  // SLICETUNER_SERVE_EVENT_LOOP_H_
