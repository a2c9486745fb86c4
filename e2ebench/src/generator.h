// Drives a real slicetuner_serve process over TCP from one thread and at
// most `connections` sockets.
//
// A job is a submit followed, once acknowledged, by a `stream` subscription
// on the same connection; its latency ends when the `done` frame arrives.
// The protocol holds one stream subscription per connection, so each
// connection is a stream slot: a due submit waits for a free slot, and that
// wait counts in its latency. Polls are pipelined on the least-loaded
// connection. Open-loop requests are timed from their due time; how late
// the generator itself ran is recorded separately (Request::seen_ns).

#ifndef E2EBENCH_GENERATOR_H_
#define E2EBENCH_GENERATOR_H_

#include <sys/types.h>

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "plan.h"
#include "serve/protocol.h"

namespace e2ebench {

/// A slicetuner_serve child process on a port of our choosing.
class Daemon {
 public:
  Daemon(std::string serve_bin, std::vector<std::string> args,
         std::string log_path);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Spawns the daemon and waits for its first OK `stats` response.
  /// Returns the seconds from spawn to that response.
  slicetuner::Result<double> Start(int timeout_ms = 60000);
  /// `shutdown` verb, then waits for a clean exit (SIGKILL on timeout).
  slicetuner::Status Shutdown(int timeout_ms = 30000);
  /// SIGKILL + reap; no-op when not running.
  void Kill();

  int port() const { return port_; }
  /// Peak resident set (VmHWM) of the running daemon, in MiB.
  slicetuner::Result<double> PeakRssMb() const;

 private:
  std::string serve_bin_;
  std::vector<std::string> args_;
  std::string log_path_;
  pid_t pid_ = -1;
  int port_ = 0;
};

struct Request {
  enum class Kind { kSubmit, kPoll };
  enum class State { kPending, kInFlight, kDone, kFailed };

  Kind kind = Kind::kSubmit;
  JobClass cls = JobClass::kLight;
  slicetuner::serve::JobSpec job;  // submit payload
  std::string target;              // poll target
  /// Counts toward the run's metrics (false: prelude and closing polls).
  bool timed = true;
  /// Pinned connection (closed-loop clients), or -1 for any.
  int conn = -1;

  uint64_t due_ns = 0;   // latency origin
  uint64_t seen_ns = 0;  // when the generator first handled it
  uint64_t end_ns = 0;   // done frame / poll response received
  State state = State::kPending;
  int sheds = 0;
  uint64_t retry_ns = 0;
  /// `done` frame state ("done" | "cancelled" | "failed"), or the error.
  std::string outcome;
  /// Poll response (kept for polls).
  slicetuner::json::Value response;
  /// Wire lines of this request, both directions (kept when requested).
  std::vector<std::string> lines;

  bool ok() const { return state == State::kDone; }
  double latency_ms() const {
    return static_cast<double>(end_ns - due_ns) / 1e6;
  }
};

class Generator {
 public:
  Generator(int port, int connections);
  ~Generator();
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  slicetuner::Status Connect();

  /// Queues a request; it is sent once due and sendable. Returns its index.
  size_t Add(Request request);
  Request& at(size_t index) { return requests_[index]; }
  const std::vector<Request>& requests() const { return requests_; }

  /// Runs until every added request finished, `deadline_ns` passed, or a
  /// protocol error occurred. `on_done` runs as each request finishes and
  /// may Add() more.
  slicetuner::Status Run(uint64_t deadline_ns,
                         const std::function<void(size_t)>& on_done);

  /// One blocking request/response outside the job machinery (stats,
  /// metrics). Requires no outstanding requests.
  slicetuner::Result<slicetuner::json::Value> Call(
      const slicetuner::serve::Request& request, int timeout_ms = 30000);

  /// Keep per-request wire lines while set.
  void set_recording(bool on) { recording_ = on; }
  /// Submits shed with retry hints are retried until this time; later
  /// sheds fail the job.
  void set_retry_deadline(uint64_t ns) { retry_deadline_ns_ = ns; }
  /// Marks every unfinished request failed and returns how many there were.
  /// Replies that arrive for them later are dropped.
  size_t FailOpen(const std::string& why);

 private:
  enum class Expect { kSubmitAck, kStreamAck, kPollReply, kCall };
  struct Conn {
    int fd = -1;
    std::string in;
    std::string out;
    std::deque<std::pair<Expect, size_t>> expect;
    long stream = -1;  // request holding this connection's stream slot
  };

  void Schedule(size_t index);
  bool TrySend(size_t index);
  void SendLine(int conn, const std::string& line, Expect expect,
                size_t index);
  slicetuner::Status FlushOut(Conn* conn);
  slicetuner::Status ReadConn(int conn_index,
                              const std::function<void(size_t)>& on_done);
  slicetuner::Status HandleLine(int conn_index, const std::string& line,
                                const std::function<void(size_t)>& on_done);
  void Finish(size_t index, Request::State state, const std::string& outcome,
              const std::function<void(size_t)>& on_done);

  int port_;
  std::vector<Conn> conns_;
  std::vector<Request> requests_;
  // Not yet due, by due time (Add keeps it sorted).
  std::deque<size_t> future_;
  // Due but not sendable yet (no free stream slot / connections full).
  std::deque<size_t> waiting_submits_;
  std::deque<size_t> waiting_polls_;
  size_t open_ = 0;  // added but unfinished
  bool recording_ = false;
  uint64_t retry_deadline_ns_ = 0;
  slicetuner::json::Value call_reply_;
  bool call_done_ = false;
};

}  // namespace e2ebench

#endif  // E2EBENCH_GENERATOR_H_
