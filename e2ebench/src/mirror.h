// The traced run's per-layer measurement. After a live run, the run's own
// job stream is replayed in-process through the library's public functions
// with a span around every call into a layer. The replay mirrors
// TuningSession::RunRounds; its closing curves must equal the daemon's
// closing poll bit for bit, which proves it ran the same code.

#ifndef E2EBENCH_MIRROR_H_
#define E2EBENCH_MIRROR_H_

#include <string>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "metrics.h"
#include "plan.h"
#include "serve/protocol.h"
#include "spans.h"
#include "store/store.h"

namespace e2ebench {

/// Every job a session ran, in order (creation job first), and the
/// daemon's closing poll of it.
struct SessionHistory {
  std::string name;
  std::vector<slicetuner::serve::JobSpec> ops;
  slicetuner::json::Value final_poll;
};

/// One job of the live run's timed phase.
struct LiveJob {
  std::string session;
  size_t job_index = 0;  // position in SessionHistory::ops
  JobClass cls = JobClass::kLight;
  double latency_ms = 0.0;
  /// Its wire lines: submit, stream, their acks, frames.
  std::vector<std::string> lines;
};

struct TraceInputs {
  WorkloadConfig config;
  std::vector<SessionHistory> sessions;
  std::vector<LiveJob> jobs;
  /// Sessions the daemon held at the end of the run (`serve_sessions`).
  size_t registry_size = 0;
  /// The daemon's `metrics` reply after the run.
  slicetuner::json::Value metrics;
  /// Durable only: the prepared state dir and the journal records the run
  /// left behind (everything after its last checkpoint).
  std::string prep_dir;
  std::vector<slicetuner::json::Value> journal_tail;
  /// Scratch space for store replays.
  std::string scratch_dir;
  /// Upper bound on replay time, seconds.
  double budget_s = 20.0;
};

/// Replays a sample of the run's jobs under `tracer` and returns every
/// per-layer metric. Fails when the replay disagrees with the daemon.
slicetuner::Result<MetricList> RunTrace(const TraceInputs& inputs,
                                        Tracer* tracer);

/// Names and units of every per-layer metric RunTrace returns, in order.
std::vector<std::pair<std::string, std::string>> PerLayerMetricNames();

}  // namespace e2ebench

#endif  // E2EBENCH_MIRROR_H_
