// The durable shape of a tuning session, in one place (docs/STATE.md). A
// SessionRecord is what a store snapshot holds for one session. The live
// session builds its journal records here, and recovery folds snapshot
// entries (FromJson) and journal records (Apply) back into one
// SessionRecord per name before TuningSession::Restore rebuilds it. Apply
// checks every record against the session automaton (docs/STATE.md,
// "Session automaton"): a record the daemon can never write yields a
// Status naming the session, seq and event.

#ifndef SLICETUNER_SERVE_SESSION_LOG_H_
#define SLICETUNER_SERVE_SESSION_LOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "serve/protocol.h"

namespace slicetuner {
namespace serve {

/// queued -> running -> done | cancelled | failed; terminal sessions can be
/// resumed (back to queued) by a follow-up submit_job with the same key.
enum class SessionPhase { kQueued, kRunning, kDone, kCancelled, kFailed };

const char* SessionPhaseName(SessionPhase phase);
bool IsTerminal(SessionPhase phase);

/// One appended batch of training rows: enough to re-derive the exact rows
/// from the session's deterministic data source on recovery.
struct AcquireRecord {
  int round = 0;
  int slice = 0;
  long long count = 0;
};

struct SessionCounters {
  int jobs_run = 0;
  int rounds_completed = 0;
  long long total_trainings = 0;
  long long last_job_trainings = 0;
  double last_job_wall_seconds = 0.0;
  long long rows = 0;
};

struct SessionRecord {
  std::string name;
  uint64_t id = 0;   // 0 until a create record is folded in
  uint64_t seq = 0;  // journal seq of the session's next record
  SessionPhase phase = SessionPhase::kQueued;
  /// The last job's outcome. Written as Status::ToString(); FromJson and
  /// Apply split the code off again, so restarts never stack prefixes.
  Status status;
  uint64_t trace_id = 0;
  JobSpec job;  // the job the data world is (to be) built from
  bool world_built = false;
  int next_round = 0;
  std::vector<AcquireRecord> acquires;  // since the world was built
  SessionCounters counters;
  std::vector<double> curve_b;  // closing curves of the last curve-based job
  std::vector<double> curve_a;
  bool dropped = false;  // a drop record ended the session
  /// Serialized curve cache, borrowed from the document it was read from
  /// (or is written into); null when absent.
  const json::Value* resting = nullptr;

  json::Value ToJson() const;
  /// Inverse of ToJson, with the acquire checks Apply makes.
  static Result<SessionRecord> FromJson(const json::Value& state);
};

// One journal record builder per event, each with the envelope
// session/id/seq of `session` (seq = the record's own sequence number).
json::Value CreateEvent(const SessionRecord& session);
json::Value WorldEvent(const SessionRecord& session);
json::Value ResumeEvent(const SessionRecord& session, const JobSpec& job);
json::Value AcquireEvent(const SessionRecord& session,
                         const AcquireRecord& acquire);
json::Value FinishEvent(const SessionRecord& session);
json::Value DropEvent(const SessionRecord& session);

/// Folds one journal record into `session` (a default SessionRecord for a
/// name nothing was folded into yet). On a record that breaks the session
/// automaton, returns a Status naming the session, seq and event, and
/// leaves `session` unspecified.
Status Apply(SessionRecord* session, const json::Value& record);

}  // namespace serve
}  // namespace slicetuner

#endif  // SLICETUNER_SERVE_SESSION_LOG_H_
