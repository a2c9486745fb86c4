// Session lifecycle for the tuning service. A TuningSession owns a
// long-lived SliceTuner whose curve-estimation engine persists across jobs:
// the first submit runs cold, but a resubmission that appends rows to one
// slice re-enters estimation with every other slice's curve still cached —
// the engine's partial refit — so maintaining a session is incremental in
// the size of the change, not the size of the data (the FO+MOD-style
// maintenance-under-updates contract of the ROADMAP).
//
// Threading: the server's poll loop reads snapshots/frames and requests
// cancellation while an admission lane (a pool thread) executes RunJob;
// all session state is guarded by one per-session mutex (the tuner itself
// is only touched by RunJob, which the phase machine keeps single-flight).
//
// Durability (src/store/, docs/STATE.md): when a store::DurableStore is
// attached, every session journals its lifecycle — create / resume /
// acquire / finish / drop events, one fsync batch per finished job — and
// serializes its resting state (fitted curves + curve-cache content hashes)
// into store snapshots. Training rows are never persisted: a session's data
// world is a pure function of its creation JobSpec and acquire sequence
// (sim::ScriptedSource determinism), so recovery re-derives the rows and
// validates each cached curve against their content hashes. A restored
// session resumes warm: an append_rows resubmission partially refits only
// the touched slices, with training counts and closing estimates identical
// to a never-restarted session.

#ifndef SLICETUNER_SERVE_SESSION_MANAGER_H_
#define SLICETUNER_SERVE_SESSION_MANAGER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "core/slice_tuner.h"
#include "serve/protocol.h"
#include "serve/session_log.h"
#include "sim/scripted_source.h"
#include "store/store.h"

namespace slicetuner {
namespace serve {

class TuningSession {
 public:
  /// `store` (optional) makes the session durable: the constructor journals
  /// the create event, and every subsequent lifecycle change appends to the
  /// journal. `job` must already be resolved (non-zero num_slices).
  explicit TuningSession(uint64_t id, JobSpec job,
                         store::DurableStore* store = nullptr);

  // Fixed at construction, so readable without the session mutex.
  uint64_t id() const { return durable_.id; }
  const std::string& name() const { return durable_.name; }

  /// Executes the pending job: builds the data world on first run (or
  /// appends the resubmission's rows), then runs `rounds` estimate ->
  /// optimize -> acquire rounds, appending one progress frame per round.
  /// Cancellation is honored at round boundaries. Returns the job's status
  /// and moves the phase to done/cancelled/failed.
  Status RunJob();

  /// Installs the trace id of the submit that armed the pending job. The
  /// server calls this right after Register/Resume, before admission hands
  /// the session to a lane, so RunJob always sees the id that minted
  /// it (docs/OBSERVABILITY.md, "Request tracing").
  void SetTraceId(uint64_t trace_id) {
    trace_id_.store(trace_id, std::memory_order_relaxed);
  }
  uint64_t trace_id() const {
    return trace_id_.load(std::memory_order_relaxed);
  }

  /// Span tree of the last completed job: {"name":"job","trace_id":...,
  /// "total_ms":X,"rounds":[<round span>...]}. Attached to the done frame
  /// and returned by poll. Null until a job finishes.
  json::Value TraceTree() const;

  /// Flags the session for cancellation: a queued session resolves
  /// cancelled without running; a running one stops at the next round
  /// boundary.
  void RequestCancel();

  /// Re-arms a terminal session with a follow-up job (phase back to
  /// queued). Fails while the session is queued or running.
  Status Resume(JobSpec job);

  SessionPhase phase() const;
  bool Terminal() const;
  /// Blocks until the session reaches a terminal phase (false on timeout).
  bool WaitTerminal(int timeout_ms) const;

  /// Number of progress frames emitted so far (monotone within a job;
  /// frames survive until the next job re-arms the session).
  size_t FrameCount() const;
  json::Value FrameAt(size_t index) const;

  /// Poll payload: phase, per-job counters, and the curve engine's cache
  /// statistics (partial_refits / served_from_cache expose the incremental
  /// path to clients and tests).
  json::Value Snapshot() const;

  /// Terminal status of the last job (OK while none finished).
  Status last_status() const;
  /// Model trainings performed by the last completed job.
  long long last_job_trainings() const;
  /// Wall seconds of the last completed job.
  double last_job_wall_seconds() const;

  /// Journals the drop event for a session SessionManager::Drop erases
  /// (recovery then knows the name never became visible).
  void LogDropped();

  /// Durable form of the session for a store snapshot: SessionRecord::
  /// ToJson of its creation job, acquire log, counters, closing curves,
  /// journal sequence number, and — when the session is at rest — the
  /// tuner's serialized curve cache (docs/STATE.md "Snapshot format"). Progress
  /// frames are deliberately not durable; streams do not survive a restart.
  json::Value DurableState() const;

  /// Rebuilds a session from a SessionRecord (a snapshot entry, possibly
  /// advanced by journal records through Apply): re-derives the training
  /// rows from the job + acquire log, installs the borrowed curve cache
  /// (each entry validated against the re-derived rows' content hashes),
  /// and restores counters, phase and status. A session that was queued or
  /// running when the state was captured comes back cancelled
  /// ("interrupted by restart") and can be resumed by the next submit.
  /// `warm_slices` (out, optional) reports how many slices restored with a
  /// hot curve cache.
  static Result<std::unique_ptr<TuningSession>> Restore(
      const SessionRecord& record, store::DurableStore* store,
      size_t* warm_slices = nullptr);

 private:
  /// A session rebuilt from `record`; journals nothing.
  explicit TuningSession(const SessionRecord& record);

  Status ExecuteJob(const JobSpec& job);
  Status RunRounds(const JobSpec& job);
  /// Builds the data world from `job`, and in one locked section installs
  /// it, makes `job` the durable job and journals the world record (cold
  /// path of ExecuteJob and the recovery replay).
  Status BuildWorld(const JobSpec& job);
  /// Re-derives the rows acquired since the world was built, in log order.
  Status ReplayAcquires();
  /// Regenerates a resting session's rows from a fresh source.
  Status WakeWorld();
  /// Appends one record built by session_log.h for durable_ (requires mu_
  /// held; no-op without a store) and advances durable_.seq, also when the
  /// append fails: recovery then names the gap.
  void LogEventLocked(const json::Value& record);
  /// Records one acquisition in durable_.acquires and journals it (mu_ held).
  void LogAcquireLocked(int round, int slice, long long count);
  /// Journals the finish record of the phase and status just set (mu_ held).
  void LogFinishLocked();
  /// Makes the job's records durable together (one fsync; no-op without a
  /// store).
  void SyncJournal();

  store::DurableStore* store_ = nullptr;  // not owned; may be null

  mutable std::mutex mu_;
  mutable std::condition_variable phase_cv_;
  JobSpec pending_job_;
  std::vector<json::Value> frames_;
  std::atomic<bool> cancel_requested_{false};
  // When the job was submitted (creation or Resume): the anchor for the
  // serve_queue_wait_ns / serve_submit_to_done_ns histograms (src/obs/).
  std::atomic<uint64_t> enqueued_ns_{0};
  // Trace id of the submit that armed the pending job (0 = untraced).
  std::atomic<uint64_t> trace_id_{0};
  // Round-span JSONs accumulated by the in-flight job (RunJob thread only
  // writes; appended under mu_), folded into last_trace_tree_ at finish.
  std::vector<json::Value> job_round_spans_;
  // Span tree of the last completed job (guarded by mu_).
  json::Value last_trace_tree_;

  // Long-lived tuning state (only RunJob touches these; single-flight by
  // phase machine). After each job the tuner keeps only its curve cache,
  // source_ is null, and resting_ holds the SerializeResting() taken last.
  std::unique_ptr<SliceTuner> tuner_;
  std::unique_ptr<sim::ScriptedSource> source_;
  json::Value resting_;

  // Everything a snapshot or the journal holds of the session, guarded by
  // mu_: phase, last status, durable job, acquire log, next round index
  // (monotone across jobs, keeps draws fresh), counters, closing curves and
  // the next journal seq. The job thread also reads it without mu_, since
  // only it writes while a job runs. trace_id is copied in at finish.
  SessionRecord durable_;
  // Copy of the curve engine's counters taken at job boundaries. Snapshot
  // reads this instead of engine.stats() so a poll never waits on the
  // engine lock a running estimation holds.
  engine::CurveEngineStats cache_stats_;
  bool has_cache_stats_ = false;
};

struct SessionManagerStats {
  size_t created = 0;
  size_t resumed = 0;
  size_t completed = 0;
  size_t failed = 0;
  size_t cancelled = 0;
  size_t restored = 0;
};

/// What a recovery pass did (surfaced through the restore verb and the
/// daemon's startup log line).
struct RestoreReport {
  size_t sessions_restored = 0;
  /// Sessions skipped because a live session already owns the name (only
  /// possible via the runtime `restore` verb; startup recovery runs on an
  /// empty registry).
  size_t sessions_skipped = 0;
  /// Sessions whose journal history ends in a drop event.
  size_t sessions_dropped = 0;
  /// Slices that came back with a hot curve cache across all sessions.
  size_t warm_slices = 0;
  size_t journal_records_applied = 0;
  bool tail_truncated = false;

  json::Value ToJson() const;
};

class SessionManager {
 public:
  /// Registers a submit_job: creates a fresh session, or resumes a terminal
  /// one when the key is already known. Fails with AlreadyExists when the
  /// session is still queued/running, and with ResourceExhausted (a
  /// retryable shed) while a concurrent RestoreFromState is rebuilding the
  /// name — store-aware admission: a submit must neither race the rebuild
  /// nor create a duplicate the restore would then skip. The returned
  /// pointer stays valid for the manager's lifetime, unless the caller
  /// hands it to Drop().
  Result<TuningSession*> Register(const JobSpec& job);

  /// Erases a session that Register just created and that nothing else
  /// references yet, journaling a drop so recovery does not resurrect it.
  /// The server never drops (admission decides before Register); offline
  /// registry probes use it to keep the registry at a fixed size, and
  /// recovery still replays drop records from older journals. No-op for
  /// unknown ids.
  void Drop(uint64_t id);

  /// nullptr when unknown.
  TuningSession* Find(const std::string& name) const;
  TuningSession* FindById(uint64_t id) const;

  Status Cancel(const std::string& name);

  /// Sessions currently queued or running.
  size_t active_count() const;
  size_t session_count() const;

  /// Records a session's terminal outcome (called by the lane that ran it).
  void RecordOutcome(const Status& status);

  /// Invoked (outside the manager lock) after every RecordOutcome — the
  /// finished-job notification store maintenance keys its snapshot cadence
  /// off (src/store/maintenance.h). Set before serving traffic.
  void SetJobFinishedCallback(std::function<void()> callback);

  SessionManagerStats stats() const;
  json::Value StatsJson() const;

  /// Makes future sessions durable: every Register/Drop and session
  /// lifecycle event journals through `store` (not owned). Attach before
  /// serving traffic; existing sessions are not retrofitted.
  void AttachStore(store::DurableStore* store);

  /// Materializes sessions from recovered state: folds the snapshot's
  /// session entries and the journal tail into one SessionRecord per name
  /// (per-session sequence numbers decide which tail records the snapshot
  /// already covers; Apply checks the rest against the session automaton,
  /// docs/STATE.md), then rebuilds each surviving session via
  /// TuningSession::Restore, in parallel across the shared pool. A session
  /// whose log does not conform is logged and left out, like any failed
  /// rebuild; the others still restore. The rebuilt sessions join the
  /// registry together, in merged order (snapshot order, then first
  /// appearance in the tail), whatever the thread count. With
  /// `skip_existing`, names already registered are left untouched (the
  /// runtime `restore` verb); startup recovery passes false on an empty
  /// registry. Restored sessions journal future events through `store`.
  Result<RestoreReport> RestoreFromState(const store::RecoveredState& state,
                                         store::DurableStore* store,
                                         bool skip_existing);

  /// The store snapshot document covering every registered session (plus
  /// the id allocator), ready for DurableStore::WriteSnapshot/Compact.
  /// Sessions serialize in parallel and appear in registry order, so the
  /// document does not depend on the thread count.
  json::Value DurableSnapshot() const;

  /// Test hook: invoked by RestoreFromState after claiming the names it
  /// will materialize and before rebuilding them — lets a test hold the
  /// restore open to exercise the mid-restore shed path in Register.
  void SetRestoreHookForTesting(std::function<void()> hook);

 private:
  /// Appends `session` to the registry and its indexes (requires mu_).
  void AddLocked(std::unique_ptr<TuningSession> session);

  mutable std::mutex mu_;
  // Registry order (what snapshots follow); owns the sessions.
  std::vector<std::unique_ptr<TuningSession>> sessions_;
  // Lookup indexes over sessions_. A name or id registered twice (only a
  // skip_existing=false restore onto a live registry can do that) keeps
  // its first session, as the registry order would.
  std::unordered_map<std::string, TuningSession*> by_name_;
  std::unordered_map<uint64_t, TuningSession*> by_id_;
  uint64_t next_id_ = 1;
  SessionManagerStats stats_;
  store::DurableStore* store_ = nullptr;  // not owned; may be null
  // Names a RestoreFromState pass has claimed but not yet materialized;
  // Register sheds submits for them (and a concurrent restore pass leaves
  // them to their owner).
  std::unordered_set<std::string> restoring_names_;
  std::function<void()> restore_hook_;
  std::function<void()> job_finished_callback_;
};

}  // namespace serve
}  // namespace slicetuner

#endif  // SLICETUNER_SERVE_SESSION_MANAGER_H_
