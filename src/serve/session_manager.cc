#include "serve/session_manager.h"

#include <algorithm>
#include <iterator>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "common/parallel_for.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/trace_context.h"
#include "core/baselines.h"
#include "core/one_shot.h"
#include "obs/recorder.h"
#include "obs/span.h"
#include "serve/serve_metrics.h"
#include "sim/scenario.h"
#include "sim/trace.h"

namespace slicetuner {
namespace serve {

namespace {

// Compiles a JobSpec into the scenario the session's data world is built
// from. Margins and noise floors vary deterministically across slices so
// curves differ and the optimizer has real trade-offs to make.
sim::ScenarioSpec ScenarioFromJob(const JobSpec& job) {
  sim::ScenarioSpec spec;
  spec.name = "serve/" + job.session;
  spec.num_slices = job.num_slices;
  spec.dim = 8;
  const size_t n = static_cast<size_t>(job.num_slices);
  spec.slice_margins.resize(n);
  spec.slice_label_noise.resize(n);
  spec.initial_sizes.assign(n, static_cast<size_t>(job.rows_per_slice));
  spec.costs.assign(n, 1.0);
  for (size_t s = 0; s < n; ++s) {
    spec.slice_margins[s] = 0.7 + 0.25 * static_cast<double>(s % 4);
    spec.slice_label_noise[s] = 0.04 + 0.02 * static_cast<double>(s % 3);
  }
  spec.val_per_slice = 40;
  spec.budget_schedule.assign(static_cast<size_t>(job.rounds),
                              job.budget / job.rounds);
  spec.lambda = 1.0;
  spec.seed = job.seed;
  // Small exhaustive estimation: per-slice trainings are what make the
  // curve cache's partial refit observable (K trainings per stale slice
  // instead of K x |S|).
  spec.curve_points = 3;
  spec.curve_draws = 1;
  spec.exhaustive_curves = true;
  spec.trainer_epochs = 8;
  return spec;
}

Result<BaselineKind> BaselineFromMethod(const std::string& method) {
  if (method == "uniform") return BaselineKind::kUniform;
  if (method == "water_filling") return BaselineKind::kWaterFilling;
  if (method == "proportional") return BaselineKind::kProportional;
  return Status::InvalidArgument("not a baseline method: '" + method + "'");
}

}  // namespace

TuningSession::TuningSession(uint64_t id, JobSpec job,
                             store::DurableStore* store)
    : store_(store), pending_job_(job) {
  durable_.name = job.session;
  durable_.id = id;
  durable_.job = std::move(job);
  enqueued_ns_.store(obs::MonotonicNanos(), std::memory_order_relaxed);
  // No other thread can see the session yet, but LogEventLocked documents
  // a mu_ requirement, so honor it.
  std::lock_guard<std::mutex> lock(mu_);
  LogEventLocked(CreateEvent(durable_));
}

TuningSession::TuningSession(const SessionRecord& record)
    : pending_job_(record.job), durable_(record) {
  // Borrowed from the recovered document, which is freed after recovery;
  // Restore installs it into the tuner instead.
  durable_.resting = nullptr;
}

void TuningSession::LogEventLocked(const json::Value& record) {
  if (store_ == nullptr) return;
  ++durable_.seq;
  const Status appended = store_->Append(record);
  if (!appended.ok()) {
    // Serving keeps going on a sick disk; durability degrades, correctness
    // of the live session does not.
    ST_LOG(Warning) << "journal append failed for session '" << name()
                    << "': " << appended.ToString();
  }
}

void TuningSession::LogAcquireLocked(int round, int slice, long long count) {
  durable_.acquires.push_back({round, slice, count});
  LogEventLocked(AcquireEvent(durable_, durable_.acquires.back()));
}

void TuningSession::LogFinishLocked() {
  durable_.trace_id = trace_id_.load(std::memory_order_relaxed);
  LogEventLocked(FinishEvent(durable_));
  phase_cv_.notify_all();
}

void TuningSession::SyncJournal() {
  if (store_ == nullptr) return;
  const Status synced = store_->Sync();
  if (!synced.ok()) {
    ST_LOG(Warning) << "journal sync failed for session '" << name()
                    << "': " << synced.ToString();
  }
}

void TuningSession::LogDropped() {
  std::lock_guard<std::mutex> lock(mu_);
  LogEventLocked(DropEvent(durable_));
}

void TuningSession::RequestCancel() {
  cancel_requested_.store(true, std::memory_order_relaxed);
}

SessionPhase TuningSession::phase() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durable_.phase;
}

bool TuningSession::Terminal() const { return IsTerminal(phase()); }

bool TuningSession::WaitTerminal(int timeout_ms) const {
  std::unique_lock<std::mutex> lock(mu_);
  return phase_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                            [this] { return IsTerminal(durable_.phase); });
}

size_t TuningSession::FrameCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return frames_.size();
}

json::Value TuningSession::FrameAt(size_t index) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (index >= frames_.size()) return json::Value();
  return frames_[index];
}

Status TuningSession::last_status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durable_.status;
}

long long TuningSession::last_job_trainings() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durable_.counters.last_job_trainings;
}

double TuningSession::last_job_wall_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durable_.counters.last_job_wall_seconds;
}

json::Value TuningSession::TraceTree() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_trace_tree_;
}

json::Value TuningSession::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  const SessionCounters& counters = durable_.counters;
  json::Value out = json::Value::Object();
  out.Set("session", name());
  out.Set("state", SessionPhaseName(durable_.phase));
  const uint64_t trace_id = trace_id_.load(std::memory_order_relaxed);
  if (trace_id != 0) {
    out.Set("trace_id", trace::FormatTraceId(trace_id));
  }
  out.Set("jobs_run", counters.jobs_run);
  out.Set("rounds_completed", counters.rounds_completed);
  out.Set("frames", frames_.size());
  out.Set("rows", counters.rows);
  out.Set("model_trainings", counters.total_trainings);
  out.Set("last_job_trainings", counters.last_job_trainings);
  out.Set("last_job_wall_seconds", counters.last_job_wall_seconds);
  if (!durable_.status.ok()) out.Set("error", durable_.status.ToString());
  if (!durable_.curve_b.empty()) {
    json::Value curves = json::Value::Object();
    json::Value b = json::Value::Array();
    json::Value a = json::Value::Array();
    for (const double v : durable_.curve_b) b.Append(v);
    for (const double v : durable_.curve_a) a.Append(v);
    curves.Set("b", std::move(b));
    curves.Set("a", std::move(a));
    out.Set("curves", std::move(curves));
  }
  if (has_cache_stats_) {
    json::Value cache = json::Value::Object();
    cache.Set("estimate_calls", cache_stats_.estimate_calls);
    cache.Set("served_from_cache", cache_stats_.served_from_cache);
    cache.Set("full_runs", cache_stats_.full_runs);
    cache.Set("partial_refits", cache_stats_.partial_refits);
    cache.Set("slices_refit", cache_stats_.slices_refit);
    cache.Set("slices_reused", cache_stats_.slices_reused);
    cache.Set("trainings_saved", cache_stats_.trainings_saved);
    out.Set("curve_cache", std::move(cache));
  }
  return out;
}

Status TuningSession::Resume(JobSpec job) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!IsTerminal(durable_.phase)) {
    return Status::AlreadyExists("session '" + name() + "' is busy (" +
                                 SessionPhaseName(durable_.phase) + ")");
  }
  // An omitted slice count inherits the session's; an explicit one must
  // match (the data world is fixed at creation).
  const int existing =
      tuner_ != nullptr ? tuner_->num_slices() : pending_job_.num_slices;
  if (job.num_slices == 0) {
    job.num_slices = existing;
  } else if (job.num_slices != existing) {
    return Status::InvalidArgument(StrFormat(
        "session '%s' holds %d slices; resubmission asks for %d",
        name().c_str(), existing, job.num_slices));
  }
  if (job.append_slice >= job.num_slices) {
    return Status::OutOfRange(
        StrFormat("submit_job: append_slice %d outside [0, %d)",
                  job.append_slice, job.num_slices));
  }
  pending_job_ = std::move(job);
  cancel_requested_.store(false, std::memory_order_relaxed);
  enqueued_ns_.store(obs::MonotonicNanos(), std::memory_order_relaxed);
  durable_.phase = SessionPhase::kQueued;
  LogEventLocked(ResumeEvent(durable_, pending_job_));
  return Status::OK();
}

Status TuningSession::RunJob() {
  JobSpec job;
  bool cancelled_before_start = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (durable_.phase != SessionPhase::kQueued) {
      return Status::FailedPrecondition(
          "RunJob on session '" + name() + "' in state " +
          SessionPhaseName(durable_.phase));
    }
    if (cancel_requested_.load(std::memory_order_relaxed)) {
      durable_.phase = SessionPhase::kCancelled;
      durable_.status = Status::Cancelled("cancelled before start");
      ServeMetrics::Get().jobs_cancelled->Add();
      LogFinishLocked();
      cancelled_before_start = true;
    } else {
      durable_.phase = SessionPhase::kRunning;
      job = pending_job_;
      job_round_spans_.clear();
    }
  }
  if (cancelled_before_start) {
    SyncJournal();
    return Status::Cancelled("cancelled before start");
  }
  // The lane running the job enters the trace the submit started: everything
  // the job touches from here — logs, recorder events, store appends —
  // carries the submit's trace id.
  trace::TraceScope trace_scope(trace_id_.load(std::memory_order_relaxed),
                                name());
  const uint64_t queue_wait_ns =
      obs::MonotonicNanos() - enqueued_ns_.load(std::memory_order_relaxed);
  ServeMetrics::Get().queue_wait_ns->Record(queue_wait_ns);
  obs::Recorder::Global().RecordHere(obs::EventKind::kJobStart,
                                     static_cast<int64_t>(queue_wait_ns));

  Stopwatch timer;
  const long long trainings_before = [this] {
    std::lock_guard<std::mutex> lock(mu_);
    return durable_.counters.total_trainings;
  }();
  const Status status = [&] {
    obs::ScopedTimer run_timer(ServeMetrics::Get().run_ns);
    return ExecuteJob(job);
  }();
  const double wall = timer.ElapsedSeconds();
  // Snapshot the engine counters while no estimation is running (tuner_ is
  // only touched from this thread); polls then read the copy without
  // touching the engine lock.
  engine::CurveEngineStats cache_stats;
  const bool has_cache_stats = tuner_ != nullptr;
  if (has_cache_stats) cache_stats = tuner_->curve_engine().stats();

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (has_cache_stats) {
      cache_stats_ = cache_stats;
      has_cache_stats_ = true;
    }
    if (source_ != nullptr) {
      // Rest: only the curve cache stays resident until the next job.
      resting_ = tuner_->SerializeResting();
      tuner_->ReplaceRows(Dataset(), Dataset());
      source_.reset();
    }
    SessionCounters& counters = durable_.counters;
    ++counters.jobs_run;
    counters.last_job_wall_seconds = wall;
    counters.last_job_trainings = counters.total_trainings - trainings_before;
    durable_.status = status;
    ServeMetrics& metrics = ServeMetrics::Get();
    metrics.submit_to_done_ns->Record(
        obs::MonotonicNanos() -
        enqueued_ns_.load(std::memory_order_relaxed));
    if (status.ok()) {
      durable_.phase = SessionPhase::kDone;
      metrics.jobs_done->Add();
    } else if (status.code() == StatusCode::kCancelled) {
      durable_.phase = SessionPhase::kCancelled;
      metrics.jobs_cancelled->Add();
    } else {
      durable_.phase = SessionPhase::kFailed;
      metrics.jobs_failed->Add();
    }
    // Fold the job's round spans into the span tree the done frame (and
    // poll) hand back: the per-round Spans become children of the job.
    json::Value tree = json::Value::Object();
    tree.Set("name", "job");
    tree.Set("trace_id", trace::FormatTraceId(
                             trace_id_.load(std::memory_order_relaxed)));
    tree.Set("total_ms", wall * 1000.0);
    tree.Set("queue_wait_ms", static_cast<double>(queue_wait_ns) / 1e6);
    json::Value rounds = json::Value::Array();
    for (json::Value& span : job_round_spans_) {
      rounds.Append(std::move(span));
    }
    job_round_spans_.clear();
    tree.Set("rounds", std::move(rounds));
    last_trace_tree_ = std::move(tree);
    LogFinishLocked();
  }
  obs::Recorder::Global().RecordHere(
      obs::EventKind::kJobDone, static_cast<int64_t>(wall * 1e9));
  // Group commit: one fsync makes the whole job's records (acquires +
  // finish) durable together.
  SyncJournal();
  return status;
}

Status TuningSession::BuildWorld(const JobSpec& job) {
  const sim::ScenarioSpec spec = ScenarioFromJob(job);
  ST_RETURN_NOT_OK(spec.Validate());
  auto source = std::make_unique<sim::ScriptedSource>(spec);

  SliceTunerOptions options;
  options.model_spec = spec.BuildModelSpec();
  options.trainer = spec.BuildTrainer();
  options.curve_options = spec.BuildCurveOptions(/*num_threads=*/1);
  options.lambda = spec.lambda;
  options.cache_curves = true;
  ST_ASSIGN_OR_RETURN(
      SliceTuner tuner,
      SliceTuner::Create(source->GenerateInitial(),
                         source->GenerateValidation(), job.num_slices,
                         std::move(options)));
  auto owned = std::make_unique<SliceTuner>(std::move(tuner));
  std::lock_guard<std::mutex> lock(mu_);
  source_ = std::move(source);
  tuner_ = std::move(owned);
  durable_.counters.rows = static_cast<long long>(tuner_->train().size());
  // The world is a pure function of the job that built it — which is the
  // creation job, unless the session was cancelled before ever running and
  // re-armed with different parameters. Journal the job actually used so
  // recovery replays the right world; a checkpoint cannot fall between the
  // install and the record.
  durable_.job = job;
  durable_.world_built = true;
  LogEventLocked(WorldEvent(durable_));
  return Status::OK();
}

Status TuningSession::ExecuteJob(const JobSpec& job) {
  if (tuner_ == nullptr) {
    ST_RETURN_NOT_OK(BuildWorld(job));
  } else {
    if (source_ == nullptr) ST_RETURN_NOT_OK(WakeWorld());
    if (job.append_rows > 0) {
      // Incremental update: new rows for one slice arrive with the
      // resubmission. Only that slice's content hash changes, so the next
      // estimation partially refits instead of running cold.
      const int round = durable_.next_round;
      source_->BeginRound(round);
      const Dataset batch = source_->Acquire(
          job.append_slice, static_cast<size_t>(job.append_rows));
      // The append consumed this round index's acquisition stream; advance
      // so the job's first round draws fresh examples instead of replaying
      // the exact draws that produced the appended rows (BeginRound
      // re-seeds as a pure function of (seed, round)).
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++durable_.next_round;
      }
      ST_RETURN_NOT_OK(tuner_->AppendTrainingData(batch));
      std::lock_guard<std::mutex> lock(mu_);
      durable_.counters.rows = static_cast<long long>(tuner_->train().size());
      LogAcquireLocked(round, job.append_slice, job.append_rows);
    }
  }
  return RunRounds(job);
}

Status TuningSession::ReplayAcquires() {
  int round = -1;
  for (const AcquireRecord& record : durable_.acquires) {
    // BeginRound re-anchors the round's draw stream, so it must run once
    // per round — repeating it would replay the round's first draws
    // instead of continuing them.
    if (record.round != round) {
      round = record.round;
      source_->BeginRound(round);
    }
    ST_RETURN_NOT_OK(tuner_->AppendTrainingData(source_->Acquire(
        record.slice, static_cast<size_t>(record.count))));
  }
  return Status::OK();
}

Status TuningSession::WakeWorld() {
  source_ =
      std::make_unique<sim::ScriptedSource>(ScenarioFromJob(durable_.job));
  tuner_->ReplaceRows(source_->GenerateInitial(),
                      source_->GenerateValidation());
  return ReplayAcquires();
}

Status TuningSession::RunRounds(const JobSpec& job) {
  const double round_budget = job.budget / job.rounds;
  const std::vector<double> costs =
      CostVector(source_->cost(), job.num_slices);
  const bool curve_based = job.method == "moderate";

  for (int r = 0; r < job.rounds; ++r) {
    if (cancel_requested_.load(std::memory_order_relaxed)) {
      return Status::Cancelled(StrFormat(
          "session '%s' cancelled after %d of %d rounds", name().c_str(), r,
          job.rounds));
    }
    source_->BeginRound(durable_.next_round);
    obs::Recorder::Global().RecordHere(obs::EventKind::kRoundStart,
                                       durable_.next_round);

    // One span per round: stage timers attribute the round's wall time to
    // estimate / plan / acquire, feed the process-wide serve_round_stage_ns
    // histograms, and the summary rides the round's progress frame.
    obs::Span round_span("round");
    sim::RoundTrace round;
    round.round = durable_.next_round;
    round.budget = round_budget;

    std::vector<long long> allocation;
    if (curve_based) {
      CurveEstimationResult curves;
      {
        obs::StageTimer estimate_timer(
            &round_span, "estimate", ServeMetrics::Get().round_estimate_ns);
        ST_ASSIGN_OR_RETURN(curves, tuner_->EstimateCurves());
      }
      round.model_trainings = curves.model_trainings;
      round.curve_b.reserve(curves.slices.size());
      round.curve_a.reserve(curves.slices.size());
      for (const SliceCurveEstimate& slice : curves.slices) {
        round.curve_b.push_back(slice.curve.b);
        round.curve_a.push_back(slice.curve.a);
      }
      OneShotPlan plan;
      {
        const uint64_t plan_start = obs::MonotonicNanos();
        obs::StageTimer plan_timer(&round_span, "plan",
                                   ServeMetrics::Get().round_plan_ns);
        ST_ASSIGN_OR_RETURN(
            plan,
            PlanOneShotWithCurves(curves.slices, tuner_->SliceSizes(), costs,
                                  round_budget, tuner_->options().lambda));
        obs::Recorder::Global().RecordHere(
            obs::EventKind::kPlan,
            static_cast<int64_t>(obs::MonotonicNanos() - plan_start));
      }
      allocation = std::move(plan.examples);
    } else {
      ST_ASSIGN_OR_RETURN(const BaselineKind kind,
                          BaselineFromMethod(job.method));
      ST_ASSIGN_OR_RETURN(
          allocation,
          BaselineAllocation(kind, tuner_->SliceSizes(), costs,
                             round_budget));
    }

    {
      const uint64_t acquire_start = obs::MonotonicNanos();
      obs::StageTimer acquire_timer(&round_span, "acquire",
                                    ServeMetrics::Get().round_acquire_ns);
      for (size_t s = 0; s < allocation.size(); ++s) {
        if (allocation[s] <= 0) continue;
        const Dataset batch = source_->Acquire(
            static_cast<int>(s), static_cast<size_t>(allocation[s]));
        ST_RETURN_NOT_OK(tuner_->AppendTrainingData(batch));
        round.spent += static_cast<double>(allocation[s]) * costs[s];
      }
      obs::Recorder::Global().RecordHere(
          obs::EventKind::kAcquire,
          static_cast<int64_t>(obs::MonotonicNanos() - acquire_start));
    }
    round.acquired = std::move(allocation);
    const std::vector<size_t> sizes = tuner_->SliceSizes();
    round.sizes.reserve(sizes.size());
    for (const size_t size : sizes) {
      round.sizes.push_back(static_cast<long long>(size));
    }

    json::Value frame;
    {
      std::lock_guard<std::mutex> lock(mu_);
      SessionCounters& counters = durable_.counters;
      ++counters.rounds_completed;
      counters.total_trainings += round.model_trainings;
      counters.rows = static_cast<long long>(tuner_->train().size());
      frame = ProgressFrame(name(), frames_.size(),
                            sim::RoundTraceToJson(round));
      json::Value span_json = round_span.ToJson();
      span_json.Set("round", round.round);
      job_round_spans_.push_back(span_json);
      frame.Set("span", std::move(span_json));
      frames_.push_back(frame);
      // Log the round's acquisitions in slice order — the order the
      // batches consumed the round's draw stream, which WakeWorld and
      // recovery must replay exactly.
      for (size_t s = 0; s < round.acquired.size(); ++s) {
        if (round.acquired[s] <= 0) continue;
        LogAcquireLocked(round.round, static_cast<int>(s), round.acquired[s]);
      }
      ++durable_.next_round;
    }
  }

  // Closing estimate on the final data. Besides giving the client curves
  // that reflect everything acquired, this brings the curve cache up to
  // date with the session's resting state — so a resubmission that appends
  // rows to one slice finds every *other* slice already cached and rides
  // the engine's partial refit instead of a cold estimation.
  if (curve_based) {
    CurveEstimationResult curves;
    {
      obs::ScopedTimer estimate_timer(ServeMetrics::Get().round_estimate_ns);
      ST_ASSIGN_OR_RETURN(curves, tuner_->EstimateCurves());
    }
    std::lock_guard<std::mutex> lock(mu_);
    durable_.counters.total_trainings += curves.model_trainings;
    durable_.curve_b.clear();
    durable_.curve_a.clear();
    for (const SliceCurveEstimate& slice : curves.slices) {
      durable_.curve_b.push_back(slice.curve.b);
      durable_.curve_a.push_back(slice.curve.a);
    }
  }
  return Status::OK();
}

json::Value TuningSession::DurableState() const {
  std::lock_guard<std::mutex> lock(mu_);
  SessionRecord out = durable_;
  out.trace_id = trace_id_.load(std::memory_order_relaxed);
  // The tuner (and its curve cache) may only be walked while no job runs.
  // Under mu_ with a non-running phase that is guaranteed: RunJob's first
  // transition to kRunning takes mu_, so it cannot start while we hold it.
  json::Value awake;
  if (durable_.phase != SessionPhase::kRunning && tuner_ != nullptr) {
    if (source_ != nullptr) awake = tuner_->SerializeResting();
    out.resting = source_ != nullptr ? &awake : &resting_;
  }
  return out.ToJson();
}

Result<std::unique_ptr<TuningSession>> TuningSession::Restore(
    const SessionRecord& record, store::DurableStore* store,
    size_t* warm_slices) {
  if (warm_slices != nullptr) *warm_slices = 0;
  // Built without the store so nothing is journaled during replay; the
  // store is attached at the end for future events.
  auto session = std::unique_ptr<TuningSession>(new TuningSession(record));
  if (record.world_built) {
    ST_RETURN_NOT_OK(session->BuildWorld(record.job));
    // Replay the acquire log in order: each batch is re-derived from the
    // deterministic source, so the training rows come back bit-identical
    // without a single model training.
    ST_RETURN_NOT_OK(session->ReplayAcquires());
    session->durable_.counters.rows =
        static_cast<long long>(session->tuner_->train().size());
    // Install the fitted-curve cache. Every entry is validated against the
    // content hash of the rows just replayed; entries that no longer match
    // (rows acquired after the snapshot, lost journal tail) silently stay
    // cold and re-fit on the next estimate.
    if (record.resting != nullptr) {
      ST_ASSIGN_OR_RETURN(const size_t warm,
                          session->tuner_->RestoreCurveCache(*record.resting));
      if (warm_slices != nullptr) *warm_slices = warm;
    }
  }
  SessionRecord& durable = session->durable_;
  if (!IsTerminal(durable.phase)) {
    // Its job died with the process: it comes back resumable.
    durable.phase = SessionPhase::kCancelled;
    durable.status = Status::Cancelled("interrupted by restart");
  } else if (durable.phase == SessionPhase::kDone) {
    durable.status = Status::OK();
  } else if (durable.status.ok()) {
    durable.status = durable.phase == SessionPhase::kFailed
                         ? Status::Internal("restored failed session")
                         : Status::Cancelled("interrupted by restart");
  }
  session->trace_id_.store(durable.trace_id, std::memory_order_relaxed);
  session->store_ = store;
  return session;
}

// ---------------------------------------------------------------------------
// SessionManager
// ---------------------------------------------------------------------------

Result<TuningSession*> SessionManager::Register(const JobSpec& job) {
  ST_RETURN_NOT_OK(job.Validate());
  std::lock_guard<std::mutex> lock(mu_);
  if (restoring_names_.count(job.session) != 0) {
    // A restore pass is rebuilding this name right now; shed the submit
    // with a retryable rejection rather than racing the rebuild.
    ServeMetrics::Get().shed_restoring->Add();
    return Status::ResourceExhausted("session '" + job.session +
                                     "' is being restored; retry shortly");
  }
  const auto existing = by_name_.find(job.session);
  if (existing != by_name_.end()) {
    TuningSession* session = existing->second;
    ST_RETURN_NOT_OK(session->Resume(job));
    ++stats_.resumed;
    if (store_ != nullptr) (void)store_->Sync();  // resume event durable
    return session;
  }
  JobSpec resolved = job;
  if (resolved.num_slices == 0) {
    resolved.num_slices = JobSpec::kDefaultNumSlices;
  }
  if (resolved.append_slice >= resolved.num_slices) {
    return Status::OutOfRange(
        StrFormat("submit_job: append_slice %d outside [0, %d)",
                  resolved.append_slice, resolved.num_slices));
  }
  AddLocked(std::make_unique<TuningSession>(next_id_++, resolved, store_));
  ++stats_.created;
  ServeMetrics::Get().sessions->Set(static_cast<double>(sessions_.size()));
  if (store_ != nullptr) (void)store_->Sync();  // create event durable
  return sessions_.back().get();
}

void SessionManager::AddLocked(std::unique_ptr<TuningSession> session) {
  by_name_.emplace(session->name(), session.get());
  by_id_.emplace(session->id(), session.get());
  sessions_.push_back(std::move(session));
}

void SessionManager::Drop(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto indexed = by_id_.find(id);
  if (indexed == by_id_.end()) return;
  TuningSession* session = indexed->second;
  --stats_.created;  // the session never became visible to clients
  // Recovery must not resurrect the dropped name.
  session->LogDropped();
  if (store_ != nullptr) (void)store_->Sync();
  by_id_.erase(indexed);
  const auto named = by_name_.find(session->name());
  if (named != by_name_.end() && named->second == session) {
    by_name_.erase(named);
  }
  // Register appended the session moments ago: search from the back.
  const auto owned = std::find_if(
      sessions_.rbegin(), sessions_.rend(),
      [session](const std::unique_ptr<TuningSession>& candidate) {
        return candidate.get() == session;
      });
  sessions_.erase(std::next(owned).base());
  ServeMetrics::Get().sessions->Set(static_cast<double>(sessions_.size()));
}

TuningSession* SessionManager::Find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second;
}

TuningSession* SessionManager::FindById(uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : it->second;
}

Status SessionManager::Cancel(const std::string& name) {
  TuningSession* session = Find(name);
  if (session == nullptr) {
    return Status::NotFound("unknown session '" + name + "'");
  }
  if (session->Terminal()) {
    return Status::FailedPrecondition(
        "session '" + name + "' already finished (" +
        SessionPhaseName(session->phase()) + ")");
  }
  session->RequestCancel();
  return Status::OK();
}

size_t SessionManager::active_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t active = 0;
  for (const auto& session : sessions_) {
    if (!session->Terminal()) ++active;
  }
  return active;
}

size_t SessionManager::session_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

void SessionManager::RecordOutcome(const Status& status) {
  std::function<void()> callback;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (status.ok()) {
      ++stats_.completed;
    } else if (status.code() == StatusCode::kCancelled) {
      ++stats_.cancelled;
    } else {
      ++stats_.failed;
    }
    callback = job_finished_callback_;
  }
  // Outside the lock: the callback reaches into store maintenance, which
  // may itself be mid-checkpoint calling DurableSnapshot (needs mu_).
  if (callback) callback();
}

void SessionManager::SetJobFinishedCallback(std::function<void()> callback) {
  std::lock_guard<std::mutex> lock(mu_);
  job_finished_callback_ = std::move(callback);
}

SessionManagerStats SessionManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

json::Value SessionManager::StatsJson() const {
  const SessionManagerStats s = stats();
  json::Value out = json::Value::Object();
  out.Set("sessions", session_count());
  out.Set("active", active_count());
  out.Set("created", s.created);
  out.Set("resumed", s.resumed);
  out.Set("completed", s.completed);
  out.Set("cancelled", s.cancelled);
  out.Set("failed", s.failed);
  out.Set("restored", s.restored);
  return out;
}

// ---------------------------------------------------------------------------
// Durability: snapshot + journal-tail recovery
// ---------------------------------------------------------------------------

json::Value RestoreReport::ToJson() const {
  json::Value out = json::Value::Object();
  out.Set("sessions_restored", sessions_restored);
  out.Set("sessions_skipped", sessions_skipped);
  out.Set("sessions_dropped", sessions_dropped);
  out.Set("warm_slices", warm_slices);
  out.Set("journal_records_applied", journal_records_applied);
  out.Set("tail_truncated", tail_truncated);
  return out;
}

void SessionManager::AttachStore(store::DurableStore* store) {
  std::lock_guard<std::mutex> lock(mu_);
  store_ = store;
}

json::Value SessionManager::DurableSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  json::Value out = json::Value::Object();
  out.Set("format", "slicetuner-serve-state");
  out.Set("version", 1);
  out.Set("next_id", static_cast<long long>(next_id_));
  // Each session serializes under its own mutex; slots keep registry order.
  std::vector<json::Value> states(sessions_.size());
  ParallelFor(states.size(),
              [&](size_t i) { states[i] = sessions_[i]->DurableState(); });
  json::Value sessions = json::Value::Array();
  for (json::Value& state : states) sessions.Append(std::move(state));
  out.Set("sessions", std::move(sessions));
  return out;
}

Result<RestoreReport> SessionManager::RestoreFromState(
    const store::RecoveredState& state, store::DurableStore* store,
    bool skip_existing) {
  RestoreReport report;
  report.tail_truncated = state.tail_truncated;

  // Fold: one SessionRecord per name, in snapshot order, then each
  // tail-only name in order of its first record. A tail record the name's
  // snapshot entry already holds (a lower seq of its incarnation, or an
  // older incarnation) is skipped; the rest go through Apply, and the
  // first one that does not conform stops the name until a create with a
  // new id starts it over. A snapshot entry is parsed when a record first
  // applies to it, or else by its rebuild on the pool; resting subtrees
  // stay borrowed from `state`.
  struct Slot {
    SessionRecord record;
    Status status;
    const json::Value* entry = nullptr;  // snapshot entry not parsed yet
    uint64_t covered_id = 0;
    long long covered_seq = 0;

    void Parse() {
      if (entry == nullptr) return;
      Result<SessionRecord> parsed = SessionRecord::FromJson(*entry);
      entry = nullptr;
      status = parsed.status();
      if (parsed.ok()) record = std::move(parsed).value();
    }
  };
  std::vector<Slot> slots;
  std::unordered_map<std::string, size_t> slot_of;
  static const std::vector<json::Value> kNoEntries;
  const json::Value* entries = state.snapshot.Find("sessions");
  for (const json::Value& entry :
       entries != nullptr ? entries->items() : kNoEntries) {
    const std::string name = entry.GetString("name");
    if (name.empty() || !slot_of.emplace(name, slots.size()).second) continue;
    Slot& slot = slots.emplace_back();
    slot.record.name = name;
    slot.record.id = static_cast<uint64_t>(entry.GetInt("id", 0));
    slot.entry = &entry;
    slot.covered_id = slot.record.id;
    slot.covered_seq = entry.GetInt("seq", 0);
  }
  for (const json::Value& record : state.tail) {
    const std::string name = record.GetString("session");
    if (name.empty()) continue;
    const auto [index, fresh] = slot_of.emplace(name, slots.size());
    if (fresh) slots.emplace_back().record.name = name;
    Slot& slot = slots[index->second];
    const uint64_t id = static_cast<uint64_t>(record.GetInt("id", 0));
    if (id == slot.covered_id ? record.GetInt("seq", -1) < slot.covered_seq
                              : id < slot.covered_id) {
      continue;
    }
    slot.Parse();
    if (!slot.status.ok() && (record.GetString("event") != "create" ||
                              id == slot.record.id)) {
      continue;
    }
    slot.status = Apply(&slot.record, record);
    if (slot.status.ok()) ++report.journal_records_applied;
  }

  // Claim the names this pass will materialize. Until a name is released
  // below, Register sheds submits for it (ResourceExhausted; the server
  // attaches a retry hint) and a concurrent restore pass leaves it alone —
  // so a submit arriving while `restore` runs under load can neither race
  // the rebuild nor create a duplicate session.
  std::vector<Slot*> claimed;  // in fold order
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (Slot& session : slots) {
      if (session.status.ok() && session.record.dropped) {
        ++report.sessions_dropped;
        continue;
      }
      const std::string& name = session.record.name;
      if (restoring_names_.count(name) != 0 ||
          (skip_existing && by_name_.count(name) != 0)) {
        // Live already, or another concurrent restore pass owns the name.
        ++report.sessions_skipped;
        continue;
      }
      restoring_names_.insert(name);
      claimed.push_back(&session);
    }
  }
  if (restore_hook_) restore_hook_();

  // Materialize: each rebuild is a pure function of its folded record, so
  // they fan out across the pool into per-index slots. A name whose log
  // does not conform fails here, alone.
  std::vector<std::unique_ptr<TuningSession>> rebuilt(claimed.size());
  std::vector<Status> failures(claimed.size());
  std::vector<size_t> warm(claimed.size(), 0);
  ParallelFor(claimed.size(), [&](size_t i) {
    claimed[i]->Parse();
    failures[i] = claimed[i]->status;
    if (!failures[i].ok()) return;
    Result<std::unique_ptr<TuningSession>> restored =
        TuningSession::Restore(claimed[i]->record, store, &warm[i]);
    if (restored.ok()) {
      rebuilt[i] = std::move(restored).value();
    } else {
      failures[i] = restored.status();
    }
  });
  for (size_t i = 0; i < claimed.size(); ++i) {
    if (failures[i].ok()) continue;
    // One undecodable session must not take down recovery of the rest.
    ST_LOG(Warning) << "could not restore session '"
                    << claimed[i]->record.name
                    << "': " << failures[i].ToString();
  }

  // Publish in fold order. An empty recovery still adopts the snapshot's
  // id allocator, and the claimed names become submittable again (restored
  // ones as live sessions, failed ones as fresh creates).
  std::lock_guard<std::mutex> lock(mu_);
  next_id_ = std::max(
      next_id_, static_cast<uint64_t>(state.snapshot.GetInt("next_id", 1)));
  for (size_t i = 0; i < claimed.size(); ++i) {
    restoring_names_.erase(claimed[i]->record.name);
    if (rebuilt[i] == nullptr) continue;
    next_id_ = std::max(next_id_, rebuilt[i]->id() + 1);
    AddLocked(std::move(rebuilt[i]));
    ++report.sessions_restored;
    report.warm_slices += warm[i];
  }
  stats_.restored += report.sessions_restored;
  ServeMetrics::Get().sessions->Set(static_cast<double>(sessions_.size()));
  return report;
}

void SessionManager::SetRestoreHookForTesting(std::function<void()> hook) {
  restore_hook_ = std::move(hook);
}

}  // namespace serve
}  // namespace slicetuner
