#include "serve/session_log.h"

#include <algorithm>
#include <climits>
#include <iterator>
#include <utility>

#include "common/string_util.h"
#include "common/trace_context.h"

namespace slicetuner {
namespace serve {

namespace {

constexpr const char* kPhaseNames[] = {"queued", "running", "done",
                                       "cancelled", "failed"};

bool ParsePhase(const std::string& name, SessionPhase* phase) {
  for (size_t p = 0; p < std::size(kPhaseNames); ++p) {
    if (name == kPhaseNames[p]) {
      *phase = static_cast<SessionPhase>(p);
      return true;
    }
  }
  return false;
}

// Inverse of Status::ToString ("<Code>: <message>"); text without a known
// code prefix is kept whole as an Internal message.
Status ParseStatus(const std::string& text) {
  for (int c = 1; c <= static_cast<int>(StatusCode::kCancelled); ++c) {
    const StatusCode code = static_cast<StatusCode>(c);
    const std::string prefix = std::string(StatusCodeToString(code)) + ": ";
    if (StartsWith(text, prefix)) {
      return Status(code, text.substr(prefix.size()));
    }
  }
  return Status::Internal(text);
}

// Snapshot entries nest the counters in an object; finish records carry
// the same members at top level.
void SetCounters(json::Value* out, const SessionCounters& counters) {
  out->Set("jobs_run", counters.jobs_run);
  out->Set("rounds_completed", counters.rounds_completed);
  out->Set("total_trainings", counters.total_trainings);
  out->Set("last_job_trainings", counters.last_job_trainings);
  out->Set("last_job_wall_seconds", counters.last_job_wall_seconds);
  out->Set("rows", counters.rows);
}

void SetCurves(json::Value* out, const SessionRecord& session) {
  if (session.curve_b.empty()) return;
  const std::pair<const char*, const std::vector<double>*> curves[] = {
      {"curve_b", &session.curve_b}, {"curve_a", &session.curve_a}};
  for (const auto& [key, curve] : curves) {
    json::Value values = json::Value::Array();
    for (const double v : *curve) values.Append(v);
    out->Set(key, std::move(values));
  }
}

// What a finished job leaves, alike in a snapshot entry and a finish
// record (`counters` is the entry's counters object, or the record itself).
void ReadOutcome(const json::Value& in, const json::Value& counters,
                 SessionRecord* session) {
  session->status =
      in.Has("error") ? ParseStatus(in.GetString("error")) : Status::OK();
  session->trace_id = trace::ParseTraceId(in.GetString("trace_id"));
  SessionCounters& c = session->counters;
  c.jobs_run = static_cast<int>(counters.GetInt("jobs_run"));
  c.rounds_completed = static_cast<int>(counters.GetInt("rounds_completed"));
  c.total_trainings = counters.GetInt("total_trainings");
  c.last_job_trainings = counters.GetInt("last_job_trainings");
  c.last_job_wall_seconds = counters.GetDouble("last_job_wall_seconds");
  c.rows = counters.GetInt("rows");
  session->next_round = static_cast<int>(in.GetInt("next_round"));
  const std::pair<const char*, std::vector<double>*> curves[] = {
      {"curve_b", &session->curve_b}, {"curve_a", &session->curve_a}};
  for (const auto& [key, curve] : curves) {
    curve->clear();
    if (const json::Value* values = in.Find(key)) {
      for (const json::Value& v : values->items()) {
        curve->push_back(v.number_value());
      }
    }
  }
}

// The one way an acquisition joins a session's log, from a snapshot entry
// or a journal record. A single round's allocation to one slice is bounded
// by the job budget (kMaxBudget at unit cost), not by the much smaller
// append_rows cap: a legitimately journaled big-budget round must replay.
Status AppendAcquire(SessionRecord* session, long long round,
                     long long slice, long long count) {
  const int last_round =
      session->acquires.empty() ? 0 : session->acquires.back().round;
  const char* why = nullptr;
  if (!session->world_built) {
    why = "no data world built";
  } else if (round < last_round || round >= INT_MAX) {
    why = "round below the previous acquire's";
  } else if (slice < 0 || slice >= session->job.num_slices) {
    why = "slice out of range";
  } else if (count <= 0 || static_cast<double>(count) > JobSpec::kMaxBudget) {
    why = "count outside (0, kMaxBudget]";
  }
  if (why != nullptr) {
    return Status::InvalidArgument(StrFormat(
        "acquire [%lld, %lld, %lld]: %s", round, slice, count, why));
  }
  session->acquires.push_back(
      {static_cast<int>(round), static_cast<int>(slice), count});
  session->next_round =
      std::max(session->next_round, static_cast<int>(round) + 1);
  return Status::OK();
}

json::Value Event(const char* event) {
  json::Value out = json::Value::Object();
  out.Set("event", event);
  return out;
}

json::Value Envelope(const SessionRecord& session, json::Value event) {
  event.Set("session", session.name);
  event.Set("id", static_cast<long long>(session.id));
  event.Set("seq", static_cast<long long>(session.seq));
  return event;
}

json::Value JobEvent(const SessionRecord& session, const char* event,
                     const JobSpec& job) {
  json::Value out = Event(event);
  out.Set("job", job.ToJson());
  return Envelope(session, std::move(out));
}

}  // namespace

const char* SessionPhaseName(SessionPhase phase) {
  return kPhaseNames[static_cast<int>(phase)];
}

bool IsTerminal(SessionPhase phase) {
  return phase == SessionPhase::kDone || phase == SessionPhase::kCancelled ||
         phase == SessionPhase::kFailed;
}

json::Value SessionRecord::ToJson() const {
  json::Value out = json::Value::Object();
  out.Set("name", name);
  out.Set("id", static_cast<long long>(id));
  out.Set("seq", static_cast<long long>(seq));
  out.Set("phase", SessionPhaseName(phase));
  if (trace_id != 0) out.Set("trace_id", trace::FormatTraceId(trace_id));
  if (!status.ok()) out.Set("error", status.ToString());
  out.Set("job", job.ToJson());
  out.Set("world_built", world_built);
  out.Set("next_round", next_round);
  json::Value log = json::Value::Array();
  for (const AcquireRecord& acquire : acquires) {
    json::Value item = json::Value::Array();
    item.Append(acquire.round);
    item.Append(acquire.slice);
    item.Append(acquire.count);
    log.Append(std::move(item));
  }
  out.Set("acquires", std::move(log));
  json::Value counters_json = json::Value::Object();
  SetCounters(&counters_json, counters);
  out.Set("counters", std::move(counters_json));
  SetCurves(&out, *this);
  if (resting != nullptr) out.Set("resting", *resting);
  return out;
}

Result<SessionRecord> SessionRecord::FromJson(const json::Value& state) {
  SessionRecord session;
  session.name = state.GetString("name");
  const json::Value* job = state.Find("job");
  if (job == nullptr || !ParsePhase(state.GetString("phase"), &session.phase)) {
    return Status::InvalidArgument("session state for '" + session.name +
                                   "' has no job or no known phase");
  }
  ST_ASSIGN_OR_RETURN(session.job, JobSpec::FromJson(*job));
  session.id = static_cast<uint64_t>(state.GetInt("id", 0));
  session.seq = static_cast<uint64_t>(state.GetInt("seq", 0));
  const json::Value* counters = state.Find("counters");
  ReadOutcome(state, counters != nullptr ? *counters : json::Value(), &session);
  session.world_built = state.GetBool("world_built", false);
  if (const json::Value* acquires = state.Find("acquires")) {
    if (!acquires->is_array()) {
      return Status::InvalidArgument("session acquires must be an array");
    }
    for (const json::Value& item : acquires->items()) {
      if (!item.is_array() || item.size() != 3) {
        return Status::InvalidArgument(
            "acquire record must be [round, slice, n]");
      }
      ST_RETURN_NOT_OK(AppendAcquire(&session, item.at(0).int_value(),
                                     item.at(1).int_value(),
                                     item.at(2).int_value()));
    }
  }
  session.resting = state.Find("resting");
  return session;
}

json::Value CreateEvent(const SessionRecord& session) {
  return JobEvent(session, "create", session.job);
}

json::Value WorldEvent(const SessionRecord& session) {
  return JobEvent(session, "world", session.job);
}

json::Value ResumeEvent(const SessionRecord& session, const JobSpec& job) {
  return JobEvent(session, "resume", job);
}

json::Value AcquireEvent(const SessionRecord& session,
                         const AcquireRecord& acquire) {
  json::Value out = Event("acquire");
  out.Set("round", acquire.round);
  out.Set("slice", acquire.slice);
  out.Set("n", acquire.count);
  return Envelope(session, std::move(out));
}

json::Value FinishEvent(const SessionRecord& session) {
  json::Value out = Event("finish");
  out.Set("phase", SessionPhaseName(session.phase));
  if (!session.status.ok()) out.Set("error", session.status.ToString());
  // The trace id is part of the session's durable state: a restart must
  // not make the closing poll forget which submit ran the last job (the
  // load harness asserts the echo on clean sessions across kills).
  if (session.trace_id != 0) {
    out.Set("trace_id", trace::FormatTraceId(session.trace_id));
  }
  SetCounters(&out, session.counters);
  out.Set("next_round", session.next_round);
  SetCurves(&out, session);
  return Envelope(session, std::move(out));
}

json::Value DropEvent(const SessionRecord& session) {
  return Envelope(session, Event("drop"));
}

Status Apply(SessionRecord* session, const json::Value& record) {
  const std::string event = record.GetString("event");
  const long long seq = record.GetInt("seq", -1);
  const uint64_t id = static_cast<uint64_t>(record.GetInt("id", 0));
  const long long next = static_cast<long long>(session->seq);
  const auto reject = [&](const std::string& why) {
    return Status::InvalidArgument(
        StrFormat("session '%s' seq %lld event '%s': %s",
                  record.GetString("session").c_str(), seq, event.c_str(),
                  why.c_str()));
  };
  const auto read_job = [&](JobSpec* job) {
    const json::Value* value = record.Find("job");
    if (value == nullptr) return reject("no job");
    Result<JobSpec> parsed = JobSpec::FromJson(*value);
    if (!parsed.ok()) return reject(parsed.status().message());
    *job = std::move(parsed).value();
    return Status::OK();
  };
  if (event == "create" && id != session->id) {
    // The name's first record, or a new incarnation of it (after a drop,
    // or after the previous incarnation failed to restore).
    if (seq != 0) return reject("a session starts at seq 0");
    *session = SessionRecord();
    session->name = record.GetString("session");
    session->id = id;
    session->seq = 1;
    return read_job(&session->job);
  }
  if (session->id == 0) return reject("no create record precedes it");
  if (session->dropped) return reject("the session was dropped");
  if (seq != next) {
    return reject(StrFormat("%s, expected seq %lld",
                            seq > next ? "gap" : "duplicate", next));
  }
  if (id != session->id) return reject("id of another incarnation");
  if (event == "world") {
    ST_RETURN_NOT_OK(read_job(&session->job));
    session->world_built = true;
  } else if (event == "resume") {
    // Legal from queued/running too: a restart in between brought the
    // session back cancelled without writing a record.
    session->phase = SessionPhase::kQueued;
  } else if (event == "acquire") {
    const Status added =
        AppendAcquire(session, record.GetInt("round", -1),
                      record.GetInt("slice", -1), record.GetInt("n"));
    if (!added.ok()) return reject(added.message());
  } else if (event == "finish") {
    if (IsTerminal(session->phase)) return reject("no open job");
    if (!ParsePhase(record.GetString("phase"), &session->phase) ||
        !IsTerminal(session->phase)) {
      return reject("phase is not terminal");
    }
    ReadOutcome(record, record, session);
  } else if (event == "drop") {
    session->dropped = true;
  } else {
    return reject(event == "create" ? "the session exists" : "unknown event");
  }
  ++session->seq;
  return Status::OK();
}

}  // namespace serve
}  // namespace slicetuner
