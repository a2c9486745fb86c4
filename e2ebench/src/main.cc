// e2ebench: the repository's end-to-end benchmark. Starts the real
// slicetuner_serve binary, drives one workload over TCP (plan.h), checks
// every outcome against the in-process oracle, and prints the run's
// metrics. With --trace 1 it then replays the run's jobs in-process under
// spans and prints the per-layer metrics instead (mirror.h).
//
//   e2ebench --workload train-closed --seed 1 --seconds 10 --trace 0
//   e2ebench --selftest
//
// The last line of standard output is one JSON object
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}};
// progress and a human-readable summary go to standard error. The exit
// code is 0 for a correct run, 1 for a correctness failure, 2 for a setup
// error and 4 for a run whose generator fell behind its schedule.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/fs_util.h"
#include "common/json.h"
#include "common/parallel_for.h"
#include "files.h"
#include "generator.h"
#include "load/oracle.h"
#include "metrics.h"
#include "mirror.h"
#include "plan.h"
#include "serve/session_manager.h"
#include "spans.h"
#include "store/store.h"

namespace e2ebench {
namespace {

using slicetuner::Result;
using slicetuner::Status;
namespace fs = std::filesystem;
namespace json = slicetuner::json;
namespace serve = slicetuner::serve;
namespace load = slicetuner::load;

#ifndef E2EBENCH_BUILD_TYPE
#define E2EBENCH_BUILD_TYPE "unknown"
#endif

// Generator lateness above this makes an open-loop run invalid.
constexpr double kMaxGenLateP99Ms = 5.0;
// Time allowed after the timed phase for in-flight jobs to finish.
constexpr uint64_t kDrainNs = 20ull * 1000000000ull;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool selftest = false;
  std::string out = ".bench_out";
  std::string serve_bin = E2EBENCH_SERVE_BIN;
  std::string commit = "unknown";
};

Result<Options> ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (arg != "--selftest") {
      if (i + 1 >= argc) return Status::InvalidArgument(arg + " needs a value");
      value = argv[++i];
    }
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      o.trace = value == "1";
    } else if (arg == "--out") {
      o.out = value;
    } else if (arg == "--serve-bin") {
      o.serve_bin = value;
    } else if (arg == "--commit") {
      o.commit = value;
    } else if (arg == "--selftest") {
      o.selftest = true;
    } else {
      return Status::InvalidArgument("unknown flag " + arg);
    }
  }
  if (!o.selftest && o.workload.empty()) {
    return Status::InvalidArgument("--workload is required");
  }
  if (o.seconds <= 0) return Status::InvalidArgument("--seconds must be > 0");
  return o;
}

void Log(const std::string& line) {
  std::fprintf(stderr, "e2ebench: %s\n", line.c_str());
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// The machine and build a result was measured on; results from different
// core counts are not comparable (compare.py refuses to mix them).
json::Value Stamp(const Options& o) {
  json::Value stamp = json::Value::Object();
  stamp.Set("nproc", static_cast<long long>(std::thread::hardware_concurrency()));
  stamp.Set("cpu_model", CpuModel());
  stamp.Set("compiler", std::string("gcc ") + __VERSION__);
  stamp.Set("build_type", E2EBENCH_BUILD_TYPE);
  stamp.Set("commit", o.commit);
  stamp.Set("seed", static_cast<long long>(o.seed));
  return stamp;
}

// ---------------------------------------------------------------------------
// Durable state preparation
// ---------------------------------------------------------------------------

// Builds the state dir durable-mixed recovers: the prelude sessions, run
// in-process through the same session code the daemon uses, journaled, and
// compacted into one snapshot taken at rest (so every curve cache is in it).
Status PrepareStateDir(const WorkloadConfig& config, uint64_t seed,
                       const std::string& dir) {
  RemoveTree(dir);
  ST_ASSIGN_OR_RETURN(std::unique_ptr<slicetuner::store::DurableStore> store,
                      slicetuner::store::DurableStore::Open(dir));
  serve::SessionManager manager;
  manager.AttachStore(store.get());
  std::vector<serve::TuningSession*> sessions;
  for (const serve::JobSpec& job : PreludeJobs(config, seed)) {
    ST_ASSIGN_OR_RETURN(serve::TuningSession * session, manager.Register(job));
    sessions.push_back(session);
  }
  std::vector<Status> statuses(sessions.size());
  slicetuner::ParallelFor(sessions.size(), [&](size_t i) {
    statuses[i] = sessions[i]->RunJob();
  });
  for (const Status& status : statuses) ST_RETURN_NOT_OK(status);
  return store->Compact(manager.DurableSnapshot());
}

// ---------------------------------------------------------------------------
// One live run
// ---------------------------------------------------------------------------

struct SessionInfo {
  std::vector<serve::JobSpec> ops;  // jobs that finished `done`, in order
  size_t planned = 0;               // jobs submitted so far
  bool clean = true;                // no job of it failed
  json::Value final_poll;
};

struct LiveRun {
  std::vector<double> setup_s;
  MetricList metrics;       // end-to-end
  MetricList info;          // reported, not gated
  size_t attempted = 0;
  size_t failed = 0;
  bool correct = true;
  bool valid = true;        // generator kept its schedule
  std::vector<std::string> problems;
  TraceInputs trace;        // inputs for the traced replay
};

class Runner {
 public:
  Runner(const Options& options, WorkloadConfig config)
      : o_(options), config_(std::move(config)) {}

  Result<LiveRun> Run();

 private:
  Status StartDaemon(LiveRun* run);
  void AddPrelude();
  void AddTimed(uint64_t t0, std::vector<PlannedRequest> schedule);
  void AddClient(int conn, uint64_t due);
  void OnDone(size_t index);
  void NoteSubmit(size_t index);
  void Summarize(LiveRun* run, uint64_t t0, uint64_t end);
  Status Verify(LiveRun* run);

  std::string Path(const std::string& stem) const {
    return o_.out + "/" + stem + "-" + config_.name + "-" +
           std::to_string(o_.seed);
  }

  const Options& o_;
  WorkloadConfig config_;
  std::unique_ptr<Daemon> daemon_;
  std::unique_ptr<Generator> gen_;
  std::map<std::string, SessionInfo> sessions_;
  std::unordered_map<size_t, size_t> job_index_;  // request -> job in session
  // Closed loop: which client issued a request, and each client's state.
  struct Client {
    int iteration = 0;
    int phase = 0;  // 0 heavy, 1 poll, 2 light
    ClosedStep step;
  };
  std::vector<Client> clients_;
  std::unordered_map<size_t, int> owner_;
  uint64_t phase_end_ = 0;  // closed-loop clients start nothing after it
  std::string state_dir_;
};

Status Runner::StartDaemon(LiveRun* run) {
  std::string prep;
  if (config_.durable) {
    prep = Path("prep");
    const uint64_t t = NowNs();
    ST_RETURN_NOT_OK(PrepareStateDir(config_, o_.seed, prep));
    Log("prepared state dir with " +
        std::to_string(config_.prep_heavy + config_.prep_light) +
        " sessions in " + std::to_string((NowNs() - t) / 1000000) + " ms");
    run->trace.prep_dir = prep;
  }
  const std::string log = Path("daemon") + ".log";
  RemoveTree(log);
  for (int k = 0; k < config_.setups; ++k) {
    if (daemon_ != nullptr) ST_RETURN_NOT_OK(daemon_->Shutdown());
    std::vector<std::string> daemon_args;
    if (config_.durable) {
      // Recovery rewrites the directory, so every start gets a fresh copy.
      state_dir_ = Path("state") + "-" + std::to_string(k);
      RemoveTree(state_dir_);
      ST_RETURN_NOT_OK(CopyTree(prep, state_dir_));
      daemon_args = {"--state-dir=" + state_dir_};
    }
    daemon_ = std::make_unique<Daemon>(o_.serve_bin, daemon_args, log);
    ST_ASSIGN_OR_RETURN(const double seconds, daemon_->Start());
    run->setup_s.push_back(seconds);
    if (k > 0) RemoveTree(Path("state") + "-" + std::to_string(k - 1));
  }
  gen_ = std::make_unique<Generator>(daemon_->port(), config_.connections);
  return gen_->Connect();
}

void Runner::AddPrelude() {
  if (config_.durable) {
    // Already in the prepared state dir.
    for (const serve::JobSpec& job : PreludeJobs(config_, o_.seed)) {
      SessionInfo& info = sessions_[job.session];
      info.ops.push_back(job);
      info.planned = 1;
    }
    return;
  }
  for (const serve::JobSpec& job : PreludeJobs(config_, o_.seed)) {
    Request r;
    r.kind = Request::Kind::kSubmit;
    r.cls = job.method == "moderate" ? JobClass::kHeavy : JobClass::kLight;
    r.job = job;
    r.timed = false;
    r.due_ns = 0;
    NoteSubmit(gen_->Add(std::move(r)));
  }
}

void Runner::NoteSubmit(size_t index) {
  SessionInfo& info = sessions_[gen_->at(index).job.session];
  job_index_[index] = info.planned++;
}

void Runner::AddTimed(uint64_t t0, std::vector<PlannedRequest> schedule) {
  if (!config_.closed_loop) {
    for (PlannedRequest& p : schedule) {
      Request r;
      r.kind = p.poll ? Request::Kind::kPoll : Request::Kind::kSubmit;
      r.cls = p.cls;
      r.job = std::move(p.job);
      r.target = std::move(p.target);
      r.due_ns = t0 + p.due_ns;
      const size_t index = gen_->Add(std::move(r));
      if (!p.poll) NoteSubmit(index);
    }
    return;
  }
  for (int c = 0; c < config_.connections; ++c) AddClient(c, t0);
}

void Runner::AddClient(int conn, uint64_t due) {
  Client client;
  client.step = ClosedLoopStep(config_, o_.seed, conn, 0);
  Request r;
  r.cls = JobClass::kHeavy;
  r.job = client.step.heavy;
  if (clients_.size() <= static_cast<size_t>(conn)) clients_.resize(conn + 1);
  clients_[static_cast<size_t>(conn)] = client;
  r.conn = conn;
  r.due_ns = due;
  const size_t index = gen_->Add(std::move(r));
  NoteSubmit(index);
  owner_[index] = conn;
}

// Closed loop: a client's next request goes out as its previous one ends.
void Runner::OnDone(size_t index) {
  const auto it = owner_.find(index);
  if (it == owner_.end()) return;
  const int c = it->second;
  owner_.erase(it);
  const uint64_t now = NowNs();
  if (now >= phase_end_) return;
  Client& client = clients_[static_cast<size_t>(c)];
  Request r;
  r.conn = c;
  r.due_ns = now;
  if (client.phase == 0) {
    client.phase = 1;
    r.kind = Request::Kind::kPoll;
    r.target = ClosedHeavyName(config_, c, client.step.poll_iteration);
  } else if (client.phase == 1) {
    client.phase = 2;
    r.cls = JobClass::kLight;
    r.job = client.step.light;
  } else {
    client.phase = 0;
    client.step = ClosedLoopStep(config_, o_.seed, c, ++client.iteration);
    r.cls = JobClass::kHeavy;
    r.job = client.step.heavy;
  }
  const bool submit = r.kind == Request::Kind::kSubmit;
  const size_t next = gen_->Add(std::move(r));
  if (submit) NoteSubmit(next);
  owner_[next] = c;
}

void Runner::Summarize(LiveRun* run, uint64_t t0, uint64_t end) {
  const double seconds = static_cast<double>(end - t0) / 1e9;
  std::vector<double> heavy, light, polls, late;
  double good = 0;
  long long attempts = 0, sheds = 0, jobs = 0, jobs_failed = 0;
  long long polls_failed = 0;
  for (size_t i = 0; i < gen_->requests().size(); ++i) {
    const Request& r = gen_->requests()[i];
    if (!r.timed) continue;
    if (!config_.closed_loop && r.seen_ns >= r.due_ns) {
      late.push_back(static_cast<double>(r.seen_ns - r.due_ns) / 1e6);
    }
    if (r.kind == Request::Kind::kPoll) {
      if (r.ok()) {
        polls.push_back(r.latency_ms());
      } else {
        ++polls_failed;
      }
      continue;
    }
    ++jobs;
    attempts += 1 + r.sheds;
    sheds += r.sheds;
    if (!r.ok()) {
      ++jobs_failed;
      continue;
    }
    const bool is_heavy = r.cls == JobClass::kHeavy;
    (is_heavy ? heavy : light).push_back(r.latency_ms());
    const double limit =
        is_heavy ? config_.heavy_limit_ms : config_.light_limit_ms;
    if (config_.closed_loop ? r.end_ns <= end : r.latency_ms() <= limit) {
      good += 1;
    }
    LiveJob job;
    job.session = r.job.session;
    job.job_index = job_index_[i];
    job.cls = r.cls;
    job.latency_ms = r.latency_ms();
    job.lines = r.lines;
    run->trace.jobs.push_back(std::move(job));
  }
  run->attempted = static_cast<size_t>(jobs + static_cast<long long>(polls.size()) +
                                       polls_failed);
  run->failed += static_cast<size_t>(jobs_failed + polls_failed);
  if (jobs_failed + polls_failed > 0) {
    run->problems.push_back(std::to_string(jobs_failed) + " job(s) and " +
                            std::to_string(polls_failed) +
                            " poll(s) failed");
  }
  // Per-request timeline, for looking into a tail.
  std::ofstream timeline(Path("requests") + ".tsv");
  timeline << "kind\tclass\tdue_ms\tseen_ms\tend_ms\tlatency_ms\tsheds\tok\n";
  for (const Request& r : gen_->requests()) {
    if (!r.timed) continue;
    auto ms = [&](uint64_t ns) {
      return ns >= t0 ? static_cast<double>(ns - t0) / 1e6 : 0.0;
    };
    timeline << (r.kind == Request::Kind::kPoll ? "poll" : "submit") << "\t"
             << ClassName(r.cls) << "\t" << ms(r.due_ns) << "\t"
             << ms(r.seen_ns) << "\t" << ms(r.end_ns) << "\t"
             << r.latency_ms() << "\t" << r.sheds << "\t" << r.ok() << "\n";
  }
  const double gen_late_p99 = Quantile(late, 0.99);
  if (!config_.closed_loop && gen_late_p99 > kMaxGenLateP99Ms) {
    run->valid = false;
    run->problems.push_back("generator ran late: p99 " +
                            std::to_string(gen_late_p99) + " ms");
  }
  const double failed_ratio =
      jobs == 0 ? 0.0 : static_cast<double>(jobs_failed) / jobs;
  const double shed_ratio =
      attempts == 0 ? 0.0 : static_cast<double>(sheds) / attempts;
  std::sort(run->setup_s.begin(), run->setup_s.end());
  run->metrics = {
      {"setup_s", Quantile(run->setup_s, 0.5), "s"},
      {"jobs_per_s", good / seconds, "1/s"},
  };
  if (HasHeavyJobs(config_)) {
    run->metrics.push_back({"heavy_latency_p50_ms", Quantile(heavy, 0.5), "ms"});
    run->metrics.push_back({"heavy_latency_p99_ms", Quantile(heavy, 0.99), "ms"});
  }
  run->metrics.insert(run->metrics.end(), {
      {"light_latency_p50_ms", Quantile(light, 0.5), "ms"},
      {"light_latency_p99_ms", Quantile(light, 0.99), "ms"},
      {"admit_ratio", 1.0 - shed_ratio, "ratio"},
      {"ok_ratio", 1.0 - failed_ratio, "ratio"},
  });
  // Reported, not gated: on the gated workloads a poll's p99 sits at the
  // edge of rare host stalls (README.md).
  run->info = {
      {"poll_latency_p99_ms", Quantile(polls, 0.99), "ms"},
      {"shed_ratio", shed_ratio, "ratio"},
      {"failed_ratio", failed_ratio, "ratio"},
      {"gen_late_p50_ms", Quantile(late, 0.5), "ms"},
      {"gen_late_p99_ms", gen_late_p99, "ms"},
      {"heavy_jobs", static_cast<double>(heavy.size()), "count"},
      {"light_jobs", static_cast<double>(light.size()), "count"},
      {"polls", static_cast<double>(polls.size()), "count"},
      {"timed_seconds", seconds, "s"},
  };
}

// Closing polls of every session, then the oracle replay over every clean
// one.
Status Runner::Verify(LiveRun* run) {
  std::unordered_map<size_t, std::string> poll_of;
  for (auto& [name, info] : sessions_) {
    if (info.planned == 0) continue;
    Request r;
    r.kind = Request::Kind::kPoll;
    r.target = name;
    r.timed = false;
    r.due_ns = 0;
    poll_of[gen_->Add(std::move(r))] = name;
  }
  ST_RETURN_NOT_OK(gen_->Run(NowNs() + 60ull * 1000000000ull, nullptr));
  size_t not_done = 0;
  for (const auto& [index, name] : poll_of) {
    const Request& r = gen_->at(index);
    SessionInfo& info = sessions_[name];
    info.final_poll = r.response;
    if (!r.ok() || r.outcome != "done") {
      if (info.clean) ++not_done;
      info.clean = false;
    }
  }
  if (not_done > 0) {
    run->failed += not_done;
    run->problems.push_back(std::to_string(not_done) +
                            " acknowledged session(s) never reached done");
  }

  load::Workload workload;
  load::LoadReport report;
  for (auto& [name, info] : sessions_) {
    if (!info.clean || info.ops.empty()) continue;
    SessionHistory history;
    history.name = name;
    history.ops = info.ops;
    history.final_poll = info.final_poll;
    load::SessionPlan plan;
    plan.name = name;
    for (size_t k = 0; k < info.ops.size(); ++k) {
      load::SessionOp op;
      op.kind = k == 0 ? load::OpKind::kSubmit : load::OpKind::kAppend;
      op.job = info.ops[k];
      plan.ops.push_back(std::move(op));
    }
    workload.sessions.push_back(std::move(plan));
    load::SessionOutcome outcome;
    outcome.name = name;
    outcome.final_state = "done";
    outcome.final_poll = info.final_poll;
    report.outcomes.push_back(std::move(outcome));
    run->trace.sessions.push_back(std::move(history));
  }
  const uint64_t t = NowNs();
  const load::OracleReport oracle = load::VerifyAgainstOracle(workload, report);
  Log("oracle replayed " + std::to_string(oracle.checked) + " session(s) in " +
      std::to_string((NowNs() - t) / 1000000) + " ms: " +
      std::to_string(oracle.mismatched) + " mismatch(es)");
  for (const std::string& m : oracle.mismatches) Log("  mismatch " + m);
  if (oracle.mismatched > 0) {
    run->correct = false;
    run->problems.push_back(std::to_string(oracle.mismatched) +
                            " oracle mismatch(es)");
  }
  const double checked = static_cast<double>(std::max<size_t>(oracle.checked, 1));
  run->metrics.push_back(
      {"oracle_match_ratio",
       1.0 - static_cast<double>(oracle.mismatched) / checked, "ratio"});
  run->info.push_back({"oracle_mismatch_ratio",
                       static_cast<double>(oracle.mismatched) / checked,
                       "ratio"});
  run->info.push_back(
      {"oracle_checked", static_cast<double>(oracle.checked), "count"});
  return Status::OK();
}

Result<LiveRun> Runner::Run() {
  LiveRun run;
  run.trace.config = config_;
  run.trace.scratch_dir = Path("scratch");
  ST_RETURN_NOT_OK(StartDaemon(&run));

  AddPrelude();
  if (!gen_->requests().empty()) {
    const uint64_t t = NowNs();
    gen_->set_retry_deadline(t + 120ull * 1000000000ull);
    ST_RETURN_NOT_OK(gen_->Run(t + 120ull * 1000000000ull, nullptr));
    for (const Request& r : gen_->requests()) {
      if (!r.ok()) return Status::Internal("prelude job failed: " + r.outcome);
      SessionInfo& info = sessions_[r.job.session];
      info.ops.push_back(r.job);
    }
    Log("prefilled " + std::to_string(gen_->requests().size()) +
        " session(s) in " + std::to_string((NowNs() - t) / 1000000) + " ms");
  }

  // Timed phase. The schedule is generated before its clock starts.
  std::vector<PlannedRequest> schedule;
  if (!config_.closed_loop) {
    schedule = OpenSchedule(config_, o_.seed, o_.seconds);
  }
  // Queueing a long schedule takes milliseconds: the first request is due
  // only once all of it is queued, so the start is not a burst of late ones.
  const uint64_t t0 = NowNs() + 20000000;
  const uint64_t end = t0 + static_cast<uint64_t>(o_.seconds * 1e9);
  phase_end_ = end;
  const size_t first_timed = gen_->requests().size();
  AddTimed(t0, std::move(schedule));
  gen_->set_recording(true);
  gen_->set_retry_deadline(end);
  auto on_done = [&](size_t index) {
    Request& r = gen_->at(index);
    if (r.kind == Request::Kind::kSubmit) {
      SessionInfo& info = sessions_[r.job.session];
      if (r.ok()) {
        info.ops.push_back(r.job);
      } else {
        info.clean = false;
      }
    }
    OnDone(index);
  };
  ST_RETURN_NOT_OK(gen_->Run(end + kDrainNs, on_done));
  const size_t unfinished = gen_->FailOpen("unfinished at the drain deadline");
  gen_->set_recording(false);
  if (unfinished > 0) Log(std::to_string(unfinished) + " request(s) unfinished");
  for (size_t i = first_timed; i < gen_->requests().size(); ++i) {
    const Request& r = gen_->at(i);
    if (r.kind == Request::Kind::kSubmit && !r.ok()) {
      sessions_[r.job.session].clean = false;
    }
  }
  Summarize(&run, t0, end);

  ST_RETURN_NOT_OK(Verify(&run));

  serve::Request metrics;
  metrics.type = serve::RequestType::kMetrics;
  ST_ASSIGN_OR_RETURN(run.trace.metrics, gen_->Call(metrics));
  run.trace.registry_size = static_cast<size_t>(
      run.trace.metrics.Find("gauges") != nullptr
          ? run.trace.metrics.Find("gauges")->GetDouble("serve_sessions")
          : 0.0);
  ST_ASSIGN_OR_RETURN(const double rss, daemon_->PeakRssMb());
  run.metrics.push_back({"peak_rss_mb", rss, "MB"});
  if (config_.durable) {
    ST_ASSIGN_OR_RETURN(slicetuner::store::RecoveredState state,
                        slicetuner::store::ReadStateDir(state_dir_));
    run.trace.journal_tail = std::move(state.tail);
  }
  gen_.reset();
  ST_RETURN_NOT_OK(daemon_->Shutdown());
  if (!state_dir_.empty()) RemoveTree(state_dir_);
  if (!run.problems.empty()) {
    for (const std::string& p : run.problems) Log("problem: " + p);
  }
  if (run.failed > 0) run.correct = false;
  return run;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

json::Value MetricsJson(const MetricList& metrics) {
  json::Value out = json::Value::Object();
  for (const Metric& m : metrics) {
    json::Value v = json::Value::Object();
    v.Set("value", m.value);
    v.Set("unit", m.unit);
    out.Set(m.name, std::move(v));
  }
  return out;
}

void PrintTable(const std::string& title, const MetricList& metrics) {
  std::fprintf(stderr, "%s\n", title.c_str());
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-34s %14.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
}

int RunOne(const Options& o) {
  Result<WorkloadConfig> config = GetWorkload(o.workload, /*tiny=*/false);
  if (!config.ok()) {
    Log(config.status().ToString());
    return 2;
  }
  std::error_code ignored;
  fs::create_directories(o.out, ignored);
  Runner runner(o, *config);
  Result<LiveRun> run = runner.Run();
  if (!run.ok()) {
    Log("run failed: " + run.status().ToString());
    return 2;
  }
  PrintTable("end-to-end (" + o.workload + ", seed " + std::to_string(o.seed) +
                 ")",
             run->metrics);
  PrintTable("run details", run->info);

  MetricList printed = run->metrics;
  json::Value doc = json::Value::Object();
  doc.Set("workload", o.workload);
  doc.Set("stamp", Stamp(o));
  doc.Set("end_to_end", MetricsJson(run->metrics));
  doc.Set("details", MetricsJson(run->info));
  bool correct = run->correct;
  if (o.trace) {
    Tracer tracer;
    Result<MetricList> layers = RunTrace(run->trace, &tracer);
    if (!layers.ok()) {
      Log("traced replay failed: " + layers.status().ToString());
      correct = false;
      layers = MetricList{};
    }
    const std::string spans_path = o.out + "/spans-" + o.workload + "-" +
                                   std::to_string(o.seed) + ".jsonl";
    const Status written = tracer.WriteJsonLines(spans_path);
    if (!written.ok()) Log(written.ToString());
    Log("wrote " + std::to_string(tracer.spans().size()) + " span(s) to " +
        spans_path);
    PrintTable("per-layer (traced replay)", *layers);
    doc.Set("per_layer", MetricsJson(*layers));
    printed = *layers;
  }
  // State dirs are large and only this run's to use.
  if (!run->trace.prep_dir.empty()) RemoveTree(run->trace.prep_dir);
  RemoveTree(run->trace.scratch_dir);
  const std::string doc_path = o.out + "/result-" + o.workload + "-" +
                               std::to_string(o.seed) + "-trace" +
                               (o.trace ? "1" : "0") + ".json";
  (void)slicetuner::WriteStringToFile(doc_path, doc.Dump(2) + "\n");
  if (!run->valid) {
    Log("invalid run: the generator could not keep its schedule");
    return 4;
  }
  json::Value result = json::Value::Object();
  result.Set("correct", correct);
  result.Set("attempted", static_cast<long long>(std::max<size_t>(run->attempted, 1)));
  result.Set("failed", static_cast<long long>(run->failed));
  result.Set("metrics", MetricsJson(printed));
  std::printf("%s\n", result.Dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int SelfTest(const Options& base);

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  using namespace e2ebench;
  Result<Options> options = ParseArgs(argc, argv);
  if (!options.ok()) {
    Log(options.status().ToString());
    return 2;
  }
  if (options->selftest) return SelfTest(*options);
  return RunOne(*options);
}

namespace e2ebench {
namespace {

// Tiny runs of every workload: each must emit every named metric with its
// unit, produce spans that nest, and generate an identical job stream for
// an identical seed.
int SelfTest(const Options& base) {
  int failures = 0;
  auto check = [&](bool ok, const std::string& what) {
    if (!ok) {
      Log("selftest FAILED: " + what);
      ++failures;
    }
  };
  for (const std::string& name : WorkloadNames()) {
    Result<WorkloadConfig> config = GetWorkload(name, /*tiny=*/true);
    check(config.ok(), name + ": workload config");
    if (!config.ok()) continue;
    check(StreamFingerprint(*config, 7, 1.0, 64) ==
              StreamFingerprint(*config, 7, 1.0, 64),
          name + ": same seed, same job stream");
    check(StreamFingerprint(*config, 7, 1.0, 64) !=
              StreamFingerprint(*config, 8, 1.0, 64),
          name + ": different seed, different job stream");

    Options o = base;
    o.workload = name;
    o.seed = 7;
    o.seconds = 1.0;
    o.trace = true;
    std::error_code ignored;
  fs::create_directories(o.out, ignored);
    Runner runner(o, *config);
    Result<LiveRun> run = runner.Run();
    check(run.ok(), name + ": live run (" +
                        (run.ok() ? "ok" : run.status().ToString()) + ")");
    if (!run.ok()) continue;
    check(run->correct, name + ": outcomes verified");
    std::map<std::string, std::string> units;
    for (const Metric& m : run->metrics) units[m.name] = m.unit;
    std::vector<std::string> expected = {
        "setup_s", "jobs_per_s", "light_latency_p50_ms",
        "light_latency_p99_ms", "admit_ratio",
        "ok_ratio", "oracle_match_ratio", "peak_rss_mb"};
    if (HasHeavyJobs(*config)) {
      expected.push_back("heavy_latency_p50_ms");
      expected.push_back("heavy_latency_p99_ms");
    }
    check(units.size() == expected.size(),
          name + ": " + std::to_string(units.size()) + " end-to-end metrics");
    for (const std::string& metric : expected) {
      check(units.count(metric) == 1 && !units[metric].empty(),
            name + ": end-to-end metric " + metric);
    }
    Tracer tracer;
    run->trace.scratch_dir = o.out + "/scratch-selftest-" + name;
    run->trace.budget_s = 5.0;
    Result<MetricList> layers = RunTrace(run->trace, &tracer);
    check(layers.ok(), name + ": traced replay (" +
                           (layers.ok() ? "ok" : layers.status().ToString()) +
                           ")");
    if (!layers.ok()) continue;
    std::map<std::string, std::string> layer_units;
    for (const Metric& m : *layers) layer_units[m.name] = m.unit;
    for (const auto& [metric, unit] : PerLayerMetricNames()) {
      check(layer_units.count(metric) == 1 && layer_units[metric] == unit,
            name + ": per-layer metric " + metric);
    }
    RemoveTree(run->trace.prep_dir);
    RemoveTree(run->trace.scratch_dir);
    check(!tracer.spans().empty(), name + ": spans recorded");
    const Status nesting = tracer.CheckNesting();
    check(nesting.ok(), name + ": spans nest (" + nesting.ToString() + ")");
  }
  Log(failures == 0 ? "selftest passed"
                    : "selftest: " + std::to_string(failures) + " failure(s)");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace e2ebench
