#include "mirror.h"

#include <map>
#include <memory>
#include <unordered_map>

#include "common/random.h"
#include "core/baselines.h"
#include "core/one_shot.h"
#include "core/slice_tuner.h"
#include "curvefit/fitter.h"
#include "data/cost.h"
#include "engine/curve_engine.h"
#include "files.h"
#include "nn/model.h"
#include "nn/trainer.h"
#include "serve/session_manager.h"
#include "sim/scenario.h"
#include "sim/scripted_source.h"

namespace e2ebench {

using slicetuner::Result;
using slicetuner::Status;
namespace json = slicetuner::json;
namespace serve = slicetuner::serve;
namespace store = slicetuner::store;
namespace st = slicetuner;

namespace {

// The daemon's job -> scenario compilation (serve/session_manager.cc). The
// replay must build the identical data world, and the bit-for-bit curve
// check below fails loudly if the two ever drift apart.
st::sim::ScenarioSpec ScenarioFromJob(const serve::JobSpec& job) {
  st::sim::ScenarioSpec spec;
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
  spec.curve_points = 3;
  spec.curve_draws = 1;
  spec.exhaustive_curves = true;
  spec.trainer_epochs = 8;
  return spec;
}

// What the replay counts per traced job besides spans.
struct JobCounts {
  long long trainings = 0;
  long long slices_reused = 0;
  long long slices_refit = 0;
};

// One session replayed through the library's public functions, mirroring
// TuningSession::ExecuteJob / RunRounds call for call.
class MirrorSession {
 public:
  Status RunJob(const serve::JobSpec& job, const std::string& trace_id,
                Tracer* tracer, JobCounts* counts) {
    if (tuner_ == nullptr) {
      ScopedSpan world(tracer, "sim.world", trace_id);
      spec_ = ScenarioFromJob(job);
      ST_RETURN_NOT_OK(spec_.Validate());
      source_ = std::make_unique<st::sim::ScriptedSource>(spec_);
      st::SliceTunerOptions options;
      options.model_spec = spec_.BuildModelSpec();
      options.trainer = spec_.BuildTrainer();
      options.curve_options = spec_.BuildCurveOptions(/*num_threads=*/1);
      options.lambda = spec_.lambda;
      options.cache_curves = true;
      ST_ASSIGN_OR_RETURN(
          st::SliceTuner tuner,
          st::SliceTuner::Create(source_->GenerateInitial(),
                                 source_->GenerateValidation(),
                                 job.num_slices, std::move(options)));
      tuner_ = std::make_unique<st::SliceTuner>(std::move(tuner));
    } else if (job.append_rows > 0) {
      ScopedSpan acquire(tracer, "sim.acquire", trace_id);
      source_->BeginRound(next_round_);
      const st::Dataset batch = source_->Acquire(
          job.append_slice, static_cast<size_t>(job.append_rows));
      ++next_round_;
      ST_RETURN_NOT_OK(tuner_->AppendTrainingData(batch));
    }
    const st::engine::CurveEngineStats before = tuner_->curve_engine().stats();
    const double round_budget = job.budget / job.rounds;
    const std::vector<double> costs =
        st::CostVector(source_->cost(), job.num_slices);
    const bool curve_based = job.method == "moderate";
    for (int r = 0; r < job.rounds; ++r) {
      ScopedSpan round(tracer, "core.round", trace_id);
      source_->BeginRound(next_round_);
      std::vector<long long> allocation;
      if (curve_based) {
        st::CurveEstimationResult curves;
        {
          ScopedSpan estimate(tracer, "engine.estimate", trace_id);
          ST_ASSIGN_OR_RETURN(curves, tuner_->EstimateCurves());
        }
        counts->trainings += curves.model_trainings;
        ScopedSpan plan_span(tracer, "opt.plan", trace_id);
        ST_ASSIGN_OR_RETURN(
            st::OneShotPlan plan,
            st::PlanOneShotWithCurves(curves.slices, tuner_->SliceSizes(),
                                      costs, round_budget,
                                      tuner_->options().lambda));
        allocation = std::move(plan.examples);
      } else {
        ScopedSpan baseline(tracer, "opt.baseline", trace_id);
        const st::BaselineKind kind =
            job.method == "water_filling"  ? st::BaselineKind::kWaterFilling
            : job.method == "proportional" ? st::BaselineKind::kProportional
                                           : st::BaselineKind::kUniform;
        ST_ASSIGN_OR_RETURN(allocation,
                            st::BaselineAllocation(kind, tuner_->SliceSizes(),
                                                   costs, round_budget));
      }
      ScopedSpan acquire(tracer, "sim.acquire", trace_id);
      for (size_t s = 0; s < allocation.size(); ++s) {
        if (allocation[s] <= 0) continue;
        const st::Dataset batch = source_->Acquire(
            static_cast<int>(s), static_cast<size_t>(allocation[s]));
        ST_RETURN_NOT_OK(tuner_->AppendTrainingData(batch));
      }
      ++next_round_;
    }
    if (curve_based) {
      ScopedSpan estimate(tracer, "engine.estimate", trace_id);
      ST_ASSIGN_OR_RETURN(closing_, tuner_->EstimateCurves());
      counts->trainings += closing_.model_trainings;
    }
    const st::engine::CurveEngineStats after = tuner_->curve_engine().stats();
    counts->slices_reused += static_cast<long long>(after.slices_reused -
                                                    before.slices_reused);
    counts->slices_refit +=
        static_cast<long long>(after.slices_refit - before.slices_refit);
    return Status::OK();
  }

  // Calls outside the job tree that price the layers the estimate hides:
  // content hashing, one model training, and the curve fits.
  Status Probe(const std::string& trace_id, Tracer* tracer) {
    ScopedSpan probe(tracer, "probe", trace_id);
    {
      ScopedSpan hash(tracer, "engine.hash", trace_id);
      const std::vector<uint64_t> hashes = st::engine::HashAllSliceContents(
          tuner_->train(), tuner_->num_slices());
      if (hashes.empty()) return Status::Internal("no slice hashes");
    }
    {
      st::Rng rng(spec_.seed);
      st::Model model = st::BuildModel(spec_.BuildModelSpec(), &rng);
      const st::Matrix features = tuner_->train().FeatureMatrix();
      const std::vector<int> labels = tuner_->train().Labels();
      ScopedSpan train(tracer, "nn.train", trace_id);
      ST_RETURN_NOT_OK(
          st::Train(&model, features, labels, spec_.BuildTrainer()).status());
    }
    for (const st::SliceCurveEstimate& slice : closing_.slices) {
      if (slice.points.size() < 2) continue;
      st::FitOptions fit;
      fit.num_draws = spec_.curve_draws;
      ScopedSpan span(tracer, "curvefit.fit", trace_id);
      (void)st::FitPowerLawAveraged(slice.points, fit);
    }
    return Status::OK();
  }

  // The daemon's closing poll must hold exactly our rows and curves.
  Status Compare(const json::Value& poll) const {
    const long long rows = static_cast<long long>(tuner_->train().size());
    if (poll.GetInt("rows", -1) != rows) {
      return Status::Internal("rows: daemon " +
                              std::to_string(poll.GetInt("rows", -1)) +
                              ", replay " + std::to_string(rows));
    }
    const json::Value* curves = poll.Find("curves");
    if (closing_.slices.empty()) {
      return curves == nullptr ? Status::OK()
                               : Status::Internal("curves on one side only");
    }
    if (curves == nullptr) return Status::Internal("daemon reports no curves");
    const json::Value* b = curves->Find("b");
    const json::Value* a = curves->Find("a");
    if (b == nullptr || a == nullptr || b->size() != closing_.slices.size() ||
        a->size() != closing_.slices.size()) {
      return Status::Internal("curve arity differs");
    }
    for (size_t s = 0; s < closing_.slices.size(); ++s) {
      if (b->at(s).number_value() != closing_.slices[s].curve.b ||
          a->at(s).number_value() != closing_.slices[s].curve.a) {
        return Status::Internal("curve of slice " + std::to_string(s) +
                                " differs");
      }
    }
    return Status::OK();
  }

  bool heavy() const { return !closing_.slices.empty(); }

 private:
  st::sim::ScenarioSpec spec_;
  std::unique_ptr<st::sim::ScriptedSource> source_;
  std::unique_ptr<st::SliceTuner> tuner_;
  int next_round_ = 0;
  st::CurveEstimationResult closing_;
};

std::string TraceId(const std::string& session, size_t job) {
  return session + "#" + std::to_string(job);
}

// A quantile over the durations of every span named `name`, in `scale` ns.
double SpanQuantile(const Tracer& tracer, const std::string& name, double q,
                    double scale) {
  std::vector<double> values;
  for (const Span& span : tracer.spans()) {
    if (span.name == name) values.push_back(span.duration_ns() / scale);
  }
  return Quantile(values, q);
}

const json::Value* Histogram(const json::Value& metrics,
                             const std::string& name) {
  const json::Value* histograms = metrics.Find("histograms");
  return histograms == nullptr ? nullptr : histograms->Find(name);
}

double HistogramField(const json::Value& metrics, const std::string& name,
                      const std::string& field, double scale) {
  const json::Value* h = Histogram(metrics, name);
  return h == nullptr ? 0.0 : h->GetDouble(field) / scale;
}

double Counter(const json::Value& metrics, const std::string& name) {
  const json::Value* counters = metrics.Find("counters");
  return counters == nullptr ? 0.0 : counters->GetDouble(name);
}

// Journal records of the run, grouped by the job that wrote them: a job's
// records end with its `finish` record.
std::map<std::string, std::vector<const json::Value*>> GroupJournal(
    const TraceInputs& in) {
  std::unordered_map<std::string, size_t> ops;
  for (const SessionHistory& h : in.sessions) ops[h.name] = h.ops.size();
  std::unordered_map<std::string, size_t> finishes;
  for (const json::Value& record : in.journal_tail) {
    if (record.GetString("event") == "finish") {
      ++finishes[record.GetString("session")];
    }
  }
  // The k-th finish of a session in the tail closes job ops - finishes + k.
  std::unordered_map<std::string, size_t> seen;
  std::map<std::string, std::vector<const json::Value*>> jobs;
  for (const json::Value& record : in.journal_tail) {
    const std::string session = record.GetString("session");
    const size_t total = ops.count(session) ? ops[session] : finishes[session];
    const size_t job = total - std::min(total, finishes[session]) + seen[session];
    jobs[TraceId(session, job)].push_back(&record);
    if (record.GetString("event") == "finish") ++seen[session];
  }
  return jobs;
}

// Appends one job's records to the replay store, then one Sync.
Status ReplayRecords(store::DurableStore* replay,
                     const std::vector<const json::Value*>& records,
                     const std::string& trace_id, Tracer* tracer,
                     size_t* bytes) {
  for (const json::Value* record : records) {
    *bytes += record->Dump().size();
    ScopedSpan append(tracer, "store.append", trace_id);
    ST_RETURN_NOT_OK(replay->Append(*record));
  }
  ScopedSpan fsync(tracer, "store.fsync", trace_id);
  return replay->Sync();
}

// The daemon's own admission wait for a job: `queue_wait_ms` of the span
// tree its done frame carries (0 when absent).
double DaemonQueueWaitNs(const std::vector<std::string>& lines) {
  for (const std::string& line : lines) {
    if (line.rfind("{\"frame\":\"done\"", 0) != 0) continue;
    const Result<json::Value> frame = json::Value::Parse(line);
    if (!frame.ok()) return 0.0;
    const json::Value* tree = frame->Find("trace");
    return tree == nullptr ? 0.0 : tree->GetDouble("queue_wait_ms") * 1e6;
  }
  return 0.0;
}

}  // namespace

std::vector<std::pair<std::string, std::string>> PerLayerMetricNames() {
  return {
      {"protocol.parse_us_p50", "us"},
      {"protocol.bytes_per_job", "B"},
      {"serve.register_us_p99", "us"},
      {"serve.find_us_p99", "us"},
      {"serve.sessions_resident", "count"},
      {"serve.queue_wait_ms_p50", "ms"},
      {"serve.queue_wait_ms_p99", "ms"},
      {"serve.batch_size_mean", "count"},
      {"serve.sheds", "count"},
      {"serve.flush_ms_p99", "ms"},
      {"pool.queue_wait_ms_p99", "ms"},
      {"engine.estimate_ms_p50", "ms"},
      {"engine.estimate_ms_p99", "ms"},
      {"engine.trainings_per_job", "count"},
      {"engine.cache_hit_ratio", "ratio"},
      {"engine.slices_reused_per_job", "count"},
      {"engine.slices_refit_per_job", "count"},
      {"engine.hash_us", "us"},
      {"nn.train_ms", "ms"},
      {"curvefit.fit_us", "us"},
      {"opt.plan_us", "us"},
      {"opt.baseline_us", "us"},
      {"sim.world_ms", "ms"},
      {"sim.acquire_us", "us"},
      {"store.append_us_p99", "us"},
      {"store.fsync_ms_p50", "ms"},
      {"store.fsync_ms_p99", "ms"},
      {"store.records_per_job", "count"},
      {"store.bytes_per_job", "B"},
      {"store.recover_ms", "ms"},
      {"serve.restore_ms_per_session", "ms"},
      {"store.checkpoint_ms_p99", "ms"},
      {"trace.serve_share", "ratio"},
      {"trace.sim_share", "ratio"},
      {"trace.model_share", "ratio"},
      {"trace.opt_share", "ratio"},
      {"trace.store_share", "ratio"},
      {"trace.queue_share", "ratio"},
      {"trace.unattributed_share", "ratio"},
      {"trace.heavy_model_share", "ratio"},
      {"trace.light_model_share", "ratio"},
      {"trace.store_spans", "count"},
      {"trace.jobs_replayed", "count"},
      {"trace.overhead_pct", "%"},
  };
}

Result<MetricList> RunTrace(const TraceInputs& in, Tracer* tracer) {
  const uint64_t started = NowNs();
  const uint64_t budget_ns = static_cast<uint64_t>(in.budget_s * 1e9);
  std::unordered_map<std::string, const SessionHistory*> histories;
  for (const SessionHistory& h : in.sessions) histories[h.name] = &h;

  // The registry at the run's size, for the serve layer's Register/Find.
  serve::SessionManager registry;
  const size_t resident = std::max<size_t>(in.registry_size, 1);
  for (size_t i = 0; i < resident; ++i) {
    ST_RETURN_NOT_OK(
        registry.Register(LightJob("registry-" + std::to_string(i), i + 1))
            .status());
  }
  st::Rng rng(resident);
  auto registry_find = [&](const std::string& trace_id) {
    const std::string name =
        "registry-" + std::to_string(rng.UniformInt(resident));
    ScopedSpan find(tracer, "serve.find", trace_id);
    return registry.Find(name) != nullptr;
  };
  auto registry_register = [&](const serve::JobSpec& job,
                               const std::string& trace_id) -> Status {
    Result<serve::TuningSession*> session = [&] {
      ScopedSpan reg(tracer, "serve.register", trace_id);
      return registry.Register(job);
    }();
    ST_RETURN_NOT_OK(session.status());
    registry.Drop((*session)->id());  // keep the registry at the run's size
    return Status::OK();
  };

  // Durable: the run's own journal records, replayed per job.
  std::unique_ptr<store::DurableStore> replay;
  std::map<std::string, std::vector<const json::Value*>> journal;
  size_t journal_bytes = 0, journal_jobs = 0;
  if (!in.journal_tail.empty()) {
    RemoveTree(in.scratch_dir);
    ST_ASSIGN_OR_RETURN(replay,
                        store::DurableStore::Open(in.scratch_dir + "/replay"));
    journal = GroupJournal(in);
  }

  // Sample the timed jobs evenly within each class.
  std::vector<const LiveJob*> heavy, light;
  for (const LiveJob& job : in.jobs) {
    (job.cls == JobClass::kHeavy ? heavy : light).push_back(&job);
  }
  auto sample = [](const std::vector<const LiveJob*>& jobs, size_t cap) {
    std::vector<const LiveJob*> out;
    const size_t step = std::max<size_t>(1, (jobs.size() + cap - 1) / cap);
    for (size_t i = 0; i < jobs.size(); i += step) out.push_back(jobs[i]);
    return out;
  };
  const std::vector<const LiveJob*> heavy_sample = sample(heavy, 150);
  const std::vector<const LiveJob*> light_sample = sample(light, 1500);

  struct Replayed {
    const LiveJob* job;
    std::string trace_id;
  };
  std::vector<Replayed> replayed;
  JobCounts heavy_counts;
  size_t heavy_done = 0;
  const bool was_enabled = tracer->enabled();

  auto replay_job = [&](const LiveJob* live) -> Status {
    const auto it = histories.find(live->session);
    if (it == histories.end()) {
      return Status::Internal("no history for session " + live->session);
    }
    const SessionHistory& history = *it->second;
    MirrorSession mirror;
    JobCounts counts;
    for (size_t k = 0; k < history.ops.size(); ++k) {
      const std::string trace_id = TraceId(history.name, k);
      if (k != live->job_index) {
        tracer->set_enabled(false);
        const Status status = mirror.RunJob(history.ops[k], trace_id, tracer,
                                            &counts);
        tracer->set_enabled(was_enabled);
        ST_RETURN_NOT_OK(status);
        continue;
      }
      counts = JobCounts();
      {
        ScopedSpan root(tracer, "job", trace_id);
        for (const std::string& line : live->lines) {
          ScopedSpan parse(tracer, "serve.parse", trace_id);
          // Daemon lines are replies ({"ok":..}) and frames ({"frame":..});
          // everything else is a request the generator sent.
          const bool reply = line.rfind("{\"ok\"", 0) == 0 ||
                             line.rfind("{\"frame\"", 0) == 0;
          if (reply) {
            ST_RETURN_NOT_OK(json::Value::Parse(line).status());
          } else {
            ST_RETURN_NOT_OK(serve::Request::Parse(line).status());
          }
        }
        if (k == 0) {
          ST_RETURN_NOT_OK(registry_register(history.ops[k], trace_id));
        } else {
          registry_find(trace_id);
        }
        ST_RETURN_NOT_OK(mirror.RunJob(history.ops[k], trace_id, tracer,
                                       &counts));
        const auto records = journal.find(trace_id);
        if (replay != nullptr && records != journal.end()) {
          ST_RETURN_NOT_OK(ReplayRecords(replay.get(), records->second,
                                         trace_id, tracer, &journal_bytes));
          ++journal_jobs;
          journal.erase(records);
        }
      }
      if (mirror.heavy()) {
        ST_RETURN_NOT_OK(mirror.Probe(trace_id, tracer));
        heavy_counts.trainings += counts.trainings;
        heavy_counts.slices_reused += counts.slices_reused;
        heavy_counts.slices_refit += counts.slices_refit;
        ++heavy_done;
      }
      replayed.push_back({live, trace_id});
    }
    const Status same = mirror.Compare(history.final_poll);
    if (!same.ok()) {
      return Status::Internal("replay of " + history.name +
                              " disagrees with the daemon: " +
                              same.ToString());
    }
    return Status::OK();
  };

  // Interleave the classes so a budget cut keeps both represented.
  size_t hi = 0, li = 0;
  while (hi < heavy_sample.size() || li < light_sample.size()) {
    if (NowNs() - started > budget_ns) break;
    const bool take_heavy =
        hi < heavy_sample.size() &&
        (li >= light_sample.size() ||
         hi * light_sample.size() <= li * heavy_sample.size());
    ST_RETURN_NOT_OK(replay_job(take_heavy ? heavy_sample[hi++]
                                           : light_sample[li++]));
  }

  // Registry probes at the run's size (enough samples for a p99).
  for (int i = 0; i < 1000; ++i) {
    const std::string trace_id = "registry#" + std::to_string(i);
    ScopedSpan probe(tracer, "probe", trace_id);
    ST_RETURN_NOT_OK(registry_register(
        LightJob("registry-probe-" + std::to_string(i), 1), trace_id));
    registry_find(trace_id);
  }

  // Durable: the rest of the journal, then recovery and checkpoints.
  double recover_ms = 0, restore_ms_per_session = 0;
  if (replay != nullptr) {
    for (const auto& [trace_id, records] : journal) {
      ScopedSpan root(tracer, "store.replay", trace_id);
      ST_RETURN_NOT_OK(ReplayRecords(replay.get(), records, trace_id, tracer,
                                     &journal_bytes));
      ++journal_jobs;
    }
    replay.reset();
    const std::string copy = in.scratch_dir + "/recover";
    ST_RETURN_NOT_OK(CopyTree(in.prep_dir, copy));
    ScopedSpan root(tracer, "recovery", "recovery#0");
    uint64_t t = NowNs();
    Result<std::unique_ptr<store::DurableStore>> opened = [&] {
      ScopedSpan open(tracer, "store.recover", "recovery#0");
      return store::DurableStore::Open(copy);
    }();
    ST_RETURN_NOT_OK(opened.status());
    recover_ms = static_cast<double>(NowNs() - t) / 1e6;
    std::unique_ptr<store::DurableStore> recovered = std::move(*opened);
    serve::SessionManager manager;
    t = NowNs();
    Result<serve::RestoreReport> report = [&] {
      ScopedSpan restore(tracer, "serve.restore", "recovery#0");
      return manager.RestoreFromState(recovered->recovered(), recovered.get(),
                                      /*skip_existing=*/false);
    }();
    ST_RETURN_NOT_OK(report.status());
    restore_ms_per_session =
        static_cast<double>(NowNs() - t) / 1e6 /
        static_cast<double>(std::max<size_t>(report->sessions_restored, 1));
    manager.AttachStore(recovered.get());
    for (int i = 0; i < 10; ++i) {
      ScopedSpan checkpoint(tracer, "store.checkpoint", "recovery#0");
      ST_RETURN_NOT_OK(recovered
                           ->CheckpointOnline(
                               [&] { return manager.DurableSnapshot(); },
                               /*retain_snapshots=*/2)
                           .status());
    }
  }

  // Attribution, weighting each class by how sparsely it was sampled.
  // Layer shares split the replayed job's execution; the daemon's own
  // per-job admission wait (the done frame's span tree) and the layers'
  // self time are then set against the job's latency in the daemon.
  const std::vector<double> self = tracer->SelfTimesNs();
  std::unordered_map<std::string, std::map<std::string, double>> by_trace;
  std::unordered_map<std::string, double> exec_ns;
  std::vector<bool> in_job(tracer->spans().size(), false);
  for (size_t i = 0; i < tracer->spans().size(); ++i) {
    const Span& span = tracer->spans()[i];
    in_job[i] = span.parent == 0 ? span.name == "job"
                                 : in_job[span.parent - 1];
    if (!in_job[i]) continue;
    if (span.parent == 0) {
      exec_ns[span.trace_id] += span.duration_ns();
      continue;
    }
    std::string layer = span.layer();
    if (layer == "nn" || layer == "curvefit") layer = "engine";
    if (layer == "core") layer = "opt";
    by_trace[span.trace_id][layer] += self[i];
  }
  double heavy_total = 0, light_total = 0;
  for (const LiveJob& job : in.jobs) {
    ++(job.cls == JobClass::kHeavy ? heavy_total : light_total);
  }
  double heavy_replayed = 0, light_replayed = 0;
  for (const Replayed& r : replayed) {
    ++(r.job->cls == JobClass::kHeavy ? heavy_replayed : light_replayed);
  }
  std::map<std::string, double> layer_ns;
  double latency_ns = 0, queue_ns = 0, attributed_ns = 0, executed_ns = 0;
  double class_exec[2] = {0, 0}, class_model[2] = {0, 0};
  for (const Replayed& r : replayed) {
    const bool is_heavy = r.job->cls == JobClass::kHeavy;
    const double weight = is_heavy ? heavy_total / heavy_replayed
                                   : light_total / light_replayed;
    latency_ns += weight * r.job->latency_ms * 1e6;
    queue_ns += weight * DaemonQueueWaitNs(r.job->lines);
    executed_ns += weight * exec_ns[r.trace_id];
    class_exec[is_heavy] += exec_ns[r.trace_id];
    for (const auto& [layer, ns] : by_trace[r.trace_id]) {
      layer_ns[layer] += weight * ns;
      attributed_ns += weight * ns;
      if (layer == "engine") class_model[is_heavy] += ns;
    }
  }
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  auto share = [&](double ns) { return ratio(ns, executed_ns); };

  // A job's own wire lines (submit, stream, their acks and frames), each
  // with its newline.
  double job_bytes = 0;
  for (const LiveJob& job : in.jobs) {
    for (const std::string& line : job.lines) job_bytes += line.size() + 1;
  }

  size_t store_spans = 0;
  for (const Span& span : tracer->spans()) {
    if (span.layer() == "store") ++store_spans;
  }

  // Tracing overhead: the same replay with spans on and off, alternated
  // three times; the fastest pass of each side is compared.
  double overhead_pct = 0.0;
  {
    std::vector<const LiveJob*> subset;
    for (size_t i = 0; i < replayed.size() && subset.size() < 32; ++i) {
      subset.push_back(replayed[i].job);
    }
    auto pass = [&](bool traced) -> Result<double> {
      Tracer scratch;
      scratch.set_enabled(traced);
      const uint64_t t = NowNs();
      for (const LiveJob* live : subset) {
        const SessionHistory& history = *histories[live->session];
        MirrorSession mirror;
        JobCounts counts;
        for (size_t k = 0; k < history.ops.size(); ++k) {
          ScopedSpan root(&scratch, "job", TraceId(history.name, k));
          ST_RETURN_NOT_OK(mirror.RunJob(history.ops[k],
                                         TraceId(history.name, k), &scratch,
                                         &counts));
        }
      }
      return static_cast<double>(NowNs() - t);
    };
    double on = 0, off = 0;
    for (int round = 0; round < 3; ++round) {
      ST_ASSIGN_OR_RETURN(const double a, pass(true));
      ST_ASSIGN_OR_RETURN(const double b, pass(false));
      on = round == 0 ? a : std::min(on, a);
      off = round == 0 ? b : std::min(off, b);
    }
    overhead_pct = off > 0 ? (on - off) / off * 100.0 : 0.0;
  }

  const json::Value& m = in.metrics;
  MetricList out = {
      {"protocol.parse_us_p50", SpanQuantile(*tracer, "serve.parse", 0.5, 1e3), "us"},
      {"protocol.bytes_per_job",
       ratio(job_bytes, static_cast<double>(in.jobs.size())), "B"},
      {"serve.register_us_p99", SpanQuantile(*tracer, "serve.register", 0.99, 1e3), "us"},
      {"serve.find_us_p99", SpanQuantile(*tracer, "serve.find", 0.99, 1e3), "us"},
      {"serve.sessions_resident", static_cast<double>(in.registry_size), "count"},
      {"serve.queue_wait_ms_p50", HistogramField(m, "serve_queue_wait_ns", "p50", 1e6), "ms"},
      {"serve.queue_wait_ms_p99", HistogramField(m, "serve_queue_wait_ns", "p99", 1e6), "ms"},
      {"serve.batch_size_mean", HistogramField(m, "serve_batch_size", "mean", 1.0), "count"},
      {"serve.sheds",
       Counter(m, "serve_shed_queue_full_total") + Counter(m, "serve_shed_backlog_total") +
           Counter(m, "serve_shed_restoring_total"),
       "count"},
      {"serve.flush_ms_p99", HistogramField(m, "serve_stage_ns{stage=\"flush\"}", "p99", 1e6), "ms"},
      {"pool.queue_wait_ms_p99", HistogramField(m, "pool_queue_wait_ns", "p99", 1e6), "ms"},
      {"engine.estimate_ms_p50", SpanQuantile(*tracer, "engine.estimate", 0.5, 1e6), "ms"},
      {"engine.estimate_ms_p99", SpanQuantile(*tracer, "engine.estimate", 0.99, 1e6), "ms"},
      {"engine.trainings_per_job",
       ratio(static_cast<double>(heavy_counts.trainings), static_cast<double>(heavy_done)), "count"},
      {"engine.cache_hit_ratio",
       ratio(static_cast<double>(heavy_counts.slices_reused),
             static_cast<double>(heavy_counts.slices_reused + heavy_counts.slices_refit)),
       "ratio"},
      {"engine.slices_reused_per_job",
       ratio(static_cast<double>(heavy_counts.slices_reused), static_cast<double>(heavy_done)),
       "count"},
      {"engine.slices_refit_per_job",
       ratio(static_cast<double>(heavy_counts.slices_refit), static_cast<double>(heavy_done)),
       "count"},
      {"engine.hash_us", SpanQuantile(*tracer, "engine.hash", 0.5, 1e3), "us"},
      {"nn.train_ms", SpanQuantile(*tracer, "nn.train", 0.5, 1e6), "ms"},
      {"curvefit.fit_us", SpanQuantile(*tracer, "curvefit.fit", 0.5, 1e3), "us"},
      {"opt.plan_us", SpanQuantile(*tracer, "opt.plan", 0.5, 1e3), "us"},
      {"opt.baseline_us", SpanQuantile(*tracer, "opt.baseline", 0.5, 1e3), "us"},
      {"sim.world_ms", SpanQuantile(*tracer, "sim.world", 0.5, 1e6), "ms"},
      {"sim.acquire_us", SpanQuantile(*tracer, "sim.acquire", 0.5, 1e3), "us"},
      {"store.append_us_p99", SpanQuantile(*tracer, "store.append", 0.99, 1e3), "us"},
      {"store.fsync_ms_p50", SpanQuantile(*tracer, "store.fsync", 0.5, 1e6), "ms"},
      {"store.fsync_ms_p99", SpanQuantile(*tracer, "store.fsync", 0.99, 1e6), "ms"},
      {"store.records_per_job",
       ratio(static_cast<double>(in.journal_tail.size()), static_cast<double>(journal_jobs)),
       "count"},
      {"store.bytes_per_job",
       ratio(static_cast<double>(journal_bytes), static_cast<double>(journal_jobs)), "B"},
      {"store.recover_ms", recover_ms, "ms"},
      {"serve.restore_ms_per_session", restore_ms_per_session, "ms"},
      {"store.checkpoint_ms_p99", SpanQuantile(*tracer, "store.checkpoint", 0.99, 1e6), "ms"},
      {"trace.serve_share", share(layer_ns["serve"]), "ratio"},
      {"trace.sim_share", share(layer_ns["sim"]), "ratio"},
      {"trace.model_share", share(layer_ns["engine"]), "ratio"},
      {"trace.opt_share", share(layer_ns["opt"]), "ratio"},
      {"trace.store_share", share(layer_ns["store"]), "ratio"},
      {"trace.queue_share", ratio(queue_ns, latency_ns), "ratio"},
      {"trace.unattributed_share",
       latency_ns > 0 ? 1.0 - (queue_ns + attributed_ns) / latency_ns : 0.0, "ratio"},
      {"trace.heavy_model_share", ratio(class_model[1], class_exec[1]), "ratio"},
      {"trace.light_model_share", ratio(class_model[0], class_exec[0]), "ratio"},
      {"trace.store_spans", static_cast<double>(store_spans), "count"},
      {"trace.jobs_replayed", static_cast<double>(replayed.size()), "count"},
      {"trace.overhead_pct", overhead_pct, "%"},
  };
  return out;
}

}  // namespace e2ebench
