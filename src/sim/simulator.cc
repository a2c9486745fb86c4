#include "sim/simulator.h"

#include <utility>

#include "common/parallel_for.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/bandit.h"
#include "core/metrics.h"
#include "core/slice_tuner.h"
#include "sim/scripted_source.h"

namespace slicetuner {
namespace sim {

namespace {

// Evaluation / bandit seed streams: one child per round, spaced 2^32 apart
// from every other consumer of the scenario root (see scripted_source.cc)
// so no schedule length can make streams collide.
constexpr uint64_t kEvalStreamBase = uint64_t{2} << 32;
constexpr uint64_t kBanditStreamBase = uint64_t{3} << 32;

const char* kSimMethodNames[] = {"one-shot",      "aggressive",
                                 "moderate",      "conservative",
                                 "uniform",       "water-filling",
                                 "proportional",  "bandit"};

void RecordCurves(const std::vector<SliceCurveEstimate>& curves,
                  RoundTrace* round) {
  round->curve_b.clear();
  round->curve_a.clear();
  for (const SliceCurveEstimate& estimate : curves) {
    round->curve_b.push_back(estimate.curve.b);
    round->curve_a.push_back(estimate.curve.a);
  }
}

}  // namespace

const char* SimMethodName(SimMethod method) {
  const size_t index = static_cast<size_t>(method);
  if (index < sizeof(kSimMethodNames) / sizeof(kSimMethodNames[0])) {
    return kSimMethodNames[index];
  }
  return "?";
}

std::vector<SimMethod> AllSimMethods() {
  return {SimMethod::kOneShot,      SimMethod::kAggressive,
          SimMethod::kModerate,     SimMethod::kConservative,
          SimMethod::kUniform,      SimMethod::kWaterFilling,
          SimMethod::kProportional, SimMethod::kBandit};
}

Result<SimTrace> Simulate(const ScenarioSpec& spec, SimMethod method,
                          const SimOptions& options) {
  ST_RETURN_NOT_OK(spec.Validate());

  ScriptedSource source(spec);
  const Dataset initial = source.GenerateInitial();
  const Dataset validation = source.GenerateValidation();
  const ModelSpec model_spec = spec.BuildModelSpec();
  const TrainerOptions trainer = spec.BuildTrainer();
  const Rng root(spec.seed);

  SimTrace trace;
  trace.scenario = spec.name;
  trace.method = SimMethodName(method);
  trace.num_slices = spec.num_slices;
  trace.seed = spec.seed;

  // The bandit manages a bare Dataset; every other method drives a
  // SliceTuner session that persists across rounds (so its curve cache sees
  // the whole trajectory).
  const bool is_bandit = method == SimMethod::kBandit;
  Dataset bandit_train = initial;
  SliceTuner* tuner = nullptr;
  Result<SliceTuner> tuner_holder = Status::Internal("unset");
  if (!is_bandit) {
    SliceTunerOptions tuner_options;
    tuner_options.model_spec = model_spec;
    tuner_options.trainer = trainer;
    tuner_options.curve_options = spec.BuildCurveOptions(options.num_threads);
    tuner_options.lambda = spec.lambda;
    tuner_options.cache_curves = options.cache_curves;
    tuner_holder = SliceTuner::Create(initial, validation, spec.num_slices,
                                      std::move(tuner_options));
    ST_RETURN_NOT_OK(tuner_holder.status());
    tuner = &tuner_holder.value();
  }

  for (int r = 0; r < spec.rounds(); ++r) {
    RoundTrace round;
    round.round = r;
    round.budget = spec.budget_schedule[static_cast<size_t>(r)];
    round.drift_events = source.BeginRound(r);

    IterativeResult run;
    switch (method) {
      case SimMethod::kOneShot: {
        ST_ASSIGN_OR_RETURN(run,
                            tuner->AcquireOneShot(&source, round.budget));
        break;
      }
      case SimMethod::kAggressive:
      case SimMethod::kModerate:
      case SimMethod::kConservative: {
        IterativeOptions iterative;
        iterative.strategy =
            method == SimMethod::kAggressive
                ? IterationStrategy::kAggressive
                : method == SimMethod::kModerate
                      ? IterationStrategy::kModerate
                      : IterationStrategy::kConservative;
        iterative.min_slice_size = spec.min_slice_size;
        iterative.max_iterations = spec.max_iterations_per_round;
        // Instrumentation: the trace keeps the curves of the round's last
        // completed iteration (what the final acquisition was planned from).
        iterative.on_iteration = [&round](const IterationEvent& event) {
          RecordCurves(event.curves, &round);
        };
        ST_ASSIGN_OR_RETURN(run,
                            tuner->Acquire(&source, round.budget, iterative));
        break;
      }
      case SimMethod::kUniform:
      case SimMethod::kWaterFilling:
      case SimMethod::kProportional: {
        const BaselineKind kind =
            method == SimMethod::kUniform
                ? BaselineKind::kUniform
                : method == SimMethod::kWaterFilling
                      ? BaselineKind::kWaterFilling
                      : BaselineKind::kProportional;
        ST_ASSIGN_OR_RETURN(
            run, tuner->AcquireBaseline(&source, round.budget, kind));
        break;
      }
      case SimMethod::kBandit: {
        BanditOptions bandit;
        bandit.batch_size = 20;
        bandit.seed =
            root.ForkSeed(kBanditStreamBase + static_cast<uint64_t>(r));
        BanditResult pulls;
        ST_ASSIGN_OR_RETURN(
            pulls, RunBanditAcquisition(&bandit_train, validation,
                                        spec.num_slices, model_spec, trainer,
                                        &source, round.budget, bandit));
        run.acquired = pulls.acquired;
        run.iterations = pulls.pulls;
        run.model_trainings = pulls.model_trainings;
        run.budget_spent = pulls.budget_spent;
        break;
      }
    }

    // For iterative methods the on_iteration hook already recorded the
    // curves the last *acted-on* plan came from; run.final_curves may hold a
    // later estimation whose plan was scaled to nothing. Only fall back to
    // final_curves when no iteration completed (one-shot, empty runs).
    if (round.curve_b.empty() && !run.final_curves.empty()) {
      RecordCurves(run.final_curves, &round);
    }
    round.acquired = run.acquired;
    round.spent = run.budget_spent;
    round.iterations = run.iterations;
    round.model_trainings = run.model_trainings;

    const std::vector<size_t> sizes =
        is_bandit ? bandit_train.SliceSizes(spec.num_slices)
                  : tuner->SliceSizes();
    round.sizes.assign(sizes.begin(), sizes.end());

    const uint64_t eval_seed =
        root.ForkSeed(kEvalStreamBase + static_cast<uint64_t>(r));
    // Both branches delegate to TrainAndEvaluate, so bandit cells are
    // measured by the identical protocol as every other method.
    SliceMetrics metrics;
    if (is_bandit) {
      ST_ASSIGN_OR_RETURN(
          metrics, TrainAndEvaluate(bandit_train, validation, spec.num_slices,
                                    model_spec, trainer, eval_seed));
    } else {
      ST_ASSIGN_OR_RETURN(metrics, tuner->Evaluate(eval_seed));
    }
    round.loss = metrics.overall_loss;
    round.avg_eer = metrics.avg_eer;
    round.max_eer = metrics.max_eer;

    trace.total_spent += round.spent;
    trace.total_trainings += round.model_trainings;
    for (long long acquired : round.acquired) trace.total_acquired += acquired;
    if (options.on_round) options.on_round(round);
    trace.rounds.push_back(std::move(round));
  }

  if (!trace.rounds.empty()) {
    const RoundTrace& last = trace.rounds.back();
    trace.final_loss = last.loss;
    trace.final_avg_eer = last.avg_eer;
    trace.final_max_eer = last.max_eer;
  }
  return trace;
}

Result<std::vector<SimCellResult>> SimulateGrid(
    const std::vector<ScenarioSpec>& scenarios,
    const std::vector<SimMethod>& methods, const SimGridOptions& options) {
  if (scenarios.empty() || methods.empty()) {
    return Status::InvalidArgument(
        "SimulateGrid: need at least one scenario and one method");
  }

  std::vector<SimCellResult> cells(scenarios.size() * methods.size());
  ParallelOptions lanes;
  lanes.num_threads = options.max_concurrent_cells;
  ParallelFor(
      cells.size(),
      [&](size_t index) {
        const ScenarioSpec& spec = scenarios[index / methods.size()];
        const SimMethod method = methods[index % methods.size()];
        SimCellResult& cell = cells[index];
        cell.name = spec.name + "/" + SimMethodName(method);
        Stopwatch timer;
        Result<SimTrace> trace = Simulate(spec, method, options.cell);
        cell.wall_seconds = timer.ElapsedSeconds();
        cell.status = trace.status();
        if (trace.ok()) cell.trace = std::move(trace).value();
      },
      lanes);
  return cells;
}

}  // namespace sim
}  // namespace slicetuner
