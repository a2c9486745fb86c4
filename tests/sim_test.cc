// End-to-end regression tests for the simulation subsystem: the canonical
// scenario grid (skew, cost heterogeneity, drift, label noise, budget
// bursts) is driven through four acquisition methods and the resulting
// traces are compared against golden snapshots in tests/golden/ — and
// against each other across thread counts, bit for bit.
//
// Regenerating goldens (after an intentional behavior change):
//   SLICETUNER_REGEN_GOLDENS=1 ./sim_test
// On a golden mismatch the test writes the actual trace and the diff report
// under golden_diffs/ (CI uploads that directory as an artifact).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <dirent.h>
#include <fstream>
#include <sstream>
#include <sys/stat.h>

#include "sim/scenario.h"
#include "sim/scripted_source.h"
#include "sim/simulator.h"
#include "sim/trace.h"

#ifndef SLICETUNER_GOLDEN_DIR
#define SLICETUNER_GOLDEN_DIR "tests/golden"
#endif

namespace slicetuner {
namespace sim {
namespace {

bool RegenMode() {
  const char* env = std::getenv("SLICETUNER_REGEN_GOLDENS");
  return env != nullptr && *env != '\0' && *env != '0';
}

std::string SanitizeCellName(std::string name) {
  std::replace(name.begin(), name.end(), '/', '_');
  return name;
}

std::string GoldenPath(const std::string& cell_name) {
  return std::string(SLICETUNER_GOLDEN_DIR) + "/" +
         SanitizeCellName(cell_name) + ".trace";
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  ASSERT_TRUE(out.is_open()) << "cannot write " << path;
  out << content;
}

// Failed golden comparisons leave their evidence here (cwd = build dir when
// run under ctest); CI uploads the directory as an artifact.
void WriteDiffArtifacts(const std::string& cell_name, const std::string& diff,
                        const std::string& actual) {
  ::mkdir("golden_diffs", 0755);
  const std::string base = "golden_diffs/" + SanitizeCellName(cell_name);
  WriteFile(base + ".diff", diff);
  WriteFile(base + ".actual.trace", actual);
}

/// The grid's method axis: Slice Tuner one-shot + iterative plus two
/// baselines (the bandit gets its own scenario-level test below).
std::vector<SimMethod> GridMethods() {
  return {SimMethod::kOneShot, SimMethod::kModerate, SimMethod::kUniform,
          SimMethod::kWaterFilling};
}

/// Golden comparison tolerance: traces are deterministic, so this slack
/// only absorbs numeric drift across compilers/platforms, not behavior.
TraceTolerance GoldenTolerance() {
  TraceTolerance tolerance;
  tolerance.abs_tolerance = 1e-7;
  tolerance.rel_tolerance = 1e-7;
  return tolerance;
}

void CompareAgainstGolden(const SimCellResult& cell) {
  const std::string path = GoldenPath(cell.name);
  const std::string serialized = cell.trace.Serialize();
  if (RegenMode()) {
    WriteFile(path, serialized);
    return;
  }
  const Result<std::string> golden_text = ReadFile(path);
  ASSERT_TRUE(golden_text.ok())
      << "missing golden for " << cell.name
      << " — run SLICETUNER_REGEN_GOLDENS=1 ./sim_test to create it";
  const Result<SimTrace> golden = SimTrace::Deserialize(*golden_text);
  ASSERT_TRUE(golden.ok()) << golden.status();
  const std::string diff = DiffTraces(*golden, cell.trace, GoldenTolerance());
  if (!diff.empty()) WriteDiffArtifacts(cell.name, diff, serialized);
  EXPECT_TRUE(diff.empty()) << cell.name << ": " << diff;
}

// ---------------------------------------------------------------------------
// The golden grid: >= 6 scenarios (incl. drift + label noise) x 4 methods,
// bit-identical at --threads=1 and --threads=4.
// ---------------------------------------------------------------------------

TEST(SimGoldenTest, GridMatchesGoldenTracesAndIsThreadCountInvariant) {
  const std::vector<ScenarioSpec> scenarios = CanonicalScenarios();
  ASSERT_GE(scenarios.size(), 6u);
  bool has_drift = false;
  bool has_label_noise = false;
  for (const ScenarioSpec& spec : scenarios) {
    ASSERT_TRUE(spec.Validate().ok()) << spec.name;
    has_drift = has_drift || !spec.drift.empty();
    has_label_noise =
        has_label_noise || !spec.acquisition_label_noise.empty();
  }
  EXPECT_TRUE(has_drift);
  EXPECT_TRUE(has_label_noise);

  SimGridOptions serial;
  serial.cell.num_threads = 1;
  serial.max_concurrent_cells = 1;
  const auto serial_cells = SimulateGrid(scenarios, GridMethods(), serial);
  ASSERT_TRUE(serial_cells.ok()) << serial_cells.status();

  SimGridOptions threaded;
  threaded.cell.num_threads = 4;
  threaded.max_concurrent_cells = 2;
  const auto threaded_cells =
      SimulateGrid(scenarios, GridMethods(), threaded);
  ASSERT_TRUE(threaded_cells.ok()) << threaded_cells.status();

  ASSERT_EQ(serial_cells->size(), scenarios.size() * GridMethods().size());
  ASSERT_EQ(serial_cells->size(), threaded_cells->size());
  for (size_t i = 0; i < serial_cells->size(); ++i) {
    const SimCellResult& cell = (*serial_cells)[i];
    ASSERT_TRUE(cell.status.ok()) << cell.name << ": " << cell.status;
    ASSERT_TRUE((*threaded_cells)[i].status.ok());
    // Bit-for-bit identical serialization at 1 and 4 threads.
    EXPECT_EQ(cell.trace.Serialize(), (*threaded_cells)[i].trace.Serialize())
        << cell.name << " diverged across thread counts";
    CompareAgainstGolden(cell);
  }
}

TEST(SimGoldenTest, BanditTraceMatchesGolden) {
  ScenarioSpec spec = CanonicalScenarios()[0];
  SimOptions options;
  options.num_threads = 1;
  const Result<SimTrace> serial = Simulate(spec, SimMethod::kBandit, options);
  ASSERT_TRUE(serial.ok()) << serial.status();
  options.num_threads = 4;
  const Result<SimTrace> threaded =
      Simulate(spec, SimMethod::kBandit, options);
  ASSERT_TRUE(threaded.ok());
  EXPECT_EQ(serial->Serialize(), threaded->Serialize());

  SimCellResult cell;
  cell.name = spec.name + "/bandit";
  cell.trace = *serial;
  CompareAgainstGolden(cell);
}

// ---------------------------------------------------------------------------
// Simulator semantics.
// ---------------------------------------------------------------------------

TEST(SimulatorTest, TraceShapeMatchesScenarioSchedule) {
  const ScenarioSpec spec = CanonicalScenarios()[3];  // drift-mean, 3 rounds
  const Result<SimTrace> trace = Simulate(spec, SimMethod::kModerate);
  ASSERT_TRUE(trace.ok()) << trace.status();
  ASSERT_EQ(trace->rounds.size(), static_cast<size_t>(spec.rounds()));
  long long acquired = 0;
  double spent = 0.0;
  for (const RoundTrace& round : trace->rounds) {
    ASSERT_EQ(round.acquired.size(), static_cast<size_t>(spec.num_slices));
    ASSERT_EQ(round.sizes.size(), static_cast<size_t>(spec.num_slices));
    EXPECT_LE(round.spent, round.budget + 1e-9);
    EXPECT_GT(round.loss, 0.0);
    for (long long value : round.acquired) {
      EXPECT_GE(value, 0);
      acquired += value;
    }
    spent += round.spent;
  }
  EXPECT_EQ(trace->total_acquired, acquired);
  EXPECT_NEAR(trace->total_spent, spent, 1e-9);
  // The drift event fires at round 1 and nowhere else.
  EXPECT_EQ(trace->rounds[0].drift_events, 0);
  EXPECT_EQ(trace->rounds[1].drift_events, 1);
  EXPECT_EQ(trace->rounds[2].drift_events, 0);
  // Iterative methods record the curves the last plan used.
  EXPECT_EQ(trace->rounds[0].curve_b.size(),
            static_cast<size_t>(spec.num_slices));
  EXPECT_EQ(trace->final_loss, trace->rounds.back().loss);
}

TEST(SimulatorTest, OnRoundObserverStreamsEveryRoundInOrder) {
  const ScenarioSpec spec = CanonicalScenarios()[0];
  SimOptions options;
  std::vector<int> seen;
  options.on_round = [&seen](const RoundTrace& round) {
    seen.push_back(round.round);
  };
  const Result<SimTrace> trace = Simulate(spec, SimMethod::kUniform, options);
  ASSERT_TRUE(trace.ok());
  ASSERT_EQ(seen.size(), trace->rounds.size());
  for (size_t r = 0; r < seen.size(); ++r) {
    EXPECT_EQ(seen[r], static_cast<int>(r));
  }
}

TEST(SimulatorTest, InvalidSpecIsRejected) {
  ScenarioSpec spec = CanonicalScenarios()[0];
  spec.costs.pop_back();  // arity mismatch
  EXPECT_EQ(Simulate(spec, SimMethod::kUniform).status().code(),
            StatusCode::kInvalidArgument);

  ScenarioSpec bad_drift = CanonicalScenarios()[0];
  bad_drift.drift = {{/*round=*/99, /*slice=*/0, DriftKind::kMeanShift, 1.0}};
  EXPECT_EQ(Simulate(bad_drift, SimMethod::kUniform).status().code(),
            StatusCode::kOutOfRange);
}

TEST(SimulatorTest, MethodsDivergeOnSkewedScenario) {
  // Sanity that the grid is not comparing eight copies of the same policy:
  // on the skewed scenario Slice Tuner must allocate differently from the
  // uniform baseline.
  ScenarioSpec spec;
  ASSERT_TRUE(CanonicalScenarioByName("skewed").ok());
  spec = *CanonicalScenarioByName("skewed");
  const Result<SimTrace> one_shot = Simulate(spec, SimMethod::kOneShot);
  const Result<SimTrace> uniform = Simulate(spec, SimMethod::kUniform);
  ASSERT_TRUE(one_shot.ok());
  ASSERT_TRUE(uniform.ok());
  EXPECT_NE(one_shot->rounds[0].acquired, uniform->rounds[0].acquired);
}

// ---------------------------------------------------------------------------
// ScriptedSource: drift and label-noise injection.
// ---------------------------------------------------------------------------

TEST(ScriptedSourceTest, DriftEventsMutateOnlyTheTargetSliceGoingForward) {
  ScenarioSpec spec = CanonicalScenarios()[0];
  spec.drift = {{/*round=*/1, /*slice=*/2, DriftKind::kSigmaScale, 3.0}};
  ScriptedSource source(spec);

  EXPECT_EQ(source.BeginRound(0), 0);
  const double sigma_before =
      source.generator().slice_model(2).components[0].sigma;
  EXPECT_EQ(source.BeginRound(1), 1);
  const double sigma_after =
      source.generator().slice_model(2).components[0].sigma;
  EXPECT_DOUBLE_EQ(sigma_after, 3.0 * sigma_before);
  // Untouched slice keeps its spread.
  EXPECT_DOUBLE_EQ(source.generator().slice_model(1).components[0].sigma,
                   1.0);
  EXPECT_EQ(source.drift_events_applied(), 1);
}

TEST(ScriptedSourceTest, AcquisitionLabelNoiseCorruptsAcquiredBatches) {
  // With generator noise off and 100% injection on slice 3 every acquired
  // label is a uniform coin, so both classes must appear even though the
  // clean generator separates them by margin.
  ScenarioSpec clean = CanonicalScenarios()[0];
  clean.slice_label_noise = {0.0, 0.0, 0.0, 0.0};
  ScenarioSpec noisy = clean;
  noisy.acquisition_label_noise = {0.0, 0.0, 0.0, 1.0};

  ScriptedSource noisy_source(noisy);
  noisy_source.BeginRound(0);
  const Dataset batch = noisy_source.Acquire(3, 200);
  size_t ones = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    ones += batch.label(i) == 1 ? 1 : 0;
  }
  // A fair coin over 200 draws stays far from both extremes.
  EXPECT_GT(ones, 50u);
  EXPECT_LT(ones, 150u);

  // Injection is per-slice: slice 0 stays clean and deterministic given the
  // same stream.
  ScriptedSource clean_source(clean);
  clean_source.BeginRound(0);
  const Dataset clean_batch = clean_source.Acquire(0, 50);
  ScriptedSource clean_source2(clean);
  clean_source2.BeginRound(0);
  const Dataset clean_batch2 = clean_source2.Acquire(0, 50);
  ASSERT_EQ(clean_batch.size(), clean_batch2.size());
  for (size_t i = 0; i < clean_batch.size(); ++i) {
    EXPECT_EQ(clean_batch.label(i), clean_batch2.label(i));
  }
}

TEST(ScriptedSourceTest, SourceIsAPureFunctionOfTheSpec) {
  const ScenarioSpec spec = CanonicalScenarios()[4];  // label-noise scenario
  auto run = [&spec] {
    ScriptedSource source(spec);
    source.BeginRound(0);
    Dataset first = source.Acquire(1, 25);
    source.BeginRound(1);
    Dataset second = source.Acquire(1, 25);
    std::ostringstream out;
    for (size_t i = 0; i < second.size(); ++i) {
      out << second.label(i) << ":" << second.features(i)[0] << ",";
    }
    return out.str();
  };
  EXPECT_EQ(run(), run());
}

// ---------------------------------------------------------------------------
// Trace serialization + comparator.
// ---------------------------------------------------------------------------

SimTrace MakeSampleTrace() {
  SimTrace trace;
  trace.scenario = "sample";
  trace.method = "moderate";
  trace.num_slices = 2;
  trace.seed = 9;
  RoundTrace round;
  round.round = 0;
  round.budget = 100.0;
  round.spent = 99.5;
  round.drift_events = 1;
  round.acquired = {60, 39};
  round.sizes = {160, 139};
  round.curve_b = {1.25, 2.5};
  round.curve_a = {0.125, 0.0625};
  round.loss = 0.512345678901;
  round.avg_eer = 0.1234;
  round.max_eer = 0.2345;
  round.iterations = 2;
  round.model_trainings = 6;
  trace.rounds.push_back(round);
  trace.total_acquired = 99;
  trace.total_spent = 99.5;
  trace.total_trainings = 6;
  trace.final_loss = round.loss;
  trace.final_avg_eer = round.avg_eer;
  trace.final_max_eer = round.max_eer;
  return trace;
}

TEST(TraceTest, SerializeDeserializeRoundTrips) {
  const SimTrace trace = MakeSampleTrace();
  const Result<SimTrace> parsed = SimTrace::Deserialize(trace.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(DiffTraces(trace, *parsed, TraceTolerance{}), "");
  EXPECT_EQ(parsed->Serialize(), trace.Serialize());
}

TEST(TraceTest, GoldenFilesReserializeBitIdentical) {
  // The trace scalar lexers now come from the common JSON layer: every
  // checked-in golden must still parse and re-serialize to the exact same
  // bytes (the golden format is a frozen contract).
  ::DIR* dir = ::opendir(SLICETUNER_GOLDEN_DIR);
  ASSERT_NE(dir, nullptr) << "cannot open " << SLICETUNER_GOLDEN_DIR;
  int checked = 0;
  while (const dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (name.size() < 6 || name.substr(name.size() - 6) != ".trace") continue;
    const std::string path = std::string(SLICETUNER_GOLDEN_DIR) + "/" + name;
    const Result<std::string> text = ReadFile(path);
    ASSERT_TRUE(text.ok()) << text.status();
    const Result<SimTrace> parsed = SimTrace::Deserialize(*text);
    ASSERT_TRUE(parsed.ok()) << name << ": " << parsed.status();
    EXPECT_EQ(parsed->Serialize(), *text) << name;
    ++checked;
  }
  ::closedir(dir);
  EXPECT_GE(checked, 20) << "golden directory looks unexpectedly empty";
}

TEST(TraceTest, JsonViewMirrorsTheTrace) {
  const SimTrace trace = MakeSampleTrace();
  const json::Value view = trace.ToJson();
  EXPECT_EQ(view.GetString("scenario"), trace.scenario);
  EXPECT_EQ(view.GetInt("num_slices"), trace.num_slices);
  const json::Value* rounds = view.Find("rounds");
  ASSERT_NE(rounds, nullptr);
  ASSERT_EQ(rounds->size(), trace.rounds.size());
  const json::Value& round = rounds->at(0);
  EXPECT_EQ(round.GetInt("trainings"), trace.rounds[0].model_trainings);
  EXPECT_DOUBLE_EQ(round.GetDouble("loss"), trace.rounds[0].loss);
  // The JSON wire form survives a parse round trip.
  const Result<json::Value> reparsed = json::Value::Parse(view.Dump());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_TRUE(*reparsed == view);
}

TEST(TraceTest, EmptyCurveListsRoundTrip) {
  SimTrace trace = MakeSampleTrace();
  trace.rounds[0].curve_b.clear();
  trace.rounds[0].curve_a.clear();
  const Result<SimTrace> parsed = SimTrace::Deserialize(trace.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(parsed->rounds[0].curve_b.empty());
  EXPECT_EQ(DiffTraces(trace, *parsed, TraceTolerance{}), "");
}

TEST(TraceTest, LargeUnsignedSeedRoundTrips) {
  SimTrace trace = MakeSampleTrace();
  trace.seed = 0x9E3779B97F4A7C15ULL;  // > 2^63: must not clamp or error
  const Result<SimTrace> parsed = SimTrace::Deserialize(trace.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->seed, trace.seed);
}

TEST(TraceTest, DeserializeRejectsMalformedInput) {
  EXPECT_FALSE(SimTrace::Deserialize("").ok());
  EXPECT_FALSE(SimTrace::Deserialize("trace_version 2\n").ok());
  const std::string truncated =
      MakeSampleTrace().Serialize().substr(0, 80);
  EXPECT_FALSE(SimTrace::Deserialize(truncated).ok());
  const std::string trailing = MakeSampleTrace().Serialize() + "extra 1\n";
  EXPECT_FALSE(SimTrace::Deserialize(trailing).ok());
}

TEST(TraceTest, ComparatorHonorsToleranceAndFlagsIntegersExactly) {
  const SimTrace base = MakeSampleTrace();
  SimTrace nudged = base;
  nudged.rounds[0].loss += 5e-8;
  TraceTolerance tolerance;
  tolerance.abs_tolerance = 1e-7;
  EXPECT_EQ(DiffTraces(base, nudged, tolerance), "");
  EXPECT_NE(DiffTraces(base, nudged, TraceTolerance{}), "");

  SimTrace reallocated = base;
  reallocated.rounds[0].acquired = {59, 40};
  const std::string diff = DiffTraces(base, reallocated, tolerance);
  EXPECT_NE(diff, "");
  EXPECT_NE(diff.find("acquired"), std::string::npos);

  SimTrace fewer_rounds = base;
  fewer_rounds.rounds.clear();
  EXPECT_NE(DiffTraces(base, fewer_rounds, tolerance), "");
}

// ---------------------------------------------------------------------------
// Grid fan-out through ParallelFor.
// ---------------------------------------------------------------------------

TEST(SimGridTest, ConcurrencyDoesNotChangeTraces) {
  std::vector<ScenarioSpec> scenarios = {CanonicalScenarios()[0],
                                         CanonicalScenarios()[1]};
  // Trim to one round to keep the double run cheap.
  for (ScenarioSpec& spec : scenarios) spec.budget_schedule = {60.0};
  const std::vector<SimMethod> methods = {SimMethod::kUniform,
                                          SimMethod::kOneShot};
  SimGridOptions sequential;
  sequential.max_concurrent_cells = 1;
  SimGridOptions concurrent;
  concurrent.max_concurrent_cells = 0;
  const auto a = SimulateGrid(scenarios, methods, sequential);
  const auto b = SimulateGrid(scenarios, methods, concurrent);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    ASSERT_TRUE((*a)[i].status.ok());
    ASSERT_TRUE((*b)[i].status.ok());
    EXPECT_EQ((*a)[i].trace.Serialize(), (*b)[i].trace.Serialize());
  }
}

TEST(SimGridTest, FailingCellReportsInBandBesideSucceedingSiblings) {
  ScenarioSpec good = CanonicalScenarios()[0];
  good.budget_schedule = {40.0};
  ScenarioSpec bad = good;
  bad.name = "bad";
  bad.costs = {1.0, -1.0, 1.0, 1.0};  // fails validation inside Simulate
  const std::vector<ScenarioSpec> scenarios = {bad, good, good};

  SimGridOptions options;
  options.max_concurrent_cells = 0;
  const auto cells =
      SimulateGrid(scenarios, {SimMethod::kUniform}, options);
  ASSERT_TRUE(cells.ok());
  ASSERT_EQ(cells->size(), 3u);
  EXPECT_EQ((*cells)[0].name, "bad/uniform");
  EXPECT_EQ((*cells)[0].status.code(), StatusCode::kInvalidArgument);
  for (size_t i = 1; i < cells->size(); ++i) {
    EXPECT_TRUE((*cells)[i].status.ok()) << (*cells)[i].status;
    EXPECT_FALSE((*cells)[i].trace.rounds.empty());
  }
  EXPECT_EQ((*cells)[1].trace.Serialize(), (*cells)[2].trace.Serialize());
}

}  // namespace
}  // namespace sim
}  // namespace slicetuner
