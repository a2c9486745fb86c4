// Tables 4 and 5: the effect of the loss/fairness balance lambda on the
// Moderate method. Expected shape (Table 4): as lambda increases, Avg./Max.
// EER decrease while loss increases. Table 5 shows the per-slice allocations
// on Fashion: higher lambda concentrates acquisition on the high-loss slices.
//
// The 16 (dataset, lambda) cells are independent experiment sessions, so
// they fan out concurrently through ParallelFor (--threads=N caps the
// concurrency; results are identical at any setting). Each session prints
// one "[done]" line to stderr as it finishes.

#include <cstdio>
#include <iostream>

#include "bench/bench_util.h"
#include "common/parallel_for.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"

namespace slicetuner {
namespace {

ExperimentConfig BaseConfig(DatasetPreset preset, size_t init,
                            double budget) {
  ExperimentConfig config;
  config.preset = std::move(preset);
  config.initial_sizes = EqualSizes(config.preset.num_slices(), init);
  config.budget = budget;
  config.val_per_slice = 200;
  config.trials = 3;
  config.seed = 55;
  config.curve_options = bench::BenchCurveOptions(6);
  config.min_slice_size = static_cast<long long>(init);
  // Sessions provide the outer parallelism; keep each one serial inside.
  config.num_threads = 1;
  return config;
}

}  // namespace
}  // namespace slicetuner

int main(int argc, char** argv) {
  using namespace slicetuner;
  const int threads = bench::ParseThreadsFlag(argc, argv);
  std::printf("=== Table 4: Moderate when varying lambda ===\n");
  std::printf("=== Table 5: Fashion allocations per lambda ===\n");

  const double kLambdas[] = {0.0, 0.1, 1.0, 10.0};

  std::vector<ExperimentConfig> configs;
  configs.push_back(BaseConfig(MakeFashionLike(), 200, 6000.0));
  configs.push_back(BaseConfig(MakeMixedLike(), 150, 6000.0));
  configs.push_back(BaseConfig(MakeFaceLike(), 300, 1500.0));
  configs.push_back(BaseConfig(MakeCensusLike(), 100, 800.0));

  // Session order = report order: datasets outer, lambdas inner.
  std::vector<ExperimentConfig> session_config;
  for (auto& config : configs) {
    for (double lambda : kLambdas) {
      config.lambda = lambda;
      session_config.push_back(config);
    }
  }
  std::vector<Result<MethodOutcome>> results(
      session_config.size(), Status::Internal("session did not run"));
  ParallelOptions lanes;
  lanes.num_threads = threads;
  ParallelFor(
      session_config.size(),
      [&](size_t i) {
        const ExperimentConfig& config = session_config[i];
        Stopwatch timer;
        results[i] = RunMethod(config, Method::kModerate);
        std::fprintf(stderr, "[done] %s lambda=%s (%.1fs)\n",
                     config.preset.name.c_str(),
                     FormatDouble(config.lambda, 1).c_str(),
                     timer.ElapsedSeconds());
      },
      lanes);

  CsvWriter csv;
  ST_CHECK_OK(csv.Open(bench::ResultsDir() + "/table4_lambda.csv"));
  ST_CHECK_OK(csv.WriteRow(
      {"dataset", "lambda", "loss", "avg_eer", "max_eer"}));

  TablePrinter table4({"Dataset", "lambda", "Loss", "Avg./Max. EER"});
  TablePrinter table5({"lambda", "0", "1", "2", "3", "4", "5", "6", "7", "8",
                       "9"});
  for (size_t i = 0; i < results.size(); ++i) {
    ST_CHECK_OK(results[i].status());
    const MethodOutcome& outcome = *results[i];
    const double lambda = session_config[i].lambda;
    const std::string& dataset = session_config[i].preset.name;
    table4.AddRow({dataset, FormatDouble(lambda, 1), bench::LossCell(outcome),
                   bench::EerCell(outcome)});
    ST_CHECK_OK(csv.WriteRow({dataset, FormatDouble(lambda, 1),
                              FormatDouble(outcome.loss_mean, 4),
                              FormatDouble(outcome.avg_eer_mean, 4),
                              FormatDouble(outcome.max_eer_mean, 4)}));
    if (dataset == "Fashion-like") {
      std::vector<std::string> row = {FormatDouble(lambda, 1)};
      for (int s = 0; s < 10; ++s) {
        row.push_back(StrFormat(
            "%.0f", outcome.acquired_mean[static_cast<size_t>(s)]));
      }
      table5.AddRow(row);
    }
    const size_t lambdas_per_dataset = std::size(kLambdas);
    if (i % lambdas_per_dataset == lambdas_per_dataset - 1) {
      table4.AddSeparator();
    }
  }
  std::printf("\nTable 4\n");
  table4.Print(std::cout);
  std::printf("\nTable 5 (Fashion-like, acquired per slice)\n");
  table5.Print(std::cout);
  ST_CHECK_OK(csv.Close());
  std::printf("Series written to results/table4_lambda.csv\n");
  return 0;
}
