// Simulator: drives one acquisition method through a ScenarioSpec's full
// multi-round loop — drift applied at round boundaries, per-round budgets,
// acquisition from the scripted source, end-of-round evaluation — and emits
// a SimTrace. SimulateGrid fans whole scenario x method grids out over the
// shared pool with ParallelFor, one independent cell per index.
//
// Determinism: every stochastic stream forks off the scenario seed, curve
// estimation inherits the engine's thread-count-invariant fan-out, and grid
// cells are independent, so a trace is a pure function of (spec, method) —
// bit-identical at any num_threads / concurrency setting.

#ifndef SLICETUNER_SIM_SIMULATOR_H_
#define SLICETUNER_SIM_SIMULATOR_H_

#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "sim/scenario.h"
#include "sim/trace.h"

namespace slicetuner {
namespace sim {

/// Every acquisition policy the simulator can drive: Slice Tuner's one-shot
/// and iterative variants, the three baselines, and the bandit ablation.
enum class SimMethod {
  kOneShot,
  kAggressive,
  kModerate,
  kConservative,
  kUniform,
  kWaterFilling,
  kProportional,
  kBandit,
};

const char* SimMethodName(SimMethod method);

/// All methods in a stable order (the grid axis of the regression suite).
std::vector<SimMethod> AllSimMethods();

struct SimOptions {
  /// Engine lanes for curve estimation inside a cell (1 = serial, 0 = every
  /// pool worker). Traces are identical at any setting.
  int num_threads = 1;
  /// Serve unchanged slices from the tuner's curve cache across rounds.
  bool cache_curves = true;
  /// Streamed after every completed round (on the simulating thread).
  std::function<void(const RoundTrace&)> on_round;
};

/// Runs `method` through the scenario's whole schedule. Validates the spec.
Result<SimTrace> Simulate(const ScenarioSpec& spec, SimMethod method,
                          const SimOptions& options = {});

/// One scenario x method cell of a grid.
struct SimCellResult {
  std::string name;  // "<scenario>/<method>"
  Status status;
  SimTrace trace;  // valid when status.ok()
  double wall_seconds = 0.0;
};

struct SimGridOptions {
  SimOptions cell;
  /// Concurrent cells (ParallelFor lanes): 1 = sequential, 0 = one per pool
  /// lane. Traces are identical at any setting.
  int max_concurrent_cells = 0;
};

/// Runs every cell of the scenario x method grid, concurrently over the
/// shared pool. Results arrive in grid order (scenario-major). Per-cell
/// failures are in-band; the call itself only fails on an empty grid.
Result<std::vector<SimCellResult>> SimulateGrid(
    const std::vector<ScenarioSpec>& scenarios,
    const std::vector<SimMethod>& methods,
    const SimGridOptions& options = {});

}  // namespace sim
}  // namespace slicetuner

#endif  // SLICETUNER_SIM_SIMULATOR_H_
