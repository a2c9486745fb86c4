// The benchmark's workloads and the job streams they generate. Every
// stream is a pure function of the workload seed, so the same seed always
// yields the same jobs, schedule and poll targets; the daemon only ever
// sees the generated requests.

#ifndef E2EBENCH_PLAN_H_
#define E2EBENCH_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "serve/protocol.h"

namespace e2ebench {

/// Job classes are never mixed in one latency figure: a `moderate` job
/// trains models, a `uniform` job does not.
enum class JobClass { kHeavy, kLight };

const char* ClassName(JobClass cls);

struct WorkloadConfig {
  std::string name;
  /// Session-name prefix of everything this workload creates.
  std::string prefix;
  /// Closed loop: every connection runs heavy job -> poll -> light job.
  bool closed_loop = false;
  /// Client connections (and stream slots: the protocol holds one stream
  /// subscription per connection), never more than nproc.
  int connections = 4;

  // Open loop, per second: Poisson light jobs and polls, heavy jobs on a
  // fixed cadence.
  double light_rate = 0.0;
  double poll_rate = 0.0;
  double heavy_rate = 0.0;
  /// Heavy jobs are append_rows resubmissions of prepared sessions instead
  /// of cold jobs on fresh sessions.
  bool heavy_appends = false;

  /// Finished light sessions created before timing starts (registry size).
  int prefill_sessions = 0;

  /// Durable: the daemon runs with a state dir that the benchmark prepares
  /// from the seed, holding `prep_heavy` moderate and `prep_light` uniform
  /// finished sessions.
  bool durable = false;
  int prep_heavy = 0;
  int prep_light = 0;

  /// Open-loop goodput counts jobs done within these limits.
  double light_limit_ms = 0.0;
  double heavy_limit_ms = 0.0;

  /// Daemon start-ups timed per run (setup_s is their median).
  int setups = 5;
};

/// Whether the workload runs `moderate` jobs (serve-open does not, so it
/// reports no heavy-job latencies).
inline bool HasHeavyJobs(const WorkloadConfig& config) {
  return config.closed_loop || config.heavy_rate > 0;
}

std::vector<std::string> WorkloadNames();
/// `tiny` shrinks registry and state sizes for the self-test.
slicetuner::Result<WorkloadConfig> GetWorkload(const std::string& name,
                                               bool tiny);

/// Cold curve-based job: 4 slices, 160 rows/slice, 2 rounds.
slicetuner::serve::JobSpec HeavyJob(const std::string& session,
                                    uint64_t seed);
/// Baseline job that trains nothing: 4 slices, 20 rows/slice, 2 rounds.
slicetuner::serve::JobSpec LightJob(const std::string& session,
                                    uint64_t seed);
/// Resubmission of a finished moderate session appending rows to one
/// slice: the curve cache refits only that slice before the round.
slicetuner::serve::JobSpec AppendJob(const std::string& session, int slice);

/// Sessions that exist before timing starts: the prefill of a large
/// registry, or the contents of the prepared state dir (heavy first).
std::vector<slicetuner::serve::JobSpec> PreludeJobs(
    const WorkloadConfig& config, uint64_t seed);

struct PlannedRequest {
  /// Due time, as an offset from the start of the timed phase.
  uint64_t due_ns = 0;
  bool poll = false;
  JobClass cls = JobClass::kLight;
  /// Submit payload (unused for polls).
  slicetuner::serve::JobSpec job;
  /// Poll target (unused for submits).
  std::string target;
};

/// Open-loop schedule over [0, seconds), sorted by due time.
std::vector<PlannedRequest> OpenSchedule(const WorkloadConfig& config,
                                         uint64_t seed, double seconds);

/// Iteration `iteration` of closed-loop connection `conn`.
struct ClosedStep {
  slicetuner::serve::JobSpec heavy;
  slicetuner::serve::JobSpec light;
  /// The poll after the heavy job targets this earlier iteration's heavy
  /// session on the same connection (already finished).
  int poll_iteration = 0;
};
ClosedStep ClosedLoopStep(const WorkloadConfig& config, uint64_t seed,
                          int conn, int iteration);

/// Name of a closed-loop heavy session.
std::string ClosedHeavyName(const WorkloadConfig& config, int conn,
                            int iteration);

/// Canonical text of the first `limit` generated requests (open loop) or
/// steps per connection (closed loop) plus the prelude: equal for equal
/// seeds, which the self-test checks.
std::string StreamFingerprint(const WorkloadConfig& config, uint64_t seed,
                              double seconds, size_t limit);

}  // namespace e2ebench

#endif  // E2EBENCH_PLAN_H_
