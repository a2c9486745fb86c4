#include "plan.h"

#include <algorithm>
#include <thread>

#include "common/random.h"

namespace e2ebench {

using slicetuner::Result;
using slicetuner::Rng;
using slicetuner::Status;
using slicetuner::serve::JobSpec;

namespace {

// Independent random streams forked off the workload seed.
enum Stream : uint64_t {
  kPreludeStream = 1,
  kLightStream = 2,
  kPollStream = 3,
  kHeavyStream = 4,
  kClosedStream = 5,
  kOrderStream = 6,
};

// Arrivals of one request kind over [0, seconds): Poisson, or one every
// 1/rate seconds from a seed-drawn phase.
void AddArrivals(Rng rng, double rate, bool periodic, double seconds,
                 bool poll, JobClass cls, std::vector<PlannedRequest>* out,
                 std::vector<uint64_t>* seeds) {
  if (rate <= 0) return;
  double t = periodic ? (rng.Uniform() - 1.0) / rate : 0.0;
  for (;;) {
    t += periodic ? 1.0 / rate : rng.Exponential(rate);
    if (t >= seconds) return;
    PlannedRequest request;
    request.due_ns = static_cast<uint64_t>(t * 1e9);
    request.poll = poll;
    request.cls = cls;
    out->push_back(std::move(request));
    seeds->push_back(rng());
  }
}

}  // namespace

const char* ClassName(JobClass cls) {
  return cls == JobClass::kHeavy ? "heavy" : "light";
}

std::vector<std::string> WorkloadNames() {
  return {"train-closed", "serve-open", "durable-mixed"};
}

Result<WorkloadConfig> GetWorkload(const std::string& name, bool tiny) {
  WorkloadConfig c;
  c.name = name;
  c.light_limit_ms = 50.0;
  c.heavy_limit_ms = 1000.0;
  if (name == "train-closed") {
    c.prefix = "tc";
    c.closed_loop = true;
    // Two clients: each one's light job then waits behind the other's heavy
    // job, a convoy of one job's run time. With four, the waits depended on
    // how the clients' jobs happened to share micro-batches, and the light
    // p99 spread past its bound (README.md).
    c.connections = 2;
  } else if (name == "serve-open") {
    c.prefix = "so";
    c.light_rate = 1000.0;
    c.poll_rate = 1000.0;
    c.prefill_sessions = tiny ? 200 : 10000;
  } else if (name == "durable-mixed") {
    c.prefix = "dm";
    c.durable = true;
    c.light_rate = 100.0;
    c.poll_rate = 100.0;
    c.heavy_rate = 20.0;
    c.heavy_appends = true;
    // No online checkpoint runs in the timed phase: each one holds the
    // registry lock for its whole fold (~80 ms at this size), and p99s set
    // by a handful of those stalls did not repeat from run to run
    // (README.md). The traced run prices CheckpointOnline on its own.
    c.prep_heavy = tiny ? 8 : 128;
    c.prep_light = tiny ? 64 : 5000;
  } else {
    return Status::InvalidArgument("unknown workload '" + name + "'");
  }
  // Never more connections than cores.
  c.connections = std::min(
      c.connections,
      static_cast<int>(std::max(std::thread::hardware_concurrency(), 1u)));
  if (tiny) c.setups = 2;
  return c;
}

JobSpec HeavyJob(const std::string& session, uint64_t seed) {
  JobSpec job;
  job.session = session;
  job.num_slices = 4;
  job.rows_per_slice = 160;
  job.budget = 80.0;
  job.rounds = 2;
  job.method = "moderate";
  job.seed = seed;
  return job;
}

JobSpec LightJob(const std::string& session, uint64_t seed) {
  JobSpec job;
  job.session = session;
  job.num_slices = 4;
  job.rows_per_slice = 20;
  job.budget = 16.0;
  job.rounds = 2;
  job.method = "uniform";
  job.seed = seed;
  return job;
}

JobSpec AppendJob(const std::string& session, int slice) {
  JobSpec job;
  job.session = session;
  job.num_slices = 4;
  job.append_rows = 40;
  job.append_slice = slice;
  job.budget = 40.0;
  job.rounds = 1;
  job.method = "moderate";
  return job;
}

std::vector<JobSpec> PreludeJobs(const WorkloadConfig& config,
                                 uint64_t seed) {
  Rng rng = Rng(seed).Fork(kPreludeStream);
  std::vector<JobSpec> jobs;
  for (int i = 0; i < config.prep_heavy; ++i) {
    jobs.push_back(HeavyJob(config.prefix + "-ph-" + std::to_string(i), rng()));
  }
  const int light = config.prefill_sessions + config.prep_light;
  for (int i = 0; i < light; ++i) {
    jobs.push_back(LightJob(config.prefix + "-p-" + std::to_string(i), rng()));
  }
  return jobs;
}

std::vector<PlannedRequest> OpenSchedule(const WorkloadConfig& config,
                                         uint64_t seed, double seconds) {
  const Rng root(seed);
  std::vector<PlannedRequest> light, polls, heavy;
  std::vector<uint64_t> light_seeds, poll_seeds, heavy_seeds;
  AddArrivals(root.Fork(kLightStream), config.light_rate, false, seconds,
              false, JobClass::kLight, &light, &light_seeds);
  AddArrivals(root.Fork(kPollStream), config.poll_rate, false, seconds, true,
              JobClass::kLight, &polls, &poll_seeds);
  // Heavy jobs come on a fixed cadence: a light job convoyed behind one
  // then waits for that job's own run time, not for however many heavy
  // arrivals the seed's Poisson draw happened to clump together.
  AddArrivals(root.Fork(kHeavyStream), config.heavy_rate, true, seconds,
              false, JobClass::kHeavy, &heavy, &heavy_seeds);

  for (size_t i = 0; i < light.size(); ++i) {
    light[i].job = LightJob(config.prefix + "-l-" + std::to_string(i),
                            light_seeds[i]);
  }
  // Polls read sessions that finished before timing started.
  const uint64_t targets = static_cast<uint64_t>(
      config.prefill_sessions + config.prep_light + config.prep_heavy);
  for (size_t i = 0; i < polls.size(); ++i) {
    const uint64_t k = targets == 0 ? 0 : poll_seeds[i] % targets;
    polls[i].target =
        k < static_cast<uint64_t>(config.prep_heavy)
            ? config.prefix + "-ph-" + std::to_string(k)
            : config.prefix + "-p-" +
                  std::to_string(k - static_cast<uint64_t>(config.prep_heavy));
  }
  // Appends visit the prepared sessions round-robin in a seed-shuffled
  // order: a session is revisited only after every other one was.
  const std::vector<size_t> order =
      root.Fork(kOrderStream).Permutation(
          static_cast<size_t>(config.prep_heavy));
  for (size_t i = 0; i < heavy.size(); ++i) {
    if (config.heavy_appends) {
      const size_t k = order[i % order.size()];
      heavy[i].job = AppendJob(config.prefix + "-ph-" + std::to_string(k),
                               static_cast<int>(heavy_seeds[i] % 4));
    } else {
      heavy[i].job = HeavyJob(config.prefix + "-h-" + std::to_string(i),
                              heavy_seeds[i]);
    }
  }

  std::vector<PlannedRequest> all;
  all.reserve(light.size() + polls.size() + heavy.size());
  for (auto* part : {&heavy, &light, &polls}) {
    for (auto& request : *part) all.push_back(std::move(request));
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const PlannedRequest& a, const PlannedRequest& b) {
                     return a.due_ns < b.due_ns;
                   });
  return all;
}

std::string ClosedHeavyName(const WorkloadConfig& config, int conn,
                            int iteration) {
  return config.prefix + "-h" + std::to_string(conn) + "-" +
         std::to_string(iteration);
}

ClosedStep ClosedLoopStep(const WorkloadConfig& config, uint64_t seed,
                          int conn, int iteration) {
  Rng rng = Rng(seed).Fork(kClosedStream).Fork(
      static_cast<uint64_t>(conn) * 1000003u + static_cast<uint64_t>(iteration));
  ClosedStep step;
  step.heavy = HeavyJob(ClosedHeavyName(config, conn, iteration), rng());
  step.light = LightJob(config.prefix + "-l" + std::to_string(conn) + "-" +
                            std::to_string(iteration),
                        rng());
  step.poll_iteration =
      static_cast<int>(rng.UniformInt(static_cast<uint64_t>(iteration + 1)));
  return step;
}

std::string StreamFingerprint(const WorkloadConfig& config, uint64_t seed,
                              double seconds, size_t limit) {
  std::string out;
  for (const JobSpec& job : PreludeJobs(config, seed)) {
    out += job.ToJson().Dump() + "\n";
  }
  if (config.closed_loop) {
    for (int conn = 0; conn < config.connections; ++conn) {
      for (size_t i = 0; i < limit; ++i) {
        const ClosedStep step =
            ClosedLoopStep(config, seed, conn, static_cast<int>(i));
        out += step.heavy.ToJson().Dump() + " poll " +
               std::to_string(step.poll_iteration) + " " +
               step.light.ToJson().Dump() + "\n";
      }
    }
    return out;
  }
  const std::vector<PlannedRequest> schedule =
      OpenSchedule(config, seed, seconds);
  for (size_t i = 0; i < schedule.size() && i < limit; ++i) {
    const PlannedRequest& r = schedule[i];
    out += std::to_string(r.due_ns) + " " +
           (r.poll ? "poll " + r.target : r.job.ToJson().Dump()) + "\n";
  }
  return out;
}

}  // namespace e2ebench
