// slicetuner_top: live terminal dashboard for a running tuning daemon.
//
// Polls the `metrics` protocol verb (name-prefix filtered to the serve
// layer plus the store durability series) on an interval and renders the
// counters as windowed rates: requests/s, admitted vs shed, jobs done, the
// per-worker request balance, and the current stage latency quantiles.
// Counters are cumulative on the server, so each tick shows the delta
// against the previous poll divided by the wall interval; gauges and
// histogram quantiles are shown as-is (quantiles are lifetime, not
// windowed — the registry keeps no per-window reservoirs).
//
// Usage:
//   slicetuner_top --port=N [--interval-ms=1000] [--iterations=0]
//   slicetuner_top --port=N --once
//
// --iterations=K stops after K refreshes (0 = until interrupted or the
// server goes away). --once polls a single time and prints one
// machine-readable JSON object (no rates: there is no window yet) — the
// mode the serve smoke test and scripts consume.
//
// Exit code 0 on a clean stop, 1 when the server cannot be reached.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/json.h"
#include "common/logging.h"
#include "serve/client.h"
#include "serve/protocol.h"

namespace {

using slicetuner::json::Value;

// Cumulative counter values keyed by display name, one poll's worth.
using CounterMap = std::map<std::string, long long>;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Flattens one metrics snapshot into cumulative monotonic values: counters
// under their display name, histogram record counts under "<name>#count"
// (the store layer has no sync counter, only the store_fsync_ns series).
CounterMap ReadCounters(const Value& snapshot) {
  CounterMap out;
  const Value* counters = snapshot.Find("counters");
  if (counters != nullptr && counters->is_object()) {
    for (const auto& member : counters->members()) {
      out[member.first] = member.second.int_value();
    }
  }
  const Value* histograms = snapshot.Find("histograms");
  if (histograms != nullptr && histograms->is_object()) {
    for (const auto& member : histograms->members()) {
      out[member.first + "#count"] = member.second.GetInt("count");
    }
  }
  return out;
}

long long DeltaOf(const CounterMap& now, const CounterMap& prev,
                  const std::string& key) {
  const auto it = now.find(key);
  if (it == now.end()) return 0;
  const auto pit = prev.find(key);
  const long long before = pit == prev.end() ? 0 : pit->second;
  return it->second - before;
}

double GaugeOf(const Value& snapshot, const std::string& key) {
  const Value* gauges = snapshot.Find("gauges");
  if (gauges == nullptr) return 0.0;
  const Value* gauge = gauges->Find(key);
  return gauge == nullptr ? 0.0 : gauge->number_value();
}

const Value* HistogramOf(const Value& snapshot, const std::string& key) {
  const Value* histograms = snapshot.Find("histograms");
  return histograms == nullptr ? nullptr : histograms->Find(key);
}

// Per-worker deltas of serve_worker_requests_total{worker="N"}, in worker
// order. Key format is DisplayKey from obs/metrics.cc.
std::vector<long long> WorkerDeltas(const CounterMap& now,
                                    const CounterMap& prev) {
  constexpr const char kPrefix[] = "serve_worker_requests_total{worker=";
  std::vector<long long> deltas;
  for (const auto& entry : now) {
    if (entry.first.rfind(kPrefix, 0) != 0) continue;
    deltas.push_back(DeltaOf(now, prev, entry.first));
  }
  return deltas;
}

void PrintStageRow(const Value& snapshot, const char* stage) {
  const Value* h = HistogramOf(
      snapshot, std::string("serve_stage_ns{stage=\"") + stage + "\"}");
  if (h == nullptr || h->GetInt("count") == 0) return;
  std::printf("  %-10s p50 %9.1fus  p99 %9.1fus  max %9.1fus  (n=%lld)\n",
              stage, h->GetDouble("p50") / 1e3, h->GetDouble("p99") / 1e3,
              h->GetDouble("max") / 1e3,
              static_cast<long long>(h->GetInt("count")));
}

// One refresh of the live dashboard: windowed counter rates over
// `window_s`, current gauges, lifetime stage quantiles.
void PrintDashboard(const Value& snapshot, const CounterMap& now,
                    const CounterMap& prev, double window_s) {
  if (isatty(STDOUT_FILENO)) std::printf("\x1b[H\x1b[2J");
  const double w = window_s > 0 ? window_s : 1.0;
  const long long requests = DeltaOf(now, prev, "serve_requests_total");
  const long long admitted = DeltaOf(now, prev, "serve_admitted_total");
  const long long shed = DeltaOf(now, prev, "serve_shed_queue_full_total") +
                         DeltaOf(now, prev, "serve_shed_restoring_total");
  const long long jobs = DeltaOf(now, prev, "serve_jobs_done_total");
  const long long syncs = DeltaOf(now, prev, "store_fsync_ns#count");

  std::printf("slicetuner_top  window %.1fs\n\n", window_s);
  std::printf("  requests/s %8.1f   admitted/s %8.1f   shed/s %6.1f\n",
              requests / w, admitted / w, shed / w);
  std::printf("  jobs/s     %8.1f   fsyncs/s   %8.1f\n", jobs / w, syncs / w);
  std::printf("  queue depth %6.0f   sessions %6.0f   connections %6.0f\n",
              GaugeOf(snapshot, "serve_queue_depth"),
              GaugeOf(snapshot, "serve_sessions"),
              GaugeOf(snapshot, "serve_connections"));

  const std::vector<long long> workers = WorkerDeltas(now, prev);
  if (!workers.empty()) {
    std::printf("  worker req deltas [");
    for (size_t i = 0; i < workers.size(); ++i) {
      std::printf("%s%lld", i == 0 ? "" : " ", workers[i]);
    }
    std::printf("]\n");
  }

  std::printf("\n  stage latency (lifetime quantiles)\n");
  for (const char* stage :
       {"accept", "parse", "admit", "dispatch", "run", "flush"}) {
    PrintStageRow(snapshot, stage);
  }
  std::fflush(stdout);
}

// --once: a single machine-readable JSON line of current totals/gauges.
void PrintOnce(const Value& snapshot, const CounterMap& now) {
  const CounterMap zero;
  Value out = Value::Object();
  out.Set("requests_total", DeltaOf(now, zero, "serve_requests_total"));
  out.Set("admitted_total", DeltaOf(now, zero, "serve_admitted_total"));
  out.Set("shed_total", DeltaOf(now, zero, "serve_shed_queue_full_total") +
                            DeltaOf(now, zero, "serve_shed_restoring_total"));
  out.Set("jobs_done_total", DeltaOf(now, zero, "serve_jobs_done_total"));
  out.Set("queue_depth", GaugeOf(snapshot, "serve_queue_depth"));
  out.Set("sessions", GaugeOf(snapshot, "serve_sessions"));
  out.Set("connections", GaugeOf(snapshot, "serve_connections"));
  Value workers = Value::Array();
  for (const long long delta : WorkerDeltas(now, zero)) {
    workers.Append(delta);
  }
  out.Set("worker_requests", std::move(workers));
  const Value* run = HistogramOf(snapshot, "serve_stage_ns{stage=\"run\"}");
  if (run != nullptr) {
    out.Set("run_p99_ns", run->GetDouble("p99"));
  }
  std::printf("%s\n", out.Dump().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace slicetuner;

  InitLoggingFromEnv();

  const int port = bench::ParseIntFlag(argc, argv, "--port=", 0);
  if (port <= 0) {
    std::fprintf(stderr,
                 "usage: slicetuner_top --port=N [--interval-ms=1000] "
                 "[--iterations=0] [--once]\n");
    return 2;
  }
  const int interval_ms =
      bench::ParseIntFlag(argc, argv, "--interval-ms=", 1000);
  const int iterations = bench::ParseIntFlag(argc, argv, "--iterations=", 0);
  bool once = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--once") once = true;
  }

  auto connection = serve::ClientConnection::Connect(port);
  if (!connection.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 connection.status().ToString().c_str());
    return 1;
  }

  serve::Request request;
  request.type = serve::RequestType::kMetrics;
  // serve_* covers the request path; store_* adds the durability series.
  // Two filtered calls keep the payloads small on busy daemons.
  CounterMap prev;
  double prev_ts = 0.0;
  for (int tick = 0; iterations == 0 || tick < iterations; ++tick) {
    request.prefix = "serve_";
    auto serve_snapshot = connection->Call(request);
    request.prefix = "store_";
    auto store_snapshot = connection->Call(request);
    if (!serve_snapshot.ok() || !store_snapshot.ok()) {
      const Status& bad = !serve_snapshot.ok() ? serve_snapshot.status()
                                               : store_snapshot.status();
      std::fprintf(stderr, "error: %s\n", bad.ToString().c_str());
      return 1;
    }
    const double ts = NowSeconds();
    CounterMap now = ReadCounters(*serve_snapshot);
    for (const auto& entry : ReadCounters(*store_snapshot)) {
      now[entry.first] = entry.second;
    }
    if (once) {
      PrintOnce(*serve_snapshot, now);
      return 0;
    }
    PrintDashboard(*serve_snapshot, now, prev,
                   prev_ts > 0 ? ts - prev_ts : 0.0);
    prev = std::move(now);
    prev_ts = ts;
    if (iterations != 0 && tick + 1 >= iterations) break;
    usleep(static_cast<useconds_t>(interval_ms) * 1000);
  }
  return 0;
}
