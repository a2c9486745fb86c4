// Unit + in-process end-to-end coverage of the load harness (src/load/):
// workload compilation determinism and traffic-shape properties, the
// driver's full replay loop against an in-process TuningServer, and the
// oracle's bit-identity check (including its ability to catch a tampered
// result).

#include <gtest/gtest.h>

#include <set>

#include "load/driver.h"
#include "load/oracle.h"
#include "load/workload.h"
#include "serve/server.h"

namespace slicetuner {
namespace load {
namespace {

WorkloadSpec SmallSpec() {
  WorkloadSpec spec;
  spec.sessions = 24;
  spec.arrival = ArrivalProcess::kPoisson;
  spec.arrival_rate_per_sec = 400.0;
  spec.budget_cap = 24.0;
  spec.max_rounds = 1;
  spec.append_fraction = 0.3;
  spec.max_appends = 1;
  spec.cancel_fraction = 0.0;
  spec.moderate_fraction = 0.0;
  spec.stalled_readers = 1;
  spec.seed = 7;
  return spec;
}

TEST(WorkloadTest, CompileIsDeterministic) {
  const WorkloadSpec spec = SmallSpec();
  auto a = CompileWorkload(spec);
  auto b = CompileWorkload(spec);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->ToJson().Dump(), b->ToJson().Dump());

  WorkloadSpec other = spec;
  other.seed = 8;
  auto c = CompileWorkload(other);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a->ToJson().Dump(), c->ToJson().Dump());
}

TEST(WorkloadTest, ArrivalsAreSortedAndProcessesDiffer) {
  WorkloadSpec spec = SmallSpec();
  auto poisson = CompileWorkload(spec);
  ASSERT_TRUE(poisson.ok());
  int prev = -1;
  std::set<int> distinct;
  for (const auto& s : poisson->sessions) {
    EXPECT_GE(s.arrival_ms, prev);
    prev = s.arrival_ms;
    distinct.insert(s.arrival_ms);
  }
  // Poisson arrivals spread out; bursts collapse onto few instants.
  EXPECT_GT(distinct.size(), 4u);

  spec.arrival = ArrivalProcess::kBursty;
  spec.burst_size = 8;
  spec.burst_every_ms = 100;
  auto bursty = CompileWorkload(spec);
  ASSERT_TRUE(bursty.ok());
  std::set<int> burst_instants;
  for (const auto& s : bursty->sessions) burst_instants.insert(s.arrival_ms);
  EXPECT_EQ(burst_instants.size(), 3u);  // 24 sessions / burst of 8
}

TEST(WorkloadTest, MixKnobsShapeTheOps) {
  WorkloadSpec spec = SmallSpec();
  spec.sessions = 40;
  spec.append_fraction = 0.5;
  spec.cancel_fraction = 0.2;
  spec.moderate_fraction = 0.25;
  auto workload = CompileWorkload(spec);
  ASSERT_TRUE(workload.ok());

  int cancels = 0, appends = 0, moderate = 0;
  for (const auto& s : workload->sessions) {
    ASSERT_FALSE(s.ops.empty());
    EXPECT_EQ(s.ops[0].kind, OpKind::kSubmit);
    EXPECT_GT(s.ops[0].job.num_slices, 0);
    EXPECT_LE(s.ops[0].job.budget, spec.budget_cap);
    if (s.ops[0].job.method == "moderate") ++moderate;
    bool cancelled = false;
    for (const auto& op : s.ops) {
      if (op.kind == OpKind::kCancel) {
        ++cancels;
        cancelled = true;
      }
      if (op.kind == OpKind::kAppend) {
        ++appends;
        // Appends ride the resumed session: never restate slice count,
        // and never follow a cancel.
        EXPECT_EQ(op.job.num_slices, 0);
        EXPECT_GT(op.job.append_rows, 0);
        EXPECT_FALSE(cancelled);
      }
    }
  }
  EXPECT_EQ(moderate, 10);  // exact slot walk: 0.25 * 40
  EXPECT_GT(cancels, 0);
  EXPECT_GT(appends, 0);
}

TEST(WorkloadTest, RejectsUnknownScenarioAndBadSpec) {
  WorkloadSpec spec = SmallSpec();
  spec.scenarios = {"no-such-scenario"};
  EXPECT_FALSE(CompileWorkload(spec).ok());

  WorkloadSpec bad = SmallSpec();
  bad.append_fraction = 1.5;
  EXPECT_FALSE(CompileWorkload(bad).ok());
}

// Full in-process replay: driver against a real TuningServer on an
// ephemeral port, then the oracle over the clean survivors.
TEST(LoadDriverTest, ReplaysWorkloadAndMatchesOracle) {
  auto workload = CompileWorkload(SmallSpec());
  ASSERT_TRUE(workload.ok());

  serve::ServerOptions options;
  options.admission.max_queue_depth = 64;
  serve::TuningServer server(options);
  ASSERT_TRUE(server.Start().ok());

  DriverOptions driver_options;
  driver_options.port = [&server] { return server.port(); };
  driver_options.threads = 3;
  driver_options.poll_interval_ms = 5;
  driver_options.run_deadline_ms = 120000;
  LoadDriver driver(*workload, driver_options);
  auto report = driver.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_TRUE(report->all_terminal);
  EXPECT_EQ(report->failed, 0u);
  EXPECT_EQ(report->lost_after_ack, 0u);
  EXPECT_EQ(report->done, workload->sessions.size());
  EXPECT_GE(report->submits, workload->sessions.size());
  EXPECT_EQ(report->stalled_streams, 1u);

  const OracleReport oracle = VerifyAgainstOracle(*workload, *report);
  EXPECT_GT(oracle.checked, 0u);
  EXPECT_EQ(oracle.mismatched, 0u)
      << (oracle.mismatches.empty() ? "" : oracle.mismatches[0]);

  server.RequestShutdown();
  server.Wait();
}

TEST(LoadDriverTest, CancelsTaintSessionsOutOfTheOracleSet) {
  WorkloadSpec spec = SmallSpec();
  spec.sessions = 12;
  spec.cancel_fraction = 1.0;
  spec.append_fraction = 0.0;
  auto workload = CompileWorkload(spec);
  ASSERT_TRUE(workload.ok());

  serve::TuningServer server;
  ASSERT_TRUE(server.Start().ok());
  DriverOptions driver_options;
  driver_options.port = [&server] { return server.port(); };
  driver_options.threads = 2;
  driver_options.poll_interval_ms = 5;
  driver_options.run_deadline_ms = 120000;
  LoadDriver driver(*workload, driver_options);
  auto report = driver.Run();
  ASSERT_TRUE(report.ok());

  EXPECT_TRUE(report->all_terminal);
  EXPECT_EQ(report->lost_after_ack, 0u);
  EXPECT_GT(report->cancels_sent, 0u);
  size_t tainted = 0;
  for (const auto& outcome : report->outcomes) {
    // A cancel either landed (cancelled, tainted) or lost the race to the
    // terminal transition (done, and only tainted if the cancel was sent)
    // — both are terminal, neither is a failure.
    EXPECT_TRUE(outcome.final_state == "cancelled" ||
                outcome.final_state == "done")
        << outcome.final_state;
    if (outcome.final_state == "cancelled") {
      EXPECT_TRUE(outcome.tainted) << outcome.name;
    }
    if (outcome.tainted) ++tainted;
  }
  EXPECT_GT(tainted, 0u);
  // Tainted sessions are excluded; any clean race-losers must still match.
  const OracleReport oracle = VerifyAgainstOracle(*workload, *report);
  EXPECT_EQ(oracle.checked + oracle.skipped, workload->sessions.size());
  EXPECT_EQ(oracle.skipped, tainted);
  EXPECT_EQ(oracle.mismatched, 0u)
      << (oracle.mismatches.empty() ? "" : oracle.mismatches[0]);

  server.RequestShutdown();
  server.Wait();
}

TEST(OracleTest, CatchesATamperedResult) {
  WorkloadSpec spec = SmallSpec();
  spec.sessions = 2;
  spec.append_fraction = 0.0;
  spec.stalled_readers = 0;
  // Baseline methods never fit curves; moderate sessions always do, and the
  // tamper below needs a curves block to corrupt.
  spec.moderate_fraction = 1.0;
  auto workload = CompileWorkload(spec);
  ASSERT_TRUE(workload.ok());

  serve::TuningServer server;
  ASSERT_TRUE(server.Start().ok());
  DriverOptions driver_options;
  driver_options.port = [&server] { return server.port(); };
  driver_options.threads = 1;
  driver_options.poll_interval_ms = 5;
  driver_options.run_deadline_ms = 120000;
  LoadDriver driver(*workload, driver_options);
  auto report = driver.Run();
  ASSERT_TRUE(report.ok());
  server.RequestShutdown();
  server.Wait();
  ASSERT_TRUE(report->all_terminal);

  // Sanity: untampered, it matches.
  EXPECT_EQ(VerifyAgainstOracle(*workload, *report).mismatched, 0u);

  // Corrupt one closing coefficient by one ulp-ish nudge: the exact-equality
  // oracle must notice.
  LoadReport tampered = *report;
  json::Value* poll = &tampered.outcomes[0].final_poll;
  const json::Value* curves = poll->Find("curves");
  ASSERT_NE(curves, nullptr)
      << "state=" << tampered.outcomes[0].final_state
      << " poll=" << poll->Dump();
  json::Value new_curves = *curves;
  json::Value b = *new_curves.Find("b");
  ASSERT_GT(b.size(), 0u);
  json::Value nudged = json::Value::Array();
  nudged.Append(b.at(0).number_value() + 1e-12);
  for (size_t i = 1; i < b.size(); ++i) nudged.Append(b.at(i));
  new_curves.Set("b", std::move(nudged));
  poll->Set("curves", std::move(new_curves));

  const OracleReport oracle = VerifyAgainstOracle(*workload, tampered);
  EXPECT_EQ(oracle.mismatched, 1u);
  ASSERT_FALSE(oracle.mismatches.empty());
  EXPECT_NE(oracle.mismatches[0].find("curves.b[0]"), std::string::npos)
      << oracle.mismatches[0];
}

}  // namespace
}  // namespace load
}  // namespace slicetuner
