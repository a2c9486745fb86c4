// Serving-level crash-recovery tests: sessions journaled and snapshotted
// through store::DurableStore must come back warm after a restart. The
// acceptance check of the durable-state tentpole is the equivalence suite:
// after snapshot + journal replay, an append_rows resubmission refits only
// the touched slices with training counts identical to the no-restart path,
// and closing curve estimates are bit-identical to a never-restarted
// session's.

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fs_util.h"
#include "common/string_util.h"
#include "gtest/gtest.h"
#include "serve/session_log.h"
#include "serve/session_manager.h"
#include "store/store.h"

namespace slicetuner {
namespace serve {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/store_recovery_" + name;
  const Result<std::vector<std::string>> files = ListDirFiles(dir);
  if (files.ok()) {
    for (const std::string& file : *files) {
      (void)RemoveFile(dir + "/" + file);
    }
  }
  ST_CHECK_OK(MkDirRecursive(dir));
  return dir;
}

JobSpec ColdJob(const std::string& session) {
  JobSpec job;
  job.session = session;
  job.num_slices = 4;
  job.rows_per_slice = 60;
  job.budget = 40.0;
  job.rounds = 1;
  job.method = "moderate";
  job.seed = 5;
  return job;
}

JobSpec AppendJob(const std::string& session) {
  JobSpec job = ColdJob(session);
  job.append_rows = 60;
  job.append_slice = 2;
  return job;
}

TuningSession* MustRegisterAndRun(SessionManager* manager,
                                  const JobSpec& job) {
  const Result<TuningSession*> session = manager->Register(job);
  ST_CHECK_OK(session.status());
  ST_CHECK_OK((*session)->RunJob());
  return *session;
}

std::string CurvesDump(const TuningSession& session) {
  const json::Value snapshot = session.Snapshot();
  const json::Value* curves = snapshot.Find("curves");
  return curves == nullptr ? std::string() : curves->Dump();
}

// Content hash of the session's resting training data (via DurableState's
// serialized tuner state). Empty when the session has no data world yet.
std::string DataHash(const TuningSession& session) {
  const json::Value state = session.DurableState();
  const json::Value* resting = state.Find("resting");
  return resting == nullptr ? std::string()
                            : resting->GetString("data_hash");
}

// The headline guarantee. Control: one manager runs cold job + append job
// with no restarts. Durable: an identical cold job runs against a store,
// the manager is torn down, a second manager recovers from disk and runs
// the identical append job. The warm path must match the control exactly:
// same training count (only the touched slices refit) and bit-identical
// closing curves.
TEST(StoreRecoveryTest, WarmRestartEquivalence) {
  // --- control: never restarted ---
  SessionManager control;
  TuningSession* control_session = MustRegisterAndRun(&control, ColdJob("s"));
  const long long control_cold_trainings =
      control_session->last_job_trainings();
  const std::string control_cold_hash = DataHash(*control_session);
  MustRegisterAndRun(&control, AppendJob("s"));
  const long long control_warm_trainings =
      control_session->last_job_trainings();
  const std::string control_curves = CurvesDump(*control_session);
  const std::string control_final_hash = DataHash(*control_session);
  ASSERT_FALSE(control_curves.empty());
  // The append path must itself be incremental, otherwise "warm" is
  // meaningless (mirrors serve_test's partial-refit assertion).
  ASSERT_LT(control_warm_trainings, control_cold_trainings);

  // --- durable: cold job, snapshot, restart ---
  const std::string dir = FreshDir("equivalence");
  long long durable_cold_trainings = 0;
  {
    Result<std::unique_ptr<store::DurableStore>> store =
        store::DurableStore::Open(dir);
    ST_CHECK_OK(store.status());
    SessionManager manager;
    manager.AttachStore(store->get());
    TuningSession* session = MustRegisterAndRun(&manager, ColdJob("s"));
    durable_cold_trainings = session->last_job_trainings();
    ST_CHECK_OK((*store)->WriteSnapshot(manager.DurableSnapshot()));
  }
  EXPECT_EQ(durable_cold_trainings, control_cold_trainings);

  // --- restart: recover, then run the identical append job ---
  Result<std::unique_ptr<store::DurableStore>> reopened =
      store::DurableStore::Open(dir);
  ST_CHECK_OK(reopened.status());
  SessionManager recovered;
  const Result<RestoreReport> report = recovered.RestoreFromState(
      (*reopened)->recovered(), reopened->get(), /*skip_existing=*/false);
  ST_CHECK_OK(report.status());
  EXPECT_EQ(report->sessions_restored, 1u);
  EXPECT_EQ(report->warm_slices, 4u) << "all slices should restore hot";

  TuningSession* restored = recovered.Find("s");
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->phase(), SessionPhase::kDone);
  EXPECT_EQ(restored->last_job_trainings(), control_cold_trainings);
  // The replay reconstructed the resting rows bit-identically.
  EXPECT_EQ(DataHash(*restored), control_cold_hash);

  ST_CHECK_OK(recovered.Register(AppendJob("s")).status());
  ST_CHECK_OK(restored->RunJob());

  // Warm-restart equivalence: training counts identical to the no-restart
  // path (only the touched slices refit)...
  EXPECT_EQ(restored->last_job_trainings(), control_warm_trainings);
  // ...closing estimates bit-identical to the never-restarted session...
  EXPECT_EQ(CurvesDump(*restored), control_curves);
  // ...and therefore identical allocations: the post-job data agrees too.
  EXPECT_EQ(DataHash(*restored), control_final_hash);

  const json::Value snapshot = restored->Snapshot();
  EXPECT_EQ(snapshot.GetInt("jobs_run"), 2);
  const json::Value* cache = snapshot.Find("curve_cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_GE(cache->GetInt("partial_refits"), 1)
      << "the restored cache must serve the untouched slices";
  EXPECT_GT(cache->GetInt("slices_reused"), 0);
}

// Recovery with no snapshot at all: the journal tail alone (create, world,
// acquire, finish events) must rebuild the session's data world
// bit-identically. Without a checkpointed curve cache the next estimate
// runs cold — strictly more trainings than the warm path (closing curves
// are NOT compared here: a cold refit sees the untouched slices' newer
// cross-slice context, which the warm cache deliberately reuses — the
// engine's documented incremental-maintenance approximation).
TEST(StoreRecoveryTest, JournalOnlyRecoveryRebuildsDataExactly) {
  SessionManager control;
  TuningSession* control_session = MustRegisterAndRun(&control, ColdJob("j"));
  const std::string control_cold_hash = DataHash(*control_session);
  MustRegisterAndRun(&control, AppendJob("j"));
  const long long control_warm_trainings =
      control_session->last_job_trainings();
  ASSERT_FALSE(control_cold_hash.empty());

  const std::string dir = FreshDir("journal_only");
  long long cold_rows = 0;
  {
    Result<std::unique_ptr<store::DurableStore>> store =
        store::DurableStore::Open(dir);
    ST_CHECK_OK(store.status());
    SessionManager manager;
    manager.AttachStore(store->get());
    TuningSession* session = MustRegisterAndRun(&manager, ColdJob("j"));
    cold_rows = session->Snapshot().GetInt("rows");
    // No WriteSnapshot: the journal (synced at job finish) is all there is.
  }

  Result<std::unique_ptr<store::DurableStore>> reopened =
      store::DurableStore::Open(dir);
  ST_CHECK_OK(reopened.status());
  SessionManager recovered;
  const Result<RestoreReport> report = recovered.RestoreFromState(
      (*reopened)->recovered(), reopened->get(), /*skip_existing=*/false);
  ST_CHECK_OK(report.status());
  EXPECT_EQ(report->sessions_restored, 1u);
  EXPECT_GT(report->journal_records_applied, 0u);
  EXPECT_EQ(report->warm_slices, 0u) << "no snapshot, no warm cache";

  TuningSession* restored = recovered.Find("j");
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->phase(), SessionPhase::kDone);
  EXPECT_EQ(restored->Snapshot().GetInt("rows"), cold_rows);
  // The replayed rows are bit-identical to the pre-crash session's.
  EXPECT_EQ(DataHash(*restored), control_cold_hash);

  ST_CHECK_OK(recovered.Register(AppendJob("j")).status());
  ST_CHECK_OK(restored->RunJob());
  // Cold cache: strictly more trainings than the warm path. (The data
  // worlds can diverge after this job: different fitted curves give the
  // optimizer different allocations.)
  EXPECT_GT(restored->last_job_trainings(), control_warm_trainings);
}

// A snapshot taken mid-history plus journal records appended after it:
// recovery applies only the uncovered tail (per-session sequence numbers),
// ending in the same state as replaying everything.
TEST(StoreRecoveryTest, SnapshotPlusNewerJournalTailComposes) {
  const std::string dir = FreshDir("snapshot_plus_tail");
  {
    Result<std::unique_ptr<store::DurableStore>> store =
        store::DurableStore::Open(dir);
    ST_CHECK_OK(store.status());
    SessionManager manager;
    manager.AttachStore(store->get());
    TuningSession* session = MustRegisterAndRun(&manager, ColdJob("t"));
    ST_CHECK_OK((*store)->WriteSnapshot(manager.DurableSnapshot()));
    // Activity after the checkpoint lives only in the journal.
    ST_CHECK_OK(manager.Register(AppendJob("t")).status());
    ST_CHECK_OK(session->RunJob());
  }

  Result<std::unique_ptr<store::DurableStore>> reopened =
      store::DurableStore::Open(dir);
  ST_CHECK_OK(reopened.status());
  SessionManager recovered;
  const Result<RestoreReport> report = recovered.RestoreFromState(
      (*reopened)->recovered(), reopened->get(), /*skip_existing=*/false);
  ST_CHECK_OK(report.status());
  EXPECT_EQ(report->sessions_restored, 1u);
  EXPECT_GT(report->journal_records_applied, 0u);

  TuningSession* restored = recovered.Find("t");
  ASSERT_NE(restored, nullptr);
  const json::Value snapshot = restored->Snapshot();
  EXPECT_EQ(snapshot.GetInt("jobs_run"), 2);
  EXPECT_EQ(snapshot.GetString("state"), "done");
  // Both the appended rows and the second job's acquisitions must be in the
  // replayed data; a third (appendless) run then estimates the same world.
  ST_CHECK_OK(recovered.Register(ColdJob("t")).status());
  ST_CHECK_OK(restored->RunJob());
  EXPECT_EQ(restored->phase(), SessionPhase::kDone);
}

// A session interrupted mid-flight (journaled as created, never finished)
// restores as cancelled and stays resumable.
TEST(StoreRecoveryTest, InterruptedSessionRestoresCancelledAndResumable) {
  const std::string dir = FreshDir("interrupted");
  {
    Result<std::unique_ptr<store::DurableStore>> store =
        store::DurableStore::Open(dir);
    ST_CHECK_OK(store.status());
    SessionManager manager;
    manager.AttachStore(store->get());
    // Registered (create journaled + synced) but the process "dies" before
    // a lane ever runs the job.
    ST_CHECK_OK(manager.Register(ColdJob("i")).status());
  }

  Result<std::unique_ptr<store::DurableStore>> reopened =
      store::DurableStore::Open(dir);
  ST_CHECK_OK(reopened.status());
  SessionManager recovered;
  const Result<RestoreReport> report = recovered.RestoreFromState(
      (*reopened)->recovered(), reopened->get(), /*skip_existing=*/false);
  ST_CHECK_OK(report.status());
  EXPECT_EQ(report->sessions_restored, 1u);

  TuningSession* restored = recovered.Find("i");
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->phase(), SessionPhase::kCancelled);
  EXPECT_EQ(restored->last_status().code(), StatusCode::kCancelled);

  // The client's retry re-arms it like any cancelled session.
  MustRegisterAndRun(&recovered, ColdJob("i"));
  EXPECT_EQ(restored->phase(), SessionPhase::kDone);
}

// A shed submission that was dropped before admission must not resurrect.
TEST(StoreRecoveryTest, DroppedSessionIsNotRestored) {
  const std::string dir = FreshDir("dropped");
  {
    Result<std::unique_ptr<store::DurableStore>> store =
        store::DurableStore::Open(dir);
    ST_CHECK_OK(store.status());
    SessionManager manager;
    manager.AttachStore(store->get());
    const Result<TuningSession*> session = manager.Register(ColdJob("d"));
    ST_CHECK_OK(session.status());
    manager.Drop((*session)->id());
    EXPECT_EQ(manager.session_count(), 0u);
  }

  Result<std::unique_ptr<store::DurableStore>> reopened =
      store::DurableStore::Open(dir);
  ST_CHECK_OK(reopened.status());
  SessionManager recovered;
  const Result<RestoreReport> report = recovered.RestoreFromState(
      (*reopened)->recovered(), reopened->get(), /*skip_existing=*/false);
  ST_CHECK_OK(report.status());
  EXPECT_EQ(report->sessions_restored, 0u);
  EXPECT_EQ(report->sessions_dropped, 1u);
  EXPECT_EQ(recovered.Find("d"), nullptr);
}

// A name can be dropped and then legitimately reused: the retry after a
// shed submit recreates the session with a fresh id. Recovery must restore
// the new incarnation — the old incarnation's drop record (and its higher
// event sequence numbers) must not swallow it.
TEST(StoreRecoveryTest, DroppedThenRecreatedSessionRestores) {
  const std::string dir = FreshDir("drop_recreate");
  {
    Result<std::unique_ptr<store::DurableStore>> store =
        store::DurableStore::Open(dir);
    ST_CHECK_OK(store.status());
    SessionManager manager;
    manager.AttachStore(store->get());
    const Result<TuningSession*> shed = manager.Register(ColdJob("r"));
    ST_CHECK_OK(shed.status());
    manager.Drop((*shed)->id());  // admission rejected the first attempt
    MustRegisterAndRun(&manager, ColdJob("r"));  // the client's retry
  }

  Result<std::unique_ptr<store::DurableStore>> reopened =
      store::DurableStore::Open(dir);
  ST_CHECK_OK(reopened.status());
  SessionManager recovered;
  const Result<RestoreReport> report = recovered.RestoreFromState(
      (*reopened)->recovered(), reopened->get(), /*skip_existing=*/false);
  ST_CHECK_OK(report.status());
  EXPECT_EQ(report->sessions_restored, 1u);
  TuningSession* restored = recovered.Find("r");
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->phase(), SessionPhase::kDone);
  EXPECT_EQ(restored->Snapshot().GetInt("jobs_run"), 1);
}

// Torn journal tail at the serving level: garbage appended to the newest
// generation (a mid-write crash) must not block recovery of the sessions
// whose records preceded it.
TEST(StoreRecoveryTest, TornJournalTailStillRecoversSessions) {
  const std::string dir = FreshDir("torn_tail");
  {
    Result<std::unique_ptr<store::DurableStore>> store =
        store::DurableStore::Open(dir);
    ST_CHECK_OK(store.status());
    SessionManager manager;
    manager.AttachStore(store->get());
    MustRegisterAndRun(&manager, ColdJob("torn"));
  }
  // Simulate a crash mid-append: raw garbage lands after the last record of
  // the newest journal generation.
  const Result<std::vector<std::string>> files = ListDirFiles(dir);
  ST_CHECK_OK(files.status());
  std::string newest;
  for (const std::string& file : *files) {
    if (file.rfind("journal-", 0) == 0) newest = file;  // sorted ascending
  }
  ASSERT_FALSE(newest.empty());
  const Result<std::string> bytes = ReadFileToString(dir + "/" + newest);
  ST_CHECK_OK(bytes.status());
  ST_CHECK_OK(WriteStringToFile(dir + "/" + newest,
                                *bytes + "deadbeef {\"torn\":"));

  Result<std::unique_ptr<store::DurableStore>> reopened =
      store::DurableStore::Open(dir);
  ST_CHECK_OK(reopened.status());
  EXPECT_TRUE((*reopened)->recovered().tail_truncated);
  SessionManager recovered;
  const Result<RestoreReport> report = recovered.RestoreFromState(
      (*reopened)->recovered(), reopened->get(), /*skip_existing=*/false);
  ST_CHECK_OK(report.status());
  EXPECT_TRUE(report->tail_truncated);
  EXPECT_EQ(report->sessions_restored, 1u);
  TuningSession* restored = recovered.Find("torn");
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->phase(), SessionPhase::kDone);
}

// The restore path must never clobber a live session: skip_existing is how
// the server's `restore` verb re-merges.
TEST(StoreRecoveryTest, SkipExistingLeavesLiveSessionsAlone) {
  const std::string dir = FreshDir("skip_existing");
  {
    Result<std::unique_ptr<store::DurableStore>> store =
        store::DurableStore::Open(dir);
    ST_CHECK_OK(store.status());
    SessionManager manager;
    manager.AttachStore(store->get());
    MustRegisterAndRun(&manager, ColdJob("live"));
    MustRegisterAndRun(&manager, ColdJob("gone"));
    ST_CHECK_OK((*store)->WriteSnapshot(manager.DurableSnapshot()));
  }

  Result<std::unique_ptr<store::DurableStore>> reopened =
      store::DurableStore::Open(dir);
  ST_CHECK_OK(reopened.status());
  SessionManager recovered;
  // "live" already exists in this registry.
  TuningSession* live = MustRegisterAndRun(&recovered, ColdJob("live"));
  const Result<RestoreReport> report = recovered.RestoreFromState(
      (*reopened)->recovered(), reopened->get(), /*skip_existing=*/true);
  ST_CHECK_OK(report.status());
  EXPECT_EQ(report->sessions_restored, 1u);
  EXPECT_EQ(report->sessions_skipped, 1u);
  EXPECT_EQ(recovered.Find("live"), live) << "live session untouched";
  EXPECT_NE(recovered.Find("gone"), nullptr);
}

// Store-aware admission (ISSUE 7): while RestoreFromState is rebuilding a
// session, a concurrent Register for the same name must shed with a
// retryable error instead of racing the rebuild or creating a duplicate
// the restore would then skip. Unrelated names stay admittable.
TEST(StoreRecoveryTest, RegisterShedsWhileNameIsMidRestore) {
  const std::string dir = FreshDir("midrestore");
  {
    Result<std::unique_ptr<store::DurableStore>> store =
        store::DurableStore::Open(dir);
    ST_CHECK_OK(store.status());
    SessionManager manager;
    manager.AttachStore(store->get());
    MustRegisterAndRun(&manager, ColdJob("m"));
    ST_CHECK_OK((*store)->WriteSnapshot(manager.DurableSnapshot()));
  }

  Result<std::unique_ptr<store::DurableStore>> reopened =
      store::DurableStore::Open(dir);
  ST_CHECK_OK(reopened.status());
  SessionManager recovered;
  // The hook holds the restore open between claiming "m" and rebuilding
  // it — the window a submit under load would race.
  std::promise<void> restore_entered;
  std::atomic<bool> release{false};
  recovered.SetRestoreHookForTesting([&restore_entered, &release] {
    restore_entered.set_value();
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  Result<RestoreReport> report = Status::Internal("restore never ran");
  std::thread restorer([&] {
    report = recovered.RestoreFromState((*reopened)->recovered(),
                                        reopened->get(),
                                        /*skip_existing=*/false);
  });
  restore_entered.get_future().wait();

  const Result<TuningSession*> shed = recovered.Register(ColdJob("m"));
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted)
      << shed.status();
  EXPECT_TRUE(recovered.Register(ColdJob("other")).ok())
      << "unclaimed names must admit normally mid-restore";

  release.store(true);
  restorer.join();
  ST_CHECK_OK(report.status());
  EXPECT_EQ(report->sessions_restored, 1u);

  // Once the restore lands, the same submit resumes the restored session
  // (warm), instead of shedding or creating a duplicate.
  const Result<TuningSession*> resumed = recovered.Register(AppendJob("m"));
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(recovered.stats().resumed, 1u);
  ST_CHECK_OK((*resumed)->RunJob());
  EXPECT_EQ((*resumed)->phase(), SessionPhase::kDone);
}

JobSpec LightJob(const std::string& session) {
  JobSpec job = ColdJob(session);
  job.rows_per_slice = 20;
  job.budget = 8.0;
  job.method = "uniform";
  return job;
}

std::string Name(const char* prefix, int i) {
  return prefix + std::to_string(1000 + i).substr(1);
}

// Recovery at registry scale: a few hundred sessions split across a
// snapshot and a journal tail, rebuilt in parallel. The tail holds new
// sessions, resumptions of snapshotted ones, a dropped submit, a name
// reused with a fresh id, an interrupted session and one entry that cannot
// be decoded. Every restore of the directory must produce the same
// registry, and every session at rest must serialize exactly as it did
// before the restart.
TEST(StoreRecoveryTest, ManySessionsRestoreDeterministically) {
  constexpr int kSnapshotted = 120;
  constexpr int kResumed = 10;
  constexpr int kTailOnly = 80;
  const std::string dir = FreshDir("many_sessions");
  std::vector<std::string> at_rest;
  std::map<std::string, std::string> states_before;
  long long next_id_before = 0;
  {
    Result<std::unique_ptr<store::DurableStore>> store =
        store::DurableStore::Open(dir);
    ST_CHECK_OK(store.status());
    SessionManager manager;
    manager.AttachStore(store->get());
    for (int i = 0; i < kSnapshotted; ++i) {
      MustRegisterAndRun(&manager, LightJob(Name("snap", i)));
      at_rest.push_back(Name("snap", i));
    }
    for (int i = 0; i < 2; ++i) {
      MustRegisterAndRun(&manager, ColdJob(Name("warm", i)));
      at_rest.push_back(Name("warm", i));
    }
    // A shed submit: the name's first incarnation is dropped before the
    // snapshot, its retry lands in the tail with a fresh id.
    const Result<TuningSession*> shed = manager.Register(LightJob("reuse"));
    ST_CHECK_OK(shed.status());
    manager.Drop((*shed)->id());
    ST_CHECK_OK((*store)->WriteSnapshot(manager.DurableSnapshot()));

    // Everything below lives only in the journal tail.
    for (int i = 0; i < kResumed; ++i) {
      MustRegisterAndRun(&manager, LightJob(Name("snap", i)));
    }
    for (int i = 0; i < kTailOnly; ++i) {
      MustRegisterAndRun(&manager, LightJob(Name("tail", i)));
      at_rest.push_back(Name("tail", i));
    }
    MustRegisterAndRun(&manager, LightJob("reuse"));
    at_rest.push_back("reuse");
    const Result<TuningSession*> gone = manager.Register(LightJob("gone"));
    ST_CHECK_OK(gone.status());
    manager.Drop((*gone)->id());
    // Journaled records of a session whose acquire log cannot replay: its
    // restore fails alone.
    json::Value create = json::Value::Object();
    create.Set("event", "create");
    create.Set("job", LightJob("bad").ToJson());
    create.Set("session", "bad");
    create.Set("id", 1000000);
    create.Set("seq", 0);
    ST_CHECK_OK((*store)->Append(create));
    json::Value acquire = json::Value::Object();
    acquire.Set("event", "acquire");
    acquire.Set("round", 0);
    acquire.Set("slice", 99);
    acquire.Set("n", 5);
    acquire.Set("session", "bad");
    acquire.Set("id", 1000000);
    acquire.Set("seq", 1);
    ST_CHECK_OK((*store)->Append(acquire));
    ST_CHECK_OK((*store)->Sync());
    // Registered, never run: the process dies with it queued.
    ST_CHECK_OK(manager.Register(LightJob("interrupted")).status());

    for (const std::string& name : at_rest) {
      states_before[name] = manager.Find(name)->DurableState().Dump();
    }
    next_id_before = manager.DurableSnapshot().GetInt("next_id");
  }
  const size_t expected_sessions = kSnapshotted + 2 + kTailOnly + 2;

  Result<std::unique_ptr<store::DurableStore>> reopened =
      store::DurableStore::Open(dir);
  ST_CHECK_OK(reopened.status());
  SessionManager recovered;
  const Result<RestoreReport> report = recovered.RestoreFromState(
      (*reopened)->recovered(), reopened->get(), /*skip_existing=*/false);
  ST_CHECK_OK(report.status());
  EXPECT_EQ(report->sessions_restored, expected_sessions);
  EXPECT_EQ(report->sessions_dropped, 1u);
  EXPECT_EQ(report->sessions_skipped, 0u);
  // Only the two moderate sessions fitted curves; uniform jobs train
  // nothing and cache nothing.
  EXPECT_EQ(report->warm_slices, 8u);
  EXPECT_GT(report->journal_records_applied, 0u);
  EXPECT_EQ(recovered.session_count(), expected_sessions);
  EXPECT_EQ(recovered.stats().restored, expected_sessions);

  for (const std::string& name : at_rest) {
    TuningSession* session = recovered.Find(name);
    ASSERT_NE(session, nullptr) << name;
    EXPECT_EQ(recovered.FindById(session->id()), session) << name;
    EXPECT_EQ(session->DurableState().Dump(), states_before[name]) << name;
  }
  TuningSession* interrupted = recovered.Find("interrupted");
  ASSERT_NE(interrupted, nullptr);
  EXPECT_EQ(interrupted->phase(), SessionPhase::kCancelled);
  EXPECT_EQ(recovered.Find("gone"), nullptr);
  EXPECT_EQ(recovered.Find("bad"), nullptr);
  EXPECT_EQ(recovered.FindById(1000000), nullptr);

  // A second, independent restore of the same directory builds the same
  // registry in the same order.
  const Result<store::RecoveredState> reread = store::ReadStateDir(dir);
  ST_CHECK_OK(reread.status());
  SessionManager again;
  const Result<RestoreReport> report_again =
      again.RestoreFromState(*reread, nullptr, /*skip_existing=*/false);
  ST_CHECK_OK(report_again.status());
  EXPECT_EQ(report_again->ToJson().Dump(), report->ToJson().Dump());
  const json::Value snapshot = recovered.DurableSnapshot();
  EXPECT_EQ(again.DurableSnapshot().Dump(), snapshot.Dump());

  // Registry order is merged order: snapshot order, then each tail-only
  // name in order of its first journal record ("reuse" first appears with
  // its dropped incarnation, before the snapshot).
  std::vector<std::string> expected_order;
  for (int i = 0; i < kSnapshotted; ++i) {
    expected_order.push_back(Name("snap", i));
  }
  expected_order.push_back(Name("warm", 0));
  expected_order.push_back(Name("warm", 1));
  expected_order.push_back("reuse");
  for (int i = 0; i < kTailOnly; ++i) {
    expected_order.push_back(Name("tail", i));
  }
  expected_order.push_back("interrupted");
  std::vector<std::string> order;
  for (const json::Value& entry : snapshot.Find("sessions")->items()) {
    order.push_back(entry.GetString("name"));
  }
  EXPECT_EQ(order, expected_order);

  // The id allocator continues where the pre-restart manager stopped, and
  // the failed name is free for a fresh create.
  EXPECT_EQ(snapshot.GetInt("next_id"), next_id_before);
  const size_t created_before = recovered.stats().created;
  const Result<TuningSession*> fresh = recovered.Register(LightJob("bad"));
  ST_CHECK_OK(fresh.status());
  EXPECT_EQ(recovered.stats().created, created_before + 1);
  EXPECT_EQ((*fresh)->id(), static_cast<uint64_t>(next_id_before));
}

// A job whose data world cannot be built: Register would resolve the
// omitted slice count, a session built directly keeps it, so BuildWorld
// fails and the session ends `failed` through the live path.
JobSpec FailingJob(const std::string& session) {
  JobSpec job = ColdJob(session);
  job.num_slices = 0;
  return job;
}

// Runs a many-round job on another thread and calls `mid_job` once the
// first round has streamed its frame, while the job still runs.
void RunWithMidJobHook(TuningSession* session,
                       const std::function<void()>& mid_job) {
  std::thread runner([session] { (void)session->RunJob(); });
  while (session->FrameCount() == 0 && !session->Terminal()) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  mid_job();
  runner.join();
}

JobSpec LongJob(const std::string& session) {
  JobSpec job = ColdJob(session);
  job.rounds = 40;
  job.budget = 80.0;
  return job;
}

// The document without its "resting" member.
std::string DumpWithoutResting(const json::Value& state) {
  json::Value out = json::Value::Object();
  for (const auto& [key, value] : state.members()) {
    if (key != "resting") out.Set(key, value);
  }
  return out.Dump();
}

// A restore writes back the stored error text unchanged: a cancelled and a
// failed session survive two restore + snapshot cycles byte for byte.
TEST(StoreRecoveryTest, RestoredErrorsStayStableAcrossRestarts) {
  const std::string dir = FreshDir("stable_errors");
  {
    Result<std::unique_ptr<store::DurableStore>> store =
        store::DurableStore::Open(dir);
    ST_CHECK_OK(store.status());
    SessionManager manager;
    manager.AttachStore(store->get());
    const Result<TuningSession*> cancelled = manager.Register(ColdJob("c"));
    ST_CHECK_OK(cancelled.status());
    (*cancelled)->RequestCancel();
    EXPECT_EQ((*cancelled)->RunJob().code(), StatusCode::kCancelled);
    TuningSession failed(1000, FailingJob("f"), store->get());
    EXPECT_EQ(failed.RunJob().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(failed.phase(), SessionPhase::kFailed);
  }
  Result<store::RecoveredState> state = store::ReadStateDir(dir);
  ST_CHECK_OK(state.status());
  std::map<std::string, std::string> first;
  for (int cycle = 0; cycle < 3; ++cycle) {
    SessionManager manager;
    const Result<RestoreReport> report =
        manager.RestoreFromState(*state, nullptr, /*skip_existing=*/false);
    ST_CHECK_OK(report.status());
    ASSERT_EQ(report->sessions_restored, 2u);
    for (const char* name : {"c", "f"}) {
      const std::string dump = manager.Find(name)->DurableState().Dump();
      if (cycle == 0) first[name] = dump;
      EXPECT_EQ(dump, first[name]) << "cycle " << cycle;
    }
    EXPECT_EQ(manager.Find("c")->last_status().ToString(),
              "Cancelled: cancelled before start");
    EXPECT_EQ(manager.Find("f")->last_status().ToString(),
              "InvalidArgument: ScenarioSpec: num_slices must be > 0");
    *state = store::RecoveredState();
    state->snapshot = manager.DurableSnapshot();
  }
}

// The live session and the fold of its own log agree: for each way a job
// can end, and across a checkpoint taken mid-job, DurableState() at rest
// equals ToJson of the session's snapshot entry advanced by Apply over its
// journal tail.
TEST(StoreRecoveryTest, LiveSessionEqualsFoldOfItsLog) {
  const std::string dir = FreshDir("live_equals_fold");
  std::map<std::string, std::string> live;
  {
    Result<std::unique_ptr<store::DurableStore>> store =
        store::DurableStore::Open(dir);
    ST_CHECK_OK(store.status());
    SessionManager manager;
    manager.AttachStore(store->get());
    MustRegisterAndRun(&manager, ColdJob("cold"));
    MustRegisterAndRun(&manager, ColdJob("append"));
    MustRegisterAndRun(&manager, AppendJob("append"));
    const Result<TuningSession*> early = manager.Register(ColdJob("early"));
    ST_CHECK_OK(early.status());
    (*early)->RequestCancel();
    EXPECT_EQ((*early)->RunJob().code(), StatusCode::kCancelled);
    const Result<TuningSession*> mid = manager.Register(LongJob("mid"));
    ST_CHECK_OK(mid.status());
    RunWithMidJobHook(*mid, [&] { (*mid)->RequestCancel(); });
    EXPECT_EQ((*mid)->phase(), SessionPhase::kCancelled);
    TuningSession failed(1000, FailingJob("failed"), store->get());
    EXPECT_EQ(failed.RunJob().code(), StatusCode::kInvalidArgument);
    const Result<TuningSession*> checkpointed =
        manager.Register(LongJob("checkpointed"));
    ST_CHECK_OK(checkpointed.status());
    RunWithMidJobHook(*checkpointed, [&] {
      EXPECT_FALSE((*checkpointed)->Terminal());
      ST_CHECK_OK((*store)->WriteSnapshot(manager.DurableSnapshot()));
    });
    EXPECT_EQ((*checkpointed)->phase(), SessionPhase::kDone);
    for (const char* name :
         {"cold", "append", "early", "mid", "checkpointed"}) {
      live[name] = DumpWithoutResting(manager.Find(name)->DurableState());
    }
    live["failed"] = DumpWithoutResting(failed.DurableState());
  }

  const Result<store::RecoveredState> state = store::ReadStateDir(dir);
  ST_CHECK_OK(state.status());
  for (const auto& [name, expected] : live) {
    SessionRecord folded;
    for (const json::Value& entry : state->snapshot.Find("sessions")->items()) {
      if (entry.GetString("name") != name) continue;
      Result<SessionRecord> parsed = SessionRecord::FromJson(entry);
      ST_CHECK_OK(parsed.status());
      folded = std::move(parsed).value();
    }
    const long long covered = static_cast<long long>(folded.seq);
    for (const json::Value& record : state->tail) {
      if (record.GetString("session") != name ||
          record.GetInt("seq") < covered) {
        continue;
      }
      ST_CHECK_OK(Apply(&folded, record));
    }
    folded.resting = nullptr;
    EXPECT_EQ(folded.ToJson().Dump(), expected) << name;
  }
}

// Renumbers one session's records 0, 1, 2, ... so only the mutation under
// test, not a seq mismatch, breaks the log.
std::vector<json::Value> Renumbered(std::vector<json::Value> records) {
  for (size_t i = 0; i < records.size(); ++i) {
    records[i].Set("seq", static_cast<long long>(i));
  }
  return records;
}

// Mutated journals never restore a divergent session: the first record
// that breaks the session automaton is named (session, seq, event), the
// session does not restore, and a clean session beside it still does.
TEST(StoreRecoveryTest, MutatedJournalsAreNamedAndNeverRestoreDiverged) {
  const std::string dir = FreshDir("mutated");
  {
    Result<std::unique_ptr<store::DurableStore>> store =
        store::DurableStore::Open(dir);
    ST_CHECK_OK(store.status());
    SessionManager manager;
    manager.AttachStore(store->get());
    JobSpec two_rounds = ColdJob("m");
    two_rounds.rounds = 2;
    two_rounds.budget = 80.0;
    MustRegisterAndRun(&manager, two_rounds);
    MustRegisterAndRun(&manager, AppendJob("m"));
    MustRegisterAndRun(&manager, ColdJob("clean"));
  }
  const Result<store::RecoveredState> recovered = store::ReadStateDir(dir);
  ST_CHECK_OK(recovered.status());
  std::vector<json::Value> log;
  std::vector<json::Value> clean;
  for (const json::Value& record : recovered->tail) {
    (record.GetString("session") == "m" ? log : clean).push_back(record);
  }
  const auto index_of = [&log](const char* event, size_t from = 0) {
    for (size_t i = from; i < log.size(); ++i) {
      if (log[i].GetString("event") == event) return i;
    }
    ADD_FAILURE() << "no " << event << " record";
    return size_t{0};
  };
  const size_t world = index_of("world");
  const size_t acquire = index_of("acquire");
  const size_t finish = index_of("finish");
  // Two adjacent acquires of different rounds.
  size_t boundary = acquire;
  while (boundary + 1 < log.size() &&
         !(log[boundary + 1].GetString("event") == "acquire" &&
           log[boundary + 1].GetInt("round") > log[boundary].GetInt("round"))) {
    ++boundary;
  }
  ASSERT_LT(boundary + 1, log.size());

  struct Mutation {
    const char* what;
    std::vector<json::Value> records;
    size_t bad;  // index of the first record that must be rejected
    const char* reason;
  };
  std::vector<Mutation> mutations;
  const auto erase = [&log](size_t i) {
    std::vector<json::Value> out = log;
    out.erase(out.begin() + static_cast<long>(i));
    return out;
  };
  std::vector<json::Value> swapped = log;
  std::swap(swapped[boundary], swapped[boundary + 1]);
  std::vector<json::Value> duplicated = log;
  duplicated.insert(duplicated.begin() + static_cast<long>(finish) + 1,
                    log[finish]);
  std::vector<json::Value> early = log;
  early.insert(early.begin(), log[acquire]);
  early.erase(early.begin() + static_cast<long>(acquire) + 1);
  std::vector<json::Value> unknown = log;
  unknown[world].Set("event", "teleport");
  mutations.push_back({"dropped world", erase(world), world, "gap"});
  mutations.push_back({"swapped acquires", swapped, boundary, "gap"});
  mutations.push_back(
      {"duplicated finish", duplicated, finish + 1, "duplicate"});
  mutations.push_back({"seq gap", erase(acquire), acquire, "gap"});
  mutations.push_back({"acquire before create", early, 0, "no create record"});
  mutations.push_back({"unknown event", unknown, world, "unknown event"});
  // The same mutations with consecutive seqs reach the automaton's other
  // rules.
  mutations.push_back({"dropped world, renumbered",
                       Renumbered(erase(world)), world, "no data world"});
  mutations.push_back({"swapped acquires, renumbered", Renumbered(swapped),
                       boundary + 1, "round below the previous"});
  mutations.push_back({"duplicated finish, renumbered",
                       Renumbered(duplicated), finish + 1, "no open job"});

  for (const Mutation& mutation : mutations) {
    SCOPED_TRACE(mutation.what);
    SessionRecord folded;
    Status status;
    size_t i = 0;
    for (; i < mutation.records.size(); ++i) {
      status = Apply(&folded, mutation.records[i]);
      if (!status.ok()) break;
    }
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(i, mutation.bad);
    const json::Value& bad = mutation.records[mutation.bad];
    const std::string named =
        StrFormat("session 'm' seq %lld event '%s'", bad.GetInt("seq"),
                  bad.GetString("event").c_str());
    EXPECT_NE(status.message().find(named), std::string::npos) << status;
    EXPECT_NE(status.message().find(mutation.reason), std::string::npos)
        << status;

    store::RecoveredState state;
    state.tail = mutation.records;
    state.tail.insert(state.tail.end(), clean.begin(), clean.end());
    SessionManager manager;
    const Result<RestoreReport> report =
        manager.RestoreFromState(state, nullptr, /*skip_existing=*/false);
    ST_CHECK_OK(report.status());
    EXPECT_EQ(report->sessions_restored, 1u);
    EXPECT_EQ(manager.Find("m"), nullptr);
    ASSERT_NE(manager.Find("clean"), nullptr);
    EXPECT_EQ(manager.Find("clean")->phase(), SessionPhase::kDone);
  }
}

}  // namespace
}  // namespace serve
}  // namespace slicetuner
