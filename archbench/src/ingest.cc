// Workload `ingest`: two writer threads commit small durable transactions
// through the Transaction API, with no reads. Each transaction is one
// employee event of 1-4 row changes on the thread's own employees. The
// clock advances one day per fixed number of commits (both writers meet at
// a barrier; its completion advances the clock), with recurring
// auto-checkpoints and segment freezes. Every commit is written to the WAL
// before it is acknowledged but not fsynced (the traced mode measures the
// fsync on its own, see FsyncProbe). After the timed phase the archive is
// closed, reopened (timed: replay over a long WAL and checkpoint chain)
// and probed with the six Table-3 queries.
#include <barrier>
#include <thread>

#include "common.h"

namespace archbench {

namespace {

constexpr int kEmployees = 120;        // the paper's population
constexpr uint64_t kCheckpointAfterBytes = 256ull << 10;
constexpr int kSetups = 9;
constexpr int kWriters = 2;
constexpr int kOwnKeysPerWriter = 64;
constexpr int kCommitsPerDay = 20;     // per writer
constexpr double kDaysPerSecond = 80;
constexpr int kProbeRounds = 20;

}  // namespace

RunResult RunIngest(const Args& args) {
  RunResult res;
  SpanRecorder rec(args.trace);
  ArchiveSpec spec;
  spec.employees = kEmployees;
  spec.checkpoint_after_bytes = kCheckpointAfterBytes;
  spec.own_keys = kWriters * kOwnKeysPerWriter;
  double setup_s = 0;
  auto built = BuildArchive(args, spec, kSetups, &setup_s);
  if (!built.ok()) {
    res.Fail("setup: " + built.status().ToString());
    return res;
  }
  Archive a = std::move(*built);
  ArchIS* db = a.db.get();

  const int days = RoundsFor(args, kDaysPerSecond);
  std::vector<OwnKeys> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back(spec, w * kOwnKeysPerWriter, kOwnKeysPerWriter,
                         100000 + 10000000 * static_cast<int64_t>(w),
                         SeededRng(args.seed, 50 + w), a.own_insert_day);
  }
  Date day = a.main_start;
  bool clock_ok = true;
  std::barrier sync(kWriters, [&]() noexcept {
    day = day.AddDays(1);
    clock_ok = clock_ok && db->AdvanceClock(day).ok();
  });
  std::vector<std::vector<double>> commit_ms(kWriters);
  std::vector<OpCount> ops(kWriters);
  std::vector<std::string> errors(kWriters);

  auto run_writer = [&](int w) {
    OwnKeys& keys = writers[static_cast<size_t>(w)];
    for (int d = 0; d < days; ++d) {
      for (int i = 0; i < kCommitsPerDay; ++i) {
        const TxnPlan plan = keys.Next();
        ++ops[w].attempted;
        const uint64_t req = rec.NextRequest();
        ScopedSpan op(&rec, "op.commit", -1, req);
        archis::Result<archis::core::Transaction> txn = [&] {
          ScopedSpan s(&rec, "txn.begin", op.index(), req);
          return db->Begin();
        }();
        archis::Status st = txn.ok() ? archis::Status::OK() : txn.status();
        for (const auto& [id, title] : plan) {
          if (!st.ok()) break;
          ScopedSpan s(&rec, "txn.update", op.index(), req);
          st = txn->Update("employees", {archis::minirel::Value(id)},
                           OwnRow(spec, id, title));
        }
        if (st.ok()) {
          ScopedSpan s(&rec, "txn.commit", op.index(), req);
          const auto c0 = Clock::now();
          st = txn->Commit();
          commit_ms[w].push_back(Secs(c0, Clock::now()) * 1e3);
        }
        if (!st.ok()) {
          ++ops[w].failed;
          if (errors[w].empty()) errors[w] = st.ToString();
          continue;
        }
        keys.Ack(plan, day);
      }
      sync.arrive_and_wait();
    }
  };

  LayerWindows windows;
  windows.timed.Begin();
  const double cpu0 = ProcessCpuSeconds();
  const auto t0 = Clock::now();
  {
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) threads.emplace_back(run_writer, w);
    for (std::thread& t : threads) t.join();
  }
  const double wall = Secs(t0, Clock::now());
  const double cpu = ProcessCpuSeconds() - cpu0;
  const double peak_rss = PeakRssMb();
  windows.timed.End();
  if (!clock_ok) res.Fail("advancing the clock failed");

  std::vector<double> all_commits;
  OpCount& cops = res.ops["commit"];
  for (int w = 0; w < kWriters; ++w) {
    cops.attempted += ops[w].attempted;
    cops.failed += ops[w].failed;
    if (!errors[w].empty()) {
      res.problems.push_back("commit failed: " + errors[w]);
    }
    all_commits.insert(all_commits.end(), commit_ms[w].begin(),
                       commit_ms[w].end());
  }

  std::vector<const OwnKeys*> wp;
  for (const OwnKeys& w : writers) wp.push_back(&w);
  const auto rw = ReadOwnTitles(db, wp);  // read-your-writes, before close
  uint64_t hdoc_bytes = 0;
  std::string docs_before, docs_after;
  if (!PublishAll(*db, &hdoc_bytes, &docs_before).ok()) res.Fail("publish");
  const double storage_ratio =
      static_cast<double>(db->HistoryStorageBytes()) /
      static_cast<double>(hdoc_bytes);
  res.report.push_back("sizes: hdoc_bytes=" + std::to_string(hdoc_bytes) +
                       " history_storage_bytes=" +
                       std::to_string(db->HistoryStorageBytes()));

  // -- Clean close, timed reopen, durability of every acknowledged commit. --
  auto recovery = CloseAndReopen(&a);
  if (!recovery.ok()) {
    res.Fail("reopen: " + recovery.status().ToString());
    return res;
  }
  db = a.db.get();
  // The last day's clock advance has no commit after it and is not
  // durable, so the reopened clock can be a day behind `day`; query dates
  // stay within the clock the archive reopened with.
  const Date reopened_now = db->Now();
  auto oracle = PublishAll(*db, &hdoc_bytes, &docs_after);
  if (!oracle.ok()) {
    res.Fail("publish after reopen: " + oracle.status().ToString());
    return res;
  }
  if (docs_after != docs_before) {
    res.Fail("durability: the reopened archive differs from the closed one");
  }
  CheckOwnKeys(wp, rw, *oracle, &res);

  // -- Table-3 queries over the ingested archive; Q1/Q3 probe own keys. --
  std::vector<int64_t> own;
  for (const OwnKeys& w : writers) {
    own.insert(own.end(), w.ids().begin(), w.ids().end());
  }
  LayerCounts counts;
  ClassLatencies lat;
  std::vector<PendingAnswer> answers;
  std::mt19937_64 prng = SeededRng(args.seed, 60);
  windows.probe.Begin();
  Table3Rounds(db, own, a.history_first, a.main_start, reopened_now, prng,
               kProbeRounds, &rec, &counts, &lat, &answers,
               &res.ops["probe_query"], &res);
  windows.probe.End();
  CheckAnswers(*oracle, answers, "probe", &res);

  const double n = static_cast<double>(cops.attempted);
  if (all_commits.size() > 1000) {
    res.report.push_back("commit_p99_ms=" +
                         std::to_string(Percentile(all_commits, 0.99)) +
                         " over " + std::to_string(all_commits.size()) +
                         " commits");
  }
  if (!args.trace) {
    res.AddMetric("setup_s", setup_s, "s");
    res.AddMetric("ops_s", n / wall, "1/s");
    res.AddMetric("cpu_ms_per_op", cpu * 1e3 / n, "ms");
    for (int k = 0; k < kNumClasses; ++k) {
      res.AddMetric(std::string(ClassName(static_cast<QClass>(k))) + "_p50_ms",
                    Median(lat.ms[k]), "ms");
    }
    res.AddMetric("commit_p50_ms", Median(all_commits), "ms");
    res.AddMetric("recovery_s", *recovery, "s");
    res.AddMetric("storage_bytes_per_hdoc_byte", storage_ratio, "ratio");
    res.AddMetric("peak_rss_mb", peak_rss, "MiB");
    return res;
  }

  std::vector<std::string> texts;
  for (int i = 0; i < 100; ++i) {
    QueryParams p =
        DrawParams(prng, own, a.history_first, a.main_start, reopened_now);
    texts.push_back(QueryText(i % 2 ? QClass::kQ3 : QClass::kQ1, p));
  }
  PublishProbe(db, kPublishProbeCalls, &rec, &res);
  MetricsWindow server;
  ServerProbe(db, 200, texts, &rec, &server, &res);
  windows.server = &server;
  const uint64_t replayed = db->last_recovery_replayed_bytes();
  FsyncProbe(args, &a, spec, kFsyncProbeCommits, &rec, &windows.fsync, &res);
  AddLayerMetrics(args, rec, counts, windows, replayed, n / wall, &res);
  // How a commit's time splits: the DML calls validate and buffer; Commit()
  // holds WAL append + group sync (fsync off here) + apply/archive + inline
  // checkpoints.
  const double op_mean = Mean(rec.Durations("op.commit"));
  const double begin = Mean(rec.Durations("txn.begin"));
  const std::vector<double> updates = rec.Durations("txn.update");
  const double upd =
      Mean(updates) * static_cast<double>(updates.size()) / n;
  const double commit = Mean(rec.Durations("txn.commit"));
  const MetricsWindow& t = windows.timed;
  const double sync_per_commit =
      t.HistogramMean("archis_wal_fsync_seconds") * 1e3 *
      t.Delta("archis_wal_syncs_total") /
      std::max(1.0, t.Delta("archis_wal_commits_total"));
  const double ckpt_per_commit =
      t.Delta("archis_checkpoint_seconds_sum") * 1e3 / n;
  res.report.push_back(
      "breakdown op.commit mean_ms=" + std::to_string(op_mean) +
      " = txn.begin:" + std::to_string(begin) + " txn.update(all):" +
      std::to_string(upd) + " txn.commit:" + std::to_string(commit) +
      " + unattributed:" + std::to_string(op_mean - begin - upd - commit));
  res.report.push_back(
      "breakdown txn.commit mean_ms=" + std::to_string(commit) +
      " = WAL sync share (fsync off):" + std::to_string(sync_per_commit) +
      " + inline checkpoint share:" + std::to_string(ckpt_per_commit) +
      " + unattributed(validate, WAL append, apply/archive, freeze, group "
      "wait):" +
      std::to_string(commit - sync_per_commit - ckpt_per_commit));
  return res;
}

}  // namespace archbench
