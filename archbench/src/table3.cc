// Workload `table3`: the paper's six Table-3 XQuery texts through
// ArchIS::Query from one in-process closed-loop client, interleaved
// round-robin with seeded parameters, each answer serialized as archisd
// would send it, with one daily-update transaction (the paper's Section
// 8.4 update cost) after each round; then a reopen.
#include <cstring>

#include "common.h"

namespace archbench {

namespace {

constexpr int kEmployees = 120;       // the paper's population
constexpr int kSetups = 15;           // set-up repetitions (median reported)
constexpr double kRoundsPerSecond = 10;  // rounds of six per --seconds
constexpr int kOwnKeys = 16;

}  // namespace

RunResult RunTable3(const Args& args) {
  RunResult res;
  SpanRecorder rec(args.trace);
  ArchiveSpec spec;
  spec.employees = kEmployees;
  spec.own_keys = kOwnKeys;
  // The daily updates cross this a few times: checkpoints recur here too.
  spec.checkpoint_after_bytes = 4 << 10;
  double setup_s = 0;
  auto built = BuildArchive(args, spec, kSetups, &setup_s);
  if (!built.ok()) {
    res.Fail("setup: " + built.status().ToString());
    return res;
  }
  Archive a = std::move(*built);
  const std::vector<int64_t> ids = a.wl->employee_ids();

  // -- Timed phase: interleaved rounds of the six queries, each round
  // followed by one day's update transaction on own keys (the paper's
  // Section 8.4 daily update), so the archive takes updates while it
  // answers queries and the commits are sampled across the whole run. --
  std::mt19937_64 rng = SeededRng(args.seed, 1);
  const int rounds = RoundsFor(args, kRoundsPerSecond);
  OwnKeys writer(spec, 0, kOwnKeys, 100000, SeededRng(args.seed, 2),
                 a.own_insert_day);
  LayerCounts counts;
  ClassLatencies lat;
  std::vector<PendingAnswer> answers;
  std::vector<double> commit_ms;
  OpCount& qops = res.ops["query"];
  OpCount& cops = res.ops["commit"];
  Date day = a.main_start;
  LayerWindows windows;
  windows.timed.Begin();
  const double cpu0 = ProcessCpuSeconds();
  const auto t0 = Clock::now();
  for (int r = 0; r < rounds; ++r) {
    Table3Rounds(a.db.get(), ids, a.history_first,
                 a.history_first.AddDays(365), a.history_last, rng, 1, &rec,
                 &counts, &lat, &answers, &qops, &res);
    day = day.AddDays(1);
    const TxnPlan plan = writer.Next();
    ++cops.attempted;
    bool ok = a.db->AdvanceClock(day).ok();
    auto txn = a.db->Begin();
    ok = ok && txn.ok();
    for (const auto& [id, title] : plan) {
      ok = ok && txn->Update("employees", {archis::minirel::Value(id)},
                             OwnRow(spec, id, title))
                     .ok();
    }
    const auto c0 = Clock::now();
    ok = ok && txn->Commit().ok();
    if (!ok) {
      ++cops.failed;
      continue;
    }
    commit_ms.push_back(Secs(c0, Clock::now()) * 1e3);
    writer.Ack(plan, day);
  }
  const double wall = Secs(t0, Clock::now());
  const double cpu = ProcessCpuSeconds() - cpu0;
  const double peak_rss = PeakRssMb();
  windows.timed.End();

  // -- Space and the oracle over the state the queries saw (the updates
  // touch only own keys' titles, which no Table-3 query reads). --
  uint64_t hdoc_bytes = 0;
  auto oracle = PublishAll(*a.db, &hdoc_bytes, nullptr);
  if (!oracle.ok()) {
    res.Fail("publish: " + oracle.status().ToString());
    return res;
  }
  const double storage_ratio =
      static_cast<double>(a.db->HistoryStorageBytes()) /
      static_cast<double>(hdoc_bytes);
  res.report.push_back("sizes: hdoc_bytes=" + std::to_string(hdoc_bytes) +
                       " history_storage_bytes=" +
                       std::to_string(a.db->HistoryStorageBytes()));
  CheckAnswers(*oracle, answers, "table3", &res);

  const auto rw = ReadOwnTitles(a.db.get(), {&writer});

  // -- Clean close, timed reopen, durability. --
  std::string docs_before, docs_after;
  (void)PublishAll(*a.db, &hdoc_bytes, &docs_before);
  auto recovery = CloseAndReopen(&a);
  if (!recovery.ok()) {
    res.Fail("reopen: " + recovery.status().ToString());
    return res;
  }
  auto reopened = PublishAll(*a.db, &hdoc_bytes, &docs_after);
  if (!reopened.ok() || docs_after != docs_before) {
    res.Fail("durability: the reopened archive differs from the closed one");
  } else {
    CheckOwnKeys({&writer}, rw, *reopened, &res);
  }

  const double ops = static_cast<double>(qops.attempted);
  if (!args.trace) {
    res.AddMetric("setup_s", setup_s, "s");
    res.AddMetric("ops_s", ops / wall, "1/s");
    res.AddMetric("cpu_ms_per_op", cpu * 1e3 / ops, "ms");
    for (int k = 0; k < kNumClasses; ++k) {
      res.AddMetric(std::string(ClassName(static_cast<QClass>(k))) + "_p50_ms",
                    Median(lat.ms[k]), "ms");
    }
    res.AddMetric("commit_p50_ms", Median(commit_ms), "ms");
    res.AddMetric("recovery_s", *recovery, "s");
    res.AddMetric("storage_bytes_per_hdoc_byte", storage_ratio, "ratio");
    res.AddMetric("peak_rss_mb", peak_rss, "MiB");
    return res;
  }

  // -- Traced extras: the publisher alone, the server layer and the WAL
  // fsync over this archive. --
  PublishProbe(a.db.get(), kPublishProbeCalls, &rec, &res);
  std::vector<std::string> texts;
  std::mt19937_64 prng = SeededRng(args.seed, 3);
  for (int i = 0; i < 100; ++i) {
    const QueryParams p =
        DrawParams(prng, ids, a.history_first, a.history_first.AddDays(365),
                   a.history_last);
    texts.push_back(QueryText(i % 2 ? QClass::kQ3 : QClass::kQ1, p));
  }
  MetricsWindow server;
  ServerProbe(a.db.get(), 200, texts, &rec, &server, &res);
  windows.server = &server;
  const uint64_t replayed = a.db->last_recovery_replayed_bytes();
  FsyncProbe(args, &a, spec, kFsyncProbeCommits, &rec, &windows.fsync, &res);
  AddLayerMetrics(args, rec, counts, windows, replayed, ops / wall, &res);

  // How the per-layer times add up to each class's time.
  for (int k = 0; k < kNumClasses; ++k) {
    const char* op = OpSpanName(static_cast<QClass>(k));
    double total = 0, children = 0;
    std::map<std::string, double> by_name;
    size_t n = 0;
    for (size_t i = 0; i < rec.spans().size(); ++i) {
      const Span& s = rec.spans()[i];
      if (std::strcmp(s.name, op) != 0) continue;
      ++n;
      total += s.ms();
      for (size_t j = i + 1; j < rec.spans().size() && j < i + 8; ++j) {
        const Span& ch = rec.spans()[j];
        if (ch.parent != static_cast<int64_t>(i)) continue;
        by_name[ch.name] += ch.ms();
        children += ch.ms();
      }
    }
    if (n == 0) continue;
    std::string line = std::string("breakdown ") + op + " mean_ms=" +
                       std::to_string(total / static_cast<double>(n)) + " =";
    for (const auto& [name, ms] : by_name) {
      line += " " + name + ":" + std::to_string(ms / static_cast<double>(n));
    }
    line += " + unattributed(result wrapping, metrics, clock reads):" +
            std::to_string((total - children) / static_cast<double>(n));
    res.report.push_back(line);
  }
  return res;
}

}  // namespace archbench
