// Workload `archisd_mixed`: an in-process ArchisServer with its production
// defaults over loopback, driven by two closed-loop ArchisClient
// connections. Each sends a fixed, seeded mix of 80% Q1/Q3 texts (Zipf-
// skewed employee ids, uniform dates) and 20% small update batches, each
// one transaction on the connection's own keys; 80/20 is the query/update
// mix of the repository's bench/bench_server.cc. The archive is
// BlockZIP-compressed and durable at rest (a WAL written on every commit
// but not fsynced, recurring auto-checkpoints); it fits its block cache
// (see README, *Known faults*).
//
// Both connections work in lock-step "days": when both have finished a
// day's operations, the clock moves forward one day from one place (the
// barrier's completion, while no request is in flight), so every commit's
// day is known exactly.
#include <barrier>
#include <thread>

#include "common.h"
#include "server/client.h"
#include "server/server.h"
#include "xml/parser.h"

namespace archbench {

namespace {

constexpr int kEmployees = 240;        // 2x the paper's population
constexpr uint64_t kBlockCacheBytes = 8ull << 10;  // per store
constexpr uint64_t kCheckpointAfterBytes = 96ull << 10;
constexpr int kSetups = 15;
constexpr int kConnections = 2;
constexpr int kOwnKeysPerConn = 32;
constexpr int kReadsPerDay = 8;        // per connection: half Q1, half Q3
constexpr int kBatchesPerDay = 2;      // per connection (80/20)
constexpr double kDaysPerSecond = 400;
constexpr double kZipfS = 0.99;        // YCSB's default skew (see README)
constexpr int kProbeRounds = 24;       // Table-3 rounds after recovery

/// One read of the timed phase, kept for the oracle check. The answer
/// body lives in the connection's `bodies` buffer at [offset, offset+size),
/// so keeping every answer costs little more than its bytes.
struct Request {
  QClass c;
  int64_t id;
  Date date;
  uint32_t size;
  uint64_t offset;
};

}  // namespace

RunResult RunArchisdMixed(const Args& args) {
  RunResult res;
  SpanRecorder rec(args.trace);
  ArchiveSpec spec;
  spec.employees = kEmployees;
  spec.compress = true;
  spec.block_cache_bytes = kBlockCacheBytes;
  spec.checkpoint_after_bytes = kCheckpointAfterBytes;
  spec.freeze_all = true;
  spec.own_keys = kConnections * kOwnKeysPerConn;
  double setup_s = 0;
  auto built = BuildArchive(args, spec, kSetups, &setup_s);
  if (!built.ok()) {
    res.Fail("setup: " + built.status().ToString());
    return res;
  }
  Archive a = std::move(*built);
  ArchIS* db = a.db.get();

  // Zipf over a seeded permutation of the generated employees.
  std::vector<int64_t> ids = a.wl->employee_ids();
  {
    std::mt19937_64 perm = SeededRng(args.seed, 10);
    std::shuffle(ids.begin(), ids.end(), perm);
  }
  const Zipf zipf(ids.size(), kZipfS);

  auto server = archis::server::ArchisServer::Start(db, {});
  if (!server.ok()) {
    res.Fail("server start: " + server.status().ToString());
    return res;
  }
  const int port = (*server)->port();

  const int days = RoundsFor(args, kDaysPerSecond);
  std::vector<OwnKeys> writers;
  for (int c = 0; c < kConnections; ++c) {
    writers.emplace_back(spec, c * kOwnKeysPerConn, kOwnKeysPerConn,
                         100000 + 10000000 * static_cast<int64_t>(c),
                         SeededRng(args.seed, 20 + c), a.own_insert_day);
  }
  Date day = a.main_start;
  bool clock_ok = true;
  std::barrier sync(kConnections, [&]() noexcept {
    day = day.AddDays(1);
    clock_ok = clock_ok && db->AdvanceClock(day).ok();
  });

  struct ConnState {
    std::vector<Request> reads;
    std::string bodies;
    std::vector<double> ms[kNumClasses];
    std::vector<double> commit_ms;
    OpCount reads_ops, commit_ops;
    std::string first_error;
  };
  std::vector<ConnState> conns(kConnections);

  auto run_conn = [&](int c) {
    ConnState& st = conns[static_cast<size_t>(c)];
    archis::server::ClientOptions copts;
    copts.port = port;
    copts.reconnect = false;  // a failure is counted, never retried away
    archis::server::ArchisClient client(copts);
    std::mt19937_64 rng = SeededRng(args.seed, 30 + c);
    OwnKeys& w = writers[static_cast<size_t>(c)];
    for (int d = 0; d < days; ++d) {
      // The day's operations, in a seeded order: reads are 0..R-1 (even
      // = Q1, odd = Q3), batches are R..R+B-1.
      std::vector<int> order(kReadsPerDay + kBatchesPerDay);
      for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
      std::shuffle(order.begin(), order.end(), rng);
      for (int op : order) {
        if (op < kReadsPerDay) {
          const QClass qc = op % 2 == 0 ? QClass::kQ1 : QClass::kQ3;
          QueryParams p;
          p.id = ids[zipf.Next(rng)];
          p.date = a.history_first.AddDays(
              UniformInt(rng, 365, a.history_last - a.history_first));
          const std::string text = QueryText(qc, p);
          ++st.reads_ops.attempted;
          const auto t0 = Clock::now();
          archis::Result<std::string> r = [&] {
            ScopedSpan s(&rec, "client.request", -1, rec.NextRequest());
            return client.Query(text);
          }();
          const double ms = Secs(t0, Clock::now()) * 1e3;
          if (!r.ok()) {
            ++st.reads_ops.failed;
            if (st.first_error.empty()) st.first_error = r.status().ToString();
            continue;
          }
          st.ms[static_cast<int>(qc)].push_back(ms);
          st.reads.push_back(Request{qc, p.id, p.date,
                                     static_cast<uint32_t>(r->size()),
                                     st.bodies.size()});
          st.bodies += *r;
        } else {
          const TxnPlan plan = w.Next();
          std::string script;
          for (const auto& [id, title] : plan) {
            script += OwnUpdateLine(spec, id, title);
          }
          ++st.commit_ops.attempted;
          const auto t0 = Clock::now();
          archis::Result<std::string> r = [&] {
            ScopedSpan s(&rec, "client.request", -1, rec.NextRequest());
            return client.UpdateBatch(script);
          }();
          const double ms = Secs(t0, Clock::now()) * 1e3;
          if (!r.ok()) {
            ++st.commit_ops.failed;
            if (st.first_error.empty()) st.first_error = r.status().ToString();
            continue;
          }
          st.commit_ms.push_back(ms);
          w.Ack(plan, day);
        }
      }
      sync.arrive_and_wait();
    }
    client.Close();
  };

  LayerWindows windows;
  windows.timed.Begin();
  const double cpu0 = ProcessCpuSeconds();
  const auto t0 = Clock::now();
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c) threads.emplace_back(run_conn, c);
    for (std::thread& t : threads) t.join();
  }
  const double wall = Secs(t0, Clock::now());
  const double cpu = ProcessCpuSeconds() - cpu0;
  const double peak_rss = PeakRssMb();
  windows.timed.End();
  windows.server = &windows.timed;
  if (!clock_ok) res.Fail("advancing the clock failed");

  // Read-your-writes over the wire, before the server stops.
  std::map<int64_t, std::vector<Version>> rw;
  {
    archis::server::ClientOptions copts;
    copts.port = port;
    archis::server::ArchisClient client(copts);
    for (const OwnKeys& w : writers) {
      for (int64_t id : w.ids()) {
        auto body = client.Query(TitleHistoryText(id));
        if (!body.ok()) continue;
        auto doc = archis::xml::ParseDocument(*body);
        if (!doc.ok()) continue;
        auto versions = ReadVersions(*doc, "title");
        if (versions.ok()) rw[id] = *versions;
      }
    }
  }
  if (!(*server)->Stop().ok()) res.Fail("server stop");
  server->reset();

  uint64_t hdoc_bytes = 0;
  std::string docs_before, docs_after;
  if (!PublishAll(*db, &hdoc_bytes, &docs_before).ok()) res.Fail("publish");
  const double storage_ratio =
      static_cast<double>(db->HistoryStorageBytes()) /
      static_cast<double>(hdoc_bytes);
  res.report.push_back("sizes: hdoc_bytes=" + std::to_string(hdoc_bytes) +
                       " history_storage_bytes=" +
                       std::to_string(db->HistoryStorageBytes()));

  // -- Clean close, timed reopen, durability. --
  auto recovery = CloseAndReopen(&a);
  if (!recovery.ok()) {
    res.Fail("reopen: " + recovery.status().ToString());
    return res;
  }
  db = a.db.get();
  auto oracle = PublishAll(*db, &hdoc_bytes, &docs_after);
  if (!oracle.ok()) {
    res.Fail("publish after reopen: " + oracle.status().ToString());
    return res;
  }
  if (docs_after != docs_before) {
    res.Fail("durability: the reopened archive differs from the closed one");
  }
  std::vector<const OwnKeys*> wp;
  for (const OwnKeys& w : writers) wp.push_back(&w);
  CheckOwnKeys(wp, rw, *oracle, &res);

  // -- Every read of the timed phase against the oracle. The generated
  // employees are never written, so their history is fixed. --
  std::vector<double> ms[kNumClasses];
  std::vector<double> commit_ms;
  for (ConnState& st : conns) {
    OpCount& r = res.ops["read"];
    r.attempted += st.reads_ops.attempted;
    r.failed += st.reads_ops.failed;
    OpCount& u = res.ops["update_batch"];
    u.attempted += st.commit_ops.attempted;
    u.failed += st.commit_ops.failed;
    if (!st.first_error.empty() && res.problems.size() < 20) {
      res.problems.push_back("request failed: " + st.first_error);
    }
    for (int k = 0; k < kNumClasses; ++k) {
      ms[k].insert(ms[k].end(), st.ms[k].begin(), st.ms[k].end());
    }
    commit_ms.insert(commit_ms.end(), st.commit_ms.begin(), st.commit_ms.end());
    for (const Request& q : st.reads) {
      auto doc = archis::xml::ParseDocument(
          std::string_view(st.bodies).substr(q.offset, q.size));
      std::string why;
      archis::Result<Answer> got =
          doc.ok() ? FromResult(q.c, *doc)
                   : archis::Result<Answer>(doc.status());
      if (!got.ok()) {
        res.Fail(std::string("read ") + ClassName(q.c) + ": " +
                 got.status().ToString());
      } else if (QueryParams p{q.id, q.date, {}, {}};
                 !SameAnswer(Expected(*oracle, q.c, p), *got, &why)) {
        res.Fail(std::string("read ") + ClassName(q.c) + " (" +
                 QueryText(q.c, p) + "): " + why);
      }
    }
  }

  // -- The other Table-3 classes on the recovered compressed archive. --
  LayerCounts counts;
  ClassLatencies probe_lat;
  std::vector<PendingAnswer> answers;
  std::mt19937_64 prng = SeededRng(args.seed, 40);
  windows.probe.Begin();
  Table3Rounds(db, ids, a.history_first, a.history_first.AddDays(365),
               a.history_last, prng, kProbeRounds,
               &rec, &counts, &probe_lat, &answers, &res.ops["probe_query"],
               &res);
  windows.probe.End();
  CheckAnswers(*oracle, answers, "probe", &res);

  const double ops = static_cast<double>(res.ops["read"].attempted +
                                         res.ops["update_batch"].attempted);
  // Tails, where more than 1,000 samples stand behind them (report only).
  std::vector<double> reads = ms[0];
  reads.insert(reads.end(), ms[2].begin(), ms[2].end());
  if (reads.size() > 1000) {
    res.report.push_back("read_p99_ms=" +
                         std::to_string(Percentile(reads, 0.99)) + " over " +
                         std::to_string(reads.size()) + " reads");
  }
  if (commit_ms.size() > 1000) {
    res.report.push_back("commit_p99_ms=" +
                         std::to_string(Percentile(commit_ms, 0.99)) +
                         " over " + std::to_string(commit_ms.size()) +
                         " batches");
  }
  if (!args.trace) {
    res.AddMetric("setup_s", setup_s, "s");
    res.AddMetric("ops_s", ops / wall, "1/s");
    res.AddMetric("cpu_ms_per_op", cpu * 1e3 / ops, "ms");
    for (int k = 0; k < kNumClasses; ++k) {
      const bool wire = k == 0 || k == 2;  // Q1/Q3 come from the timed phase
      res.AddMetric(std::string(ClassName(static_cast<QClass>(k))) + "_p50_ms",
                    Median(wire ? ms[k] : probe_lat.ms[k]), "ms");
    }
    res.AddMetric("commit_p50_ms", Median(commit_ms), "ms");
    res.AddMetric("recovery_s", *recovery, "s");
    res.AddMetric("storage_bytes_per_hdoc_byte", storage_ratio, "ratio");
    res.AddMetric("peak_rss_mb", peak_rss, "MiB");
    return res;
  }

  // The requests of the timed phase give the server figures; the probe
  // adds only pings.
  PublishProbe(db, kPublishProbeCalls, &rec, &res);
  MetricsWindow pings;
  ServerProbe(db, 200, {}, &rec, &pings, &res);
  const uint64_t replayed = db->last_recovery_replayed_bytes();
  FsyncProbe(args, &a, spec, kFsyncProbeCommits, &rec, &windows.fsync, &res);
  AddLayerMetrics(args, rec, counts, windows, replayed, ops / wall, &res);
  const double client_mean = Mean(rec.Durations("client.request"));
  const double server_mean =
      windows.timed.HistogramMean("archis_server_request_seconds") * 1e3;
  res.report.push_back(
      "breakdown request mean_ms=" + std::to_string(client_mean) +
      " = server.request:" + std::to_string(server_mean) +
      " + unattributed(socket, framing, session thread, queue hand-off):" +
      std::to_string(client_mean - server_mean));
  return res;
}

}  // namespace archbench
