#include "common.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <thread>

#include "archis/translator.h"
#include "server/client.h"
#include "server/server.h"
#include "xml/serializer.h"
#include "xquery/parser.h"

namespace archbench {

using archis::Result;
using archis::Status;
using archis::StatusCode;
using archis::minirel::Tuple;
using archis::minirel::Value;

int RoundsFor(const Args& args, double rounds_per_second) {
  return std::max(1, static_cast<int>(std::lround(args.seconds *
                                                  rounds_per_second)));
}

namespace {

/// One build of the archive into `dir`.
Result<Archive> BuildOnce(const ArchiveSpec& spec, const std::string& dir) {
  RemoveTree(dir);
  MakeDirs(dir);
  Archive a;
  a.options.segment.umin = 0.4;
  a.options.segment.compress = spec.compress;
  a.options.segment.block_cache_bytes = spec.block_cache_bytes;
  // Statement DML batches into one transaction per Commit, so the whole
  // generated history loads as one commit.
  a.options.capture_mode = archis::core::CaptureMode::kUpdateLog;
  a.options.wal.path = dir + "/archis.wal";
  // Every commit is written to the WAL (group commit) before it is
  // acknowledged, but not fsynced: on the host this was tuned on, fsync
  // latency switched between regimes from run to run and moved commit
  // latency and ingest rate by 30-50% between runs (see README).
  // Checkpoints still fsync. FsyncProbe measures the WAL fsync separately.
  a.options.wal.sync = false;
  a.options.wal.checkpoint_after_bytes = spec.checkpoint_after_bytes;

  // The history is the generator's default-seeded one on every run, so
  // its size (and with it every size-bound cost) does not move with
  // --seed; the seed drives what the run asks and writes.
  archis::workload::WorkloadConfig config;
  config.initial_employees = spec.employees;
  a.history_first = config.start_date;
  ARCHIS_ASSIGN_OR_RETURN(a.db, ArchIS::Open(a.options, config.start_date));
  a.wl = std::make_unique<archis::workload::EmployeeWorkload>(config);
  ARCHIS_RETURN_NOT_OK(a.wl->Generate(a.db.get()).status());
  a.history_last = a.db->Now();
  Date day = a.history_last;
  if (spec.own_keys > 0) {
    day = day.AddDays(1);
    ARCHIS_RETURN_NOT_OK(a.db->AdvanceClock(day));
    ARCHIS_ASSIGN_OR_RETURN(archis::core::Transaction txn, a.db->Begin());
    for (int k = 0; k < spec.own_keys; ++k) {
      const int64_t id = spec.own_id_base + k;
      ARCHIS_RETURN_NOT_OK(txn.Insert("employees", OwnRow(spec, id, 0)));
    }
    ARCHIS_RETURN_NOT_OK(txn.Commit());
  }
  a.own_insert_day = day;
  a.main_start = day.AddDays(1);
  ARCHIS_RETURN_NOT_OK(a.db->AdvanceClock(a.main_start));
  if (spec.freeze_all) ARCHIS_RETURN_NOT_OK(a.db->FreezeAll());
  ARCHIS_RETURN_NOT_OK(a.db->Checkpoint());
  return a;
}

}  // namespace

Result<Archive> BuildArchive(const Args& args, const ArchiveSpec& spec,
                             int setups, double* setup_s) {
  std::vector<double> times;
  Archive kept;
  for (int i = 0; i < setups; ++i) {
    // The previous build is destroyed before timing the next one.
    kept = Archive();
    const auto t0 = Clock::now();
    ARCHIS_ASSIGN_OR_RETURN(
        kept, BuildOnce(spec, args.work_dir + "/" + args.workload + "-" +
                            std::to_string(i)));
    times.push_back(Secs(t0, Clock::now()));
  }
  *setup_s = Median(times);
  return kept;
}

Result<double> CloseAndReopen(Archive* a) {
  std::vector<double> times;
  double total = 0;
  while (times.size() < 50 && (times.size() < 7 || total < 1.0)) {
    a->db.reset();  // clean close: nothing is flushed beyond what is durable
    const auto t0 = Clock::now();
    ARCHIS_ASSIGN_OR_RETURN(a->db,
                            ArchIS::Open(a->options, a->history_first));
    times.push_back(Secs(t0, Clock::now()));
    total += times.back();
  }
  return Median(times);
}

QueryRun RunQuery(ArchIS* db, QClass c, const std::string& text,
                  SpanRecorder* rec, LayerCounts* counts) {
  QueryRun run;
  ++counts->queries;
  if (!rec->enabled()) {
    const auto t0 = Clock::now();
    Result<archis::core::QueryResult> r = db->Query(text);
    if (r.ok()) {
      const std::string body = archis::xml::Serialize(r->xml);
      run.ms = Secs(t0, Clock::now()) * 1e3;
      run.ok = true;
      run.xml = std::move(r->xml);
      counts->result_bytes += body.size();
      ++counts->answers;
    } else {
      run.ms = Secs(t0, Clock::now()) * 1e3;
      run.error = r.status().ToString();
    }
    return run;
  }

  // Traced: the calls ArchIS::Query makes, one span each.
  const uint64_t req = rec->NextRequest();
  const auto t0 = Clock::now();
  {
    ScopedSpan op(rec, OpSpanName(c), -1, req);
    Result<archis::xquery::ExprPtr> ast = [&] {
      ScopedSpan s(rec, "xquery.parse", op.index(), req);
      return archis::xquery::ParseXQuery(text);
    }();
    if (!ast.ok()) {
      run.error = ast.status().ToString();
      return run;
    }
    Result<archis::core::SqlXmlPlan> plan = [&] {
      ScopedSpan s(rec, "translator.translate", op.index(), req);
      return archis::core::TranslateXQuery(*ast, db->translator_context());
    }();
    if (plan.ok()) {
      ++counts->translated;
      archis::core::PlanStats stats;
      Result<archis::xml::XmlNodePtr> xml = [&] {
        ScopedSpan s(rec, "sqlxml.execute", op.index(), req);
        return db->Execute(*plan, &stats);
      }();
      if (!xml.ok()) {
        run.error = xml.status().ToString();
        return run;
      }
      counts->rows_scanned += stats.rows_scanned;
      counts->result_rows += stats.result_rows;
      run.xml = std::move(*xml);
    } else if (plan.status().code() == StatusCode::kUnsupported) {
      Result<archis::xquery::Sequence> seq = [&] {
        ScopedSpan s(rec, "xquery.native", op.index(), req);
        return db->QueryNative(text);
      }();
      if (!seq.ok()) {
        run.error = seq.status().ToString();
        return run;
      }
      run.xml = archis::xml::XmlNode::Element("results");
      for (const archis::xquery::Item& item : *seq) {
        if (item.is_node()) {
          run.xml->AppendChild(item.node()->Clone());
        } else {
          run.xml->AppendText(item.StringValue());
        }
      }
    } else {
      run.error = plan.status().ToString();
      return run;
    }
    ScopedSpan s(rec, "xml.serialize", op.index(), req);
    counts->result_bytes += archis::xml::Serialize(run.xml).size();
    ++counts->answers;
  }
  run.ms = Secs(t0, Clock::now()) * 1e3;
  run.ok = true;
  return run;
}

void Table3Rounds(ArchIS* db, const std::vector<int64_t>& q13_ids, Date first,
                  Date date_from, Date last, std::mt19937_64& rng, int rounds,
                  SpanRecorder* rec, LayerCounts* counts, ClassLatencies* lat,
                  std::vector<PendingAnswer>* answers, OpCount* ops,
                  RunResult* result) {
  for (int r = 0; r < rounds; ++r) {
    for (int k = 0; k < kNumClasses; ++k) {
      const QClass c = static_cast<QClass>(k);
      const QueryParams p = DrawParams(rng, q13_ids, first, date_from, last);
      QueryRun run = RunQuery(db, c, QueryText(c, p), rec, counts);
      ++ops->attempted;
      if (!run.ok) {
        ++ops->failed;
        if (result->problems.size() < 20) {
          result->problems.push_back(std::string(ClassName(c)) +
                                     " failed: " + run.error);
        }
        continue;
      }
      lat->ms[k].push_back(run.ms);
      answers->push_back(PendingAnswer{c, p, std::move(run.xml)});
    }
  }
}

void CheckAnswers(const HDocIndex& oracle,
                  const std::vector<PendingAnswer>& answers,
                  const std::string& what, RunResult* result) {
  for (const PendingAnswer& a : answers) {
    Result<Answer> got = FromResult(a.c, a.xml);
    std::string why;
    if (!got.ok()) {
      result->Fail(what + " " + ClassName(a.c) + ": " +
                   got.status().ToString());
    } else if (!SameAnswer(Expected(oracle, a.c, a.p), *got, &why)) {
      result->Fail(what + " " + ClassName(a.c) + " (" +
                   QueryText(a.c, a.p) + "): " + why);
    }
  }
}

Result<HDocIndex> PublishAll(const ArchIS& db, uint64_t* hdoc_bytes,
                             std::string* docs) {
  *hdoc_bytes = 0;
  HDocIndex idx;
  for (const char* rel : {"employees", "depts"}) {
    ARCHIS_ASSIGN_OR_RETURN(archis::xml::XmlNodePtr doc,
                            db.PublishHistory(rel));
    const std::string text = archis::xml::Serialize(doc);
    *hdoc_bytes += text.size();
    if (docs != nullptr) *docs += text;
    if (std::string(rel) == "employees") {
      ARCHIS_ASSIGN_OR_RETURN(idx, HDocIndex::FromDocument(doc));
    }
  }
  return idx;
}

void ServerProbe(ArchIS* db, int pings, const std::vector<std::string>& texts,
                 SpanRecorder* rec, MetricsWindow* window, RunResult* result) {
  auto server = archis::server::ArchisServer::Start(db, {});
  if (!server.ok()) {
    result->Fail("server probe: start: " + server.status().ToString());
    return;
  }
  archis::server::ClientOptions copts;
  copts.port = (*server)->port();
  copts.reconnect = false;
  archis::server::ArchisClient client(copts);
  window->Begin();
  for (int i = 0; i < pings; ++i) {
    ScopedSpan s(rec, "server.ping", -1, rec->NextRequest());
    if (!client.Ping().ok()) result->Fail("server probe: ping failed");
  }
  for (const std::string& text : texts) {
    ScopedSpan s(rec, "client.request", -1, rec->NextRequest());
    if (!client.Query(text).ok()) result->Fail("server probe: query failed");
  }
  window->End();
  client.Close();
  if (!(*server)->Stop().ok()) result->Fail("server probe: stop failed");
}

void PublishProbe(ArchIS* db, int calls, SpanRecorder* rec,
                  RunResult* result) {
  for (int i = 0; i < calls; ++i) {
    ScopedSpan s(rec, "publisher.publish", -1, rec->NextRequest());
    if (!db->PublishHistory("employees").ok()) {
      result->Fail("publish probe: PublishHistory failed");
    }
  }
}

void FsyncProbe(const Args& args, Archive* a, const ArchiveSpec& spec,
                int per_thread, SpanRecorder* rec, MetricsWindow* window,
                RunResult* result) {
  a->db.reset();
  a->options.wal.sync = true;
  auto db = ArchIS::Open(a->options, a->history_first);
  if (!db.ok()) {
    result->Fail("fsync probe: reopen: " + db.status().ToString());
    return;
  }
  a->db = std::move(*db);
  constexpr int kThreads = 2;
  const int half = spec.own_keys / kThreads;
  std::vector<OwnKeys> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back(spec, t * half, half,
                         500000000 + 10000000 * static_cast<int64_t>(t),
                         SeededRng(args.seed, 70 + t), a->own_insert_day);
  }
  std::atomic<int> failed{0};
  auto run = [&](int t) {
    OwnKeys& w = writers[static_cast<size_t>(t)];
    for (int i = 0; i < per_thread; ++i) {
      const TxnPlan plan = w.Next();
      ScopedSpan s(rec, "fsync.commit", -1, rec->NextRequest());
      auto txn = a->db->Begin();
      Status st = txn.ok() ? Status::OK() : txn.status();
      for (const auto& [id, title] : plan) {
        if (!st.ok()) break;
        st = txn->Update("employees", {Value(id)}, OwnRow(spec, id, title));
      }
      if (st.ok()) st = txn->Commit();
      if (!st.ok()) ++failed;
    }
  };
  window->Begin();
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) threads.emplace_back(run, t);
    for (std::thread& t : threads) t.join();
  }
  window->End();
  if (failed > 0) {
    result->Fail("fsync probe: " + std::to_string(failed.load()) +
                 " commits failed");
  }
  result->report.push_back(
      "fsync probe: " + std::to_string(kThreads * per_thread) +
      " commits from " + std::to_string(kThreads) +
      " threads with fsync on, Commit() p50_ms=" +
      std::to_string(Median(rec->Durations("fsync.commit"))));
}

OwnKeys::OwnKeys(const ArchiveSpec& spec, int first, int count,
                 int64_t title_base, std::mt19937_64 rng, Date insert_day)
    : next_title_(title_base), rng_(rng) {
  for (int k = first; k < first + count; ++k) {
    const int64_t id = spec.own_id_base + k;
    ids_.push_back(id);
    log_[id] = KeyWrites{id, {{insert_day, 0}}};
  }
}

TxnPlan OwnKeys::Next() {
  // The k-th transaction changes 1 + k % 4 rows whatever the seed, so every
  // run logs the same WAL bytes and checkpoints at the same commits: the
  // checkpoint chain recovery replays has one shape on every seed.
  const int n = static_cast<int>(std::min<int64_t>(
      1 + static_cast<int64_t>(txns_++ % 4),
      static_cast<int64_t>(ids_.size())));
  std::vector<int64_t> pick = ids_;
  TxnPlan plan;
  for (int i = 0; i < n; ++i) {
    const size_t j = static_cast<size_t>(
        UniformInt(rng_, i, static_cast<int64_t>(pick.size()) - 1));
    std::swap(pick[static_cast<size_t>(i)], pick[j]);
    plan.push_back({pick[static_cast<size_t>(i)], next_title_++});
  }
  return plan;
}

void OwnKeys::Ack(const TxnPlan& plan, Date day) {
  for (const auto& [id, title] : plan) log_[id].writes.push_back({day, title});
}

Tuple OwnRow(const ArchiveSpec& spec, int64_t id, int64_t title) {
  return Tuple{Value(id), Value("bench" + std::to_string(id)),
               Value(spec.own_salary), Value("T" + std::to_string(title)),
               Value("d01")};
}

std::string OwnUpdateLine(const ArchiveSpec& spec, int64_t id, int64_t title) {
  return "update employees|" + std::to_string(id) + "|bench" +
         std::to_string(id) + "|" + std::to_string(spec.own_salary) + "|T" +
         std::to_string(title) + "|d01\n";
}

std::map<int64_t, std::vector<Version>> ReadOwnTitles(
    ArchIS* db, const std::vector<const OwnKeys*>& writers) {
  std::map<int64_t, std::vector<Version>> out;
  for (const OwnKeys* w : writers) {
    for (int64_t id : w->ids()) {
      auto r = db->Query(TitleHistoryText(id));
      if (!r.ok()) continue;
      auto versions = ReadVersions(r->xml, "title");
      if (versions.ok()) out[id] = *versions;
    }
  }
  return out;
}

void CheckOwnKeys(const std::vector<const OwnKeys*>& writers,
                  const std::map<int64_t, std::vector<Version>>& answers,
                  const HDocIndex& doc, RunResult* result) {
  for (const OwnKeys* w : writers) {
    for (const auto& [id, k] : w->log()) {
      auto a = answers.find(id);
      const int64_t last = k.writes.back().second;
      if (a == answers.end() || a->second.empty() ||
          a->second.back().value != last ||
          !a->second.back().tend.IsForever()) {
        result->Fail("read-your-writes: key " + std::to_string(id) +
                     " does not show its last acknowledged title T" +
                     std::to_string(last));
        continue;
      }
      std::string why;
      if (!CheckKeyHistory(doc, k, &why)) result->Fail("history: " + why);
    }
  }
}

void AddLayerMetrics(const Args& args, const SpanRecorder& rec,
                     const LayerCounts& counts, const LayerWindows& w,
                     uint64_t replayed_bytes, double traced_ops_s,
                     RunResult* result) {
  auto us = [&](const char* span) {
    return Median(rec.Durations(span)) * 1e3;
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  // Query-side counters: the timed phase plus the post-recovery probe.
  auto d = [&](const char* name) {
    return w.timed.Delta(name) + w.probe.Delta(name);
  };

  // Native evaluation = QueryNative minus the publish it contains, the
  // latter timed on its own by PublishProbe.
  const double publish_ms = Median(rec.Durations("publisher.publish"));
  const double native_ms = Median(rec.Durations("xquery.native"));

  const double plans = d("archis_exec_plans_total");
  // Queries of the windows: ArchIS::Query calls (archisd's) plus the
  // traced in-process ones, which call the layers directly.
  const double queries = d("archis_queries_translated_total") +
                         d("archis_queries_native_total") +
                         static_cast<double>(counts.queries);
  const double changes = w.timed.after.ExactDelta(
      w.timed.before, "archis_changes_captured_total");
  const double server_ms =
      w.server == nullptr
          ? 0.0
          : w.server->HistogramPercentile("archis_server_request_seconds",
                                          0.5) * 1e3;

  result->AddMetric("xquery.parse_us", us("xquery.parse"), "us");
  result->AddMetric("translator.translate_us", us("translator.translate"),
                    "us");
  result->AddMetric("translator.translated_fraction",
                    ratio(static_cast<double>(counts.translated),
                          static_cast<double>(counts.queries)),
                    "ratio");
  result->AddMetric("sqlxml.execute_us", us("sqlxml.execute"), "us");
  result->AddMetric("sqlxml.rows_scanned_per_row",
                    ratio(static_cast<double>(counts.rows_scanned),
                          static_cast<double>(counts.result_rows)),
                    "ratio");
  result->AddMetric("segment.segments_scanned_per_query",
                    ratio(d("archis_exec_segments_scanned_total"), plans),
                    "count");
  const double hits = d("archis_block_cache_hits_total");
  const double misses = d("archis_block_cache_misses_total");
  result->AddMetric("compress.block_cache_hit_ratio",
                    ratio(hits, hits + misses), "ratio");
  result->AddMetric("compress.blocks_decompressed_per_query",
                    ratio(d("archis_blocks_decompressed_total"), plans),
                    "count");
  const double phits = d("archis_planner_cache_hits_total");
  const double pmisses = d("archis_planner_cache_misses_total");
  result->AddMetric("planner.plan_cache_hit_ratio",
                    ratio(phits, phits + pmisses), "ratio");
  result->AddMetric("storage.page_reads_per_query",
                    ratio(d("archis_page_reads_total"), queries), "count");
  result->AddMetric("publisher.publish_ms", publish_ms, "ms");
  result->AddMetric("xquery.native_eval_ms",
                    native_ms > 0 ? native_ms - publish_ms : 0.0, "ms");
  result->AddMetric("xml.serialize_us", us("xml.serialize"), "us");
  result->AddMetric("xml.result_bytes",
                    ratio(static_cast<double>(counts.result_bytes),
                          static_cast<double>(counts.answers)),
                    "bytes");
  result->AddMetric("server.ping_rtt_us", us("server.ping"), "us");
  result->AddMetric("server.request_ms", server_ms, "ms");
  result->AddMetric("server.net_framing_ms",
                    Median(rec.Durations("client.request")) - server_ms, "ms");
  result->AddMetric(
      "wal.fsync_ms",
      w.fsync.HistogramPercentile("archis_wal_fsync_seconds", 0.5) * 1e3,
      "ms");
  result->AddMetric("wal.commits_per_fsync",
                    ratio(w.fsync.Delta("archis_wal_commits_total"),
                          w.fsync.Delta("archis_wal_syncs_total")),
                    "ratio");
  result->AddMetric(
      "wal.bytes_per_change",
      ratio(w.timed.Delta("archis_wal_bytes_written_total"), changes),
      "bytes");
  result->AddMetric("checkpoint.count",
                    w.timed.Delta("archis_checkpoints_total"), "count");
  result->AddMetric(
      "checkpoint.ms",
      w.timed.HistogramMean("archis_checkpoint_seconds") * 1e3, "ms");
  result->AddMetric(
      "segment.freezes_per_kchange",
      ratio(w.timed.Delta("archis_segment_freezes_total") * 1e3, changes),
      "count");
  result->AddMetric("recovery.replayed_bytes",
                    static_cast<double>(replayed_bytes), "bytes");
  result->AddMetric("trace.ops_s", traced_ops_s, "1/s");
  if (rec.WriteJson(args.trace_path)) {
    result->report.push_back("spans: " + std::to_string(rec.spans().size()) +
                             " written to " + args.trace_path);
  }
}

}  // namespace archbench
