// Pieces the three workloads share: the run arguments, building a durable
// archive from the seeded employee history, running one XQuery in process
// (untraced through ArchIS::Query, traced as the same calls one layer at a
// time), the Table-3 probe, and the per-layer metrics of the traced mode.
#ifndef ARCHBENCH_COMMON_H_
#define ARCHBENCH_COMMON_H_

#include <memory>
#include <string>
#include <vector>

#include "archis/archis.h"
#include "bench_util.h"
#include "oracle.h"
#include "workload/employee_workload.h"

namespace archbench {

using archis::core::ArchIS;

/// Command-line arguments.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string work_dir;  ///< scratch space for WAL / checkpoint files
  std::string trace_path;  ///< where the traced mode writes its spans
};

/// How to build one archive.
struct ArchiveSpec {
  int employees = 240;             ///< initial population (EmployeeWorkload)
  bool compress = false;           ///< BlockZIP frozen segments
  uint64_t block_cache_bytes = 16ull << 20;
  uint64_t checkpoint_after_bytes = 0;  ///< 0 = manual checkpoints only
  bool freeze_all = false;         ///< freeze (and compress) after loading
  /// Employees the benchmark itself writes, inserted in one transaction
  /// with ids own_id_base + 0 .. own_keys - 1.
  int own_keys = 0;
  int64_t own_id_base = 900001;
  int64_t own_salary = 40000;      ///< salary of every own key (constant)
};

/// A built archive plus what the benchmark needs to know about it.
struct Archive {
  std::unique_ptr<ArchIS> db;
  std::unique_ptr<archis::workload::EmployeeWorkload> wl;
  archis::core::ArchISOptions options;
  Date history_first;  ///< first day of the generated history
  Date history_last;   ///< clock when generation finished
  Date own_insert_day;  ///< commit day of the own-key insert
  Date main_start;     ///< clock when the timed phase starts
};

/// Builds the archive `setups` times in fresh directories, keeps the last
/// one and stores the median build time in `*setup_s`. Each build is
/// durable at rest: a WAL (written on every commit, not fsynced; see
/// README, *Flush policy*) and checkpoints. The history loads as one
/// batched transaction, then a base checkpoint is written.
archis::Result<Archive> BuildArchive(const Args& args, const ArchiveSpec& spec,
                                     int setups, double* setup_s);

/// Clean close (destroy) and ArchIS::Open of the same directory, done at
/// least 7 times and until 1 s of opens were timed (at most 50);
/// returns the median Open time in seconds.
archis::Result<double> CloseAndReopen(Archive* a);

/// Counters the traced in-process query path accumulates.
struct LayerCounts {
  uint64_t queries = 0;
  uint64_t translated = 0;
  uint64_t rows_scanned = 0;
  uint64_t result_rows = 0;
  uint64_t result_bytes = 0;
  uint64_t answers = 0;
};

/// One in-process query execution.
struct QueryRun {
  bool ok = false;
  std::string error;
  archis::xml::XmlNodePtr xml;
  double ms = 0;  ///< query + serialize, as a user of the API sees it
};

/// Runs `text` and serializes the answer. Untraced: ArchIS::Query then
/// xml::Serialize, timed as one call. Traced: the calls ArchIS::Query makes
/// (ParseXQuery, TranslateXQuery, Execute or QueryNative), each under its
/// own span.
QueryRun RunQuery(ArchIS* db, QClass c, const std::string& text,
                  SpanRecorder* rec, LayerCounts* counts);

/// Per-class latency samples (ms).
struct ClassLatencies {
  std::vector<double> ms[kNumClasses];
};

/// An answer kept for the oracle check after the timed phase.
struct PendingAnswer {
  QClass c;
  QueryParams p;
  archis::xml::XmlNodePtr xml;
};

/// Runs `rounds` interleaved rounds of the six Table-3 queries in process,
/// each with fresh parameters from `rng` (see DrawParams; Q1/Q3 ids from
/// `q13_ids`). Latencies go to `lat`, answers to `answers`; a query that
/// returns an error counts as failed in `ops`.
void Table3Rounds(ArchIS* db, const std::vector<int64_t>& q13_ids, Date first,
                  Date date_from, Date last, std::mt19937_64& rng, int rounds,
                  SpanRecorder* rec, LayerCounts* counts, ClassLatencies* lat,
                  std::vector<PendingAnswer>* answers, OpCount* ops,
                  RunResult* result);

/// Compares every kept answer with the oracle; a mismatch is a
/// correctness finding.
void CheckAnswers(const HDocIndex& oracle,
                  const std::vector<PendingAnswer>& answers,
                  const std::string& what, RunResult* result);

/// Publishes every relation and returns (serialized bytes, employees
/// index). The serialized documents are appended to `*docs` when non-null.
archis::Result<HDocIndex> PublishAll(const ArchIS& db, uint64_t* hdoc_bytes,
                                     std::string* docs);

/// Starts an in-process archisd over `db`, sends `pings` pings and the
/// given Q1/Q3 query texts over one connection (traced mode only: the
/// server layer probe), recording spans "server.ping" and
/// "client.request". `*window` brackets the requests.
void ServerProbe(ArchIS* db, int pings, const std::vector<std::string>& texts,
                 SpanRecorder* rec, MetricsWindow* window, RunResult* result);

/// Calls PublishProbe makes, and commits per thread FsyncProbe makes.
constexpr int kPublishProbeCalls = 10;
constexpr int kFsyncProbeCommits = 150;

/// Times `calls` PublishHistory("employees") calls, one "publisher.publish"
/// span each (traced mode only; outside every timed phase).
void PublishProbe(ArchIS* db, int calls, SpanRecorder* rec, RunResult* result);

/// The fsync layer, which the timed phases leave out (they run with fsync
/// off): reopens the archive with WalOptions::sync on and has 2 threads
/// commit `per_thread` small transactions each through the Transaction
/// API, on disjoint halves of the own keys (seeded choice). Traced mode
/// only, last; the commits are spans "fsync.commit" and `*window`
/// brackets them.
void FsyncProbe(const Args& args, Archive* a, const ArchiveSpec& spec,
                int per_thread, SpanRecorder* rec, MetricsWindow* window,
                RunResult* result);

/// The metric windows of a traced run. Query-side counters (segments,
/// blocks, plan cache, page reads) are summed over `timed` and `probe`;
/// WAL bytes, checkpoints and freezes come from `timed`; the server
/// request time from `server`; the fsync figures from `fsync`. The reads
/// of the checks, the reopens and the publishes fall outside all of them.
struct LayerWindows {
  MetricsWindow timed;   ///< the timed phase
  MetricsWindow probe;   ///< the post-recovery Table-3 probe, if any
  const MetricsWindow* server = nullptr;  ///< where archisd took requests
  MetricsWindow fsync;   ///< FsyncProbe
};

/// Everything the traced mode reports, computed identically on every
/// workload from the spans, in-process counters and the metric windows.
/// Also writes every span to args.trace_path.
void AddLayerMetrics(const Args& args, const SpanRecorder& rec,
                     const LayerCounts& counts, const LayerWindows& windows,
                     uint64_t replayed_bytes, double traced_ops_s,
                     RunResult* result);

/// One transaction's writes to own keys: (id, new title number).
using TxnPlan = std::vector<std::pair<int64_t, int64_t>>;

/// The keys one writer (thread or connection) owns, the seeded choice of
/// what each transaction writes, and the log of acknowledged writes the
/// property checks read. A transaction is one employee event: 1-4 of the
/// writer's employees get a new title. Every title number a writer uses is
/// unique, so each version is identifiable; salaries never change, so the
/// Table-3 salary queries cost the same however long a run writes.
class OwnKeys {
 public:
  OwnKeys(const ArchiveSpec& spec, int first, int count, int64_t title_base,
          std::mt19937_64 rng, Date insert_day);

  /// 1-4 distinct keys (cycling 1, 2, 3, 4), each with a fresh title
  /// number; the seed picks which keys.
  TxnPlan Next();
  /// Records an acknowledged commit of `plan` stamped `day`.
  void Ack(const TxnPlan& plan, Date day);

  const std::vector<int64_t>& ids() const { return ids_; }
  const std::map<int64_t, KeyWrites>& log() const { return log_; }

 private:
  std::vector<int64_t> ids_;
  int64_t next_title_;
  uint64_t txns_ = 0;
  std::mt19937_64 rng_;
  std::map<int64_t, KeyWrites> log_;
};

/// The current-table row of an own key with title number `title`.
archis::minirel::Tuple OwnRow(const ArchiveSpec& spec, int64_t id,
                              int64_t title);
/// The same row as an archisd update-script line.
std::string OwnUpdateLine(const ArchiveSpec& spec, int64_t id, int64_t title);

/// Title histories of every own key, read in process through
/// ArchIS::Query (keys whose query fails are missing from the map).
std::map<int64_t, std::vector<Version>> ReadOwnTitles(
    ArchIS* db, const std::vector<const OwnKeys*>& writers);

/// Read-your-writes: the newest title version of every own key (the
/// TitleHistoryText answers in `answers`, keyed by id) holds the last
/// acknowledged value and is still open. Then, on `doc` (published after
/// recovery), one version per written day holding that day's last value,
/// contiguous intervals.
void CheckOwnKeys(const std::vector<const OwnKeys*>& writers,
                  const std::map<int64_t, std::vector<Version>>& answers,
                  const HDocIndex& doc, RunResult* result);

/// Seconds of timed work each unit of --seconds buys is fixed per
/// workload; this turns --seconds into a whole number of rounds.
int RoundsFor(const Args& args, double rounds_per_second);

RunResult RunTable3(const Args& args);
RunResult RunArchisdMixed(const Args& args);
RunResult RunIngest(const Args& args);

}  // namespace archbench

#endif  // ARCHBENCH_COMMON_H_
