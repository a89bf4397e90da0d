// Shared plumbing of the archbench workloads: seeded randomness, timing
// and percentiles, process CPU / RSS probes, deltas of the process-wide
// metrics exposition, the in-memory span recorder of the traced mode, and
// the result line.
#ifndef ARCHBENCH_BENCH_UTIL_H_
#define ARCHBENCH_BENCH_UTIL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <vector>

namespace archbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock instants.
double Secs(Clock::time_point a, Clock::time_point b);

/// Independent deterministic stream `stream` of the run seed.
std::mt19937_64 SeededRng(uint64_t seed, uint64_t stream);

/// Uniform integer in [lo, hi].
int64_t UniformInt(std::mt19937_64& rng, int64_t lo, int64_t hi);

/// Zipf(s) sampler over ranks 0..n-1 (inverse CDF over a precomputed
/// table; rank 0 is the hottest).
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Next(std::mt19937_64& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Percentile (p in [0,1]) by linear interpolation between order
/// statistics; 0 for an empty sample.
double Percentile(std::vector<double> v, double p);
double Median(std::vector<double> v);
double Mean(const std::vector<double>& v);

/// User + system CPU seconds of the whole process (all threads).
double ProcessCpuSeconds();

/// Peak resident set size of the process so far, in MiB (VmHWM).
double PeakRssMb();

/// Recursively removes `path` (a benchmark scratch directory).
void RemoveTree(const std::string& path);
/// Creates `path` and its parents.
void MakeDirs(const std::string& path);

/// One parsed snapshot of ArchIS::DumpMetrics(): every sample line,
/// keyed by its series name including labels.
class MetricsSnapshot {
 public:
  static MetricsSnapshot Take();

  /// Value of exactly the series `name` (0 when absent).
  double Exact(const std::string& name) const;
  double ExactDelta(const MetricsSnapshot& before,
                    const std::string& name) const {
    return Exact(name) - before.Exact(name);
  }

  /// Sum of every series whose name is `base` or `base{...}`.
  double Sum(const std::string& base) const;

  /// Delta (this - before) of Sum(base).
  double Delta(const MetricsSnapshot& before, const std::string& base) const;

  /// Percentile of the observations a histogram received between
  /// `before` and this snapshot (Prometheus bucket interpolation);
  /// 0 when it received none.
  double HistogramDeltaPercentile(const MetricsSnapshot& before,
                                  const std::string& base, double p) const;

  /// Mean of the observations a histogram received since `before`.
  double HistogramDeltaMean(const MetricsSnapshot& before,
                            const std::string& base) const;

 private:
  std::map<std::string, double> series_;
};

/// The metrics of one phase of a run: snapshots taken at its start and
/// end. A window that was never begun reads 0 everywhere.
struct MetricsWindow {
  MetricsSnapshot before, after;

  void Begin() { before = MetricsSnapshot::Take(); }
  void End() { after = MetricsSnapshot::Take(); }
  double Delta(const std::string& base) const {
    return after.Delta(before, base);
  }
  double HistogramPercentile(const std::string& base, double p) const {
    return after.HistogramDeltaPercentile(before, base, p);
  }
  double HistogramMean(const std::string& base) const {
    return after.HistogramDeltaMean(before, base);
  }
};

/// One recorded span: a timed call into a layer, made from the
/// benchmark's own code.
struct Span {
  const char* name = "";  ///< a string literal
  int64_t start_ns = 0;  ///< since the recorder's epoch
  int64_t end_ns = 0;
  int64_t parent = -1;   ///< index of the enclosing span, -1 for roots
  uint64_t request = 0;  ///< operation the span belongs to
  double ms() const { return (end_ns - start_ns) / 1e6; }
};

/// In-memory span store of the traced mode. Disabled (the untraced mode)
/// it records nothing and Begin/End cost one branch.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its index (-1 when disabled).
  int64_t Begin(const char* name, int64_t parent, uint64_t request);
  void End(int64_t index);

  /// Fresh operation id (shared by every span of one operation).
  uint64_t NextRequest() { return next_request_.fetch_add(1) + 1; }

  /// Durations (ms) of every span called `name`.
  std::vector<double> Durations(const char* name) const;

  /// Writes every span as one JSON array (Chrome trace "X" events carrying
  /// the parent index and request id in args).
  bool WriteJson(const std::string& path) const;

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::atomic<uint64_t> next_request_{0};
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, int64_t parent,
             uint64_t request)
      : rec_(rec), index_(rec->Begin(name, parent, request)) {}
  ~ScopedSpan() { rec_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t index() const { return index_; }

 private:
  SpanRecorder* rec_;
  int64_t index_;
};

/// Attempted / failed counts of one operation type.
struct OpCount {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// What a workload hands back to main: correctness, per-type counts and
/// the metrics of the selected mode (name -> value; units are declared by
/// the caller of AddMetric).
struct RunResult {
  bool correct = true;
  std::vector<std::string> problems;  ///< first few correctness findings
  std::map<std::string, OpCount> ops;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void AddMetric(const std::string& name, double value,
                 const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  /// Records a correctness finding (keeps the first 20 messages).
  void Fail(const std::string& what);
  /// Human-readable breakdown lines printed before the result line.
  std::vector<std::string> report;
};

/// Prints the per-type counts, the report lines and, last, the one-line
/// JSON result.
void PrintResult(const RunResult& r);

}  // namespace archbench

#endif  // ARCHBENCH_BENCH_UTIL_H_
