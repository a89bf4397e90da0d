#include "bench_util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "archis/archis.h"

namespace archbench {

double Secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::mt19937_64 SeededRng(uint64_t seed, uint64_t stream) {
  // splitmix64 of (seed, stream) so streams are unrelated.
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xD1B54A32D192ED03ull +
               0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return std::mt19937_64(z ^ (z >> 31));
}

int64_t UniformInt(std::mt19937_64& rng, int64_t lo, int64_t hi) {
  return std::uniform_int_distribution<int64_t>(lo, hi)(rng);
}

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Next(std::mt19937_64& rng) const {
  const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                          cdf_.size() - 1);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

void MakeDirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
}

// -- Metrics exposition -------------------------------------------------------

MetricsSnapshot MetricsSnapshot::Take() {
  MetricsSnapshot snap;
  std::istringstream in(archis::core::ArchIS::DumpMetrics());
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    try {
      snap.series_[line.substr(0, sp)] = std::stod(line.substr(sp + 1));
    } catch (...) {
      // Non-numeric sample (never emitted today); skip it.
    }
  }
  return snap;
}

double MetricsSnapshot::Exact(const std::string& name) const {
  auto it = series_.find(name);
  return it == series_.end() ? 0.0 : it->second;
}

double MetricsSnapshot::Sum(const std::string& base) const {
  double s = 0;
  for (auto it = series_.lower_bound(base); it != series_.end(); ++it) {
    const std::string& k = it->first;
    if (k.compare(0, base.size(), base) != 0) break;
    if (k.size() == base.size() || k[base.size()] == '{') s += it->second;
  }
  return s;
}

double MetricsSnapshot::Delta(const MetricsSnapshot& before,
                              const std::string& base) const {
  return Sum(base) - before.Sum(base);
}

namespace {

/// Upper bound of a `_bucket` series ("+Inf" -> infinity), or NaN when the
/// series carries no le label.
double BucketBound(const std::string& series) {
  const size_t le = series.find("le=\"");
  if (le == std::string::npos) return std::nan("");
  const size_t end = series.find('"', le + 4);
  const std::string v = series.substr(le + 4, end - le - 4);
  if (v == "+Inf") return INFINITY;
  return std::stod(v);
}

}  // namespace

double MetricsSnapshot::HistogramDeltaPercentile(
    const MetricsSnapshot& before, const std::string& base, double p) const {
  // Cumulative counts per bound, summed over every label set.
  std::map<double, double> cum;
  const std::string prefix = base + "_bucket";
  for (auto it = series_.lower_bound(prefix); it != series_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    const double bound = BucketBound(it->first);
    if (std::isnan(bound)) continue;
    auto b = before.series_.find(it->first);
    cum[bound] += it->second - (b == before.series_.end() ? 0 : b->second);
  }
  if (cum.empty()) return 0.0;
  const double total = cum.rbegin()->second;
  if (total <= 0) return 0.0;
  const double rank = p * total;
  double prev_bound = 0, prev_count = 0;
  double last_finite = 0;
  for (const auto& [bound, count] : cum) {
    if (std::isinf(bound)) return last_finite;  // clamp, as Prometheus does
    if (count >= rank) {
      if (count == prev_count) return bound;
      return prev_bound +
             (bound - prev_bound) * (rank - prev_count) / (count - prev_count);
    }
    prev_bound = bound;
    prev_count = count;
    last_finite = bound;
  }
  return last_finite;
}

double MetricsSnapshot::HistogramDeltaMean(const MetricsSnapshot& before,
                                           const std::string& base) const {
  const double n = Delta(before, base + "_count");
  return n > 0 ? Delta(before, base + "_sum") / n : 0.0;
}

// -- Spans -------------------------------------------------------------------

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), epoch_(Clock::now()) {}

int64_t SpanRecorder::Begin(const char* name, int64_t parent,
                            uint64_t request) {
  if (!enabled_) return -1;
  const int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch_)
          .count();
  std::lock_guard<std::mutex> l(mu_);
  spans_.push_back(Span{name, now, now, parent, request});
  return static_cast<int64_t>(spans_.size() - 1);
}

void SpanRecorder::End(int64_t index) {
  if (index < 0) return;
  const int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch_)
          .count();
  std::lock_guard<std::mutex> l(mu_);
  spans_[static_cast<size_t>(index)].end_ns = now;
}

std::vector<double> SpanRecorder::Durations(const char* name) const {
  std::lock_guard<std::mutex> l(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) out.push_back(s.ms());
  }
  return out;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> l(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%lld,\"request\":%llu}}%s\n",
                 s.name, static_cast<unsigned long long>(s.request),
                 s.start_ns / 1e3, (s.end_ns - s.start_ns) / 1e3, i,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

// -- Result ------------------------------------------------------------------

void RunResult::Fail(const std::string& what) {
  correct = false;
  if (problems.size() < 20) problems.push_back(what);
}

void PrintResult(const RunResult& r) {
  uint64_t attempted = 0, failed = 0;
  for (const auto& [type, c] : r.ops) {
    std::printf("ops %-14s attempted=%llu failed=%llu\n", type.c_str(),
                static_cast<unsigned long long>(c.attempted),
                static_cast<unsigned long long>(c.failed));
    attempted += c.attempted;
    failed += c.failed;
  }
  for (const std::string& p : r.problems) {
    std::printf("PROBLEM %s\n", p.c_str());
  }
  for (const std::string& line : r.report) std::printf("%s\n", line.c_str());
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : r.metrics) {
    char buf[64];
    double v = vu.first;
    if (!std::isfinite(v)) v = 0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            vu.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace archbench
