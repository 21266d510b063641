// Shared plumbing of the benchmark program: its own span recorder, timing
// statistics, output digests, the metrics-registry deltas it reads, and the
// per-workload result that main.cpp writes out for run.py.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "tensor/tensor.h"

namespace perfbench {

using nvm::Tensor;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Spans the benchmark records around its calls into the library. Only the
/// thread that owns the tracer records; spans are kept in memory and
/// written when the run ends. When disabled every call is a no-op, so the
/// untraced run pays nothing for it.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0, end_ns = 0;
    int parent = -1;
    std::int64_t item = -1;  ///< image or request id, -1 for none
  };

  explicit Tracer(bool on) : on_(on), epoch_(Clock::now()) {}
  bool on() const { return on_; }

  /// Opens a span under the innermost open one; returns its id (-1 off).
  int begin(const std::string& name, std::int64_t item = -1);
  void end(int id);
  /// Records an already-measured interval as a child of the open span.
  void add(const std::string& name, Clock::time_point start,
           Clock::time_point end, std::int64_t item = -1);

  const std::vector<Span>& spans() const { return spans_; }
  std::string to_json() const;

 private:
  std::int64_t ns(Clock::time_point t) const;

  bool on_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class Scoped {
 public:
  Scoped(Tracer& t, const std::string& name, std::int64_t item = -1)
      : t_(t), id_(t.begin(name, item)) {}
  ~Scoped() { t_.end(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer& t_;
  int id_;
};

/// Removes every artifact-cache entry except the trained networks, so a
/// set-up rebuilds GENIEx fits and plan descriptors instead of loading them.
void clear_derived_cache();

/// Nearest-rank q-quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// FNV-1a digest of raw bytes, chained through `h`.
std::uint64_t fnv(const void* data, std::size_t n,
                  std::uint64_t h = 1469598103934665603ull);
std::uint64_t digest(const Tensor& t, std::uint64_t h = 1469598103934665603ull);
std::string hex(std::uint64_t h);

/// Peak resident set size of this process in MB.
double peak_rss_mb();

/// Difference of two registry snapshots, looked up by metric name.
class MetricsDelta {
 public:
  MetricsDelta() : base_(nvm::metrics::snapshot()) {}
  /// Takes the "now" side of the delta.
  void stop();
  double value(const std::string& name) const;  ///< counter total / gauge
  /// Histogram quantile of the delta (NaN-free: 0 when empty).
  double hist_quantile(const std::string& name, double q) const;

 private:
  std::vector<nvm::metrics::MetricValue> base_, delta_;
};

/// Health-counter degradations (solver non-convergence, non-finite crossbar
/// outputs, GENIEx fallbacks) in a delta: each is a failed operation.
std::uint64_t health_failures(const MetricsDelta& d);

/// What one workload run hands back: metrics by name (value, unit), the
/// per-item output digests run.py compares across runs, and the check
/// tallies behind `attempted` / `failed`.
struct Result {
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::map<std::string, std::string> digests;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  ///< one line per failed check
  double timed_wall_s = 0.0;

  void metric(const std::string& name, double v, const std::string& unit) {
    metrics[name] = {v, unit};
  }
  /// Counts one checked operation; records `what` when it failed.
  void check(bool ok, const std::string& what);
};

/// Per-layer work counts of the timed region every workload reports: simd
/// flops and rate, pool chunks and queue wait, tile MVMs, crossbar columns.
void emit_layer_counts(Result& res, const MetricsDelta& timed, double timed_s);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Result run_hil_attack(const Options& opt, Tracer& tr);
Result run_digital_attack(const Options& opt, Tracer& tr);
Result run_serve_open_loop(const Options& opt, Tracer& tr);

}  // namespace perfbench
