#include "support.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <sstream>

#include "common/file_cache.h"
#include "common/health.h"

namespace perfbench {

std::int64_t Tracer::ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
      .count();
}

int Tracer::begin(const std::string& name, std::int64_t item) {
  if (!on_) return -1;
  Span s;
  s.name = name;
  s.start_ns = ns(Clock::now());
  s.parent = open_.empty() ? -1 : open_.back();
  s.item = item;
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  if (!on_ || id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns = ns(Clock::now());
  // Spans are RAII-scoped, so the one closing is the innermost open one.
  open_.pop_back();
}

void Tracer::add(const std::string& name, Clock::time_point start,
                 Clock::time_point end, std::int64_t item) {
  if (!on_) return;
  Span s;
  s.name = name;
  s.start_ns = ns(start);
  s.end_ns = ns(end);
  s.parent = open_.empty() ? -1 : open_.back();
  s.item = item;
  spans_.push_back(std::move(s));
}

std::string Tracer::to_json() const {
  std::ostringstream o;
  o << "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    o << (i ? ",\n" : "\n") << "[\"" << s.name << "\"," << s.start_ns << ","
      << s.end_ns << "," << s.parent << "," << s.item << "]";
  }
  o << "\n]\n";
  return o.str();
}

void clear_derived_cache() {
  namespace fs = std::filesystem;
  for (const auto& e : fs::directory_iterator(nvm::cache_dir()))
    if (e.is_regular_file() &&
        e.path().filename().string().rfind("model_", 0) != 0)
      fs::remove(e.path());
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const auto idx = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

std::uint64_t fnv(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t digest(const Tensor& t, std::uint64_t h) {
  return fnv(t.raw(), static_cast<std::size_t>(t.numel()) * sizeof(float), h);
}

std::string hex(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

void MetricsDelta::stop() {
  delta_ = nvm::metrics::delta(nvm::metrics::snapshot(), base_);
}

double MetricsDelta::value(const std::string& name) const {
  for (const auto& m : delta_)
    if (m.name == name)
      return m.kind == nvm::metrics::Kind::Histogram
                 ? static_cast<double>(m.count)
                 : m.value;
  return 0.0;
}

double MetricsDelta::hist_quantile(const std::string& name, double q) const {
  for (const auto& m : delta_)
    if (m.name == name && m.kind == nvm::metrics::Kind::Histogram &&
        m.count > 0)
      return nvm::metrics::quantile(m, q);
  return 0.0;
}

std::uint64_t health_failures(const MetricsDelta& d) {
  using nvm::HealthCounter;
  double n = 0.0;
  for (HealthCounter c : {HealthCounter::SolverNonConverged,
                          HealthCounter::NonFiniteOutput,
                          HealthCounter::SurrogateFallback})
    n += d.value(nvm::health_metric_name(c));
  return static_cast<std::uint64_t>(n);
}

void emit_layer_counts(Result& res, const MetricsDelta& timed,
                       double timed_s) {
  const double flops = timed.value("simd/flops");
  res.metric("simd.flops", flops, "count");
  res.metric("simd.gflops", flops / timed_s * 1e-9, "GFLOP/s");
  res.metric("common.pool_chunks", timed.value("pool/chunks_run"), "count");
  res.metric("common.pool_wait_us.p50",
             timed.hist_quantile("pool/queue_wait_ns", 0.5) * 1e-3, "us");
  res.metric("puma.tile_mvms", timed.value("puma/tiled/tile_mvms"), "count");
  res.metric("xbar.mvm_columns",
             timed.value("xbar/mvm_columns") +
                 timed.value("xbar/mvm_multi_columns"),
             "count");
}

void Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    if (failures.size() < 20) failures.push_back(what);
  }
}

}  // namespace perfbench
