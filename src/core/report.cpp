#include "core/report.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <thread>

#include "common/check.h"
#include "common/file_cache.h"
#include "common/health.h"
#include "common/logging.h"
#include "common/simd.h"
#include "common/telemetry.h"
#include "common/trace.h"

namespace nvm::core {

TablePrinter::TablePrinter(std::vector<std::string> header)
    : header_(std::move(header)) {
  NVM_CHECK(!header_.empty());
}

void TablePrinter::add_row(std::vector<std::string> cells) {
  NVM_CHECK_EQ(cells.size(), header_.size());
  rows_.push_back(std::move(cells));
}

void TablePrinter::print(const std::string& title) const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  std::cout << "\n== " << title << " ==\n";
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      std::cout << (c == 0 ? "" : " | ");
      std::cout << row[c];
      for (std::size_t pad = row[c].size(); pad < width[c]; ++pad)
        std::cout << ' ';
    }
    std::cout << "\n";
  };
  print_row(header_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < width.size(); ++c) total += width[c] + 3;
  std::cout << std::string(total, '-') << "\n";
  for (const auto& row : rows_) print_row(row);
  std::cout.flush();
}

std::string fmt(float value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", static_cast<double>(value));
  return buf;
}

std::string with_delta(float value, float baseline) {
  char buf[64];
  const float d = value - baseline;
  std::snprintf(buf, sizeof buf, "%.2f (%+.2f)", static_cast<double>(value),
                static_cast<double>(d));
  return buf;
}

void print_series(const std::string& name, const std::vector<float>& values) {
  std::cout << name;
  for (float v : values) std::cout << ", " << fmt(v);
  std::cout << "\n";
  std::cout.flush();
}

// ---------------------------------------------------------------------------
// JsonWriter

std::string JsonWriter::escape(const std::string& v) {
  std::string out;
  out.reserve(v.size() + 2);
  out += '"';
  for (const char c : v) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

void JsonWriter::before_value() {
  if (has_member_.empty()) return;  // top-level value
  if (key_pending_) {
    key_pending_ = false;
    return;
  }
  if (has_member_.back()) os_ << ",";
  has_member_.back() = true;
  os_ << "\n" << std::string(2 * has_member_.size(), ' ');
}

void JsonWriter::begin_object() {
  before_value();
  os_ << "{";
  has_member_.push_back(false);
}

void JsonWriter::end_object() {
  NVM_CHECK(!has_member_.empty(), "JSON end_object with nothing open");
  const bool any = has_member_.back();
  has_member_.pop_back();
  if (any) os_ << "\n" << std::string(2 * has_member_.size(), ' ');
  os_ << "}";
  if (has_member_.empty()) os_ << "\n";
}

void JsonWriter::begin_array() {
  before_value();
  os_ << "[";
  has_member_.push_back(false);
}

void JsonWriter::end_array() {
  NVM_CHECK(!has_member_.empty(), "JSON end_array with nothing open");
  const bool any = has_member_.back();
  has_member_.pop_back();
  if (any) os_ << "\n" << std::string(2 * has_member_.size(), ' ');
  os_ << "]";
}

void JsonWriter::key(const std::string& k) {
  NVM_CHECK(!has_member_.empty() && !key_pending_,
            "JSON key() outside an object member slot");
  before_value();
  os_ << escape(k) << ": ";
  key_pending_ = true;
}

void JsonWriter::value(const std::string& v) {
  before_value();
  os_ << escape(v);
}

void JsonWriter::value(const char* v) { value(std::string(v)); }

void JsonWriter::value(double v) {
  before_value();
  if (!std::isfinite(v)) {
    os_ << "null";  // JSON has no NaN/Inf
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os_ << buf;
}

void JsonWriter::value(std::uint64_t v) {
  before_value();
  os_ << v;
}

void JsonWriter::value(std::int64_t v) {
  before_value();
  os_ << v;
}

void JsonWriter::value(bool v) {
  before_value();
  os_ << (v ? "true" : "false");
}

void JsonWriter::null() {
  before_value();
  os_ << "null";
}

// ---------------------------------------------------------------------------
// RunManifest

RunManifest::RunManifest(std::string run_name, std::string path)
    : run_name_(std::move(run_name)), path_(std::move(path)) {
  if (active()) metrics_base_ = metrics::snapshot();
}

RunManifest::RunManifest(RunManifest&& other) noexcept
    : run_name_(std::move(other.run_name_)),
      path_(std::move(other.path_)),
      written_(other.written_),
      xbar_(std::move(other.xbar_)),
      results_(std::move(other.results_)),
      series_(std::move(other.series_)),
      notes_(std::move(other.notes_)),
      metrics_base_(std::move(other.metrics_base_)) {
  other.written_ = true;  // the moved-from shell must never write
}

RunManifest::~RunManifest() {
  try {
    write();
  } catch (...) {
    // Destructors must not throw; write() already logged the failure.
  }
}

RunManifest RunManifest::from_env(std::string run_name,
                                  const std::string& flag_path) {
  std::string path = flag_path;
  if (path.empty()) {
    const char* env = std::getenv("NVM_METRICS_OUT");
    if (env != nullptr) path = env;
  }
  return RunManifest(std::move(run_name), std::move(path));
}

void RunManifest::set_xbar(const xbar::CrossbarConfig& cfg) { xbar_ = cfg; }

void RunManifest::add_result(const std::string& name, double value) {
  results_.emplace_back(name, value);
}

void RunManifest::add_series(const std::string& name,
                             std::vector<double> values) {
  series_.emplace_back(name, std::move(values));
}

void RunManifest::set_note(const std::string& key, const std::string& value) {
  notes_.emplace_back(key, value);
}

namespace {

void write_metric_delta(JsonWriter& j, const metrics::MetricValue& m) {
  j.key(m.name);
  switch (m.kind) {
    case metrics::Kind::Counter:
      j.value(static_cast<std::uint64_t>(m.value));
      break;
    case metrics::Kind::Gauge:
      j.value(m.value);
      break;
    case metrics::Kind::Histogram:
      j.begin_object();
      j.key("count");
      j.value(m.count);
      j.key("sum");
      j.value(m.sum);
      j.key("bounds");
      j.begin_array();
      for (const double b : m.bounds) j.value(b);
      j.end_array();
      j.key("buckets");
      j.begin_array();
      for (const std::uint64_t b : m.buckets) j.value(b);
      j.end_array();
      // Interpolated tail estimates so consumers get latency percentiles
      // without re-deriving them from the buckets.
      j.key("p50");
      j.value(metrics::quantile(m, 0.5));
      j.key("p99");
      j.value(metrics::quantile(m, 0.99));
      j.end_object();
      break;
  }
}

}  // namespace

void RunManifest::write() {
  if (!active() || written_) return;
  written_ = true;

  const std::vector<metrics::MetricValue> deltas =
      metrics::delta(metrics::snapshot(), metrics_base_);

  // Build the whole document in memory and publish it crash-safely
  // (tmp + fsync + rename): a run killed mid-write never leaves a
  // truncated manifest behind.
  std::ostringstream os;
  JsonWriter j(os);
  j.begin_object();
  j.key("run");
  j.value(run_name_);
  j.key("schema");
  j.value(std::int64_t{1});

  // The host the numbers came from, so a committed manifest says what
  // machine its timings describe.
  j.key("host");
  j.begin_object();
  j.key("nproc");
  j.value(static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  j.key("simd/isa");
  j.value(simd::isa_name(simd::active_isa()));
  j.key("compiler");
  j.value(__VERSION__);
  j.key("build_type");
  j.value(NVM_BUILD_TYPE);
  j.end_object();

  j.key("xbar");
  if (xbar_.has_value()) {
    j.begin_object();
    j.key("name");
    j.value(xbar_->name);
    j.key("rows");
    j.value(xbar_->rows);
    j.key("cols");
    j.value(xbar_->cols);
    j.key("r_on");
    j.value(xbar_->r_on);
    j.key("on_off_ratio");
    j.value(xbar_->on_off_ratio);
    j.key("levels");
    j.value(xbar_->levels);
    j.key("r_source");
    j.value(xbar_->r_source);
    j.key("r_sink");
    j.value(xbar_->r_sink);
    j.key("r_wire");
    j.value(xbar_->r_wire);
    j.key("v_read");
    j.value(xbar_->v_read);
    j.key("device_nonlin");
    j.value(xbar_->device_nonlin);
    j.end_object();
  } else {
    j.null();
  }

  j.key("results");
  j.begin_object();
  for (const auto& [name, value] : results_) {
    j.key(name);
    j.value(value);
  }
  j.end_object();

  j.key("series");
  j.begin_object();
  for (const auto& [name, values] : series_) {
    j.key(name);
    j.begin_array();
    for (const double v : values) j.value(v);
    j.end_array();
  }
  j.end_object();

  j.key("notes");
  j.begin_object();
  for (const auto& [key, value] : notes_) {
    j.key(key);
    j.value(value);
  }
  j.end_object();

  // Health counters are metrics (one source of truth); this section just
  // pulls their four canonical names out of the same delta list.
  j.key("health");
  j.begin_object();
  for (int c = 0; c < kHealthCounterCount; ++c) {
    const std::string name = health_metric_name(static_cast<HealthCounter>(c));
    std::uint64_t delta_value = 0;
    for (const auto& m : deltas)
      if (m.name == name) delta_value = static_cast<std::uint64_t>(m.value);
    j.key(name);
    j.value(delta_value);
  }
  j.end_object();

  j.key("metrics");
  j.begin_object();
  for (const auto& m : deltas) write_metric_delta(j, m);
  j.end_object();

  j.key("spans");
  j.begin_object();
  for (const auto& [name, stats] : trace::snapshot()) {
    j.key(name);
    j.begin_object();
    j.key("count");
    j.value(stats.count);
    j.key("total_ns");
    j.value(stats.total_ns);
    j.key("min_ns");
    j.value(stats.min_ns);
    j.key("max_ns");
    j.value(stats.max_ns);
    j.end_object();
  }
  j.end_object();

  // Streaming-telemetry series (common/telemetry.h): absolute sampled
  // values in pulse order, not deltas — a pulse may predate this
  // manifest's construction when several runs share a process.
  j.key("telemetry");
  j.begin_object();
  j.key("capacity");
  j.value(static_cast<std::uint64_t>(telemetry::capacity()));
  j.key("series");
  j.begin_object();
  for (const telemetry::Series& s : telemetry::snapshot()) {
    if (s.ticks.empty() && s.dropped == 0) continue;
    j.key(s.metric);
    j.begin_object();
    j.key("ticks");
    j.begin_array();
    for (const std::uint64_t t : s.ticks) j.value(t);
    j.end_array();
    j.key("values");
    j.begin_array();
    for (const double v : s.values) j.value(v);
    j.end_array();
    j.key("dropped");
    j.value(s.dropped);
    j.end_object();
  }
  j.end_object();
  j.end_object();

  j.end_object();
  if (!atomic_write_file(path_, os.str()))
    NVM_LOG(Warn) << "write failed for metrics manifest " << path_;
  else
    NVM_LOG(Info) << "metrics manifest written to " << path_;
}

}  // namespace nvm::core
