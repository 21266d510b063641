// nvm::telemetry + trace timeline events: ring-buffer sampler semantics
// (track/pulse/drop-oldest/snapshot, capacity override), Chrome-trace
// event capture (nested/recursive spans balanced per thread, monotone
// timestamps, drop-oldest rings still exporting well-formed streams),
// crash-safe flush output, the zero-overhead/bit-identity contract
// (solver + serve outputs identical with capture on vs off), the serve
// per-request stage breakdown, atomic_write_file, and span-stat merge
// associativity.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/file_cache.h"
#include "common/metrics.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "puma/tiled_mvm.h"
#include "serve/serve.h"
#include "tensor/tensor.h"
#include "xbar/fast_noise.h"
#include "xbar/model_zoo.h"

namespace nvm {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::size_t count_occurrences(const std::string& hay, const std::string& s) {
  std::size_t n = 0;
  for (std::size_t pos = hay.find(s); pos != std::string::npos;
       pos = hay.find(s, pos + s.size()))
    ++n;
  return n;
}

class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::reset_for_tests();
    trace::reset_events_for_tests();
  }
  void TearDown() override {
    telemetry::set_capacity_for_tests(0);
    telemetry::reset_for_tests();
    trace::reset_events_for_tests();
  }
};

// ---------------------------------------------------------------------------
// Time-series sampler

TEST_F(TelemetryTest, TrackedSeriesFollowsMetricAcrossPulses) {
  metrics::Gauge& g = metrics::gauge("test/telemetry_gauge");
  telemetry::track("test/telemetry_gauge");
  g.set(1.0);
  telemetry::sample_all(10);
  g.set(2.5);
  telemetry::sample_all(20);

  bool found = false;
  for (const telemetry::Series& s : telemetry::snapshot()) {
    if (s.metric != "test/telemetry_gauge") continue;
    found = true;
    ASSERT_EQ(s.ticks.size(), 2u);
    EXPECT_EQ(s.ticks[0], 10u);
    EXPECT_EQ(s.ticks[1], 20u);
    EXPECT_DOUBLE_EQ(s.values[0], 1.0);
    EXPECT_DOUBLE_EQ(s.values[1], 2.5);
    EXPECT_EQ(s.dropped, 0u);
  }
  EXPECT_TRUE(found);
}

TEST_F(TelemetryTest, RingDropsOldestBeyondCapacity) {
  telemetry::set_capacity_for_tests(3);
  metrics::Gauge& g = metrics::gauge("test/telemetry_ring");
  telemetry::track("test/telemetry_ring");
  for (std::uint64_t t = 0; t < 8; ++t) {
    g.set(static_cast<double>(t) * 10.0);
    telemetry::sample_all(t);
  }
  for (const telemetry::Series& s : telemetry::snapshot()) {
    if (s.metric != "test/telemetry_ring") continue;
    ASSERT_EQ(s.ticks.size(), 3u);  // capacity
    EXPECT_EQ(s.dropped, 5u);       // 8 pulses - 3 retained
    // Oldest-first: the three newest samples survive, in capture order.
    EXPECT_EQ(s.ticks[0], 5u);
    EXPECT_EQ(s.ticks[2], 7u);
    EXPECT_DOUBLE_EQ(s.values[2], 70.0);
    return;
  }
  FAIL() << "tracked series missing from snapshot";
}

TEST_F(TelemetryTest, UnregisteredMetricRecordsNothingUntilItAppears) {
  telemetry::track("test/telemetry_late_metric_unique");
  telemetry::sample_all(1);  // metric does not exist yet: no sample
  metrics::counter("test/telemetry_late_metric_unique").add(4);
  telemetry::sample_all(2);
  for (const telemetry::Series& s : telemetry::snapshot()) {
    if (s.metric != "test/telemetry_late_metric_unique") continue;
    ASSERT_EQ(s.ticks.size(), 1u);
    EXPECT_EQ(s.ticks[0], 2u);
    EXPECT_DOUBLE_EQ(s.values[0], 4.0);
    return;
  }
  FAIL() << "tracked series missing from snapshot";
}

TEST_F(TelemetryTest, HistogramsSampleAsObservationCounts) {
  metrics::Histogram& h = metrics::histogram("test/telemetry_hist");
  telemetry::track("test/telemetry_hist");
  const std::uint64_t base = [] {
    for (const auto& m : metrics::snapshot())
      if (m.name == "test/telemetry_hist") return m.count;
    return std::uint64_t{0};
  }();
  h.observe(1.0);
  h.observe(2.0);
  telemetry::sample_all(1);
  for (const telemetry::Series& s : telemetry::snapshot()) {
    if (s.metric != "test/telemetry_hist") continue;
    ASSERT_EQ(s.values.size(), 1u);
    EXPECT_DOUBLE_EQ(s.values[0], static_cast<double>(base + 2));
    return;
  }
  FAIL() << "tracked series missing from snapshot";
}

TEST_F(TelemetryTest, ZeroCapacityDisablesSampling) {
  // TearDown resets the override; within the test, 0 comes from the env
  // default path only — emulate it by tracking nothing and checking the
  // pulse fast path stays a no-op.
  telemetry::sample_all(1);
  EXPECT_TRUE(telemetry::snapshot().empty());
}

// ---------------------------------------------------------------------------
// Trace timeline events

TEST_F(TelemetryTest, NestedAndRecursiveSpansBalancePerThread) {
  trace::enable_events("", 1 << 12);  // capture only, no at-exit flush

  std::function<void(int)> recurse = [&](int depth) {
    NVM_TRACE_SPAN("test/events/recursive");
    if (depth > 0) recurse(depth - 1);
  };
  {
    NVM_TRACE_SPAN("test/events/outer");
    {
      NVM_TRACE_SPAN("test/events/inner");
    }
    recurse(3);
  }
  trace::disable_events();

  bool checked = false;
  for (const trace::ThreadEvents& te : trace::events_snapshot()) {
    if (te.events.empty()) continue;
    checked = true;
    std::vector<const char*> stack;
    std::uint64_t last_ts = 0;
    for (const trace::Event& e : te.events) {
      EXPECT_GE(e.ts_ns, last_ts) << "per-thread timestamps must be monotone";
      last_ts = e.ts_ns;
      if (e.ph == 'B') {
        stack.push_back(e.name);
      } else {
        ASSERT_FALSE(stack.empty());
        EXPECT_STREQ(stack.back(), e.name) << "E must close the open B";
        stack.pop_back();
      }
    }
    EXPECT_TRUE(stack.empty()) << "every B must have a matching E";
    EXPECT_EQ(te.dropped, 0u);
  }
  EXPECT_TRUE(checked) << "no thread captured any events";
}

TEST_F(TelemetryTest, MultiThreadedCaptureStaysBalancedPerThread) {
  trace::enable_events("", 1 << 12);
  ThreadPool pool(3);
  pool.parallel_for(64, [&](std::int64_t) {
    NVM_TRACE_SPAN("test/events/worker");
    NVM_TRACE_SPAN("test/events/worker_inner");
  });
  trace::disable_events();

  std::size_t total = 0;
  for (const trace::ThreadEvents& te : trace::events_snapshot()) {
    std::int64_t depth = 0;
    std::uint64_t last_ts = 0;
    for (const trace::Event& e : te.events) {
      EXPECT_GE(e.ts_ns, last_ts);
      last_ts = e.ts_ns;
      depth += e.ph == 'B' ? 1 : -1;
      EXPECT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
    total += te.events.size();
  }
  EXPECT_EQ(total, 2u * 2u * 64u);  // 64 iterations x 2 spans x (B+E)
}

TEST_F(TelemetryTest, TinyRingDropsOldestButExportStaysWellFormed) {
  trace::enable_events("", 8);  // room for 4 B/E pairs
  for (int i = 0; i < 50; ++i) {
    NVM_TRACE_SPAN("test/events/churn");
  }
  trace::disable_events();

  bool found = false;
  for (const trace::ThreadEvents& te : trace::events_snapshot()) {
    if (te.events.empty()) continue;
    found = true;
    EXPECT_GT(te.dropped, 0u);
    std::int64_t depth = 0;
    for (const trace::Event& e : te.events) {
      depth += e.ph == 'B' ? 1 : -1;
      ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0) << "balanced even after ring overwrites";
  }
  EXPECT_TRUE(found);
  EXPECT_GT(metrics::counter("trace/events_dropped").value(), 0u);
}

TEST_F(TelemetryTest, FlushWritesValidChromeTraceJson) {
  const std::string path = temp_path("nvm_test_trace_events.json");
  std::remove(path.c_str());
  trace::enable_events("", 1 << 12);
  {
    NVM_TRACE_SPAN("test/events/flush_outer");
    NVM_TRACE_SPAN("test/events/flush_inner");
  }
  trace::disable_events();
  ASSERT_TRUE(trace::flush_events(path));

  const std::string json = slurp(path);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(json.find("test/events/flush_outer"), std::string::npos);
  // Every begin has an end in the exported stream.
  EXPECT_EQ(count_occurrences(json, "\"ph\": \"B\""),
            count_occurrences(json, "\"ph\": \"E\""));
  EXPECT_GT(count_occurrences(json, "\"ph\": \"B\""), 0u);
  // Crash-safe publish: no .tmp litter next to the output.
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST_F(TelemetryTest, SolverOutputsBitIdenticalWithEventsOnOrOff) {
  const xbar::CrossbarConfig cfg = xbar::xbar_32x32_100k();
  auto model = std::make_shared<xbar::FastNoiseModel>(cfg);
  Rng rng(11);
  Tensor w = Tensor::normal({8, 48}, 0, 0.1f, rng);
  Tensor x = Tensor::uniform({48, 5}, 0, 1, rng);

  puma::TiledMatrix tiled_off(w, model, puma::HwConfig{});
  const Tensor y_off = tiled_off.matmul(x, 1.0f);

  trace::enable_events("", 1 << 12);
  puma::TiledMatrix tiled_on(w, model, puma::HwConfig{});
  const Tensor y_on = tiled_on.matmul(x, 1.0f);
  trace::disable_events();

  ASSERT_EQ(y_on.numel(), y_off.numel());
  for (std::int64_t i = 0; i < y_on.numel(); ++i)
    ASSERT_EQ(y_on[i], y_off[i]) << "event capture must not perturb results";
}

// ---------------------------------------------------------------------------
// Serve stage breakdown

TEST_F(TelemetryTest, ServeRepliesCarryStageBreakdownAndBitIdentity) {
  const xbar::CrossbarConfig cfg = xbar::xbar_32x32_100k();
  auto model = std::make_shared<xbar::FastNoiseModel>(cfg);
  Rng rng(7);
  Tensor w = Tensor::normal({4, 24}, 0, 0.2f, rng);
  serve::TiledLinearBackend backend(w, model, puma::HwConfig{}, 1.0f);

  std::vector<Tensor> xs;
  for (int i = 0; i < 6; ++i)
    xs.push_back(Tensor::uniform({24}, 0, 1, rng));

  const auto run = [&](bool events) {
    if (events) trace::enable_events("", 1 << 12);
    serve::ServeOptions opt;
    opt.max_batch = 4;
    serve::Server server(backend, opt);
    std::vector<serve::Reply> replies;
    for (const Tensor& x : xs) replies.push_back(server.classify(x));
    server.drain();
    if (events) trace::disable_events();
    return replies;
  };

  const std::uint64_t form0 =
      metrics::histogram("serve/stage/batch_form_ns").count();
  const std::vector<serve::Reply> off = run(false);
  const std::vector<serve::Reply> on = run(true);

  ASSERT_EQ(off.size(), on.size());
  for (std::size_t i = 0; i < off.size(); ++i) {
    ASSERT_EQ(off[i].status, serve::ReplyStatus::Ok);
    EXPECT_EQ(off[i].label, on[i].label);
    for (std::int64_t j = 0; j < off[i].logits.numel(); ++j)
      ASSERT_EQ(off[i].logits[j], on[i].logits[j]);
    // Stage timings tile the request's server-side life: all finite and
    // non-negative, queue stage mirroring the legacy queue_ns field.
    EXPECT_GE(on[i].stages.queue_wait_ns, 0.0);
    EXPECT_DOUBLE_EQ(on[i].stages.queue_wait_ns, on[i].queue_ns);
    EXPECT_GT(on[i].stages.batch_form_ns, 0.0);
    EXPECT_GT(on[i].stages.matmul_ns, 0.0);
    EXPECT_GE(on[i].stages.epilogue_ns, 0.0);
  }
  // Stage histograms observed once per Ok request across both runs.
  EXPECT_EQ(metrics::histogram("serve/stage/batch_form_ns").count() - form0,
            2 * xs.size());
}

// ---------------------------------------------------------------------------
// atomic_write_file

TEST_F(TelemetryTest, AtomicWriteFileWritesAndOverwrites) {
  const std::string path = temp_path("nvm_test_atomic_write.txt");
  std::remove(path.c_str());
  ASSERT_TRUE(atomic_write_file(path, std::string_view("hello ")));
  EXPECT_EQ(slurp(path), "hello ");
  const std::string_view parts[] = {"hello ", "world"};
  ASSERT_TRUE(atomic_write_file(path, parts));
  EXPECT_EQ(slurp(path), "hello world");
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST_F(TelemetryTest, AtomicWriteFileFailureLeavesNothingBehind) {
  const std::string dir = temp_path("nvm_test_atomic_missing_dir");
  fs::remove_all(dir);
  const std::string path = dir + "/out.txt";
  EXPECT_FALSE(atomic_write_file(path, std::string_view("data")));
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

// ---------------------------------------------------------------------------
// Span-stat merge

TEST_F(TelemetryTest, SpanStatsMergeIsAssociative) {
  const trace::SpanStats a{3, 300, 50, 150};
  const trace::SpanStats b{1, 10, 10, 10};
  const trace::SpanStats c{5, 1000, 100, 400};

  auto merged = [](trace::SpanStats x, const trace::SpanStats& y) {
    x.merge(y);
    return x;
  };
  const trace::SpanStats left = merged(merged(a, b), c);
  const trace::SpanStats right = merged(a, merged(b, c));
  EXPECT_EQ(left.count, right.count);
  EXPECT_EQ(left.total_ns, right.total_ns);
  EXPECT_EQ(left.min_ns, right.min_ns);
  EXPECT_EQ(left.max_ns, right.max_ns);
  EXPECT_EQ(left.count, 9u);
  EXPECT_EQ(left.min_ns, 10u);
  EXPECT_EQ(left.max_ns, 400u);

  // Zero stats are the identity on both sides.
  const trace::SpanStats zero;
  EXPECT_EQ(merged(zero, a).count, a.count);
  EXPECT_EQ(merged(a, zero).total_ns, a.total_ns);
}

}  // namespace
}  // namespace nvm
