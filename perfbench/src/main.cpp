// perfbench: runs one benchmark workload against the nvmrobust library and
// writes its measurements as JSON (see run.py, which builds this program,
// prepares its cache directory and turns the record into the final report).
//
//   perfbench --workload hil_attack|digital_attack|serve_open_loop
//             --seed N --seconds S --trace 0|1 --out FILE [--spans FILE]
//   perfbench --prepare      (trains the benchmark network into the cache)
//
// The library reads its artifact cache from NVMROBUST_CACHE_DIR and sizes
// its pool from NVM_THREADS; run.py sets both.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "common/env.h"
#include "common/simd.h"
#include "core/tasks.h"
#include "support.h"

namespace {

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    o += c;
  }
  return o + "\"";
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  std::string out_path, spans_path;
  if (argc == 2 && std::string(argv[1]) == "--prepare") {
    (void)nvm::core::prepare(nvm::core::task_scifar10());
    return 0;
  }
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    bool ok = true;
    if (k == "--workload") {
      opt.workload = v;
    } else if (k == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      ok = nvm::parse_double(v.c_str(), &opt.seconds) && opt.seconds > 0;
    } else if (k == "--trace") {
      opt.trace = v == "1";
    } else if (k == "--out") {
      out_path = v;
    } else if (k == "--spans") {
      spans_path = v;
    } else {
      ok = false;
    }
    if (!ok) usage(("bad argument " + k + " " + v).c_str());
  }
  if (out_path.empty()) usage("--out is required");

  Tracer tr(opt.trace);
  Result res;
  if (opt.workload == "hil_attack") {
    res = run_hil_attack(opt, tr);
  } else if (opt.workload == "digital_attack") {
    res = run_digital_attack(opt, tr);
  } else if (opt.workload == "serve_open_loop") {
    res = run_serve_open_loop(opt, tr);
  } else {
    usage(("unknown workload '" + opt.workload + "'").c_str());
  }
  res.metric("peak_rss_mb", peak_rss_mb(), "MB");

  std::ostringstream o;
  o << "{\n\"header\": {"
    << "\"workload\": " << json_str(opt.workload)
    << ", \"seed\": " << opt.seed
    << ", \"seconds\": " << num(opt.seconds)
    << ", \"trace\": " << (opt.trace ? 1 : 0)
    << ", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"nvm_threads\": " << nvm::env_int("NVM_THREADS", 0)
    << ", \"simd_isa\": " << json_str(nvm::simd::isa_name(nvm::simd::active_isa()))
    << ", \"compiler\": " << json_str(__VERSION__)
    << ", \"build_type\": " << json_str(PERFBENCH_BUILD_TYPE)
    << "},\n\"timed_wall_s\": " << num(res.timed_wall_s)
    << ",\n\"attempted\": " << res.attempted
    << ",\n\"failed\": " << res.failed << ",\n\"failures\": [";
  for (std::size_t i = 0; i < res.failures.size(); ++i)
    o << (i ? ", " : "") << json_str(res.failures[i]);
  o << "],\n\"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : res.metrics) {
    o << (first ? "\n" : ",\n") << json_str(name) << ": [" << num(vu.first)
      << ", " << json_str(vu.second) << "]";
    first = false;
  }
  o << "},\n\"digests\": {";
  first = true;
  for (const auto& [k, v] : res.digests) {
    o << (first ? "\n" : ",\n") << json_str(k) << ": " << json_str(v);
    first = false;
  }
  o << "}\n}\n";
  std::ofstream(out_path) << o.str();
  if (opt.trace && !spans_path.empty()) std::ofstream(spans_path) << tr.to_json();
  return 0;
}
