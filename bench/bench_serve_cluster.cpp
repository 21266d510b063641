// Serving-cluster benchmark: open-loop Poisson traffic through
// nvm::serve::Cluster at shard counts {1, 2, 4}, plus a dispatch-policy
// comparison at the widest count and an overload leg with a small queue.
//
// Reported per config: aggregate throughput, exact p50/p99 latency, the
// worst per-shard p99 (tail latency hides in the slowest shard, not the
// aggregate — see EXPERIMENTS.md), and the shed fraction under overload.
// Labels are cross-checked across every shard count and policy: routing
// decides WHERE a request runs, never what it answers, so any label drift
// is a determinism bug and the bench exits nonzero.
//
// On a single-core host the shard counts time-slice one core, so the
// aggregate saturation headline tracks the single-shard number; the
// committed BENCH_serve_cluster.json gates relative regressions on the
// same class of machine rather than asserting multi-core scaling.
#include <string>

#include "bench_util.h"
#include "serve/cluster.h"
#include "xbar/fast_noise.h"

int main(int argc, char** argv) {
  using namespace nvm;
  core::RunManifest manifest =
      bench::bench_manifest(argc, argv, "bench_serve_cluster");

  const xbar::CrossbarConfig cfg = xbar::xbar_32x32_100k();
  manifest.set_xbar(cfg);
  auto model = std::make_shared<xbar::FastNoiseModel>(cfg);

  const std::int64_t classes = 16, feat = 128;
  Rng wrng(derive_seed(1, 0));
  Tensor w({classes, feat});
  for (auto& v : w.data()) v = static_cast<float>(wrng.uniform(-1.0, 1.0));

  const std::int64_t n = scaled(300, 1500);
  Rng xrng(derive_seed(1, 1));
  std::vector<Tensor> requests;
  requests.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    Tensor x({feat});
    for (auto& v : x.data()) v = static_cast<float>(xrng.uniform());
    requests.push_back(std::move(x));
  }
  const std::vector<std::string> tenants = {"primary"};

  auto make_cluster = [&](std::int64_t shards, serve::DispatchPolicy policy,
                          std::int64_t queue_cap) {
    serve::ClusterOptions opt;
    opt.shards = shards;
    opt.policy = policy;
    opt.threads_per_shard = 1;
    opt.serve.max_batch = 32;
    opt.serve.queue_capacity = queue_cap;
    auto cluster = std::make_unique<serve::Cluster>(opt);
    // Multi-tenant residency: a second model stays resident throughout so
    // the saturation numbers are measured with realistic tenancy, even
    // though the traffic below targets one tenant (single-tenant traffic
    // keeps the determinism cross-check exact).
    cluster->add_model(serve::tiled_linear_spec("primary", w, model,
                                                puma::HwConfig{}, 1.0f));
    cluster->add_model(serve::tiled_linear_spec("secondary", w, model,
                                                puma::HwConfig{}, 1.0f));
    return cluster;
  };

  auto run = [&](serve::Cluster& cluster, double rate) {
    serve::TrafficOptions traffic;
    traffic.rate_rps = rate;
    traffic.seed = derive_seed(1, 2);
    return run_cluster_open_loop(cluster, tenants, requests, traffic);
  };

  auto shard_p99_max = [](const serve::ClusterTrafficReport& rep) {
    double worst = 0.0;
    for (const auto& s : rep.shards)
      if (s.ok > 0 && s.p99_ms > worst) worst = s.p99_ms;
    return worst;
  };

  core::TablePrinter table({"shards", "policy", "offered rps", "ok", "shed",
                            "agg rps", "p99 ms", "shard p99 max ms"});
  std::vector<std::int64_t> ref_labels;
  bool deterministic = true;
  auto check_labels = [&](const serve::ClusterTrafficReport& rep) {
    if (ref_labels.empty()) ref_labels = rep.total.labels;
    else if (rep.total.labels != ref_labels) deterministic = false;
  };

  // Saturation vs shard count (least_loaded, the default policy).
  double agg_best = 0.0, s1_rps = 0.0;
  for (const std::int64_t shards : {1, 2, 4}) {
    auto cluster =
        make_cluster(shards, serve::DispatchPolicy::LeastLoaded, n);
    const serve::ClusterTrafficReport rep = run(*cluster, 0.0);
    cluster->drain();
    check_labels(rep);
    const double p99_shard = shard_p99_max(rep);
    if (shards == 1) s1_rps = rep.total.throughput_rps;
    if (rep.total.throughput_rps > agg_best)
      agg_best = rep.total.throughput_rps;
    table.add_row({std::to_string(shards), "least_loaded", "saturation",
                   std::to_string(rep.total.ok),
                   std::to_string(rep.total.shed),
                   core::fmt(static_cast<float>(rep.total.throughput_rps)),
                   core::fmt(static_cast<float>(rep.total.p99_ms)),
                   core::fmt(static_cast<float>(p99_shard))});
    const std::string key = "s" + std::to_string(shards) + "_";
    manifest.add_result(key + "saturation_rps", rep.total.throughput_rps);
    manifest.add_result(key + "p99_ms", rep.total.p99_ms);
    manifest.add_result(key + "shard_p99_ms_max", p99_shard);
  }
  manifest.add_result("aggregate_saturation_rps", agg_best);
  manifest.add_result("cluster_speedup_vs_s1",
                      s1_rps > 0.0 ? agg_best / s1_rps : 0.0);

  // Policy comparison at 4 shards: same traffic, same answers, different
  // placement.
  const serve::DispatchPolicy policies[] = {
      serve::DispatchPolicy::RoundRobin,
      serve::DispatchPolicy::ConsistentHash,
      serve::DispatchPolicy::LeastLoaded,
  };
  for (const serve::DispatchPolicy policy : policies) {
    auto cluster = make_cluster(4, policy, n);
    const serve::ClusterTrafficReport rep = run(*cluster, 0.0);
    cluster->drain();
    check_labels(rep);
    table.add_row({"4", to_string(policy), "saturation",
                   std::to_string(rep.total.ok),
                   std::to_string(rep.total.shed),
                   core::fmt(static_cast<float>(rep.total.throughput_rps)),
                   core::fmt(static_cast<float>(rep.total.p99_ms)),
                   core::fmt(static_cast<float>(shard_p99_max(rep)))});
    manifest.add_result(std::string("policy_") + to_string(policy) + "_rps",
                        rep.total.throughput_rps);
  }

  // Overload leg: offer ~2.5x the measured aggregate saturation into
  // small bounded queues; admission control must shed the excess instead
  // of letting latency run away, and every request still gets a reply.
  const double offered = 2.5 * (agg_best > 0.0 ? agg_best : 1000.0);
  {
    auto cluster = make_cluster(4, serve::DispatchPolicy::LeastLoaded, 16);
    const serve::ClusterTrafficReport rep = run(*cluster, offered);
    cluster->drain();
    const double shed_frac =
        static_cast<double>(rep.total.shed) / static_cast<double>(n);
    table.add_row({"4", "least_loaded",
                   std::to_string(static_cast<std::int64_t>(offered)),
                   std::to_string(rep.total.ok),
                   std::to_string(rep.total.shed),
                   core::fmt(static_cast<float>(rep.total.throughput_rps)),
                   core::fmt(static_cast<float>(rep.total.p99_ms)),
                   core::fmt(static_cast<float>(shard_p99_max(rep)))});
    manifest.add_result("overload_offered_rps", offered);
    manifest.add_result("overload_served_rps", rep.total.throughput_rps);
    manifest.add_result("overload_shed_frac", shed_frac);
    manifest.add_result("overload_p99_ms", rep.total.p99_ms);
    if (rep.total.ok + rep.total.shed + rep.total.timed_out != n) {
      std::fprintf(stderr, "FAIL: overload leg lost requests\n");
      return 1;
    }
  }

  table.print("Serving cluster, fast-noise " + cfg.name + " backend, " +
              std::to_string(classes) + "x" + std::to_string(feat) +
              " classifier, " + std::to_string(n) +
              " requests, 2 tenants resident");
  std::printf("aggregate saturation: %.0f rps (%.2fx single shard)\n",
              agg_best, s1_rps > 0.0 ? agg_best / s1_rps : 0.0);
  manifest.set_note("determinism",
                    deterministic
                        ? "labels identical across shard counts and policies"
                        : "LABEL MISMATCH across cluster configs");

  if (!deterministic) {
    std::fprintf(stderr,
                 "FAIL: served labels changed with shard count or policy\n");
    return 1;
  }
  return 0;
}
