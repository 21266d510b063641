// Sharded multi-model serving cluster: the horizontal-scale tier above
// nvm::serve::Server (DESIGN.md §16).
//
//   submit(model, key, x) ──> Router (round_robin | consistent_hash |
//                │             least_loaded over published queue-depth
//                │             gauges)
//                └──> shard k ──> per-model Server (bounded queue, micro-
//                                 batching scheduler thread, shed/drain)
//
// Each of the N worker shards owns its own thread pool and its own
// independently programmed copy of every resident model's tile groups
// (multi-tenant: several model × crossbar configs resident at once;
// cold-start programming of the same config hits the same deterministic
// programming path — and, for fitted surrogates, the same file-cache
// entries — on every shard). A (shard, model) pair is one Server, so
// admission control, queue bounds, overload shed, and micro-batch
// deadlines are all per-model per-shard: one tenant saturating its queue
// never sheds another tenant's traffic.
//
// Determinism contract (the PR 5 spine, extended): crossbar programming
// has no RNG and every backend is batch-invariant, so shard k's copy of a
// model answers exactly like shard j's — routed results are bit-identical
// to serial classify across shard counts, dispatch policies, and
// NVM_THREADS (tests/test_serve_cluster.cpp pins the full matrix).
// Routing changes only latency, never logits.
//
// Shutdown: drain() stops admission on every (shard, model) server, lets
// each scheduler serve what it admitted, and joins them all. No admitted
// request is lost; late submits resolve to Shutdown tickets.
//
// Metrics: every shard publishes its own "serve/shard<k>/..." family
// (pulsed by that shard's scheduler tick); the router publishes
// "serve/cluster/..." totals.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "serve/router.h"
#include "serve/serve.h"

namespace nvm::serve {

/// One resident model (tenant). `make_backend(shard)` is invoked once per
/// shard at add_model() time — each shard programs and owns its own
/// backend instance, so shards never contend on backend state and a
/// future drift-aware cluster can degrade shards independently.
struct ModelSpec {
  std::string name;  ///< tenant id; sanitized into metric names as needed
  std::function<std::unique_ptr<BatchClassifier>(std::int64_t shard)>
      make_backend;
  /// Per-model admission/batching overrides; negative fields inherit the
  /// cluster-wide ServeOptions defaults.
  std::int64_t max_batch = -1;
  std::int64_t queue_capacity = -1;
  std::int64_t timeout_us = -1;
};

/// Convenience spec for the standard tiled linear classifier: every shard
/// programs its own TiledMatrix from the same (w, model, hw) — bit-
/// identical copies, since programming is deterministic.
ModelSpec tiled_linear_spec(std::string name, Tensor w,
                            std::shared_ptr<const xbar::MvmModel> model,
                            puma::HwConfig hw, float input_scale);

struct ClusterOptions {
  /// Worker shard count (NVM_CLUSTER_SHARDS).
  std::int64_t shards = 2;
  /// Dispatch policy (NVM_CLUSTER_POLICY: round_robin | consistent_hash |
  /// least_loaded).
  DispatchPolicy policy = DispatchPolicy::LeastLoaded;
  /// Virtual nodes per shard on the consistent-hash ring
  /// (NVM_CLUSTER_VNODES).
  int vnodes = 64;
  /// Threads in each shard's private pool (NVM_CLUSTER_SHARD_THREADS;
  /// 0 selects the NVM_THREADS / hardware default per shard).
  std::int64_t threads_per_shard = 1;
  /// Per-(shard, model) serving defaults; ModelSpec fields override, and
  /// the cluster always overrides pool/metric_scope/shard per shard.
  ServeOptions serve;

  /// Defaults above, overridden by NVM_CLUSTER_* (serve defaults come
  /// from ServeOptions::from_env, i.e. NVM_SERVE_*).
  static ClusterOptions from_env();
};

/// Aggregate + per-shard view of one open-loop traffic run.
struct ClusterTrafficReport {
  TrafficReport total;  ///< labels[i] aligned with requests[i]
  struct ShardLoad {
    std::int64_t ok = 0;             ///< replies served by this shard
    double p50_ms = 0.0, p99_ms = 0.0;  ///< exact, over this shard's Ok
  };
  std::vector<ShardLoad> shards;  ///< indexed by shard
};

class Cluster {
 public:
  explicit Cluster(ClusterOptions opt = ClusterOptions::from_env());
  /// Drains before destruction.
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Programs `spec` on every shard (cold start happens here, not on the
  /// request path) and opens admission for it. Duplicate names throw.
  void add_model(ModelSpec spec);

  bool has_model(const std::string& model) const;
  std::vector<std::string> models() const;

  /// Routes one request for `model` to a shard by (key, policy) and
  /// enqueues it there. `key` is the caller's affinity handle (user id,
  /// request id): consistent_hash pins equal keys to equal shards; the
  /// other policies ignore it. Unknown models resolve immediately to an
  /// Error ticket (counted as serve/cluster/unknown_model).
  Server::Ticket submit(const std::string& model, std::uint64_t key,
                        Tensor features);

  /// Synchronous convenience: submit() + get().
  Reply classify(const std::string& model, std::uint64_t key,
                 Tensor features);

  /// Cluster-wide graceful drain (idempotent; destructor calls it): every
  /// (shard, model) server serves what it admitted, then joins.
  void drain();

  const ClusterOptions& options() const;
  std::int64_t shards() const;
  /// Queued-but-undispatched requests on shard k, summed over its models
  /// (reads the published serve/shard<k>/queue_depth gauge — the same
  /// signal the least-loaded policy routes on).
  std::int64_t shard_queue_depth(std::int64_t shard) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Open-loop Poisson traffic against a cluster: request i targets
/// models[i % models.size()] with key i, submitted at its arrival time
/// (same deterministic arrival model as run_open_loop). Blocks until all
/// replies collect; per-shard latency comes from exact per-reply
/// measurements (Reply::shard), not histogram estimates.
ClusterTrafficReport run_cluster_open_loop(
    Cluster& cluster, std::span<const std::string> models,
    std::span<const Tensor> requests, const TrafficOptions& opt);

}  // namespace nvm::serve
