// nvm::serve::Cluster semantics: the routed-vs-serial bit-identity matrix
// (shard counts x dispatch policies x per-shard thread counts),
// drain-loses-no-request under concurrent submitters, exact overload-shed
// accounting against the per-shard counters, consistent-hash stability
// under shard-set changes, router policy selection, multi-tenant
// isolation, and NVM_CLUSTER_* env plumbing.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "serve/cluster.h"
#include "xbar/fast_noise.h"
#include "xbar/model_zoo.h"

namespace nvm {
namespace {

std::vector<Tensor> random_requests(std::int64_t n, std::int64_t feat,
                                    std::uint64_t seed) {
  std::vector<Tensor> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    Rng rng(derive_seed(seed, static_cast<std::uint64_t>(i)));
    Tensor x({feat});
    for (auto& v : x.data()) v = static_cast<float>(rng.uniform());
    out.push_back(std::move(x));
  }
  return out;
}

serve::ModelSpec linear_spec(const std::string& name, std::int64_t classes,
                             std::int64_t feat, std::uint64_t wseed) {
  xbar::CrossbarConfig cfg = xbar::xbar_32x32_100k();
  cfg.rows = cfg.cols = 16;
  cfg.name = "cluster_test_16x16";
  auto model = std::make_shared<xbar::FastNoiseModel>(cfg);
  Rng wrng(wseed);
  Tensor w({classes, feat});
  for (auto& v : w.data()) v = static_cast<float>(wrng.uniform(-1.0, 1.0));
  return serve::tiled_linear_spec(name, std::move(w), std::move(model),
                                  puma::HwConfig{}, 1.0f);
}

/// Gate shared by every shard's backend instance, so tests can hold all
/// schedulers inside their current batch while manipulating queues.
struct SharedGate {
  std::mutex mu;
  std::condition_variable entered_cv, gate_cv;
  int entered = 0;
  bool open = false;

  void wait_entered(int k) {
    std::unique_lock<std::mutex> lock(mu);
    entered_cv.wait(lock, [&] { return entered >= k; });
  }
  void release() {
    {
      std::lock_guard<std::mutex> lock(mu);
      open = true;
    }
    gate_cv.notify_all();
  }
};

class GatedBackend final : public serve::BatchClassifier {
 public:
  GatedBackend(std::shared_ptr<SharedGate> gate, std::int64_t feat,
               std::int64_t classes)
      : gate_(std::move(gate)), feat_(feat), classes_(classes) {}

  std::int64_t feature_dim() const override { return feat_; }
  std::int64_t classes() const override { return classes_; }

  Tensor logits_block(const Tensor& x) override {
    {
      std::unique_lock<std::mutex> lock(gate_->mu);
      ++gate_->entered;
      gate_->entered_cv.notify_all();
      gate_->gate_cv.wait(lock, [&] { return gate_->open; });
    }
    const std::int64_t n = x.dim(1);
    Tensor out({classes_, n});
    for (std::int64_t j = 0; j < classes_; ++j)
      for (std::int64_t k = 0; k < n; ++k)
        out.at(j, k) = x.at(j % feat_, k) + static_cast<float>(j);
    return out;
  }

 private:
  std::shared_ptr<SharedGate> gate_;
  std::int64_t feat_, classes_;
};

serve::ModelSpec gated_spec(const std::string& name,
                            std::shared_ptr<SharedGate> gate,
                            std::int64_t feat, std::int64_t classes) {
  serve::ModelSpec spec;
  spec.name = name;
  spec.make_backend = [gate, feat, classes](std::int64_t) {
    return std::make_unique<GatedBackend>(gate, feat, classes);
  };
  return spec;
}

// The tentpole acceptance matrix: a single-tenant cluster must answer
// bit-identically to serial classify for every {shard count} x {dispatch
// policy} x {threads per shard} combination. Every shard programs its own
// tiles (no RNG in programming => identical copies) and every backend is
// batch-invariant, so WHERE a request runs can never change its logits.
TEST(ServeCluster, RoutedBitIdenticalToSerialClassifyMatrix) {
  const std::int64_t classes = 8, feat = 48, n = 48;
  const std::vector<Tensor> requests = random_requests(n, feat, 21);

  // Serial reference: the same backend construction, one process-wide
  // instance, one column at a time.
  serve::ModelSpec ref_spec = linear_spec("ref", classes, feat, 3);
  std::unique_ptr<serve::BatchClassifier> ref_backend =
      ref_spec.make_backend(0);
  std::vector<Tensor> ref_logits;
  std::vector<std::int64_t> ref_labels;
  for (const Tensor& x : requests) {
    Tensor col = x;
    col.reshape({feat, 1});
    Tensor out = ref_backend->logits_block(col);
    out.reshape({classes});
    ref_labels.push_back(out.argmax());
    ref_logits.push_back(std::move(out));
  }

  const serve::DispatchPolicy policies[] = {
      serve::DispatchPolicy::RoundRobin,
      serve::DispatchPolicy::ConsistentHash,
      serve::DispatchPolicy::LeastLoaded,
  };
  for (std::int64_t shards : {1, 2, 4}) {
    for (serve::DispatchPolicy policy : policies) {
      for (std::int64_t threads : {1, 4}) {
        serve::ClusterOptions opt;
        opt.shards = shards;
        opt.policy = policy;
        opt.threads_per_shard = threads;
        opt.serve.max_batch = 8;
        serve::Cluster cluster(opt);
        cluster.add_model(linear_spec("ref", classes, feat, 3));

        std::vector<serve::Server::Ticket> tickets;
        tickets.reserve(static_cast<std::size_t>(n));
        for (std::int64_t i = 0; i < n; ++i)
          tickets.push_back(cluster.submit(
              "ref", static_cast<std::uint64_t>(i),
              requests[static_cast<std::size_t>(i)]));
        for (std::int64_t i = 0; i < n; ++i) {
          serve::Reply r = tickets[static_cast<std::size_t>(i)].get();
          ASSERT_EQ(r.status, serve::ReplyStatus::Ok)
              << "shards=" << shards << " policy=" << to_string(policy)
              << " threads=" << threads << " i=" << i;
          EXPECT_EQ(r.label, ref_labels[static_cast<std::size_t>(i)]);
          ASSERT_GE(r.shard, 0);
          ASSERT_LT(r.shard, shards);
          const Tensor& ref = ref_logits[static_cast<std::size_t>(i)];
          for (std::int64_t j = 0; j < classes; ++j)
            ASSERT_EQ(r.logits[j], ref[j])
                << "shards=" << shards << " policy=" << to_string(policy)
                << " threads=" << threads << " i=" << i << " j=" << j;
        }
      }
    }
  }
}

// Graceful drain loses nothing: with 4 threads submitting concurrently
// while the cluster drains, every ticket resolves and every request is
// either served (admitted before drain) or rejected as Shutdown — never
// lost, never both.
TEST(ServeCluster, DrainUnderConcurrentSubmitLosesNoRequest) {
  const std::int64_t classes = 4, feat = 8;
  serve::ClusterOptions opt;
  opt.shards = 2;
  opt.policy = serve::DispatchPolicy::RoundRobin;
  opt.serve.max_batch = 4;
  serve::Cluster cluster(opt);
  cluster.add_model(linear_spec("m", classes, feat, 5));

  constexpr int kThreads = 4, kPerThread = 50;
  std::vector<std::vector<serve::Server::Ticket>> tickets(kThreads);
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      Rng rng(derive_seed(77, static_cast<std::uint64_t>(t)));
      for (int i = 0; i < kPerThread; ++i) {
        Tensor x({feat});
        for (auto& v : x.data()) v = static_cast<float>(rng.uniform());
        tickets[static_cast<std::size_t>(t)].push_back(cluster.submit(
            "m", static_cast<std::uint64_t>(t * kPerThread + i),
            std::move(x)));
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  cluster.drain();
  for (auto& th : submitters) th.join();

  std::int64_t ok = 0, shutdown = 0, other = 0;
  for (auto& per_thread : tickets) {
    ASSERT_EQ(per_thread.size(), static_cast<std::size_t>(kPerThread));
    for (auto& ticket : per_thread) {
      const serve::Reply r = ticket.get();
      if (r.status == serve::ReplyStatus::Ok) ++ok;
      else if (r.status == serve::ReplyStatus::Shutdown) ++shutdown;
      else ++other;
    }
  }
  EXPECT_EQ(ok + shutdown, kThreads * kPerThread);
  EXPECT_EQ(other, 0);
  // Idempotent; queues are empty afterwards.
  cluster.drain();
  EXPECT_EQ(cluster.shard_queue_depth(0), 0);
  EXPECT_EQ(cluster.shard_queue_depth(1), 0);
}

// Exact shed accounting on one gated shard: hold the scheduler inside a
// batch, fill the queue to capacity, then submit M more — exactly M shed
// replies and exactly M ticks on the shard's shed counter; everything
// admitted is eventually served.
TEST(ServeCluster, OverloadShedAccountingIsExact) {
  const std::int64_t feat = 6, classes = 3, cap = 2;
  auto gate = std::make_shared<SharedGate>();

  serve::ClusterOptions opt;
  opt.shards = 1;
  opt.policy = serve::DispatchPolicy::RoundRobin;
  opt.serve.max_batch = 1;
  opt.serve.queue_capacity = cap;
  serve::Cluster cluster(opt);

  serve::ModelSpec spec = gated_spec("gated", gate, feat, classes);
  cluster.add_model(std::move(spec));

  const std::uint64_t shed_before =
      metrics::counter("serve/shard0/shed").value();
  const std::uint64_t requests_before =
      metrics::counter("serve/cluster/requests").value();

  auto request = [&](std::uint64_t key) {
    Tensor x({feat});
    for (auto& v : x.data()) v = 0.25f;
    return cluster.submit("gated", key, std::move(x));
  };

  // One request enters the (gated) batch, then `cap` fill the queue.
  std::vector<serve::Server::Ticket> admitted;
  admitted.push_back(request(0));
  gate->wait_entered(1);
  for (std::int64_t i = 0; i < cap; ++i)
    admitted.push_back(request(static_cast<std::uint64_t>(1 + i)));
  EXPECT_EQ(cluster.shard_queue_depth(0), cap);

  // Overload: every further submit must shed, immediately and exactly.
  constexpr int kOverload = 5;
  for (int i = 0; i < kOverload; ++i) {
    const serve::Reply r =
        request(static_cast<std::uint64_t>(100 + i)).get();
    EXPECT_EQ(r.status, serve::ReplyStatus::Shed);
  }
  EXPECT_EQ(metrics::counter("serve/shard0/shed").value() - shed_before,
            static_cast<std::uint64_t>(kOverload));
  EXPECT_EQ(
      metrics::counter("serve/cluster/requests").value() - requests_before,
      static_cast<std::uint64_t>(1 + cap + kOverload));

  gate->release();
  for (auto& ticket : admitted)
    EXPECT_EQ(ticket.get().status, serve::ReplyStatus::Ok);
  cluster.drain();
  EXPECT_EQ(cluster.shard_queue_depth(0), 0);
}

// Consistent hashing is stable under shard-set changes: removing one
// shard from a 4-shard ring only remaps keys that shard owned; every key
// owned by a surviving shard keeps its owner. Load also spreads: every
// shard owns a reasonable share of the key space.
TEST(ServeCluster, ConsistentHashStableUnderShardRemoval) {
  const int vnodes = 64;
  const serve::HashRing ring4({0, 1, 2, 3}, vnodes);
  const serve::HashRing ring3({0, 1, 3}, vnodes);  // shard 2 drained

  constexpr std::uint64_t kKeys = 4000;
  std::int64_t moved = 0;
  std::vector<std::int64_t> owned(4, 0);
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    const std::int64_t before = ring4.owner(key);
    const std::int64_t after = ring3.owner(key);
    ASSERT_NE(after, 2) << "drained shard still owns key " << key;
    ++owned[static_cast<std::size_t>(before)];
    if (before == 2) {
      ++moved;  // orphaned keys must land somewhere among the survivors
    } else {
      ASSERT_EQ(after, before)
          << "key " << key << " moved between surviving shards";
    }
  }
  // Every shard held a nontrivial share (vnodes smooth the ring); the
  // moved fraction is exactly the drained shard's share.
  for (std::int64_t k = 0; k < 4; ++k)
    EXPECT_GT(owned[static_cast<std::size_t>(k)], kKeys / 16)
        << "shard " << k << " owns almost nothing";
  EXPECT_EQ(moved, owned[2]);

  // Determinism: an identical ring gives identical ownership.
  const serve::HashRing again({0, 1, 2, 3}, vnodes);
  for (std::uint64_t key = 0; key < 256; ++key)
    ASSERT_EQ(again.owner(key), ring4.owner(key));
}

TEST(ServeCluster, RouterPolicies) {
  serve::Router rr(3, serve::DispatchPolicy::RoundRobin, 8);
  EXPECT_EQ(rr.route(99, {}), 0);
  EXPECT_EQ(rr.route(99, {}), 1);
  EXPECT_EQ(rr.route(99, {}), 2);
  EXPECT_EQ(rr.route(99, {}), 0);

  serve::Router hash(3, serve::DispatchPolicy::ConsistentHash, 8);
  const std::int64_t owner = hash.route(1234, {});
  for (int i = 0; i < 5; ++i) EXPECT_EQ(hash.route(1234, {}), owner);

  serve::Router least(4, serve::DispatchPolicy::LeastLoaded, 8);
  EXPECT_EQ(least.route(0, {3, 1, 2, 5}), 1);
  EXPECT_EQ(least.route(0, {2, 2, 0, 0}), 2);  // tie -> lowest index
  EXPECT_EQ(least.route(0, {0, 0, 0, 0}), 0);

  serve::DispatchPolicy p;
  EXPECT_TRUE(serve::try_parse_policy("consistent_hash", &p));
  EXPECT_EQ(p, serve::DispatchPolicy::ConsistentHash);
  EXPECT_FALSE(serve::try_parse_policy("fastest", &p));
  EXPECT_EQ(p, serve::DispatchPolicy::ConsistentHash);  // untouched
}

// Multi-tenant residency and isolation: two models resident at once serve
// correct (distinct) results, and saturating tenant A's bounded queue
// sheds only A — tenant B's admission is untouched.
TEST(ServeCluster, MultiTenantResidencyAndQueueIsolation) {
  const std::int64_t feat = 6, classes = 3;
  auto gate = std::make_shared<SharedGate>();

  serve::ClusterOptions opt;
  opt.shards = 1;
  opt.policy = serve::DispatchPolicy::RoundRobin;
  opt.serve.max_batch = 1;
  serve::Cluster cluster(opt);

  serve::ModelSpec a = gated_spec("tenant_a", gate, feat, classes);
  a.queue_capacity = 1;  // per-model admission override
  cluster.add_model(std::move(a));
  cluster.add_model(linear_spec("tenant_b", classes, feat, 9));
  EXPECT_TRUE(cluster.has_model("tenant_a"));
  EXPECT_TRUE(cluster.has_model("tenant_b"));
  EXPECT_EQ(cluster.models().size(), 2u);

  Tensor x({feat});
  for (auto& v : x.data()) v = 0.5f;

  // Saturate tenant A: one in the (gated) batch, one queued, rest shed.
  std::vector<serve::Server::Ticket> a_tickets;
  a_tickets.push_back(cluster.submit("tenant_a", 0, x));
  gate->wait_entered(1);
  a_tickets.push_back(cluster.submit("tenant_a", 1, x));
  EXPECT_EQ(cluster.submit("tenant_a", 2, x).get().status,
            serve::ReplyStatus::Shed);

  // Tenant B still serves while A is wedged: separate queue, separate
  // scheduler thread.
  const serve::Reply rb = cluster.classify("tenant_b", 0, x);
  EXPECT_EQ(rb.status, serve::ReplyStatus::Ok);
  EXPECT_EQ(rb.logits.numel(), classes);

  gate->release();
  for (auto& t : a_tickets)
    EXPECT_EQ(t.get().status, serve::ReplyStatus::Ok);

  // Unknown tenants resolve to Error without touching any shard.
  EXPECT_EQ(cluster.submit("nobody", 0, x).get().status,
            serve::ReplyStatus::Error);
}

TEST(ServeCluster, ClusterOptionsFromEnv) {
  setenv("NVM_CLUSTER_SHARDS", "5", 1);
  setenv("NVM_CLUSTER_POLICY", "consistent_hash", 1);
  setenv("NVM_CLUSTER_VNODES", "17", 1);
  setenv("NVM_CLUSTER_SHARD_THREADS", "2", 1);
  serve::ClusterOptions o = serve::ClusterOptions::from_env();
  EXPECT_EQ(o.shards, 5);
  EXPECT_EQ(o.policy, serve::DispatchPolicy::ConsistentHash);
  EXPECT_EQ(o.vnodes, 17);
  EXPECT_EQ(o.threads_per_shard, 2);

  // Unknown policy text warns and keeps the default.
  setenv("NVM_CLUSTER_POLICY", "warp_speed", 1);
  o = serve::ClusterOptions::from_env();
  EXPECT_EQ(o.policy, serve::DispatchPolicy::LeastLoaded);

  unsetenv("NVM_CLUSTER_SHARDS");
  unsetenv("NVM_CLUSTER_POLICY");
  unsetenv("NVM_CLUSTER_VNODES");
  unsetenv("NVM_CLUSTER_SHARD_THREADS");
}

// run_cluster_open_loop: saturation traffic over 2 shards; everything is
// served, labels align with requests, per-shard ok counts partition the
// total, and round_robin touches both shards.
TEST(ServeCluster, OpenLoopTrafficPartitionsAcrossShards) {
  const std::int64_t classes = 5, feat = 16, n = 60;
  serve::ClusterOptions opt;
  opt.shards = 2;
  opt.policy = serve::DispatchPolicy::RoundRobin;
  opt.serve.max_batch = 8;
  serve::Cluster cluster(opt);
  cluster.add_model(linear_spec("m", classes, feat, 13));

  const std::vector<Tensor> requests = random_requests(n, feat, 31);
  const std::vector<std::string> models = {"m"};
  serve::TrafficOptions traffic;
  traffic.rate_rps = 0.0;  // saturation: submit back-to-back
  const serve::ClusterTrafficReport rep =
      run_cluster_open_loop(cluster, models, requests, traffic);

  EXPECT_EQ(rep.total.ok, n);
  EXPECT_EQ(rep.total.shed + rep.total.errors + rep.total.timed_out, 0);
  ASSERT_EQ(rep.shards.size(), 2u);
  EXPECT_EQ(rep.shards[0].ok + rep.shards[1].ok, n);
  EXPECT_GT(rep.shards[0].ok, 0);
  EXPECT_GT(rep.shards[1].ok, 0);
  for (std::int64_t label : rep.total.labels) EXPECT_GE(label, 0);
}

}  // namespace
}  // namespace nvm
