#include "serve/cluster.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/env.h"
#include "common/logging.h"
#include "common/metrics.h"

namespace nvm::serve {

ModelSpec tiled_linear_spec(std::string name, Tensor w,
                            std::shared_ptr<const xbar::MvmModel> model,
                            puma::HwConfig hw, float input_scale) {
  ModelSpec spec;
  spec.name = std::move(name);
  // The factory captures by value: every shard programs its own tiles
  // from the same immutable inputs (deterministic, so the copies agree
  // bit-for-bit).
  spec.make_backend = [w = std::move(w), model = std::move(model), hw,
                       input_scale](std::int64_t) {
    return std::make_unique<TiledLinearBackend>(w, model, hw, input_scale);
  };
  return spec;
}

ClusterOptions ClusterOptions::from_env() {
  ClusterOptions o;
  o.shards =
      std::max<std::int64_t>(1, env_int("NVM_CLUSTER_SHARDS", o.shards));
  const std::string policy =
      env_str("NVM_CLUSTER_POLICY", to_string(o.policy));
  if (!try_parse_policy(policy, &o.policy))
    NVM_LOG(Warn) << "NVM_CLUSTER_POLICY '" << policy
                  << "' is not round_robin|consistent_hash|least_loaded; "
                  << "using " << to_string(o.policy);
  o.vnodes = static_cast<int>(std::max<std::int64_t>(
      1, env_int("NVM_CLUSTER_VNODES", o.vnodes)));
  o.threads_per_shard = std::max<std::int64_t>(
      0, env_int("NVM_CLUSTER_SHARD_THREADS", o.threads_per_shard));
  o.serve = ServeOptions::from_env();
  return o;
}

namespace {

/// Router-level metric family ("serve/cluster/...").
struct ClusterMetrics {
  metrics::Counter& requests;       ///< every submit(), routed or not
  metrics::Counter& unknown_model;  ///< rejected before routing
  metrics::Gauge& shards;
  metrics::Gauge& models;

  explicit ClusterMetrics(metrics::Scope& s)
      : requests(s.counter("requests")),
        unknown_model(s.counter("unknown_model")),
        shards(s.gauge("shards")),
        models(s.gauge("models")) {}
};

}  // namespace

struct Cluster::Impl {
  ClusterOptions opt;
  Router router;
  metrics::Scope scope{"serve/cluster"};
  ClusterMetrics m{scope};

  /// One worker shard: a private pool plus this shard's instance of every
  /// resident model. Servers reference their backend, so `backends` must
  /// outlive (declare before) `servers`.
  struct Shard {
    std::unique_ptr<ThreadPool> pool;
    std::map<std::string, std::unique_ptr<BatchClassifier>> backends;
    std::map<std::string, std::unique_ptr<Server>> servers;
    metrics::Gauge* queue_depth = nullptr;  ///< serve/shard<k>/queue_depth
  };
  std::vector<Shard> shards;

  /// Guards the tenant maps (add_model/drain exclusive, submit shared).
  mutable std::shared_mutex tenants_mu;
  bool drained = false;

  explicit Impl(ClusterOptions o)
      : opt(std::move(o)),
        router(opt.shards, opt.policy, opt.vnodes),
        shards(static_cast<std::size_t>(opt.shards)) {
    for (std::size_t k = 0; k < shards.size(); ++k) {
      shards[k].pool = std::make_unique<ThreadPool>(
          static_cast<std::size_t>(opt.threads_per_shard));
      shards[k].queue_depth = &metrics::gauge(
          shard_scope(static_cast<std::int64_t>(k)) + "/queue_depth");
    }
    m.shards.set(static_cast<double>(opt.shards));
  }

  static std::string shard_scope(std::int64_t k) {
    return "serve/shard" + std::to_string(k);
  }

  std::int64_t depth(std::int64_t k) const {
    // The gauge is add-maintained by every server on the shard, so one
    // atomic load sees the whole shard's backlog.
    return static_cast<std::int64_t>(
        shards[static_cast<std::size_t>(k)].queue_depth->value());
  }
};

Cluster::Cluster(ClusterOptions opt) : impl_(std::make_unique<Impl>(opt)) {}

Cluster::~Cluster() { drain(); }

void Cluster::add_model(ModelSpec spec) {
  NVM_CHECK(!spec.name.empty(), "ModelSpec needs a name");
  NVM_CHECK(spec.make_backend != nullptr,
            "ModelSpec '" << spec.name << "' needs a make_backend factory");
  std::unique_lock<std::shared_mutex> lock(impl_->tenants_mu);
  NVM_CHECK(!impl_->drained,
            "cluster is drained; cannot add model '" << spec.name << "'");
  NVM_CHECK(impl_->shards[0].servers.find(spec.name) ==
                impl_->shards[0].servers.end(),
            "model '" << spec.name << "' is already resident");

  // Per-model admission/batching: spec overrides on the cluster defaults.
  ServeOptions base = impl_->opt.serve;
  if (spec.max_batch >= 0) base.max_batch = spec.max_batch;
  if (spec.queue_capacity >= 0) base.queue_capacity = spec.queue_capacity;
  if (spec.timeout_us >= 0) base.timeout_us = spec.timeout_us;

  // Cold start: program every shard's copy up front, on the caller's
  // thread — the request path never pays for programming.
  std::int64_t feat = -1, classes = -1;
  for (std::int64_t k = 0; k < impl_->opt.shards; ++k) {
    Impl::Shard& shard = impl_->shards[static_cast<std::size_t>(k)];
    auto backend = spec.make_backend(k);
    NVM_CHECK(backend != nullptr,
              "make_backend for '" << spec.name << "' returned null");
    if (k == 0) {
      feat = backend->feature_dim();
      classes = backend->classes();
    } else {
      // Shard copies must present one model: a factory that varied shapes
      // per shard would break routing transparency.
      NVM_CHECK_EQ(backend->feature_dim(), feat);
      NVM_CHECK_EQ(backend->classes(), classes);
    }
    ServeOptions so = base;
    so.pool = shard.pool.get();
    so.metric_scope = Impl::shard_scope(k);
    so.shard = k;
    auto server = std::make_unique<Server>(*backend, so);
    shard.backends.emplace(spec.name, std::move(backend));
    shard.servers.emplace(spec.name, std::move(server));
  }
  impl_->m.models.set(
      static_cast<double>(impl_->shards[0].servers.size()));
}

bool Cluster::has_model(const std::string& model) const {
  std::shared_lock<std::shared_mutex> lock(impl_->tenants_mu);
  return impl_->shards[0].servers.find(model) !=
         impl_->shards[0].servers.end();
}

std::vector<std::string> Cluster::models() const {
  std::shared_lock<std::shared_mutex> lock(impl_->tenants_mu);
  std::vector<std::string> out;
  out.reserve(impl_->shards[0].servers.size());
  for (const auto& [name, server] : impl_->shards[0].servers)
    out.push_back(name);
  return out;
}

Server::Ticket Cluster::submit(const std::string& model, std::uint64_t key,
                               Tensor features) {
  impl_->m.requests.add();
  std::shared_lock<std::shared_mutex> lock(impl_->tenants_mu);

  const auto it = impl_->shards[0].servers.find(model);
  if (it == impl_->shards[0].servers.end()) {
    impl_->m.unknown_model.add();
    return Server::resolved(ReplyStatus::Error);
  }

  std::int64_t shard;
  if (impl_->router.policy() == DispatchPolicy::LeastLoaded) {
    std::vector<std::int64_t> loads(
        static_cast<std::size_t>(impl_->opt.shards));
    for (std::int64_t k = 0; k < impl_->opt.shards; ++k)
      loads[static_cast<std::size_t>(k)] = impl_->depth(k);
    shard = impl_->router.route(key, loads);
  } else {
    shard = impl_->router.route(key, {});
  }
  // The per-(shard, model) server applies admission control (Shed /
  // Shutdown tickets resolve immediately) — routing never blocks.
  return impl_->shards[static_cast<std::size_t>(shard)]
      .servers.at(model)
      ->submit(std::move(features));
}

Reply Cluster::classify(const std::string& model, std::uint64_t key,
                        Tensor features) {
  return submit(model, key, std::move(features)).get();
}

void Cluster::drain() {
  std::unique_lock<std::shared_mutex> lock(impl_->tenants_mu);
  impl_->drained = true;
  // Stop admission everywhere first, then let every scheduler finish:
  // Server::drain() serves what was admitted before joining, so no
  // admitted request is lost anywhere in the cluster.
  for (Impl::Shard& shard : impl_->shards)
    for (auto& [name, server] : shard.servers) server->drain();
}

const ClusterOptions& Cluster::options() const { return impl_->opt; }

std::int64_t Cluster::shards() const { return impl_->opt.shards; }

std::int64_t Cluster::shard_queue_depth(std::int64_t shard) const {
  NVM_CHECK(shard >= 0 && shard < impl_->opt.shards,
            "shard " << shard << " out of range");
  return impl_->depth(shard);
}

ClusterTrafficReport run_cluster_open_loop(
    Cluster& cluster, std::span<const std::string> models,
    std::span<const Tensor> requests, const TrafficOptions& opt) {
  NVM_CHECK(!models.empty(), "run_cluster_open_loop needs >= 1 model");
  using Clock = std::chrono::steady_clock;
  const std::int64_t n = static_cast<std::int64_t>(requests.size());
  const std::vector<double> offsets =
      poisson_arrivals_us(n, opt.rate_rps, opt.seed);

  std::vector<Server::Ticket> tickets(static_cast<std::size_t>(n));
  const Clock::time_point start = Clock::now();
  for (std::int64_t i = 0; i < n; ++i) {
    if (opt.rate_rps > 0.0)
      std::this_thread::sleep_until(
          start + std::chrono::microseconds(static_cast<std::int64_t>(
                      offsets[static_cast<std::size_t>(i)])));
    tickets[static_cast<std::size_t>(i)] = cluster.submit(
        models[static_cast<std::size_t>(i) % models.size()],
        static_cast<std::uint64_t>(i),
        requests[static_cast<std::size_t>(i)]);
  }

  ClusterTrafficReport rep;
  rep.shards.resize(static_cast<std::size_t>(cluster.shards()));
  rep.total.labels.assign(static_cast<std::size_t>(n), -1);
  std::vector<double> total_ns, queue_ns;
  std::vector<std::vector<double>> shard_ns(rep.shards.size());
  double batch_sum = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    Reply r = tickets[static_cast<std::size_t>(i)].get();
    switch (r.status) {
      case ReplyStatus::Ok: {
        ++rep.total.ok;
        rep.total.labels[static_cast<std::size_t>(i)] = r.label;
        total_ns.push_back(r.total_ns);
        queue_ns.push_back(r.queue_ns);
        batch_sum += static_cast<double>(r.batch_size);
        if (r.shard >= 0 &&
            r.shard < static_cast<std::int64_t>(rep.shards.size())) {
          ++rep.shards[static_cast<std::size_t>(r.shard)].ok;
          shard_ns[static_cast<std::size_t>(r.shard)].push_back(r.total_ns);
        }
        break;
      }
      case ReplyStatus::Shed: ++rep.total.shed; break;
      case ReplyStatus::Timeout: ++rep.total.timed_out; break;
      case ReplyStatus::Cancelled: ++rep.total.cancelled; break;
      case ReplyStatus::Error: ++rep.total.errors; break;
      case ReplyStatus::Shutdown: ++rep.total.rejected_shutdown; break;
    }
  }
  rep.total.seconds =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count() /
      1e9;
  if (rep.total.ok > 0 && rep.total.seconds > 0.0)
    rep.total.throughput_rps =
        static_cast<double>(rep.total.ok) / rep.total.seconds;
  rep.total.p50_ms = percentile_ms(total_ns, 0.5);
  rep.total.p99_ms = percentile_ms(total_ns, 0.99);
  rep.total.queue_p50_ms = percentile_ms(queue_ns, 0.5);
  rep.total.queue_p99_ms = percentile_ms(queue_ns, 0.99);
  if (rep.total.ok > 0)
    rep.total.mean_batch = batch_sum / static_cast<double>(rep.total.ok);
  for (std::size_t k = 0; k < rep.shards.size(); ++k) {
    rep.shards[k].p50_ms = percentile_ms(shard_ns[k], 0.5);
    rep.shards[k].p99_ms = percentile_ms(shard_ns[k], 0.99);
  }
  return rep;
}

}  // namespace nvm::serve
