// The two batch workloads: the paper's Table IV pipeline on a GENIEx
// crossbar deployment (hil_attack) and the same task on ideal engines with a
// fresh training run (digital_attack).
//
// The timed region is a sequence of rounds, each running every phase of the
// workload on the next few images of a seed-chosen order, until the run's
// seconds are spent. Interleaving the phases makes every metric sample the
// whole run, so a slow spell of the host lands on all of them alike instead
// of on whichever phase happened to be running. The same seed always
// presents the same images in the same order; only the count depends on
// speed. Every output is recorded per image as a digest, which run.py
// compares with any earlier run of the same seed (traced or not).
//
// hil_attack drives one deployment serially; its crossbar work already
// spreads over the pool. digital_attack crafts and classifies through the
// library's replica overloads (core::craft_pgd, core::accuracy), one network
// replica per pool thread, so its timings are taken with every pool thread
// busy: timed on one thread of a shared host, its per-image times swung
// between two speeds 1.7x apart, within and between runs, as other load on
// the host came and went.
#include <cmath>
#include <memory>
#include <numeric>

#include "attack/pgd.h"
#include "attack/square.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/evaluator.h"
#include "core/tasks.h"
#include "nn/trainer.h"
#include "puma/cost_model.h"
#include "puma/hw_network.h"
#include "support.h"
#include "xbar/config.h"
#include "xbar/model_zoo.h"

namespace perfbench {
namespace {

using namespace nvm;

// Table IV attacker/target crossbar.
const char* const kXbar = "64x64_100k";
constexpr std::int64_t kPgdIters = 30;
constexpr std::int64_t kSquareQueries = 40;
// Set-ups per run; setup_s is their median.
constexpr int kHilSetups = 5, kDigitalSetups = 5;
// Rounds run at least this often, so every median has a few samples.
constexpr int kMinRounds = 3;
// Per round: hil_attack evaluates 8 clean images and attacks one with each
// attack; digital_attack trains once from the fresh init on 192 images,
// then attacks 16 images and evaluates them and 300 clean ones, fanning
// both over one network replica per pool thread.
constexpr int kHilCleanPerRound = 8;
constexpr std::int64_t kTrainSubset = 192;
constexpr int kDigitalPgdPerRound = 16, kDigitalCleanPerRound = 300;

/// Seed-chosen order of `n` indices.
std::vector<std::int64_t> order(std::int64_t n, std::uint64_t seed) {
  std::vector<std::int64_t> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 0);
  Rng rng(seed);
  rng.shuffle(v);
  return v;
}

/// True when `adv` lies in the l_inf ball of `eps` around `x`, within [0,1].
bool in_ball(const Tensor& adv, const Tensor& x, float eps) {
  if (!adv.same_shape(x)) return false;
  auto a = adv.data();
  auto b = x.data();
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!(a[i] >= 0.0f && a[i] <= 1.0f &&
          std::abs(a[i] - b[i]) <= eps * (1.0f + 1e-5f)))
      return false;
  return true;
}

std::vector<double> span_ms(const Tracer& tr, const std::string& name) {
  std::vector<double> out;
  for (const auto& s : tr.spans())
    if (s.name == name)
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
  return out;
}

/// Attack view that records a span around every query and gradient. Only
/// the traced run inserts it.
class TimedAttackModel final : public attack::AttackModel {
 public:
  TimedAttackModel(attack::AttackModel& inner, Tracer& tr,
                   std::string forward_span, const std::int64_t& item)
      : inner_(inner), tr_(tr), fwd_(std::move(forward_span)), item_(item) {}

  Tensor logits(const Tensor& x) override {
    Scoped s(tr_, fwd_, item_);
    return inner_.logits(x);
  }
  Tensor loss_input_grad(const Tensor& x, std::int64_t label,
                         float* loss_out) override {
    Scoped s(tr_, "attack.grad", item_);
    return inner_.loss_input_grad(x, label, loss_out);
  }

 private:
  attack::AttackModel& inner_;
  Tracer& tr_;
  std::string fwd_;
  const std::int64_t& item_;
};

/// Attack view of one replica network in a parallel craft. When recording,
/// it keeps the interval of every gradient in its own list (one thread
/// drives a replica at a time); the main thread turns them into spans after
/// the batch.
class RecordingAttackModel final : public attack::AttackModel {
 public:
  RecordingAttackModel(nn::Network& net, bool record)
      : inner_(net), record_(record) {}

  Tensor logits(const Tensor& x) override { return inner_.logits(x); }
  Tensor loss_input_grad(const Tensor& x, std::int64_t label,
                         float* loss_out) override {
    if (!record_) return inner_.loss_input_grad(x, label, loss_out);
    const auto t0 = Clock::now();
    Tensor g = inner_.loss_input_grad(x, label, loss_out);
    grads_.emplace_back(t0, Clock::now());
    return g;
  }
  /// Adds the recorded gradients as "attack.grad" spans and forgets them.
  void flush(Tracer& tr) {
    for (const auto& [a, b] : grads_) tr.add("attack.grad", a, b);
    grads_.clear();
  }

 private:
  attack::NetworkAttackModel inner_;
  bool record_;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> grads_;
};

/// Per-image results of one parallel classification call. Slot u belongs
/// to image u of the batch, so replicas write disjoint slots.
struct EvalSlots {
  const Tensor* base = nullptr;
  std::vector<std::int64_t> label;  ///< -1 until classified, -2 if twice
  std::vector<double> ms;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> when;
  bool record = false;

  void reset(const std::vector<Tensor>& batch, bool spans) {
    base = batch.data();
    label.assign(batch.size(), -1);
    ms.assign(batch.size(), 0.0);
    when.assign(spans ? batch.size() : 0, {});
    record = spans;
  }
  /// Adds one "nn.forward" span per classified image.
  void flush(Tracer& tr) const {
    for (std::size_t u = 0; u < when.size(); ++u)
      tr.add("nn.forward", when[u].first, when[u].second,
             static_cast<std::int64_t>(u));
  }
};

/// Wraps a replica's ForwardFn so each call records its image's label and
/// latency. The image is identified by its address in the batch; a call on
/// any other tensor leaves every slot untouched, which the caller reports.
core::ForwardFn recording_forward(core::ForwardFn fn, EvalSlots& slots) {
  return [fn = std::move(fn), &slots](const Tensor& x) {
    const auto t0 = Clock::now();
    Tensor y = fn(x);
    const std::int64_t got = y.argmax();
    const auto t1 = Clock::now();
    const std::ptrdiff_t u = &x - slots.base;
    if (u >= 0 && static_cast<std::size_t>(u) < slots.label.size()) {
      const auto i = static_cast<std::size_t>(u);
      slots.label[i] = slots.label[i] == -1 ? got : -2;
      slots.ms[i] = std::chrono::duration<double, std::milli>(t1 - t0).count();
      if (slots.record) slots.when[i] = {t0, t1};
    }
    return y;
  };
}

std::string weights_digest(nn::Network& net) {
  std::uint64_t h = 1469598103934665603ull;
  for (nn::Param* p : net.params()) h = digest(p->value, h);
  return hex(h);
}

/// The timed phases of hil_attack, over one prepared task, run serially.
/// Each phase walks the seed order with its own cursor.
class Phases {
 public:
  Phases(core::PreparedTask& task, std::uint64_t seed, Tracer& tr,
         Result& res, const std::string& forward_span)
      : task_(task),
        perm_(order(static_cast<std::int64_t>(task.dataset.test_images.size()),
                    seed)),
        seed_(seed),
        tr_(tr),
        res_(res),
        fn_(core::plain_forward(task.network)),
        plain_(task.network),
        timed_(plain_, tr, forward_span, item_),
        forward_span_(forward_span) {}

  /// The attacker's view: the network as deployed, with spans when traced.
  attack::AttackModel& attacker() {
    return tr_.on() ? static_cast<attack::AttackModel&>(timed_) : plain_;
  }
  float eps() const { return task_.task.scaled_eps(2.0f); }

  const Tensor& image(std::int64_t idx) const {
    return task_.dataset.test_images[static_cast<std::size_t>(idx)];
  }
  std::int64_t label(std::int64_t idx) const {
    return task_.dataset.test_labels[static_cast<std::size_t>(idx)];
  }
  std::int64_t next(std::size_t& cursor) const {
    return perm_[cursor++ % perm_.size()];
  }

  /// Classifies one image through the network's ForwardFn; returns whether
  /// the label is correct and records it under `key`. A key seen before in
  /// this run must get the same label again.
  bool classify(const Tensor& x, std::int64_t idx, const std::string& key) {
    Scoped s(tr_, forward_span_, idx);
    const auto t0 = Clock::now();
    const std::int64_t got = fn_(x).argmax();
    const double dt = seconds_since(t0);
    eval_ms.push_back(dt * 1e3);
    eval_s += dt;
    const std::string val = std::to_string(got);
    auto [it, fresh] = res_.digests.emplace(key, val);
    res_.check(fresh || it->second == val,
               key + " changed label on re-evaluation");
    return got == label(idx);
  }

  /// PGD on the next image of the order; returns the adversarial image.
  Tensor pgd(std::size_t& cursor) {
    const std::int64_t idx = next(cursor);
    item_ = idx;
    attack::PgdOptions opt;
    opt.epsilon = eps();
    opt.iters = kPgdIters;
    opt.seed = derive_seed(seed_ ^ 0x9d5ull, static_cast<std::uint64_t>(idx));
    const auto t0 = Clock::now();
    Tensor adv;
    {
      Scoped s(tr_, "attack.pgd_image", idx);
      adv = attack::pgd_attack(attacker(), image(idx), label(idx), opt);
    }
    const double dt = seconds_since(t0);
    pgd_ms.push_back(dt * 1e3);
    pgd_s += dt;
    res_.check(in_ball(adv, image(idx), eps()),
               "pgd image " + std::to_string(idx) + " left the eps-ball");
    res_.digests["pgd/" + std::to_string(idx)] = hex(digest(adv));
    last_ = idx;
    return adv;
  }
  std::int64_t last() const { return last_; }

  std::vector<double> eval_ms, pgd_ms;
  double eval_s = 0.0, pgd_s = 0.0;

 private:
  const core::PreparedTask& task_;
  std::vector<std::int64_t> perm_;
  std::uint64_t seed_;
  Tracer& tr_;
  Result& res_;
  core::ForwardFn fn_;
  std::int64_t item_ = -1;  ///< image the attack model's spans belong to
  std::int64_t last_ = -1;
  attack::NetworkAttackModel plain_;
  TimedAttackModel timed_;
  std::string forward_span_;
};

/// Rates and latencies both batch workloads report. p50_ms comes from the
/// median classification, so a stall during one image does not move it.
void emit_attack_rates(Result& res, double throughput_per_s,
                       const std::vector<double>& eval_ms, double eval_s,
                       const std::vector<double>& pgd_image_ms,
                       double pgd_images, double pgd_s) {
  res.metric("throughput_per_s", throughput_per_s, "1/s");
  res.metric("p50_ms", quantile(eval_ms, 0.5), "ms");
  res.metric("p99_ms", quantile(eval_ms, 0.99), "ms");
  res.metric("pgd_images_per_s", pgd_images / pgd_s, "1/s");
  res.metric("eval_images_per_s",
             static_cast<double>(eval_ms.size()) / eval_s, "1/s");
  res.metric("attack.pgd_image_ms.p50", quantile(pgd_image_ms, 0.5), "ms");
  res.metric("attack.pgd_image_ms.p90", quantile(pgd_image_ms, 0.9), "ms");
}

void emit_grad_spans(Result& res, const Tracer& tr) {
  const auto grad = span_ms(tr, "attack.grad");
  res.metric("attack.grad_ms.p50", quantile(grad, 0.5), "ms");
  res.metric("attack.grad_ms.p90", quantile(grad, 0.9), "ms");
}

double pct(std::int64_t hits, std::int64_t n) {
  return n > 0 ? 100.0 * static_cast<double>(hits) / static_cast<double>(n)
               : 0.0;
}

}  // namespace

Result run_hil_attack(const Options& opt, Tracer& tr) {
  Result res;
  const core::Task task_spec = core::task_scifar10();
  std::unique_ptr<core::PreparedTask> task;
  std::shared_ptr<xbar::GeniexModel> model;
  std::unique_ptr<puma::HwDeployment> dep;
  std::vector<double> setup_s, prepare_s, fit_s, deploy_s;
  MetricsDelta setup_delta;

  for (int rep = 0; rep < kHilSetups; ++rep) {
    dep.reset();
    model.reset();
    task.reset();
    clear_derived_cache();
    setup_delta = MetricsDelta();
    Scoped span(tr, "phase/setup");
    const auto t0 = Clock::now();
    {
      Scoped s(tr, "core.prepare");
      task = std::make_unique<core::PreparedTask>(core::prepare(task_spec));
    }
    prepare_s.push_back(seconds_since(t0));
    const auto t1 = Clock::now();
    {
      Scoped s(tr, "xbar.geniex_fit");
      model = xbar::make_geniex(kXbar);
    }
    fit_s.push_back(seconds_since(t1));
    const auto t2 = Clock::now();
    {
      Scoped s(tr, "puma.deploy");
      const auto calib = task->calibration_images();
      dep = std::make_unique<puma::HwDeployment>(task->network, model, calib);
      // Tiles program on the first forward pass: do it here so set-up, not
      // the first timed image, pays for programming and plan compilation.
      (void)core::plain_forward(task->network)(calib.front());
    }
    deploy_s.push_back(seconds_since(t2));
    setup_s.push_back(seconds_since(t0));
    setup_delta.stop();
  }
  res.check(dep->stats().health.all_zero(),
            "deployment degraded: " + dep->stats().health.summary());

  Phases ph(*task, opt.seed, tr, res, "puma.hw_forward");
  std::size_t clean_cur = 0, pgd_cur = 0, sq_cur = 0;
  std::int64_t clean_n = 0, clean_ok = 0, pgd_ok = 0, sq_ok = 0, sq_n = 0;
  std::int64_t square_queries = 0;
  double square_s = 0.0;
  std::vector<double> sq_image_ms;
  std::vector<std::int64_t> clean_idx;

  MetricsDelta timed;
  const auto t_start = Clock::now();
  for (int round = 0;
       round < kMinRounds || seconds_since(t_start) < opt.seconds; ++round) {
    {
      Scoped span(tr, "phase/clean_eval");
      for (int k = 0; k < kHilCleanPerRound; ++k) {
        const std::int64_t idx = ph.next(clean_cur);
        clean_idx.push_back(idx);
        clean_ok += ph.classify(ph.image(idx), idx, "clean/" + std::to_string(idx));
        ++clean_n;
      }
    }
    // Hardware-in-Loop white-box PGD: crossbar forward, ideal backward.
    Tensor pgd_adv;
    {
      Scoped span(tr, "phase/hil_pgd");
      pgd_adv = ph.pgd(pgd_cur);
    }
    const std::int64_t pgd_idx = ph.last();
    // Square black-box queries against the deployment.
    attack::SquareResult sq;
    const std::int64_t sq_idx = ph.next(sq_cur);
    {
      Scoped span(tr, "phase/square");
      attack::SquareOptions so;
      so.epsilon = ph.eps();
      so.max_queries = kSquareQueries;
      so.seed = derive_seed(opt.seed ^ 0x5a7ull, static_cast<std::uint64_t>(sq_idx));
      const auto t0 = Clock::now();
      {
        Scoped s(tr, "attack.square_image", sq_idx);
        sq = attack::square_attack(ph.attacker(), ph.image(sq_idx),
                                   ph.label(sq_idx), so);
      }
      const double dt = seconds_since(t0);
      sq_image_ms.push_back(dt * 1e3);
      square_s += dt;
      square_queries += sq.queries_used;
      res.check(sq.queries_used >= 1 && sq.queries_used <= so.max_queries &&
                    in_ball(sq.adv, ph.image(sq_idx), ph.eps()),
                "square image " + std::to_string(sq_idx) + " broke its budget");
      res.digests["square/" + std::to_string(sq_idx)] =
          hex(digest(sq.adv)) + ":" + std::to_string(sq.queries_used);
    }
    // Crossbar evaluation of both adversarial images.
    {
      Scoped span(tr, "phase/adv_eval");
      pgd_ok += ph.classify(pgd_adv, pgd_idx, "pgd_label/" + std::to_string(pgd_idx));
      const bool sq_correct = ph.classify(sq.adv, sq_idx,
                                          "square_label/" + std::to_string(sq_idx));
      sq_ok += sq_correct;
      ++sq_n;
      res.check(sq.success == !sq_correct,
                "square success flag disagrees with the crossbar label for "
                "image " + std::to_string(sq_idx));
    }
  }
  res.timed_wall_s = seconds_since(t_start);
  timed.stop();

  // Outside the timed window: one ideal forward per clean image gives the
  // crossbar overhead (traced run only), then the cost model's simulated
  // per-inference latency and energy, which must never change.
  dep.reset();
  std::vector<double> ideal_ms;
  if (tr.on()) {
    auto fn = core::plain_forward(task->network);
    for (std::int64_t idx : clean_idx) {
      const auto t0 = Clock::now();
      (void)fn(ph.image(idx));
      ideal_ms.push_back(seconds_since(t0) * 1e3);
    }
  }
  const puma::CostReport cost = puma::estimate_cost(
      task->network, ph.image(0), xbar::preset(kXbar), puma::HwConfig{});
  const std::uint64_t degraded =
      health_failures(timed) + health_failures(setup_delta);
  res.attempted += static_cast<std::int64_t>(degraded);
  res.failed += static_cast<std::int64_t>(degraded);
  if (degraded) res.failures.push_back("health counters degraded");

  res.metric("setup_s", median(setup_s), "s");
  // Serial PGD: the rate follows from the median per-image time.
  emit_attack_rates(res, 1e3 / median(ph.pgd_ms), ph.eval_ms, ph.eval_s,
                    ph.pgd_ms, static_cast<double>(ph.pgd_ms.size()),
                    ph.pgd_s);
  res.metric("square_queries_per_s",
             static_cast<double>(square_queries) / square_s, "1/s");
  res.metric("accuracy.clean_pct", pct(clean_ok, clean_n), "%");
  res.metric("accuracy.pgd_pct",
             pct(pgd_ok, static_cast<std::int64_t>(ph.pgd_ms.size())), "%");
  res.metric("accuracy.square_pct", pct(sq_ok, sq_n), "%");

  res.metric("core.prepare_s", median(prepare_s), "s");
  res.metric("xbar.geniex_fit_s", median(fit_s), "s");
  res.metric("puma.deploy_s", median(deploy_s), "s");
  res.metric("xbar.solver_solves", setup_delta.value("solver/solves"), "count");
  res.metric("xbar.solver_sweeps", setup_delta.value("solver/sweeps"), "count");
  res.metric("cache.plan_misses", setup_delta.value("plan/cache_misses"),
             "count");
  emit_layer_counts(res, timed, res.timed_wall_s);
  const double hw_s = ph.eval_s + ph.pgd_s + square_s;
  const double tile_mvms = timed.value("puma/tiled/tile_mvms");
  res.metric("puma.ns_per_tile_mvm", tile_mvms > 0 ? hw_s * 1e9 / tile_mvms : 0.0,
             "ns");
  res.metric("attack.square_queries", static_cast<double>(square_queries),
             "count");
  res.metric("attack.square_image_ms.p50", median(sq_image_ms), "ms");
  res.metric("sim.latency_us_per_image", cost.total_latency_us, "us");
  res.metric("sim.energy_nj_per_image", cost.total_energy_nj, "nJ");
  res.digests["sim"] = hex(fnv(&cost.total_latency_us, sizeof(double),
                               fnv(&cost.total_energy_nj, sizeof(double))));
  if (tr.on()) {
    const auto hw = span_ms(tr, "puma.hw_forward");
    res.metric("puma.hw_forward_ms.p50", quantile(hw, 0.5), "ms");
    res.metric("puma.hw_forward_ms.p90", quantile(hw, 0.9), "ms");
    res.metric("nn.forward_ms.p50", quantile(ideal_ms, 0.5), "ms");
    res.metric("nn.forward_ms.p90", quantile(ideal_ms, 0.9), "ms");
    res.metric("puma.xbar_overhead_ms",
               quantile(hw, 0.5) - quantile(ideal_ms, 0.5), "ms");
    emit_grad_spans(res, tr);
  }
  return res;
}

Result run_digital_attack(const Options& opt, Tracer& tr) {
  Result res;
  const core::Task task_spec = core::task_scifar10();
  const std::size_t replicas = ThreadPool::global().size();
  std::unique_ptr<core::PreparedTask> task;
  std::vector<nn::Network> nets;
  std::vector<double> setup_s, prepare_s;
  for (int rep = 0; rep < kDigitalSetups; ++rep) {
    nets.clear();
    task.reset();
    Scoped span(tr, "phase/setup");
    const auto t0 = Clock::now();
    {
      Scoped s(tr, "core.prepare");
      task = std::make_unique<core::PreparedTask>(core::prepare(task_spec));
    }
    prepare_s.push_back(seconds_since(t0));
    {
      Scoped s(tr, "core.clone_network");
      for (std::size_t r = 0; r < replicas; ++r)
        nets.push_back(task->clone_network());
    }
    setup_s.push_back(seconds_since(t0));
  }
  const std::string prepared_weights = weights_digest(task->network);
  for (nn::Network& net : nets)
    res.check(weights_digest(net) == prepared_weights,
              "a network replica differs from the prepared network");

  const auto& ds = task->dataset;
  // Training subset: seed-chosen, the same for every round.
  const auto train_perm = order(static_cast<std::int64_t>(ds.train_images.size()),
                                derive_seed(opt.seed, 1));
  std::vector<Tensor> train_x;
  std::vector<std::int64_t> train_y;
  for (std::int64_t i = 0; i < kTrainSubset; ++i) {
    const auto j = static_cast<std::size_t>(train_perm[static_cast<std::size_t>(i)]);
    train_x.push_back(ds.train_images[j]);
    train_y.push_back(ds.train_labels[j]);
  }
  nn::TrainConfig tc = task->task.train_config;
  tc.epochs = 1;
  tc.seed = derive_seed(opt.seed, 2);
  tc.verbose = false;
  const std::int64_t steps_per_round =
      (kTrainSubset + tc.batch_size - 1) / tc.batch_size;

  // One attacker and one classifier per replica network.
  std::vector<std::unique_ptr<RecordingAttackModel>> attackers;
  std::vector<attack::AttackModel*> attacker_ptrs;
  EvalSlots slots;
  std::vector<core::ForwardFn> classifiers;
  for (nn::Network& net : nets) {
    attackers.push_back(std::make_unique<RecordingAttackModel>(net, tr.on()));
    attacker_ptrs.push_back(attackers.back().get());
    classifiers.push_back(recording_forward(core::plain_forward(net), slots));
  }

  const auto perm = order(static_cast<std::int64_t>(ds.test_images.size()),
                          opt.seed);
  std::size_t clean_cur = 0, pgd_cur = 0;
  auto next = [&](std::size_t& cursor) { return perm[cursor++ % perm.size()]; };
  std::int64_t clean_n = 0, clean_ok = 0, pgd_ok = 0, pgd_n = 0, rounds = 0;
  double train_s = 0.0, pgd_s = 0.0, eval_s = 0.0;
  std::vector<double> pgd_image_ms, eval_ms;
  std::string first_weights;
  const float eps = task->task.scaled_eps(2.0f);

  MetricsDelta timed;
  const auto t_start = Clock::now();
  for (; rounds < kMinRounds || seconds_since(t_start) < opt.seconds; ++rounds) {
    // Fresh training from the fixed init; every round must reproduce the
    // first bit for bit.
    {
      Scoped span(tr, "phase/train");
      const auto t0 = Clock::now();
      {
        Scoped s(tr, "nn.train", rounds);
        Rng init(task->task.train_config.seed);
        nn::Network net = task->task.make_network(init);
        nn::train(net, train_x, train_y, tc);
        const std::string w = weights_digest(net);
        if (rounds == 0) first_weights = w;
        res.check(w == first_weights, "training round " +
                                          std::to_string(rounds) +
                                          " did not reproduce round 0");
      }
      train_s += seconds_since(t0);
    }
    // PGD on the round's images, fanned over the replicas. craft_pgd seeds
    // image k of the batch with derive_seed(po.seed, k) and po.seed depends
    // on the round, so the outputs are keyed by round and image.
    std::vector<Tensor> batch;
    std::vector<std::int64_t> batch_idx, batch_y;
    for (int k = 0; k < kDigitalPgdPerRound; ++k) {
      const std::int64_t idx = next(pgd_cur);
      batch_idx.push_back(idx);
      batch.push_back(ds.test_images[static_cast<std::size_t>(idx)]);
      batch_y.push_back(ds.test_labels[static_cast<std::size_t>(idx)]);
    }
    std::vector<Tensor> adv;
    {
      Scoped span(tr, "phase/pgd");
      attack::PgdOptions po;
      po.epsilon = eps;
      po.iters = kPgdIters;
      po.seed = derive_seed(opt.seed ^ 0x9d5ull, static_cast<std::uint64_t>(rounds));
      const auto t0 = Clock::now();
      {
        Scoped s(tr, "attack.craft_pgd", rounds);
        adv = core::craft_pgd(attacker_ptrs, batch, batch_y, po);
        for (auto& a : attackers) a->flush(tr);
      }
      const double dt = seconds_since(t0);
      pgd_s += dt;
      pgd_n += kDigitalPgdPerRound;
      // Wall time per image of one replica's share of the batch.
      pgd_image_ms.push_back(dt * 1e3 * static_cast<double>(replicas) /
                             kDigitalPgdPerRound);
    }
    for (std::size_t k = 0; k < adv.size(); ++k) {
      const std::string key = "r" + std::to_string(rounds) + "/" +
                              std::to_string(batch_idx[k]);
      res.check(in_ball(adv[k], batch[k], eps),
                "pgd image " + key + " left the eps-ball");
      res.digests["pgd/" + key] = hex(digest(adv[k]));
    }
    // Digital evaluation of the adversarial images, then of clean ones,
    // fanned over the replicas.
    std::vector<std::string> keys;
    for (std::size_t k = 0; k < adv.size(); ++k)
      keys.push_back("pgd_label/r" + std::to_string(rounds) + "/" +
                     std::to_string(batch_idx[k]));
    std::vector<Tensor> eval_x = std::move(adv);
    std::vector<std::int64_t> eval_y = batch_y;
    for (int k = 0; k < kDigitalCleanPerRound; ++k) {
      const std::int64_t idx = next(clean_cur);
      eval_x.push_back(ds.test_images[static_cast<std::size_t>(idx)]);
      eval_y.push_back(ds.test_labels[static_cast<std::size_t>(idx)]);
      keys.push_back("clean/" + std::to_string(idx));
    }
    slots.reset(eval_x, tr.on());
    float acc = 0.0f;
    {
      Scoped span(tr, "phase/eval");
      const auto t0 = Clock::now();
      acc = core::accuracy(classifiers, eval_x, eval_y);
      eval_s += seconds_since(t0);
      slots.flush(tr);
    }
    std::int64_t hits = 0;
    for (std::size_t u = 0; u < eval_x.size(); ++u) {
      const std::int64_t got = slots.label[u];
      res.check(got >= 0, keys[u] + " was not classified exactly once");
      if (got < 0) continue;
      eval_ms.push_back(slots.ms[u]);
      const bool ok = got == eval_y[u];
      hits += ok;
      if (u < static_cast<std::size_t>(kDigitalPgdPerRound)) {
        pgd_ok += ok;
      } else {
        clean_ok += ok;
        ++clean_n;
      }
      const std::string val = std::to_string(got);
      auto [it, fresh] = res.digests.emplace(keys[u], val);
      res.check(fresh || it->second == val,
                keys[u] + " changed label on re-evaluation");
    }
    res.check(std::abs(acc - pct(hits, static_cast<std::int64_t>(eval_x.size()))) < 1e-3,
              "core::accuracy disagrees with the per-image labels in round " +
                  std::to_string(rounds));
  }
  res.timed_wall_s = seconds_since(t_start);
  timed.stop();
  res.digests["train/weights"] = first_weights;
  const std::uint64_t degraded = health_failures(timed);
  res.attempted += static_cast<std::int64_t>(degraded);
  res.failed += static_cast<std::int64_t>(degraded);

  res.metric("setup_s", median(setup_s), "s");
  // Batch PGD: the rate is every crafted image over the time spent
  // crafting, which averages a slow spell of the host into the whole run
  // instead of letting it decide which side of the median a run lands.
  emit_attack_rates(res, static_cast<double>(pgd_n) / pgd_s, eval_ms, eval_s,
                    pgd_image_ms, static_cast<double>(pgd_n), pgd_s);
  res.metric("train_images_per_s",
             static_cast<double>(rounds * kTrainSubset) / train_s, "1/s");
  res.metric("nn.train_step_ms",
             train_s * 1e3 / static_cast<double>(rounds * steps_per_round), "ms");
  res.metric("accuracy.clean_pct", pct(clean_ok, clean_n), "%");
  res.metric("accuracy.pgd_pct", pct(pgd_ok, pgd_n), "%");
  res.metric("core.prepare_s", median(prepare_s), "s");
  emit_layer_counts(res, timed, res.timed_wall_s);
  if (tr.on()) {
    const auto fwd = span_ms(tr, "nn.forward");
    res.metric("nn.forward_ms.p50", quantile(fwd, 0.5), "ms");
    res.metric("nn.forward_ms.p90", quantile(fwd, 0.9), "ms");
    emit_grad_spans(res, tr);
  }
  return res;
}

}  // namespace perfbench
