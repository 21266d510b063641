#include "core/evaluator.h"

#include <algorithm>

#include "attack/attack_model.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "puma/hw_network.h"

namespace nvm::core {

namespace {

/// Top-1 accuracy (%) from per-image verdicts; an integer count, so the
/// value matches the accuracy() overloads bit for bit.
float percent_correct(std::span<const std::uint8_t> hit) {
  std::int64_t correct = 0;
  for (const std::uint8_t h : hit) correct += h;
  return 100.0f * static_cast<float>(correct) /
         static_cast<float>(hit.size());
}

/// Network replicas for a fan-out over `n_items`: one per pool thread, at
/// most one per item.
std::vector<nn::Network> clone_replicas(const PreparedTask& prepared,
                                        std::size_t n_items) {
  const std::size_t n = std::max<std::size_t>(
      1, std::min(ThreadPool::current().size(), n_items));
  std::vector<nn::Network> nets;
  nets.reserve(n);
  for (std::size_t i = 0; i < n; ++i) nets.push_back(prepared.clone_network());
  return nets;
}

}  // namespace

ForwardFn plain_forward(nn::Network& net) {
  return [&net](const Tensor& x) { return net.forward(x, nn::Mode::Eval); };
}

float accuracy(const ForwardFn& fn, std::span<const Tensor> images,
               std::span<const std::int64_t> labels) {
  NVM_TRACE_SPAN("eval/accuracy");
  NVM_CHECK_EQ(images.size(), labels.size());
  NVM_CHECK_GT(images.size(), 0u);
  std::int64_t correct = 0;
  for (std::size_t i = 0; i < images.size(); ++i)
    if (fn(images[i]).argmax() == labels[i]) ++correct;
  return 100.0f * static_cast<float>(correct) /
         static_cast<float>(images.size());
}

float accuracy(std::span<const ForwardFn> replicas,
               std::span<const Tensor> images,
               std::span<const std::int64_t> labels) {
  NVM_TRACE_SPAN("eval/accuracy");
  NVM_CHECK_EQ(images.size(), labels.size());
  NVM_CHECK_GT(images.size(), 0u);
  NVM_CHECK_GT(replicas.size(), 0u);
  const auto n = static_cast<std::int64_t>(images.size());
  // Per-sample verdicts land in disjoint slots; the count is an integer
  // sum, so the result does not depend on chunking or thread count.
  std::vector<std::uint8_t> hit(images.size(), 0);
  parallel_chunks(n, static_cast<std::int64_t>(replicas.size()),
                  [&](std::int64_t chunk, std::int64_t begin,
                      std::int64_t end) {
                    const ForwardFn& fn = replicas[static_cast<std::size_t>(chunk)];
                    for (std::int64_t i = begin; i < end; ++i) {
                      const auto u = static_cast<std::size_t>(i);
                      hit[u] = fn(images[u]).argmax() == labels[u] ? 1 : 0;
                    }
                  });
  return percent_correct(hit);
}

std::vector<Tensor> craft_pgd(attack::AttackModel& attacker,
                              std::span<const Tensor> images,
                              std::span<const std::int64_t> labels,
                              const attack::PgdOptions& opt) {
  NVM_TRACE_SPAN("eval/craft_pgd");
  NVM_CHECK_EQ(images.size(), labels.size());
  std::vector<Tensor> out;
  out.reserve(images.size());
  for (std::size_t i = 0; i < images.size(); ++i) {
    attack::PgdOptions per = opt;
    per.seed = derive_seed(opt.seed, i);  // independent random starts
    out.push_back(attack::pgd_attack(attacker, images[i], labels[i], per));
  }
  return out;
}

std::vector<Tensor> craft_pgd(std::span<attack::AttackModel* const> attackers,
                              std::span<const Tensor> images,
                              std::span<const std::int64_t> labels,
                              const attack::PgdOptions& opt) {
  NVM_TRACE_SPAN("eval/craft_pgd");
  NVM_CHECK_EQ(images.size(), labels.size());
  NVM_CHECK_GT(attackers.size(), 0u);
  std::vector<Tensor> out(images.size());
  parallel_chunks(
      static_cast<std::int64_t>(images.size()),
      static_cast<std::int64_t>(attackers.size()),
      [&](std::int64_t chunk, std::int64_t begin, std::int64_t end) {
        attack::AttackModel* attacker =
            attackers[static_cast<std::size_t>(chunk)];
        for (std::int64_t i = begin; i < end; ++i) {
          const auto u = static_cast<std::size_t>(i);
          attack::PgdOptions per = opt;
          per.seed = derive_seed(opt.seed, u);
          out[u] = attack::pgd_attack(*attacker, images[u], labels[u], per);
        }
      });
  return out;
}

std::vector<Tensor> craft_square(attack::AttackModel& attacker,
                                 std::span<const Tensor> images,
                                 std::span<const std::int64_t> labels,
                                 const attack::SquareOptions& opt) {
  NVM_TRACE_SPAN("eval/craft_square");
  NVM_CHECK_EQ(images.size(), labels.size());
  std::vector<Tensor> out;
  out.reserve(images.size());
  for (std::size_t i = 0; i < images.size(); ++i) {
    attack::SquareOptions per = opt;
    per.seed = derive_seed(opt.seed, i);
    out.push_back(
        attack::square_attack(attacker, images[i], labels[i], per).adv);
  }
  return out;
}

std::vector<Tensor> craft_square(
    std::span<attack::AttackModel* const> attackers,
    std::span<const Tensor> images, std::span<const std::int64_t> labels,
    const attack::SquareOptions& opt) {
  NVM_TRACE_SPAN("eval/craft_square");
  NVM_CHECK_EQ(images.size(), labels.size());
  NVM_CHECK_GT(attackers.size(), 0u);
  std::vector<Tensor> out(images.size());
  parallel_chunks(
      static_cast<std::int64_t>(images.size()),
      static_cast<std::int64_t>(attackers.size()),
      [&](std::int64_t chunk, std::int64_t begin, std::int64_t end) {
        attack::AttackModel* attacker =
            attackers[static_cast<std::size_t>(chunk)];
        for (std::int64_t i = begin; i < end; ++i) {
          const auto u = static_cast<std::size_t>(i);
          attack::SquareOptions per = opt;
          per.seed = derive_seed(opt.seed, u);
          out[u] =
              attack::square_attack(*attacker, images[u], labels[u], per).adv;
        }
      });
  return out;
}

float TargetEval::accuracy(std::size_t s) const {
  NVM_CHECK_LT(s, correct.size());
  return percent_correct(correct[s]);
}

std::vector<TargetEval> evaluate_targets(const PreparedTask& prepared,
                                         std::span<const Target> targets,
                                         std::span<const ImageSet> sets) {
  NVM_TRACE_SPAN("eval/targets");
  // The images of all sets, flattened: set s owns [start[s], start[s+1]).
  std::vector<std::size_t> start{0};
  for (const ImageSet& set : sets) {
    NVM_CHECK_EQ(set.images.size(), set.labels.size());
    NVM_CHECK_GT(set.images.size(), 0u);
    start.push_back(start.back() + set.images.size());
  }
  const std::size_t n = start.back();
  std::vector<nn::Network> nets = clone_replicas(prepared, n);
  const std::vector<Tensor> calib = prepared.calibration_images();

  std::vector<TargetEval> out;
  out.reserve(targets.size());
  for (const Target& target : targets) {
    const HealthSnapshot before = health_snapshot();
    std::vector<std::unique_ptr<puma::HwDeployment>> deployments;
    HealthSnapshot replica_deploys;  // replicas past the first
    if (target.model != nullptr) {
      for (nn::Network& net : nets)
        deployments.push_back(std::make_unique<puma::HwDeployment>(
            net, target.model, std::span<const Tensor>(calib), target.hw));
      replica_deploys = health_snapshot().delta_since(before).delta_since(
          deployments.front()->stats().health);
    }
    std::vector<std::uint8_t> hit(n, 0);
    parallel_chunks(
        static_cast<std::int64_t>(n), static_cast<std::int64_t>(nets.size()),
        [&](std::int64_t chunk, std::int64_t begin, std::int64_t end) {
          nn::Network& net = nets[static_cast<std::size_t>(chunk)];
          for (auto i = static_cast<std::size_t>(begin);
               i < static_cast<std::size_t>(end); ++i) {
            const auto s = static_cast<std::size_t>(
                std::upper_bound(start.begin(), start.end(), i) -
                start.begin() - 1);
            const std::size_t k = i - start[s];
            hit[i] = net.forward(sets[s].images[k], nn::Mode::Eval).argmax() ==
                     sets[s].labels[k];
          }
        });
    deployments.clear();

    TargetEval eval;
    for (std::size_t s = 0; s < sets.size(); ++s)
      eval.correct.emplace_back(hit.data() + start[s],
                                hit.data() + start[s + 1]);
    // One deployment's worth of calibration activity, so the count does
    // not depend on the replica (= thread) count.
    eval.health =
        health_snapshot().delta_since(before).delta_since(replica_deploys);
    out.push_back(std::move(eval));
  }
  return out;
}

std::vector<ImageSet> TransferSets::sets() const {
  std::vector<ImageSet> out{clean};
  if (!pgd.empty()) out.push_back({pgd, clean.labels});
  if (!square.empty()) out.push_back({square, clean.labels});
  return out;
}

TransferAccuracy TransferSets::accuracy(const TargetEval& eval) const {
  TransferAccuracy acc;
  std::size_t s = 0;
  acc.clean = eval.accuracy(s++);
  if (!pgd.empty()) acc.pgd = eval.accuracy(s++);
  if (!square.empty()) acc.square = eval.accuracy(s++);
  return acc;
}

TransferSets craft_transfer_sets(const PreparedTask& prepared,
                                 const TransferOptions& opt) {
  TransferSets out;
  const ImageSet clean{prepared.eval_images(opt.n_eval),
                       prepared.eval_labels(opt.n_eval)};
  out.clean = clean;
  if (!opt.run_pgd && !opt.run_square) return out;
  std::vector<nn::Network> nets =
      clone_replicas(prepared, clean.images.size());
  std::vector<attack::NetworkAttackModel> attackers(nets.begin(), nets.end());
  std::vector<attack::AttackModel*> ptrs;
  for (auto& a : attackers) ptrs.push_back(&a);
  const float eps = prepared.task.scaled_eps(opt.pgd_eps_255);
  if (opt.run_pgd) {
    attack::PgdOptions pgd;
    pgd.epsilon = eps;
    pgd.iters = opt.pgd_iters;
    out.pgd = craft_pgd(ptrs, clean.images, clean.labels, pgd);
  }
  if (opt.run_square) {
    attack::SquareOptions sq;
    sq.epsilon = eps;
    sq.max_queries = opt.square_queries;
    out.square = craft_square(ptrs, clean.images, clean.labels, sq);
  }
  return out;
}

}  // namespace nvm::core
