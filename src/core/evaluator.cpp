#include "core/evaluator.h"

#include "common/check.h"
#include "common/thread_pool.h"
#include "common/trace.h"

namespace nvm::core {

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
  std::int64_t correct = 0;
  for (const std::uint8_t h : hit) correct += h;
  return 100.0f * static_cast<float>(correct) /
         static_cast<float>(images.size());
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

}  // namespace nvm::core
