// Accuracy evaluation over (possibly defended, possibly crossbar-deployed)
// forward functions, batch adversarial-set generation, and the paired
// target evaluation every experiment harness runs (evaluate_targets).
//
// Parallel execution model: a Network (and therefore a ForwardFn or
// AttackModel wrapping one) caches layer state during forward/backward, so
// a single instance must never be driven from two threads at once. The
// serial entry points below honor that. Each also has a replica overload
// that fans per-sample work across the thread pool, taking one
// functionally-identical replica per worker chunk (at most one thread
// drives a replica at a time). Per-sample RNG seeding goes through
// derive_seed(base, sample_index) in both paths, so serial and parallel
// runs produce bit-identical outputs when the replicas are deterministic
// and equivalent.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "attack/pgd.h"
#include "attack/square.h"
#include "common/health.h"
#include "core/tasks.h"
#include "nn/network.h"
#include "puma/tiled_mvm.h"

namespace nvm::core {

/// Image -> logits. Wraps whatever stack is under evaluation.
using ForwardFn = std::function<Tensor(const Tensor&)>;

/// Plain Eval-mode forward of a network (with its current engines/hooks).
ForwardFn plain_forward(nn::Network& net);

/// Top-1 accuracy (%) of `fn` over an image set (serial).
float accuracy(const ForwardFn& fn, std::span<const Tensor> images,
               std::span<const std::int64_t> labels);

/// Top-1 accuracy (%) fanning samples across the pool: replica r serves
/// worker chunk r. Replicas must classify identically (e.g. plain_forward
/// over identically-prepared networks, or copies of one thread-safe
/// closure); then the result equals the serial overload bit-for-bit.
float accuracy(std::span<const ForwardFn> replicas,
               std::span<const Tensor> images,
               std::span<const std::int64_t> labels);

/// Crafts one PGD adversarial image per input using `attacker`'s view.
/// Image i uses seed derive_seed(opt.seed, i).
std::vector<Tensor> craft_pgd(attack::AttackModel& attacker,
                              std::span<const Tensor> images,
                              std::span<const std::int64_t> labels,
                              const attack::PgdOptions& opt);

/// Parallel PGD crafting over per-worker attacker replicas; per-image
/// seeding matches the serial overload, so equivalent replicas yield
/// bit-identical adversarial sets.
std::vector<Tensor> craft_pgd(std::span<attack::AttackModel* const> attackers,
                              std::span<const Tensor> images,
                              std::span<const std::int64_t> labels,
                              const attack::PgdOptions& opt);

/// Crafts one Square-Attack adversarial image per input.
/// Image i uses seed derive_seed(opt.seed, i).
std::vector<Tensor> craft_square(attack::AttackModel& attacker,
                                 std::span<const Tensor> images,
                                 std::span<const std::int64_t> labels,
                                 const attack::SquareOptions& opt);

/// Parallel Square-Attack crafting over per-worker attacker replicas.
std::vector<Tensor> craft_square(
    std::span<attack::AttackModel* const> attackers,
    std::span<const Tensor> images, std::span<const std::int64_t> labels,
    const attack::SquareOptions& opt);

/// One evaluation target: the network deployed on `model` crossbars with
/// `hw`, or the digital network itself when `model` is null.
struct Target {
  std::shared_ptr<const xbar::MvmModel> model;
  puma::HwConfig hw;
};

/// One labelled image set (the clean test images or a crafted set).
struct ImageSet {
  std::span<const Tensor> images;
  std::span<const std::int64_t> labels;
};

/// What one target made of every image set.
struct TargetEval {
  /// correct[s][i] is 1 when the target classified image i of set s as
  /// its label.
  std::vector<std::vector<std::uint8_t>> correct;
  /// Failure-handling activity of this target's deployment (counted once)
  /// and of its evaluation.
  HealthSnapshot health;

  /// Top-1 accuracy (%) on set `s`, from its bits.
  float accuracy(std::size_t s) const;
};

/// Classifies every image set on every target: the paper's "same images on
/// the digital baseline and on each crossbar" comparison. Targets run one
/// after another (the health counters are process-wide). Within a target
/// the images of all sets fan out over network replicas cloned from
/// `prepared`, one per pool thread; each replica deploys the target once,
/// calibrated on prepared.calibration_images(). Every bit is a pure
/// function of (network, target, calibration, image), so the result is
/// identical for any NVM_THREADS; `prepared.network` is never touched.
std::vector<TargetEval> evaluate_targets(const PreparedTask& prepared,
                                         std::span<const Target> targets,
                                         std::span<const ImageSet> sets);

/// The evaluation of the fault sweep and the fleet simulator: the first
/// n_eval test images, plus non-adaptive transfer attacks crafted from them
/// once against the digital network and replayed on every target. Each
/// caller sets its own defaults.
struct TransferOptions {
  std::int64_t n_eval = 32;
  bool run_pgd = false;
  float pgd_eps_255 = 2.0f;  ///< paper-units epsilon (scaled via the task)
  std::int64_t pgd_iters = 20;
  bool run_square = false;
  std::int64_t square_queries = 300;
};

/// Clean accuracy and, when crafted, transfer accuracies (-1 = not run).
struct TransferAccuracy {
  float clean = -1.0f;
  float pgd = -1.0f;
  float square = -1.0f;
};

/// The clean evaluation images plus the adversarial sets crafted from them.
struct TransferSets {
  ImageSet clean;
  std::vector<Tensor> pgd;     ///< empty unless TransferOptions::run_pgd
  std::vector<Tensor> square;  ///< empty unless TransferOptions::run_square

  /// clean, then pgd and square when crafted: the sets to evaluate.
  std::vector<ImageSet> sets() const;
  /// Reads one target's accuracies back in the order of sets().
  TransferAccuracy accuracy(const TargetEval& eval) const;
};

/// Crafts the transfer sets against the digital network with the attacks'
/// default seeds, fanned over network replicas (one per pool thread); the
/// sets equal serial craft_pgd / craft_square output.
TransferSets craft_transfer_sets(const PreparedTask& prepared,
                                 const TransferOptions& opt);

}  // namespace nvm::core
