// Attack implementations against small analytic and trained models.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "common/check.h"

#include "attack/ensemble_bb.h"
#include "attack/pgd.h"
#include "attack/square.h"
#include "nn/loss.h"
#include "nn/resnet.h"
#include "nn/trainer.h"
#include "puma/hw_network.h"
#include "test_util.h"
#include "xbar/geniex.h"

namespace nvm::attack {
namespace {

/// Analytic victim: logits = W * flatten(x); gradients known in closed
/// form, so sign behaviour is exactly checkable.
class LinearModel final : public AttackModel {
 public:
  explicit LinearModel(Tensor w) : w_(std::move(w)) {}

  Tensor logits(const Tensor& x) override {
    Tensor flat = x.reshaped({x.numel()});
    Tensor out({w_.dim(0)});
    for (std::int64_t c = 0; c < w_.dim(0); ++c) {
      double acc = 0;
      for (std::int64_t i = 0; i < flat.numel(); ++i)
        acc += static_cast<double>(w_.at(c, i)) * flat[i];
      out[c] = static_cast<float>(acc);
    }
    return out;
  }

  Tensor loss_input_grad(const Tensor& x, std::int64_t label,
                         float* loss_out) override {
    Tensor out = logits(x);
    nn::LossGrad lg = nn::cross_entropy(out, label);
    if (loss_out != nullptr) *loss_out = lg.loss;
    Tensor gx(x.shape());
    Tensor flat_g = gx.reshaped({x.numel()});
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      double acc = 0;
      for (std::int64_t c = 0; c < w_.dim(0); ++c)
        acc += static_cast<double>(lg.grad_logits[c]) * w_.at(c, i);
      flat_g[i] = static_cast<float>(acc);
    }
    return flat_g.reshaped(x.shape());
  }

 private:
  Tensor w_;  // (classes, dims)
};

LinearModel make_two_class_model(std::int64_t dims = 12) {
  // Class 0 likes bright pixels, class 1 dark.
  Tensor w({2, dims});
  for (std::int64_t i = 0; i < dims; ++i) {
    w.at(0, i) = 1.0f;
    w.at(1, i) = -1.0f;
  }
  return LinearModel(std::move(w));
}

TEST(Pgd, StaysWithinEpsilonBallAndPixelRange) {
  LinearModel model = make_two_class_model();
  Rng rng(1);
  Tensor x = Tensor::uniform({3, 2, 2}, 0.3f, 0.7f, rng);
  PgdOptions opt;
  opt.epsilon = 0.1f;
  opt.iters = 10;
  Tensor adv = pgd_attack(model, x, 0, opt);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_LE(std::abs(adv[i] - x[i]), opt.epsilon + 1e-6f);
    EXPECT_GE(adv[i], 0.0f);
    EXPECT_LE(adv[i], 1.0f);
  }
}

TEST(Pgd, MovesAgainstTrueLabelDirection) {
  // For label 0 (bright class), increasing loss means darkening pixels.
  LinearModel model = make_two_class_model();
  Tensor x = Tensor::full({3, 2, 2}, 0.5f);
  PgdOptions opt;
  opt.epsilon = 0.1f;
  opt.iters = 5;
  opt.random_start = false;
  Tensor adv = pgd_attack(model, x, 0, opt);
  for (std::int64_t i = 0; i < x.numel(); ++i)
    EXPECT_NEAR(adv[i], 0.4f, 1e-5f);  // pushed to the -eps face
}

TEST(Pgd, IncreasesVictimLoss) {
  LinearModel model = make_two_class_model();
  Rng rng(2);
  Tensor x = Tensor::uniform({3, 2, 2}, 0.55f, 0.8f, rng);
  float clean_loss = 0, adv_loss = 0;
  (void)model.loss_input_grad(x, 0, &clean_loss);
  PgdOptions opt;
  opt.epsilon = 0.15f;
  opt.iters = 10;
  Tensor adv = pgd_attack(model, x, 0, opt);
  (void)model.loss_input_grad(adv, 0, &adv_loss);
  EXPECT_GT(adv_loss, clean_loss);
}

TEST(Pgd, DefaultStepFollowsMadryHeuristic) {
  PgdOptions opt;
  opt.epsilon = 0.3f;
  opt.iters = 30;
  EXPECT_NEAR(opt.step(), 2.5f * 0.3f / 30, 1e-6f);
  opt.alpha = 0.05f;
  EXPECT_EQ(opt.step(), 0.05f);
}

TEST(MiFgsm, StaysWithinBallAndIncreasesLoss) {
  LinearModel model = make_two_class_model();
  Rng rng(12);
  Tensor x = Tensor::uniform({3, 2, 2}, 0.4f, 0.6f, rng);
  MiFgsmOptions opt;
  opt.epsilon = 0.08f;
  opt.iters = 8;
  float clean_loss = 0, adv_loss = 0;
  (void)model.loss_input_grad(x, 0, &clean_loss);
  Tensor adv = mi_fgsm_attack(model, x, 0, opt);
  (void)model.loss_input_grad(adv, 0, &adv_loss);
  EXPECT_GT(adv_loss, clean_loss);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_LE(std::abs(adv[i] - x[i]), opt.epsilon + 1e-6f);
    EXPECT_GE(adv[i], 0.0f);
    EXPECT_LE(adv[i], 1.0f);
  }
}

TEST(MiFgsm, MatchesPgdDirectionOnLinearModel) {
  // On a linear victim the momentum direction equals the constant
  // gradient sign, so MI-FGSM must land on the same ball corner.
  LinearModel model = make_two_class_model();
  Tensor x = Tensor::full({3, 2, 2}, 0.5f);
  MiFgsmOptions opt;
  opt.epsilon = 0.06f;
  opt.iters = 6;
  Tensor adv = mi_fgsm_attack(model, x, 0, opt);
  for (std::int64_t i = 0; i < x.numel(); ++i)
    EXPECT_NEAR(adv[i], 0.44f, 1e-4f);
}

TEST(Fgsm, MatchesSignOfGradient) {
  LinearModel model = make_two_class_model();
  Tensor x = Tensor::full({3, 2, 2}, 0.5f);
  Tensor adv = fgsm_attack(model, x, 1, 0.07f);  // label 1: dark class
  // Increasing loss for the dark class means brightening pixels.
  for (std::int64_t i = 0; i < x.numel(); ++i)
    EXPECT_NEAR(adv[i], 0.57f, 1e-5f);
}

TEST(Square, RespectsEpsilonBall) {
  LinearModel model = make_two_class_model(3 * 6 * 6);
  Rng rng(3);
  Tensor x = Tensor::uniform({3, 6, 6}, 0.2f, 0.8f, rng);
  SquareOptions opt;
  opt.epsilon = 0.08f;
  opt.max_queries = 60;
  SquareResult res = square_attack(model, x, 0, opt);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_LE(std::abs(res.adv[i] - x[i]), opt.epsilon + 1e-6f);
    EXPECT_GE(res.adv[i], 0.0f);
    EXPECT_LE(res.adv[i], 1.0f);
  }
  EXPECT_LE(res.queries_used, opt.max_queries);
}

TEST(Square, BreaksMarginOnEasyModel) {
  // Class 0 prefers mass on the left half, class 1 on the right. An input
  // with a slight left bias is barely class 0; flipping a few squares to
  // the +eps/-eps faces must push it over.
  const std::int64_t hw = 6;
  Tensor w({2, 3 * hw * hw});
  for (std::int64_t c = 0; c < 3; ++c)
    for (std::int64_t y = 0; y < hw; ++y)
      for (std::int64_t x = 0; x < hw; ++x) {
        const float sign = (x < hw / 2) ? 1.0f : -1.0f;
        w.at(0, (c * hw + y) * hw + x) = sign;
        w.at(1, (c * hw + y) * hw + x) = -sign;
      }
  LinearModel model(std::move(w));
  Tensor img = Tensor::full({3, hw, hw}, 0.5f);
  for (std::int64_t c = 0; c < 3; ++c)
    for (std::int64_t y = 0; y < hw; ++y)
      img.at(c, y, 0) += 0.01f;  // slight left bias: barely class 0
  SquareOptions opt;
  opt.epsilon = 0.05f;
  opt.max_queries = 300;
  SquareResult res = square_attack(model, img, 0, opt);
  EXPECT_TRUE(res.success);
}

TEST(Square, NeverIncreasesMargin) {
  LinearModel model = make_two_class_model(3 * 4 * 4);
  Rng rng(4);
  Tensor x = Tensor::uniform({3, 4, 4}, 0.5f, 0.9f, rng);
  SquareOptions opt;
  opt.epsilon = 0.03f;
  opt.max_queries = 40;
  SquareResult res = square_attack(model, x, 0, opt);
  const float final_margin = nn::margin(model.logits(res.adv), 0);
  const float clean_margin = nn::margin(model.logits(x), 0);
  EXPECT_LE(final_margin, clean_margin + 1e-5f);
}

TEST(EnsembleModel, GradIsSumAndLogitsAreMean) {
  Rng rng(5);
  nn::ResnetCifarSpec spec;
  spec.blocks_per_stage = 1;
  spec.widths = {4, 4, 4};
  spec.num_classes = 3;
  nn::Network a = nn::make_resnet_cifar(spec, rng);
  nn::Network b = nn::make_resnet_cifar(spec, rng);
  Tensor x = Tensor::uniform({3, 8, 8}, 0, 1, rng);

  EnsembleAttackModel ens({&a, &b});
  Tensor mean_logits = ens.logits(x);
  Tensor expect = a.forward(x, nn::Mode::Eval) + b.forward(x, nn::Mode::Eval);
  expect *= 0.5f;
  EXPECT_LT(max_abs_diff(mean_logits, expect), 1e-5f);

  NetworkAttackModel ma(a), mb(b);
  Tensor ga = ma.loss_input_grad(x, 1);
  Tensor gb = mb.loss_input_grad(x, 1);
  Tensor gsum = ens.loss_input_grad(x, 1);
  EXPECT_LT(max_abs_diff(gsum, ga + gb), 1e-4f);
}

TEST(NetworkModel, GradLeavesParamsClean) {
  Rng rng(6);
  nn::ResnetCifarSpec spec;
  spec.blocks_per_stage = 1;
  spec.widths = {4, 4, 4};
  spec.num_classes = 2;
  nn::Network net = nn::make_resnet_cifar(spec, rng);
  NetworkAttackModel model(net);
  Tensor x = Tensor::uniform({3, 8, 8}, 0, 1, rng);
  (void)model.loss_input_grad(x, 0);
  for (nn::Param* p : net.params()) EXPECT_EQ(p->grad.abs_max(), 0.0f);
}

// ---------------------------------------------------------------------------
// Input-only backward: same dx bits as backward(), no parameter gradients
// ---------------------------------------------------------------------------

/// The SCIFAR10 network (ResNet-20, widths 8/16/32) at a fixed seed.
nn::Network scifar10_resnet20(std::uint64_t seed) {
  Rng rng(seed);
  nn::ResnetCifarSpec spec;
  spec.blocks_per_stage = 3;
  spec.widths = {8, 16, 32};
  spec.num_classes = 10;
  return nn::make_resnet_cifar(spec, rng);
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.raw(), b.raw(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

void fill_grads(nn::Network& net, float sentinel) {
  for (nn::Param* p : net.params()) p->grad.fill(sentinel);
}

/// True when every Param::grad still holds `sentinel` everywhere.
bool grads_hold(nn::Network& net, float sentinel) {
  for (nn::Param* p : net.params())
    for (std::int64_t i = 0; i < p->grad.numel(); ++i)
      if (p->grad[i] != sentinel) return false;
  return true;
}

/// One forward in `mode`, then input_grad() and backward() from the same
/// cached state: input_grad must give backward()'s dx bit for bit and
/// write no parameter gradient, while backward() does write them.
void expect_input_grad_matches_backward(nn::Network& net, const Tensor& x,
                                        nn::Mode mode, const char* tag) {
  const float sentinel = 0.375f;
  fill_grads(net, sentinel);
  Tensor logits = net.forward(x, mode);
  nn::LossGrad lg = nn::cross_entropy(logits, 3);
  Tensor dx_input_only = net.input_grad(lg.grad_logits);
  EXPECT_TRUE(grads_hold(net, sentinel)) << tag << ": input_grad wrote grads";
  Tensor dx_full = net.backward(lg.grad_logits);
  EXPECT_FALSE(grads_hold(net, sentinel)) << tag << ": backward wrote none";
  ASSERT_GT(dx_full.abs_max(), 0.0f) << tag;
  EXPECT_TRUE(same_bits(dx_input_only, dx_full)) << tag;
}

TEST(InputGrad, BitIdenticalToBackwardDigitalAndGeniex) {
  nn::Network net = scifar10_resnet20(41);
  Rng rng(42);
  Tensor x = Tensor::uniform({3, 12, 12}, 0.0f, 1.0f, rng);
  expect_input_grad_matches_backward(net, x, nn::Mode::Eval, "digital");

  // Hardware-in-Loop: GENIEx forward (an untrained surrogate suffices for
  // bit identity), ideal backward at the non-ideal activations.
  Rng mlp_rng(43);
  auto geniex = std::make_shared<xbar::GeniexModel>(
      xbar::xbar_64x64_100k(),
      xbar::MlpRegressor(xbar::kGeniexFeatureCount, 28, mlp_rng));
  puma::HwDeployment dep(net, geniex, {});
  expect_input_grad_matches_backward(net, x, nn::Mode::Eval, "geniex");
}

TEST(InputGrad, BitIdenticalThroughBatchNormTrainBranches) {
  nn::Network net = scifar10_resnet20(44);
  Rng rng(45);
  Tensor x = Tensor::uniform({3, 12, 12}, 0.0f, 1.0f, rng);
  expect_input_grad_matches_backward(net, x, nn::Mode::Train,
                                     "batch statistics");
  net.freeze_batchnorm();
  expect_input_grad_matches_backward(net, x, nn::Mode::Train, "frozen");
}

TEST(InputGrad, AttackModelsLeaveParamGradsUntouched) {
  nn::Network a = scifar10_resnet20(46);
  nn::Network b = scifar10_resnet20(47);
  Rng rng(48);
  Tensor x = Tensor::uniform({3, 12, 12}, 0.0f, 1.0f, rng);
  const float sentinel = -1.5f;
  fill_grads(a, sentinel);
  fill_grads(b, sentinel);

  NetworkAttackModel single(a);
  float loss = 0.0f;
  Tensor g = single.loss_input_grad(x, 2, &loss);
  EXPECT_GT(g.abs_max(), 0.0f);
  EXPECT_TRUE(grads_hold(a, sentinel)) << "NetworkAttackModel";

  EnsembleAttackModel ens({&a, &b});
  Tensor ge = ens.loss_input_grad(x, 2, &loss);
  EXPECT_GT(ge.abs_max(), 0.0f);
  EXPECT_TRUE(grads_hold(a, sentinel)) << "EnsembleAttackModel member 0";
  EXPECT_TRUE(grads_hold(b, sentinel)) << "EnsembleAttackModel member 1";
}

TEST(SurrogateEnsemble, DistillsVictimBehaviour) {
  // Victim: tiny trained network on a separable task. Surrogates trained
  // only from queried logits must agree with the victim on most inputs.
  Rng rng(7);
  std::vector<Tensor> images;
  std::vector<std::int64_t> labels;
  testutil::make_orientation_toy(images, labels, 48, rng);
  nn::ResnetCifarSpec spec;
  spec.blocks_per_stage = 1;
  spec.widths = {4, 4, 4};
  spec.num_classes = 2;
  nn::Network victim = nn::make_resnet_cifar(spec, rng);
  nn::train(victim, images, labels, testutil::toy_train_config());

  EnsembleBbOptions opt;
  opt.depths = {1};
  opt.widths = {4, 4, 4};
  opt.epochs = 15;
  opt.batch = 8;
  SurrogateEnsemble surrogates = SurrogateEnsemble::distill(
      [&](const Tensor& img) { return victim.forward(img, nn::Mode::Eval); },
      images, 2, opt);
  ASSERT_EQ(surrogates.size(), 1u);

  int agree = 0;
  for (const Tensor& img : images) {
    const auto v = victim.forward(img, nn::Mode::Eval).argmax();
    const auto s =
        surrogates.member(0).forward(img, nn::Mode::Eval).argmax();
    agree += (v == s);
  }
  EXPECT_GT(agree, 38);  // > 80% agreement
}

}  // namespace
}  // namespace nvm::attack
