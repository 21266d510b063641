#include "xbar/mlp.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"
#include "common/simd.h"

namespace nvm::xbar {

MlpRegressor::MlpRegressor(std::int64_t in_dim, std::int64_t hidden, Rng& rng)
    : in_dim_(in_dim),
      hidden_(hidden),
      w1_(Tensor::normal({hidden, in_dim}, 0.0f,
                         std::sqrt(1.0f / static_cast<float>(in_dim)), rng)),
      b1_(Tensor::zeros({hidden})),
      w2_(Tensor::normal({hidden}, 0.0f,
                         std::sqrt(1.0f / static_cast<float>(hidden)), rng)),
      b2_(Tensor::zeros({1})) {
  NVM_CHECK(in_dim > 0 && hidden > 0);
}

void MlpRegressor::save(BinaryWriter& w) const {
  w.write_i64(in_dim_);
  w.write_i64(hidden_);
  w1_.save(w);
  b1_.save(w);
  w2_.save(w);
  b2_.save(w);
}

MlpRegressor MlpRegressor::load(BinaryReader& r) {
  const std::int64_t in_dim = r.read_i64();
  const std::int64_t hidden = r.read_i64();
  Rng dummy(0);
  MlpRegressor m(in_dim, hidden, dummy);
  m.w1_ = Tensor::load(r);
  m.b1_ = Tensor::load(r);
  m.w2_ = Tensor::load(r);
  m.b2_ = Tensor::load(r);
  NVM_CHECK_EQ(m.w1_.dim(0), hidden);
  NVM_CHECK_EQ(m.w1_.dim(1), in_dim);
  return m;
}

float MlpRegressor::predict(std::span<const float> features) const {
  NVM_CHECK_EQ(static_cast<std::int64_t>(features.size()), in_dim_);
  float out;
  predict_block(features.data(), 1, &out);
  return out;
}

void MlpRegressor::predict_block(const float* features_t, std::int64_t n,
                                 float* out) const {
  simd::mlp_tanh(out, features_t, n, in_dim_, hidden_, w1_.raw(), b1_.raw(),
                 w2_.raw(), b2_[0]);
}

float MlpRegressor::train(const Tensor& x, const Tensor& y,
                          const MlpTrainOptions& opt) {
  NVM_CHECK_EQ(x.rank(), 2u);
  NVM_CHECK_EQ(x.dim(1), in_dim_);
  NVM_CHECK_EQ(x.dim(0), y.numel());
  NVM_CHECK_GT(opt.batch, 0);
  const std::int64_t n = x.dim(0);
  NVM_CHECK_GT(n, 0);
  const std::int64_t d = in_dim_, hd = hidden_;

  // Each minibatch is a handful of [exact] simd::gemm_madd calls (unfused
  // multiply then add, sequential over k) plus the [exact] training
  // kernels (tanh_fast_block, gemv_madd, tanh_backprop, adam_step), in an
  // op order that reproduces the per-sample scalar loop bit for bit
  // (DESIGN.md §11): every sum over inputs, hidden units or samples runs
  // sequentially in the order that loop used. A step takes ~20 us, below
  // the cost of a pool fork-join, so it stays on the calling thread. w1
  // is held hidden-contiguous (D x H) while training so X.W1^T and the
  // weight gradient X^T.dh both read and write contiguous rows; Adam is
  // elementwise, so the layout does not touch its arithmetic.
  Tensor w1t({d, hd});
  for (std::int64_t h = 0; h < hd; ++h)
    for (std::int64_t i = 0; i < d; ++i)
      w1t.raw()[i * hd + h] = w1_.raw()[h * d + i];

  Rng rng(opt.seed);
  // Adam state.
  struct AdamState {
    Tensor m, v;
    explicit AdamState(const Shape& s) : m(Tensor::zeros(s)), v(Tensor::zeros(s)) {}
  };
  Tensor* params[4] = {&w1t, &b1_, &w2_, &b2_};
  std::vector<AdamState> adam;
  for (Tensor* p : params) adam.emplace_back(p->shape());
  simd::AdamStep step;  // beta1 0.9, beta2 0.999, eps 1e-8
  step.lr = opt.lr;
  std::int64_t t = 0;

  std::vector<std::int64_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);

  Tensor gw1t(w1t.shape()), gb1(b1_.shape()), gw2(w2_.shape()),
      gb2(b2_.shape());
  // Minibatch scratch, sized for the widest batch: rows in shuffled order
  // as X (B x D) and X^T (D x B), hidden activations (B x H, overwritten
  // in place by dh), outputs and errors (B), and a row of ones for gb1.
  const std::size_t bmax = static_cast<std::size_t>(std::min(n, opt.batch));
  const std::size_t ud = static_cast<std::size_t>(d);
  const std::size_t uh = static_cast<std::size_t>(hd);
  std::vector<float> xb(bmax * ud), xt(bmax * ud), act(bmax * uh);
  std::vector<float> out(bmax), err(bmax), ones(bmax, 1.0f);

  float last_epoch_mse = 0.0f;
  for (std::int64_t epoch = 0; epoch < opt.epochs; ++epoch) {
    rng.shuffle(order);
    double se = 0.0;
    for (std::int64_t start = 0; start < n; start += opt.batch) {
      const std::int64_t stop = std::min(n, start + opt.batch);
      const std::int64_t b = stop - start;
      for (std::int64_t s = 0; s < b; ++s) {
        const float* fx =
            x.raw() + order[static_cast<std::size_t>(start + s)] * d;
        std::copy(fx, fx + d, xb.data() + s * d);
        for (std::int64_t i = 0; i < d; ++i) xt[i * b + s] = fx[i];
      }
      // Forward: act = tanh_fast(b1 + X.W1^T), out = b2 + act.w2.
      for (std::int64_t s = 0; s < b; ++s)
        std::copy(b1_.raw(), b1_.raw() + hd, act.data() + s * hd);
      simd::gemm_madd(act.data(), xb.data(), w1t.raw(), b, hd, d, d, hd, hd);
      simd::tanh_fast_block(act.data(), act.data(), b * hd);
      std::fill(out.begin(), out.begin() + b, b2_[0]);
      simd::gemv_madd(out.data(), act.data(), w2_.raw(), b, hd, hd);
      // Backward (d/dout of 0.5*err^2 = err), gradients summed over the
      // minibatch in sample order.
      gb2[0] = 0.0f;
      for (std::int64_t s = 0; s < b; ++s) {
        const std::int64_t row = order[static_cast<std::size_t>(start + s)];
        err[s] = out[s] - y.raw()[row];
        se += static_cast<double>(err[s]) * err[s];
        gb2[0] += err[s];
      }
      gw2.fill(0);
      simd::gemm_madd(gw2.raw(), err.data(), act.data(), 1, hd, b, b, hd, hd);
      simd::tanh_backprop(act.data(), err.data(), w2_.raw(), b, hd);  // dh
      gb1.fill(0);
      simd::gemm_madd(gb1.raw(), ones.data(), act.data(), 1, hd, b, b, hd, hd);
      gw1t.fill(0);
      simd::gemm_madd(gw1t.raw(), xt.data(), act.data(), d, hd, b, b, hd, hd);
      // Adam step.
      ++t;
      step.count = static_cast<float>(b);
      step.bc1 = 1.0f - std::pow(step.beta1, static_cast<float>(t));
      step.bc2 = 1.0f - std::pow(step.beta2, static_cast<float>(t));
      Tensor* grads[4] = {&gw1t, &gb1, &gw2, &gb2};
      for (int pi = 0; pi < 4; ++pi) {
        AdamState& st = adam[static_cast<std::size_t>(pi)];
        simd::adam_step(params[pi]->raw(), st.m.raw(), st.v.raw(),
                        grads[pi]->raw(), params[pi]->numel(), step);
      }
    }
    last_epoch_mse = static_cast<float>(se / n);
  }
  for (std::int64_t h = 0; h < hd; ++h)
    for (std::int64_t i = 0; i < d; ++i)
      w1_.raw()[h * d + i] = w1t.raw()[i * hd + h];
  return last_epoch_mse;
}

float MlpRegressor::mse(const Tensor& x, const Tensor& y) const {
  NVM_CHECK_EQ(x.rank(), 2u);
  NVM_CHECK_EQ(x.dim(0), y.numel());
  double se = 0.0;
  for (std::int64_t i = 0; i < x.dim(0); ++i) {
    const float p = predict({x.raw() + i * in_dim_,
                             static_cast<std::size_t>(in_dim_)});
    const float err = p - y[i];
    se += static_cast<double>(err) * err;
  }
  return static_cast<float>(se / std::max<std::int64_t>(1, x.dim(0)));
}

}  // namespace nvm::xbar
