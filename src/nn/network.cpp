#include "nn/network.h"

#include "common/check.h"
#include "nn/linear.h"

namespace nvm::nn {

Network::Network(std::string arch, std::unique_ptr<Sequential> root,
                 std::int64_t num_classes)
    : arch_(std::move(arch)), root_(std::move(root)), num_classes_(num_classes) {
  NVM_CHECK(root_ != nullptr);
  NVM_CHECK_GT(num_classes_, 0);
}

Tensor Network::forward(const Tensor& x, Mode mode) {
  Tensor y = root_->forward(x, mode);
  NVM_CHECK_EQ(y.numel(), num_classes_);
  return y;
}

Tensor Network::backward(const Tensor& grad_logits) {
  return root_->backward(grad_logits);
}

Tensor Network::input_grad(const Tensor& grad_logits) {
  return root_->input_grad(grad_logits);
}

std::vector<Param*> Network::params() { return collect_params(*root_); }

void Network::zero_grads() { nn::zero_grads(*root_); }

std::int64_t Network::param_count() {
  std::int64_t n = 0;
  for (Param* p : params()) n += p->value.numel();
  return n;
}

void Network::set_mvm_engines(
    const std::function<std::shared_ptr<MvmEngine>(Layer&)>& make) {
  visit_layers(*root_, [&](Layer& l) {
    if (auto* conv = dynamic_cast<Conv2d*>(&l)) {
      conv->set_engine(make(l));
    } else if (auto* lin = dynamic_cast<Linear*>(&l)) {
      lin->set_engine(make(l));
    }
  });
}

void Network::reset_mvm_engines() {
  set_mvm_engines([](Layer&) { return ideal_engine(); });
}

void Network::freeze_batchnorm(bool frozen) {
  visit_layers(*root_, [&](Layer& l) {
    if (auto* bn = dynamic_cast<BatchNorm2d*>(&l)) bn->set_frozen(frozen);
  });
}

void Network::set_conv_eval_hooks(std::function<Tensor(const Tensor&)> hook) {
  visit_layers(*root_, [&](Layer& l) {
    if (dynamic_cast<Conv2d*>(&l) != nullptr) l.set_eval_hook(hook);
  });
}

void Network::save(BinaryWriter& w) {
  w.write_string(arch_);
  for (Param* p : params()) p->value.save(w);
  visit_layers(*root_, [&](Layer& l) {
    if (auto* bn = dynamic_cast<BatchNorm2d*>(&l)) {
      bn->running_mean().save(w);
      bn->running_var().save(w);
    }
  });
}

void Network::load(BinaryReader& r) {
  const std::string arch = r.read_string();
  NVM_CHECK(arch == arch_, "architecture mismatch: " << arch << " vs " << arch_);
  for (Param* p : params()) {
    Tensor v = Tensor::load(r);
    NVM_CHECK(v.same_shape(p->value), "param shape mismatch");
    p->value = std::move(v);
  }
  visit_layers(*root_, [&](Layer& l) {
    if (auto* bn = dynamic_cast<BatchNorm2d*>(&l)) {
      bn->running_mean() = Tensor::load(r);
      bn->running_var() = Tensor::load(r);
    }
  });
}

}  // namespace nvm::nn
