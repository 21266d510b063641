// GENIEx-style crossbar surrogate (paper §II-A, ref [15]).
//
// A 2-layer perceptron learns the deviation between the ideal dot product
// and the circuit-solver (HSPICE stand-in) output. The network does not
// consume the raw (V, G) tensors: it consumes a compact set of
// physics-informed features of the programmed conductance matrix and the
// applied voltage vector — column conductance load, row loading, wire
// distance weighting, input activity, device energy — which is what makes
// the surrogate fast enough to sit inside every DNN MVM while remaining
// data-dependent in the same way the full solver is.
//
// Prediction target: the *relative* deviation
//   r_j = (I_ideal_j - I_nonideal_j) / max(I_ideal_j, floor)
// with floor = kGeniexRelFloor * i_scale, so surrogate error scales with
// the signal and small-current columns keep bounded relative error.
#pragma once

#include "xbar/circuit_solver.h"
#include "xbar/fast_noise.h"
#include "xbar/mlp.h"
#include "xbar/mvm_model.h"

namespace nvm::xbar {

/// Number of per-column features fed to the surrogate MLP.
inline constexpr std::int64_t kGeniexFeatureCount = 10;

/// Denominator floor for the relative-deviation target, as a fraction of
/// the full-scale column current.
inline constexpr float kGeniexRelFloor = 0.02f;

struct GeniexTrainOptions {
  std::int64_t solver_samples = 320;  ///< random (G, V) circuit solves
  std::int64_t hidden = 28;
  MlpTrainOptions mlp;
  std::uint64_t seed = 11;
  SolverOptions solver;
};

/// Result of a surrogate fit, with its validation error against held-out
/// solver data (normalized by i_scale).
struct GeniexFit {
  MlpRegressor mlp;
  float train_mse = 0.0f;
  float val_mse = 0.0f;
};

/// Surrogate trust envelope. The MLP predicts a *relative* deviation; on
/// physical hardware the non-ideal current satisfies 0 <= I <= I_ideal, so
/// r lives in [0, 1] (small negative values are tolerable regression
/// noise). A prediction far outside that envelope — or a NaN — means the
/// surrogate is being driven off its training distribution (e.g. by an
/// injected fault pattern); rather than trust it or crash, the affected
/// input vector is re-evaluated on the closed-form fast-noise model. Every
/// such degradation bumps HealthCounter::SurrogateFallback and is warned
/// about (throttled); experiments report the count next to accuracy.
struct GeniexGuardOptions {
  bool enabled = true;
  float rel_min = -0.5f;  ///< below: surrogate claims implausible gain
  float rel_max = 1.5f;   ///< above: claims more than total current loss
};

class GeniexModel final : public MvmModel {
 public:
  GeniexModel(CrossbarConfig cfg, MlpRegressor mlp,
              GeniexGuardOptions guard = {});

  /// Trains a fresh surrogate against the circuit solver.
  static GeniexFit fit(const CrossbarConfig& cfg, const GeniexTrainOptions& opt);

  /// Cached fit: loads surrogate weights from the file cache when present
  /// (keyed by the electrical config and train options), trains otherwise.
  static GeniexModel load_or_train(const CrossbarConfig& cfg,
                                   const GeniexTrainOptions& opt = {});

  std::unique_ptr<ProgrammedXbar> program(const Tensor& g) const override;
  const CrossbarConfig& config() const override { return cfg_; }
  std::string name() const override { return "geniex"; }

  const MlpRegressor& mlp() const { return mlp_; }

  const GeniexGuardOptions& guard() const { return guard_; }
  void set_guard(const GeniexGuardOptions& guard) { guard_ = guard; }

 private:
  CrossbarConfig cfg_;
  MlpRegressor mlp_;
  GeniexGuardOptions guard_;
  FastNoiseModel fallback_;  ///< degradation target for out-of-envelope MVMs
};

/// Assembles the per-column feature matrix (cols x kGeniexFeatureCount)
/// for one (G, V) pair. Exposed for training and tests.
Tensor geniex_features(const CrossbarConfig& cfg, const Tensor& g,
                       const Tensor& v);

/// Samples a random conductance matrix representative of sliced DNN
/// weights (mixture of uniform, level-quantized, and near-g_off patterns).
Tensor sample_conductances(const CrossbarConfig& cfg, Rng& rng);

/// Samples a random input voltage vector representative of bit-streamed
/// post-ReLU activations (dense, sparse, binary, low-amplitude mixtures).
Tensor sample_voltages(const CrossbarConfig& cfg, Rng& rng);

}  // namespace nvm::xbar
