// Fleet-lifetime simulation: population-scale chip handles.
//
// The paper (and PR 2's FaultModel) characterizes ONE die. A deployed
// accelerator product is a *fleet*: thousands-to-millions of dies, each
// with its own silicon lottery (stuck-at / line-open rates, write noise)
// and its own drift clock, all aging while they serve traffic. This
// header defines the population layer:
//
//   * ChipInstance — a cheap handle, a few doubles plus a splittable
//     seed. Holding a million of these costs ~100 MB and creating one is
//     a handful of RNG draws; the expensive FaultModel map and crossbar
//     programming happen only when a chip is *sampled* for evaluation
//     (lazy materialization, see FleetSimulator::materialize).
//   * make_chip — the pure function (fleet seed, chip id) -> handle, via
//     derive_seed, so any subset of the fleet can be reconstructed
//     deterministically on any machine from the manifest seed alone.
//   * ChipEval — one sampled measurement of one chip at one fleet age.
//
// Aging is O(1) per epoch regardless of fleet size: a chip stores the
// fleet time at which it was last programmed, and its drift age is just
// fleet_time - programmed_at. Re-programming (the scheduler's main
// action) moves that stamp forward — the power-law drift law
// G(t) = G_off + (G - G_off)(1 + t/t0)^-nu then sees a young chip again.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/evaluator.h"
#include "puma/tiled_mvm.h"

namespace nvm::fleet {

/// One physical die. Everything here is derivable from (fleet seed, id);
/// the mutable tail (programmed_at_s, refit, retired, action counts) is
/// the chip's maintenance history.
struct ChipInstance {
  std::int64_t id = 0;
  /// Seed of this die's silicon lottery: feeds FaultModel and
  /// VariationModel chip_seed when materialized.
  std::uint64_t seed = 1;

  // Per-chip fault rates (the "spec sheet" this die drew at manufacture).
  double stuck_on_rate = 0.0;
  double stuck_off_rate = 0.0;
  double dead_row_rate = 0.0;
  double dead_col_rate = 0.0;

  // Per-chip retention: drift exponent varies die-to-die.
  double drift_nu = 0.05;
  double drift_t0 = 1.0;

  /// Fleet time (s) of the last programming. Negative values model field
  /// age already accumulated when the simulation starts.
  double programmed_at_s = 0.0;
  /// True while a surrogate refit subscription is active this epoch:
  /// deployments run with a per-layer output gain fitted on the aged
  /// silicon (digital-side compensation, analog arrays untouched). The
  /// scheduler re-issues — and re-charges — the flag each epoch, since
  /// the fitted gain goes stale as drift continues.
  bool refit = false;
  bool retired = false;

  std::int64_t reprograms = 0;
  std::int64_t refits = 0;  ///< refit subscription epochs paid

  /// Seconds since last programming, as seen at fleet time `t`.
  double age_s(double fleet_time_s) const {
    const double a = fleet_time_s - programmed_at_s;
    return a > 0.0 ? a : 0.0;
  }

  /// The drift law's conductance retention factor (1 + age/t0)^-nu in
  /// (0, 1]; 1 means fresh. This is the scheduler's cheap per-chip aging
  /// feature — O(1), no materialization.
  double predicted_decay(double fleet_time_s) const;

  /// Expected fraction of devices lost to stuck-ats and line opens — the
  /// spec-sheet defect score the scheduler's retirement rule uses. (The
  /// realized fraction of a materialized die is in ChipEval.)
  double expected_defect_fraction() const {
    return stuck_on_rate + stuck_off_rate + dead_row_rate + dead_col_rate;
  }
};

/// Fleet-level population + simulation parameters. The evaluation (n_eval
/// and the transfer attacks, off by default) comes from the base.
struct FleetOptions : core::TransferOptions {
  FleetOptions() : TransferOptions{.pgd_eps_255 = 8.0f, .pgd_iters = 10} {}

  std::int64_t n_chips = 64;
  std::int64_t epochs = 6;
  /// Chips evaluated per epoch (the sampling estimator of fleet health);
  /// clamped to the alive population. 0 samples every alive chip.
  std::int64_t sample_per_epoch = 8;
  double dt_s = 2.0;                  ///< epoch duration (drift seconds)
  double initial_age_spread_s = 0.0;  ///< field age at t=0: uniform [0, spread]
  std::uint64_t seed = 7;

  // Population distributions. Each die draws one lognormal quality factor
  // f = exp(rate_log_sigma * N(0,1)) applied to all four fault rates
  // (defective dies are defective across failure modes), and a uniform
  // drift exponent in [drift_nu_lo, drift_nu_hi].
  double stuck_on_rate = 0.0005;
  double stuck_off_rate = 0.002;
  double dead_row_rate = 0.0;
  double dead_col_rate = 0.0;
  double rate_log_sigma = 0.5;
  double drift_nu_lo = 0.03;
  double drift_nu_hi = 0.08;
  double drift_t0 = 1.0;
  double write_sigma = 0.05;
  double process_sigma = 0.03;
  /// Deployment config for non-refit chips (factory calibration). Refit
  /// chips additionally get gain_trim (BN re-estimation is deliberately
  /// excluded — see FleetSimulator).
  puma::HwConfig hw;
};

/// Deterministically manufactures chip `id` of the fleet identified by
/// `opt.seed`. Pure: same (seed, id) -> same die on any machine, any
/// thread count, regardless of which other chips exist.
ChipInstance make_chip(const FleetOptions& opt, std::int64_t id);

/// One sampled measurement of one chip.
struct ChipEval {
  std::int64_t chip_id = 0;
  double age_s = 0.0;
  double decay = 1.0;             ///< predicted retention at eval time
  double defect_fraction = 0.0;   ///< realized (stuck + dead) cell fraction
  bool refit = false;
  float clean = -1.0f;
  float pgd = -1.0f;              ///< -1 = not measured
  float square = -1.0f;           ///< -1 = not measured
};

}  // namespace nvm::fleet
