// Time-stepped fleet simulation over the crossbar evaluation stack.
//
// Each epoch the simulator (1) advances the fleet clock by dt, (2) draws
// a deterministic sample of alive chips, (3) lazily materializes each
// sampled chip as a VariationModel(FaultModel(base)) stack at its current
// drift age and measures clean / PGD / Square accuracy with one
// core::evaluate_targets call over the sampled chips (adversarial sets are
// crafted once against the digital network — the paper's non-adaptive
// transfer setting), (4) lets
// the SlaMonitor judge the measurements, and (5) lets the
// RecalibrationScheduler act on the *whole* population (O(1) handle
// features, no materialization).
//
// Determinism: chip manufacture and epoch sampling derive from the fleet
// seed via derive_seed, and every accuracy bit is a pure function of
// (chip, fleet time, image), so the full FleetResult is bit-identical
// under any NVM_THREADS and reproducible from the manifest seed alone.
#pragma once

#include <memory>
#include <vector>

#include "core/report.h"
#include "core/tasks.h"
#include "fleet/fleet.h"
#include "fleet/scheduler.h"
#include "fleet/sla.h"
#include "xbar/fault.h"

namespace nvm::fleet {

/// Fleet-level view of one epoch.
struct EpochSummary {
  std::int64_t epoch = 0;
  double fleet_time_s = 0.0;
  std::int64_t alive = 0;
  std::int64_t retired = 0;
  double availability = 1.0;
  double mean_age_s = 0.0;        ///< over alive chips
  /// Sample means over this epoch's measured chips; -1 = no samples.
  float mean_clean = -1.0f;
  float mean_pgd = -1.0f;
  float mean_square = -1.0f;
  std::int64_t sla_violations = 0;
  /// Maintenance performed at the END of this epoch (after measurement).
  std::int64_t reprograms = 0;
  std::int64_t refits = 0;
  std::int64_t retirements = 0;
  double recal_energy_nj = 0.0;
  std::vector<ChipEval> chips;    ///< the sampled measurements
};

struct FleetResult {
  FleetOptions opt;
  SchedulerConfig scheduler;
  SlaConfig sla;
  float digital_clean = -1.0f;
  float digital_pgd = -1.0f;
  float digital_square = -1.0f;
  /// Energy of one full tile-set re-programming (the scheduler's unit).
  double unit_reprogram_energy_nj = 0.0;
  std::vector<EpochSummary> epochs;

  // Lifetime aggregates.
  float mean_clean = -1.0f;          ///< mean of epoch means
  float mean_pgd = -1.0f;
  double total_recal_energy_nj = 0.0;
  /// total energy / (n_chips x unit): 1.0 = re-programming the whole
  /// fleet once.
  double normalized_recal_cost = 0.0;
  /// Maintenance intensity: normalized_recal_cost / epochs, i.e. the
  /// fraction of "re-program the entire fleet every epoch" (the Always
  /// policy's spend rate, which scores exactly 1.0 here).
  double maintenance_intensity = 0.0;
  /// Accuracy per unit recalibration cost: quality / (1 + maintenance
  /// intensity), where quality is mean clean (averaged with mean PGD when
  /// PGD runs). The +1 prices the factory programming every policy
  /// already paid, so never-recalibrate does not divide by zero; Always
  /// halves its quality.
  double score = 0.0;
  std::int64_t total_reprograms = 0;
  std::int64_t total_refits = 0;
  std::int64_t total_retirements = 0;
  std::int64_t total_sla_violations = 0;
};

/// A sampled chip materialized for evaluation. `faults` is the inner
/// decorator (kept for FaultMap access); `model` is what gets deployed.
struct MaterializedChip {
  std::shared_ptr<const xbar::MvmModel> model;
  std::shared_ptr<const xbar::FaultModel> faults;
};

class FleetSimulator {
 public:
  FleetSimulator(core::PreparedTask& prepared,
                 std::shared_ptr<const xbar::MvmModel> base_model,
                 FleetOptions opt);

  /// Runs the full simulation under one scheduler policy + SLA contract.
  /// Repeatable: each call re-manufactures the fleet from the seed.
  FleetResult run(const SchedulerConfig& sched_cfg, const SlaConfig& sla_cfg);

  /// Wraps `base` as this chip's silicon at fleet time `t` (exposed for
  /// tests; run() uses it per sampled chip).
  MaterializedChip materialize(const ChipInstance& chip,
                               double fleet_time_s) const;

  const FleetOptions& options() const { return opt_; }

 private:
  core::PreparedTask& prepared_;
  std::shared_ptr<const xbar::MvmModel> base_;
  FleetOptions opt_;
};

/// Prints the per-epoch fleet table + policy scorecard.
void print_fleet_result(const core::Task& task, const std::string& model_name,
                        const FleetResult& result);

/// Emits the fleet curves (one series per measure) and scalar aggregates
/// into a run manifest, prefixed "fleet/".
void emit_fleet_manifest(const FleetResult& result, core::RunManifest& man);

}  // namespace nvm::fleet
