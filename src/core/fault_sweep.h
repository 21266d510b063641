// Fault-sweep experiment: clean and adversarial accuracy of a deployed
// network as a function of device fault rate and conductance-drift time.
//
// The sweep wraps a base crossbar model (GENIEx, fast-noise, or the
// circuit solver) in xbar::FaultModel at each grid point, deploys the
// prepared network on the faulty hardware, and measures accuracy on the
// clean test set and on adversarial sets crafted once against the digital
// network (the paper's non-adaptive transfer setting). Health counters
// (solver non-convergence, surrogate fallbacks, scrubbed NaNs) are
// snapshotted around every grid point so each row reports how much of the
// degradation path was exercised — a run is only trustworthy together
// with its counters.
//
// Evaluation is one evaluate_targets call (the digital network plus one
// target per grid point), so results are bit-identical for any
// NVM_THREADS.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/health.h"
#include "core/evaluator.h"
#include "core/tasks.h"
#include "xbar/fault.h"

namespace nvm::core {

/// The grid to sweep. The evaluation (n_eval and the transfer attacks,
/// PGD on by default) comes from the base.
struct FaultSweepOptions : TransferOptions {
  FaultSweepOptions() : TransferOptions{.run_pgd = true} {}

  /// Total stuck-cell rates to sweep; each splits into stuck-ON /
  /// stuck-OFF by `stuck_on_fraction`.
  std::vector<double> stuck_rates = {0.0, 0.01, 0.05};
  double stuck_on_fraction = 0.5;
  /// Drift times (seconds since programming) to sweep, crossed with the
  /// stuck rates.
  std::vector<double> drift_times = {0.0};
  double dead_row_rate = 0.0;
  double dead_col_rate = 0.0;
  std::uint64_t chip_seed = 1;
};

struct FaultSweepRow {
  xbar::FaultOptions fault;
  float clean = 0.0f;
  float pgd = -1.0f;     ///< -1 when the attack was not run
  float square = -1.0f;
  /// Realized fault pattern of this grid point's die.
  std::int64_t stuck_on_cells = 0;
  std::int64_t stuck_off_cells = 0;
  std::int64_t dead_rows = 0;
  std::int64_t dead_cols = 0;
  /// Failure-handling activity during this grid point (deploy + eval).
  HealthSnapshot health;
};

struct FaultSweepResult {
  float digital_clean = 0.0f;
  float digital_pgd = -1.0f;
  float digital_square = -1.0f;
  std::vector<FaultSweepRow> rows;
  HealthSnapshot total;  ///< failure-handling activity across the sweep
};

/// Runs the sweep; `base_model` is shared across grid points (each one
/// wraps it in a fresh FaultModel).
FaultSweepResult run_fault_sweep(
    PreparedTask& prepared,
    const std::shared_ptr<const xbar::MvmModel>& base_model,
    const FaultSweepOptions& opt);

/// Prints the result as an aligned report table with the health-counter
/// summary (shared by the CLI and bench_ext_faults).
void print_fault_sweep(const Task& task, const std::string& model_name,
                       const FaultSweepOptions& opt,
                       const FaultSweepResult& result);

}  // namespace nvm::core
