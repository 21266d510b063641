#include "core/fault_sweep.h"

#include <cstdio>
#include <memory>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "core/report.h"

namespace nvm::core {

namespace {

std::string fmt_rate(double r) {
  std::ostringstream os;
  os << r;
  return os.str();
}

std::string fmt_acc(float a) { return a < 0.0f ? std::string("-") : fmt(a); }

}  // namespace

FaultSweepResult run_fault_sweep(
    PreparedTask& prepared,
    const std::shared_ptr<const xbar::MvmModel>& base_model,
    const FaultSweepOptions& opt) {
  NVM_CHECK(base_model != nullptr, "fault sweep needs a base model");
  NVM_CHECK(!opt.stuck_rates.empty() && !opt.drift_times.empty(),
            "fault sweep needs a non-empty rate/drift grid");
  NVM_CHECK(opt.stuck_on_fraction >= 0.0 && opt.stuck_on_fraction <= 1.0,
            "stuck_on_fraction must lie in [0, 1]");

  // Adversarial sets are crafted once against the digital network — the
  // paper's non-adaptive transfer setting — then replayed on every faulty
  // deployment.
  const TransferSets transfer = craft_transfer_sets(prepared, opt);

  FaultSweepResult result;
  std::vector<Target> targets{{}};  // the digital network first
  for (double rate : opt.stuck_rates) {
    for (double t : opt.drift_times) {
      xbar::FaultOptions fo;
      fo.stuck_on_rate = rate * opt.stuck_on_fraction;
      fo.stuck_off_rate = rate * (1.0 - opt.stuck_on_fraction);
      fo.dead_row_rate = opt.dead_row_rate;
      fo.dead_col_rate = opt.dead_col_rate;
      fo.drift_time = t;
      fo.chip_seed = opt.chip_seed;
      auto faulty = std::make_shared<xbar::FaultModel>(base_model, fo);

      FaultSweepRow row;
      row.fault = fo;
      row.stuck_on_cells = faulty->map().stuck_on_cells;
      row.stuck_off_cells = faulty->map().stuck_off_cells;
      row.dead_rows = faulty->map().dead_rows;
      row.dead_cols = faulty->map().dead_cols;
      result.rows.push_back(std::move(row));
      targets.push_back({std::move(faulty), {}});
    }
  }

  const HealthSnapshot sweep_start = health_snapshot();
  const std::vector<TargetEval> evals =
      evaluate_targets(prepared, targets, transfer.sets());
  result.total = health_snapshot().delta_since(sweep_start);

  const TransferAccuracy digital = transfer.accuracy(evals[0]);
  result.digital_clean = digital.clean;
  result.digital_pgd = digital.pgd;
  result.digital_square = digital.square;
  for (std::size_t i = 0; i < result.rows.size(); ++i) {
    FaultSweepRow& row = result.rows[i];
    const TransferAccuracy acc = transfer.accuracy(evals[i + 1]);
    row.clean = acc.clean;
    row.pgd = acc.pgd;
    row.square = acc.square;
    row.health = evals[i + 1].health;
  }
  return result;
}

void print_fault_sweep(const Task& task, const std::string& model_name,
                       const FaultSweepOptions& opt,
                       const FaultSweepResult& result) {
  TablePrinter table({"stuck rate", "drift t(s)", "clean %", "PGD %",
                      "Square %", "stuck on/off", "dead r/c", "solver_nc",
                      "fallback", "nonfinite"});
  table.add_row({"digital", "-", fmt(result.digital_clean),
                 fmt_acc(result.digital_pgd), fmt_acc(result.digital_square),
                 "-", "-", "-", "-", "-"});
  for (const auto& row : result.rows) {
    const double rate = row.fault.stuck_on_rate + row.fault.stuck_off_rate;
    table.add_row(
        {fmt_rate(rate), fmt_rate(row.fault.drift_time), fmt(row.clean),
         fmt_acc(row.pgd), fmt_acc(row.square),
         std::to_string(row.stuck_on_cells) + "/" +
             std::to_string(row.stuck_off_cells),
         std::to_string(row.dead_rows) + "/" + std::to_string(row.dead_cols),
         std::to_string(row.health.solver_nonconverged),
         std::to_string(row.health.surrogate_fallbacks),
         std::to_string(row.health.nonfinite_outputs)});
  }
  table.print("Fault sweep: " + task.name + " on " + model_name +
              " (n=" + std::to_string(opt.n_eval) +
              ", chip=" + std::to_string(opt.chip_seed) + ")");
  std::printf("health counters (sweep total): %s\n",
              result.total.summary().c_str());
}

}  // namespace nvm::core
