// Full nodal analysis of the parasitic crossbar network.
//
// This is the repo's stand-in for the paper's HSPICE simulations: the
// ground-truth non-ideal MVM against which the GENIEx surrogate is trained
// and validated.
//
// Network topology (per Fig. 1 of the paper):
//
//   V_i --R_source-- vr[i][0] --R_wire-- vr[i][1] -- ... -- vr[i][C-1]
//                        |                  |                  |
//                     device(G_i0)      device(G_i1)       device(G_iC-1)
//                        |                  |                  |
//   vc[0][j] --R_wire-- vc[1][j] -- ... -- vc[R-1][j] --R_sink-- GND
//
// Devices follow the nonlinear I(V) = G*sinh(b*V)/b model. The solver uses
// block line relaxation: every outer sweep re-linearizes the devices
// (secant conductance), then solves each row wire chain and each column
// wire chain *exactly* as a tridiagonal system (Thomas algorithm) with the
// opposite side held fixed. The stiff wire coupling (g_wire >> g_device)
// lives inside the direct solves, so the outer loop converges at the weak
// device/wire coupling rate — a handful of sweeps even for 64x64 arrays.
// Sweeps run a red-black plane schedule: the row chains form one
// independent plane ("red") and the column chains the other ("black"), so
// each half-sweep runs ALL of its chains' Thomas recurrences in lockstep
// with the chain index as the contiguous inner loop. Within a plane the
// chains do not couple, so the iterates are bit-identical to solving one
// chain at a time (tests/test_xbar_solver.cpp keeps that schedule as the
// oracle); only the loop nest order differs.
//
// Output: I_j = current into the column-j sink resistor.
#pragma once

#include "xbar/mvm_model.h"

namespace nvm::xbar {

struct SolverOptions {
  /// Convergence threshold on node-voltage movement, relative to v_read.
  double tol = 1e-9;
  int max_sweeps = 200;
  /// When true, XbarStreams opened on a solver-programmed crossbar carry
  /// each RHS column's converged node voltages into the next chunk's solve
  /// (the DAC chunks of one input are strongly correlated, so the
  /// relaxation starts near the fixed point and needs fewer sweeps).
  /// Results agree with cold solves within the solve tolerance; cold
  /// entry points (mvm / mvm_multi) are unaffected. False restores
  /// stateless streams for A/B comparisons.
  bool warm_start_streams = true;
  /// Seed cold solves (no warm-start seed available) with a coarse-grid
  /// analytic guess instead of the flat broadcast: per-row IR-drop
  /// attenuation averaged over coarse column blocks for the row plane,
  /// plus one linearized current-flow reconstruction for the column plane.
  /// Costs about half a sweep, typically saves one or two full sweeps.
  /// Counted under solver/coarse_starts.
  bool coarse_start = true;
  /// Under-relaxation factor for the outer block sweeps: each plane solve
  /// moves the node voltages by `relaxation` times the exact line-solve
  /// update. 1.0 (the default) takes the exact update and is bit-identical
  /// to the historical solver; values in (0, 1) damp the outer iteration,
  /// trading sweeps for stability on stiff / strongly nonlinear arrays.
  double relaxation = 1.0;
  /// When a solve exhausts max_sweeps or diverges, retry it once from a
  /// cold start with halved relaxation and doubled max_sweeps before
  /// accepting the scrubbed-output fallback. The retry is counted under
  /// solver/retries and reported in SolveStats::retries; only a failure
  /// of the *retry* bumps HealthCounter::SolverNonConverged.
  bool retry_on_nonconvergence = true;
};

/// Outcome of one nodal solve. A solve that exhausts max_sweeps or
/// diverges into NaN is not silently accepted: it is reported here,
/// counted under HealthCounter::SolverNonConverged, and warned about once
/// per throttle window. Output currents are always finite (non-finite
/// values are scrubbed to zero via guard_output_finite).
struct SolveStats {
  int sweeps_used = 0;
  bool converged = false;  ///< tolerance met within max_sweeps
  bool finite = true;      ///< false if node voltages diverged to NaN/Inf
  double last_delta = 0.0; ///< final sweep's max node-voltage movement (V)
  int retries = 0;         ///< damped cold re-solves taken after a failure

  bool ok() const { return converged && finite; }
};

class CircuitSolverModel final : public MvmModel {
 public:
  explicit CircuitSolverModel(CrossbarConfig cfg, SolverOptions opt = {})
      : cfg_(std::move(cfg)), opt_(opt) {}

  std::unique_ptr<ProgrammedXbar> program(const Tensor& g) const override;
  const CrossbarConfig& config() const override { return cfg_; }
  std::string name() const override { return "circuit_solver"; }

 private:
  CrossbarConfig cfg_;
  SolverOptions opt_;
};

/// One-shot solve (programs then evaluates); returns column currents and,
/// via out parameter, the number of sweeps used (for convergence tests).
Tensor solve_crossbar(const CrossbarConfig& cfg, const SolverOptions& opt,
                      const Tensor& g, const Tensor& v,
                      int* sweeps_used = nullptr);

/// One-shot solve with the full outcome report.
Tensor solve_crossbar(const CrossbarConfig& cfg, const SolverOptions& opt,
                      const Tensor& g, const Tensor& v, SolveStats* stats);

}  // namespace nvm::xbar
