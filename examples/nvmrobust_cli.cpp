// nvmrobust_cli — command-line front end for one-off experiments.
//
// Subcommands:
//   nf [--rows N] [--cols N] [--ron OHM] [--rwire OHM] [--samples K]
//       Fit a GENIEx surrogate for a custom crossbar design (cached) and
//       print its NF measured on surrogate and circuit solver.
//   tasks
//       List the built-in tasks with their dataset/network parameters.
//   eval --task NAME [--xbar MODEL] [--n K]
//       Clean accuracy of a task's (cached) network, digital or deployed.
//   attack --task NAME [--xbar MODEL] [--eps E/255] [--iters I] [--n K]
//       Non-adaptive white-box PGD: craft on digital, evaluate digital +
//       optional crossbar deployment.
//   fault_sweep --task NAME [--xbar MODEL] [--model geniex|fast_noise|solver]
//       [--rates R1,R2,...] [--drift T1,T2,...] [--dead_rows R] [--dead_cols R]
//       [--chip S] [--n K] [--eps E/255] [--iters I] [--attack pgd|square|both|none]
//       Clean + transferred-adversarial accuracy vs stuck-cell rate and
//       conductance-drift time, with failure-handling counters per row.
//   serve [--rate RPS] [--requests N] [--batch B] [--queue Q]
//       [--timeout_us US] [--model fast_noise|ideal]
//       Stand up the micro-batching inference service over a crossbar-
//       deployed linear classifier and drive it with deterministic
//       open-loop Poisson traffic; reports throughput and latency.
//   serve_cluster [--shards N] [--policy P] [--rate RPS] [--requests N]
//       [--drain_race 0|1]
//       Sharded multi-tenant serving cluster (DESIGN.md §16): routed
//       open-loop traffic with per-shard latency rows, or (--drain_race)
//       an accounting check racing submitters against graceful drain.
//   fleet_sim --task NAME [--chips N] [--epochs E] [--sample K] [--dt SEC]
//       [--policy never|always|threshold|budgeted] [--n K] [--attack pgd|none]
//       Time-stepped population-scale aging simulation: chip-seeded
//       fault/drift handles, per-epoch sampled accuracy, SLA monitoring,
//       and a recalibration scheduler (see DESIGN.md §14).
//
// All artifacts cache under ./repro_cache; everything is deterministic.
//
// Every subcommand accepts --metrics-out PATH (or the NVM_METRICS_OUT env
// var) to write a JSON run manifest with the crossbar config, results, and
// metric/health/span deltas of the run (see DESIGN.md §10).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "attack/pgd.h"
#include "attack/square.h"
#include "common/env.h"
#include "common/trace.h"
#include "core/evaluator.h"
#include "core/fault_sweep.h"
#include "core/report.h"
#include "core/tasks.h"
#include "fleet/simulator.h"
#include "nn/loss.h"
#include "puma/tiled_mvm.h"
#include "serve/cluster.h"
#include "serve/serve.h"
#include "tensor/ops.h"
#include "xbar/fast_noise.h"
#include "xbar/geniex.h"
#include "xbar/model_zoo.h"
#include "xbar/nf.h"

namespace {

using namespace nvm;

/// Parsed --key value flags. Every lookup records its key, so once a
/// subcommand returns, main can warn about the flags it never read (a
/// typo or a removed flag) instead of silently running with defaults.
class Flags {
 public:
  void set(const std::string& key, const std::string& value) {
    values_[key] = value;
  }

  /// The flag's value, or null when absent; marks the key as read.
  const std::string* find(const std::string& key) const {
    read_.insert(key);
    auto it = values_.find(key);
    return it == values_.end() ? nullptr : &it->second;
  }

  /// Given flags no lookup asked for.
  std::vector<std::string> unread() const {
    std::vector<std::string> keys;
    for (const auto& kv : values_)
      if (read_.count(kv.first) == 0) keys.push_back(kv.first);
    return keys;
  }

 private:
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;
};

/// Minimal --key value parser; flags must all take a value. A trailing
/// argument without one is ignored with a warning.
Flags parse_flags(int argc, char** argv, int first) {
  Flags flags;
  int i = first;
  for (; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      std::fprintf(stderr, "expected --flag, got '%s'\n", argv[i]);
      std::exit(2);
    }
    flags.set(argv[i] + 2, argv[i + 1]);
  }
  if (i < argc)
    std::fprintf(stderr, "warning: ignoring '%s': no value follows it\n",
                 argv[i]);
  return flags;
}

double flag_or(const Flags& flags, const std::string& key, double fallback) {
  const std::string* value = flags.find(key);
  if (value == nullptr) return fallback;
  double v = 0.0;
  // Strict parse (strtod full-consume, ERANGE rejected): a typo like
  // "--eps 0.1x" warns and falls back instead of half-parsing or throwing
  // an uncaught std::invalid_argument out of main.
  if (!parse_double(value->c_str(), &v)) {
    std::fprintf(stderr,
                 "warning: --%s '%s' is not a valid number; using %g\n",
                 key.c_str(), value->c_str(), fallback);
    return fallback;
  }
  return v;
}

std::string flag_or(const Flags& flags, const std::string& key,
                    const std::string& fallback) {
  const std::string* value = flags.find(key);
  return value == nullptr ? fallback : *value;
}

/// Manifest for this invocation: --metrics-out wins, NVM_METRICS_OUT next,
/// otherwise the manifest is inert.
core::RunManifest manifest_for(const std::string& cmd,
                               const Flags& flags) {
  return core::RunManifest::from_env(
      "cli/" + cmd, flag_or(flags, "metrics-out", std::string()));
}

core::Task find_task(const std::string& name) {
  for (const core::Task& t : core::all_tasks())
    if (t.name == name) return t;
  std::fprintf(stderr, "unknown task '%s' (try: SCIFAR10, SCIFAR100, SIMAGENET)\n",
               name.c_str());
  std::exit(2);
}

int cmd_nf(const Flags& flags) {
  core::RunManifest manifest = manifest_for("nf", flags);
  xbar::CrossbarConfig cfg = xbar::xbar_64x64_100k();
  cfg.rows = static_cast<std::int64_t>(flag_or(flags, "rows", 64));
  cfg.cols = static_cast<std::int64_t>(flag_or(flags, "cols", cfg.rows));
  cfg.r_on = flag_or(flags, "ron", cfg.r_on);
  cfg.r_wire = flag_or(flags, "rwire", cfg.r_wire);
  cfg.r_source = flag_or(flags, "rsource", cfg.r_source);
  cfg.r_sink = flag_or(flags, "rsink", cfg.r_sink);
  char name[64];
  std::snprintf(name, sizeof name, "cli_%lldx%lld_%.0fk",
                static_cast<long long>(cfg.rows),
                static_cast<long long>(cfg.cols), cfg.r_on / 1000.0);
  cfg.name = name;

  xbar::GeniexTrainOptions train;
  train.solver_samples =
      static_cast<std::int64_t>(flag_or(flags, "samples", 240));
  auto model = xbar::GeniexModel::load_or_train(cfg, train);

  xbar::NfOptions nf_opt;
  nf_opt.samples = static_cast<std::int64_t>(flag_or(flags, "nf_samples", 24));
  const auto geniex_nf = xbar::measure_nf(model, nf_opt);
  xbar::CircuitSolverModel solver(cfg);
  const auto solver_nf = xbar::measure_nf(solver, nf_opt);
  std::printf("design %s: NF = %.4f +- %.4f (geniex), %.4f +- %.4f (solver)\n",
              cfg.name.c_str(), geniex_nf.nf, geniex_nf.nf_stddev,
              solver_nf.nf, solver_nf.nf_stddev);
  manifest.set_xbar(cfg);
  manifest.add_result("nf_geniex", geniex_nf.nf);
  manifest.add_result("nf_solver", solver_nf.nf);
  return 0;
}

int cmd_tasks() {
  std::printf("%-10s %-24s %7s %6s %7s %6s\n", "name", "paper analogue",
              "classes", "size", "train", "test");
  for (const core::Task& t : core::all_tasks())
    std::printf("%-10s %-24s %7lld %6lld %7lld %6lld\n", t.name.c_str(),
                t.paper_analogue.c_str(),
                static_cast<long long>(t.data_spec.classes),
                static_cast<long long>(t.data_spec.image_size),
                static_cast<long long>(t.data_spec.train_count),
                static_cast<long long>(t.data_spec.test_count));
  return 0;
}

int cmd_eval(const Flags& flags) {
  core::RunManifest manifest = manifest_for("eval", flags);
  core::PreparedTask prepared =
      core::prepare(find_task(flag_or(flags, "task", "SCIFAR10")));
  const auto n = static_cast<std::int64_t>(flag_or(flags, "n", 96));
  auto images = prepared.eval_images(n);
  auto labels = prepared.eval_labels(n);
  manifest.set_note("task", prepared.task.name);
  const std::string xbar_name = flag_or(flags, "xbar", std::string());
  core::Target target;  // digital unless --xbar names a crossbar
  if (!xbar_name.empty()) target.model = xbar::make_geniex(xbar_name);
  const float acc =
      core::evaluate_targets(prepared, std::vector<core::Target>{target},
                             std::vector<core::ImageSet>{{images, labels}})[0]
          .accuracy(0);
  if (xbar_name.empty()) {
    std::printf("%s digital accuracy: %.2f%% (n=%lld)\n",
                prepared.task.name.c_str(), acc,
                static_cast<long long>(images.size()));
    manifest.add_result("digital_accuracy", acc);
  } else {
    std::printf("%s on %s: %.2f%% (n=%lld)\n", prepared.task.name.c_str(),
                xbar_name.c_str(), acc,
                static_cast<long long>(images.size()));
    manifest.set_xbar(target.model->config());
    manifest.add_result("hw_accuracy", acc);
  }
  return 0;
}

int cmd_attack(const Flags& flags) {
  core::RunManifest manifest = manifest_for("attack", flags);
  core::PreparedTask prepared =
      core::prepare(find_task(flag_or(flags, "task", "SCIFAR10")));
  const auto n = static_cast<std::int64_t>(flag_or(flags, "n", 48));
  auto images = prepared.eval_images(n);
  auto labels = prepared.eval_labels(n);

  attack::PgdOptions opt;
  opt.epsilon = static_cast<float>(flag_or(flags, "eps", 6.0)) / 255.0f;
  opt.iters = static_cast<std::int64_t>(flag_or(flags, "iters", 30));
  attack::NetworkAttackModel attacker(prepared.network);
  std::vector<Tensor> adv = core::craft_pgd(attacker, images, labels, opt);

  std::printf("white-box PGD eps=%.1f/255 iters=%lld on %s (n=%lld)\n",
              opt.epsilon * 255.0f, static_cast<long long>(opt.iters),
              prepared.task.name.c_str(),
              static_cast<long long>(images.size()));
  const std::string xbar_name = flag_or(flags, "xbar", std::string());
  std::vector<core::Target> targets{{}};  // digital, then --xbar if named
  if (!xbar_name.empty()) targets.push_back({xbar::make_geniex(xbar_name), {}});
  const std::vector<core::ImageSet> sets = {{images, labels}, {adv, labels}};
  const auto evals = core::evaluate_targets(prepared, targets, sets);
  const float clean = evals[0].accuracy(0);
  const float adv_acc = evals[0].accuracy(1);
  std::printf("  digital: clean %.2f%%, adversarial %.2f%%\n", clean, adv_acc);
  manifest.set_note("task", prepared.task.name);
  manifest.add_result("digital_clean_accuracy", clean);
  manifest.add_result("digital_adv_accuracy", adv_acc);
  manifest.add_result("pgd_eps_255", opt.epsilon * 255.0f);
  if (!xbar_name.empty()) {
    const float hw_clean = evals[1].accuracy(0);
    const float hw_adv = evals[1].accuracy(1);
    std::printf("  %s: clean %.2f%%, adversarial %.2f%%\n", xbar_name.c_str(),
                hw_clean, hw_adv);
    manifest.set_xbar(targets[1].model->config());
    manifest.add_result("hw_clean_accuracy", hw_clean);
    manifest.add_result("hw_adv_accuracy", hw_adv);
  }
  return 0;
}

/// "0,0.01,0.05" -> {0, 0.01, 0.05}. Malformed items are skipped with a
/// warning (empty items from trailing commas are silently ignored) so a
/// bad CSV degrades to the parseable subset instead of crashing the sweep.
std::vector<double> parse_list(const std::string& s) {
  std::vector<double> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    double v = 0.0;
    if (parse_double(item.c_str(), &v))
      out.push_back(v);
    else
      std::fprintf(stderr,
                   "warning: skipping non-numeric list item '%s'\n",
                   item.c_str());
  }
  return out;
}

/// The --model crossbar kind on `xbar_name`'s geometry; null, after an
/// error line, for an unknown kind.
std::shared_ptr<const xbar::MvmModel> base_model(const std::string& kind,
                                                 const std::string& xbar_name) {
  if (kind == "geniex") return xbar::make_geniex(xbar_name);
  if (kind == "solver") return xbar::make_solver(xbar_name);
  if (kind == "fast_noise")
    return std::make_shared<xbar::FastNoiseModel>(
        xbar::make_solver(xbar_name)->config());
  std::fprintf(stderr,
               "unknown --model '%s' (try: geniex, fast_noise, solver)\n",
               kind.c_str());
  return nullptr;
}

/// --n, --eps, --iters (default: the caller's), --queries and
/// --attack pgd|square|both|none (default `attack`).
void read_transfer_flags(const Flags& flags, const std::string& attack,
                         core::TransferOptions& opt) {
  opt.n_eval = static_cast<std::int64_t>(flag_or(flags, "n", 32));
  opt.pgd_eps_255 = static_cast<float>(flag_or(flags, "eps", 2.0));
  opt.pgd_iters = static_cast<std::int64_t>(
      flag_or(flags, "iters", static_cast<double>(opt.pgd_iters)));
  opt.square_queries =
      static_cast<std::int64_t>(flag_or(flags, "queries", 300));
  const std::string kind = flag_or(flags, "attack", attack);
  opt.run_pgd = kind == "pgd" || kind == "both";
  opt.run_square = kind == "square" || kind == "both";
}

int cmd_fault_sweep(const Flags& flags) {
  core::RunManifest manifest = manifest_for("fault_sweep", flags);
  core::PreparedTask prepared =
      core::prepare(find_task(flag_or(flags, "task", "SCIFAR10")));
  const std::string xbar_name = flag_or(flags, "xbar", "64x64_100k");
  const auto base = base_model(flag_or(flags, "model", "geniex"), xbar_name);
  if (base == nullptr) return 2;

  core::FaultSweepOptions opt;
  if (const std::string* rates = flags.find("rates"))
    opt.stuck_rates = parse_list(*rates);
  if (const std::string* drift = flags.find("drift"))
    opt.drift_times = parse_list(*drift);
  opt.stuck_on_fraction = flag_or(flags, "stuck_on_frac", 0.5);
  opt.dead_row_rate = flag_or(flags, "dead_rows", 0.0);
  opt.dead_col_rate = flag_or(flags, "dead_cols", 0.0);
  opt.chip_seed = static_cast<std::uint64_t>(flag_or(flags, "chip", 1));
  read_transfer_flags(flags, "pgd", opt);

  const auto result = core::run_fault_sweep(prepared, base, opt);
  core::print_fault_sweep(prepared.task, base->name() + "/" + xbar_name, opt,
                          result);
  manifest.set_xbar(base->config());
  manifest.set_note("task", prepared.task.name);
  manifest.set_note("model", base->name());
  manifest.add_result("sweep_rows", static_cast<double>(result.rows.size()));
  manifest.add_result("digital_clean_accuracy", result.digital_clean);
  if (!result.rows.empty()) {
    manifest.add_result("clean_accuracy_first", result.rows.front().clean);
    manifest.add_result("clean_accuracy_last", result.rows.back().clean);
  }
  return 0;
}

/// Flag wins, then the environment variable, then the fallback — the
/// NVM_FLEET_* variables let scripts pin a fleet config without flag soup.
double fleet_param(const Flags& flags,
                   const std::string& flag, const char* env_name,
                   double fallback) {
  if (const std::string* value = flags.find(flag)) {
    double v = 0.0;
    if (parse_double(value->c_str(), &v)) return v;
    std::fprintf(stderr,
                 "warning: --%s '%s' is not a valid number; trying %s\n",
                 flag.c_str(), value->c_str(), env_name);
  }
  // env_double applies the same strict-parse contract (warn + fallback on
  // e.g. NVM_FLEET_BUDGET=abc) instead of stod throwing out of main.
  return env_double(env_name, fallback);
}

int cmd_fleet_sim(const Flags& flags) {
  core::RunManifest manifest = manifest_for("fleet_sim", flags);
  core::PreparedTask prepared =
      core::prepare(find_task(flag_or(flags, "task", "SCIFAR10")));
  const std::string xbar_name = flag_or(flags, "xbar", "64x64_100k");
  const auto base =
      base_model(flag_or(flags, "model", "fast_noise"), xbar_name);
  if (base == nullptr) return 2;

  fleet::FleetOptions opt;
  opt.n_chips = static_cast<std::int64_t>(
      fleet_param(flags, "chips", "NVM_FLEET_CHIPS", 48));
  opt.epochs = static_cast<std::int64_t>(
      fleet_param(flags, "epochs", "NVM_FLEET_EPOCHS", 5));
  opt.sample_per_epoch = static_cast<std::int64_t>(
      fleet_param(flags, "sample", "NVM_FLEET_SAMPLE", 6));
  opt.dt_s = fleet_param(flags, "dt", "NVM_FLEET_DT_S", 2.0);
  opt.initial_age_spread_s =
      fleet_param(flags, "age_spread", "NVM_FLEET_AGE_SPREAD_S", 0.0);
  opt.seed = static_cast<std::uint64_t>(
      fleet_param(flags, "seed", "NVM_FLEET_SEED", 7));
  opt.stuck_on_rate = flag_or(flags, "stuck_on", opt.stuck_on_rate);
  opt.stuck_off_rate = flag_or(flags, "stuck_off", opt.stuck_off_rate);
  opt.dead_row_rate = flag_or(flags, "dead_rows", opt.dead_row_rate);
  opt.dead_col_rate = flag_or(flags, "dead_cols", opt.dead_col_rate);
  opt.rate_log_sigma = flag_or(flags, "rate_sigma", opt.rate_log_sigma);
  opt.drift_nu_lo = flag_or(flags, "nu_lo", opt.drift_nu_lo);
  opt.drift_nu_hi = flag_or(flags, "nu_hi", opt.drift_nu_hi);
  read_transfer_flags(flags, "none", opt);

  fleet::SchedulerConfig sched;
  sched.policy = fleet::RecalibrationScheduler::parse_policy(
      flag_or(flags, "policy", env_str("NVM_FLEET_POLICY", "threshold")));
  sched.reprogram_decay_threshold =
      flag_or(flags, "reprogram_decay", sched.reprogram_decay_threshold);
  sched.refit_decay_threshold =
      flag_or(flags, "refit_decay", sched.refit_decay_threshold);
  sched.retire_defect_fraction =
      flag_or(flags, "retire_defect", sched.retire_defect_fraction);
  sched.budget_actions_per_epoch = static_cast<std::int64_t>(
      flag_or(flags, "budget", sched.budget_actions_per_epoch));

  fleet::SlaConfig sla;
  sla.min_clean_acc = flag_or(flags, "slo_clean", sla.min_clean_acc);
  sla.min_adv_acc = flag_or(flags, "slo_adv", sla.min_adv_acc);
  sla.min_availability = flag_or(flags, "slo_avail", sla.min_availability);
  sla.cohort_age_s = flag_or(flags, "cohort_age", sla.cohort_age_s);
  sla.min_cohort_samples = static_cast<std::int64_t>(
      flag_or(flags, "cohort_min", sla.min_cohort_samples));

  fleet::FleetSimulator sim(prepared, base, opt);
  const fleet::FleetResult result = sim.run(sched, sla);
  fleet::print_fleet_result(prepared.task, base->name() + "/" + xbar_name,
                            result);

  manifest.set_xbar(base->config());
  manifest.set_note("task", prepared.task.name);
  manifest.set_note("model", base->name());
  fleet::emit_fleet_manifest(result, manifest);
  return 0;
}

/// Attack view of a TiledMatrix linear classifier: logits are the deployed
/// (quantized, noisy) matmul; gradients use the ideal float weights.
class TiledAttackModel final : public attack::AttackModel {
 public:
  TiledAttackModel(const puma::TiledMatrix& tiled, const Tensor& w)
      : tiled_(tiled), wt_(transpose2d(w)) {}

  Tensor logits(const Tensor& x) override {
    Tensor flat = x.reshaped({x.numel(), 1});
    return tiled_.matmul(flat).reshaped({tiled_.rows()});
  }

  Tensor loss_input_grad(const Tensor& x, std::int64_t label,
                         float* loss_out) override {
    Tensor p = nn::softmax(logits(x));
    if (loss_out != nullptr)
      *loss_out = -std::log(std::max(p[label], 1e-12f));
    p[label] -= 1.0f;
    return matvec(wt_, p).reshaped(x.shape());
  }

 private:
  const puma::TiledMatrix& tiled_;
  Tensor wt_;  // (K, M)
};

/// Fast self-contained smoke run (< 1 s, no training, no cache): exercises
/// the circuit solver, a tiled fast-noise deployment of a tiny linear
/// classifier, and both attack families, so a --metrics-out manifest from
/// this command carries every layer's metrics.
int cmd_quickstart(const Flags& flags) {
  core::RunManifest manifest = manifest_for("quickstart", flags);

  xbar::CrossbarConfig cfg = xbar::xbar_32x32_100k();
  cfg.rows = cfg.cols = 16;
  cfg.name = "quickstart_16x16";
  manifest.set_xbar(cfg);

  // 1. Circuit solver: a handful of nodal solves on random programmings.
  const auto n_solves = static_cast<int>(flag_or(flags, "solves", 6));
  Rng rng(7);
  xbar::SolverOptions sopt;
  double sweeps_total = 0.0;
  for (int s = 0; s < n_solves; ++s) {
    Tensor g = xbar::sample_conductances(cfg, rng);
    Tensor v = xbar::sample_voltages(cfg, rng);
    int sweeps = 0;
    (void)xbar::solve_crossbar(cfg, sopt, g, v, &sweeps);
    sweeps_total += sweeps;
  }
  const double mean_sweeps = sweeps_total / n_solves;

  // 2. Tiny linear classifier (8 classes x 16 features) deployed on
  // fast-noise crossbar tiles; "labels" come from the ideal float weights.
  const std::int64_t classes = 8, feat = 16;
  const auto n_eval = static_cast<std::int64_t>(flag_or(flags, "n", 48));
  Rng wrng(11);
  Tensor w({classes, feat});
  for (auto& v : w.data())
    v = static_cast<float>(wrng.uniform(-1.0, 1.0));
  Tensor x({feat, n_eval});
  for (auto& v : x.data()) v = static_cast<float>(wrng.uniform());

  auto noise_model = std::make_shared<xbar::FastNoiseModel>(cfg);
  puma::TiledMatrix tiled(w, noise_model, puma::HwConfig{});
  Tensor ideal = matmul(w, x);
  Tensor deployed = tiled.matmul(x);
  std::int64_t correct = 0;
  for (std::int64_t k = 0; k < n_eval; ++k) {
    std::int64_t ideal_arg = 0, hw_arg = 0;
    for (std::int64_t j = 1; j < classes; ++j) {
      if (ideal.at(j, k) > ideal.at(ideal_arg, k)) ideal_arg = j;
      if (deployed.at(j, k) > deployed.at(hw_arg, k)) hw_arg = j;
    }
    if (ideal_arg == hw_arg) ++correct;
  }
  const double hw_acc =
      100.0 * static_cast<double>(correct) / static_cast<double>(n_eval);

  // 3. Attacks against the deployed classifier: FGSM (gradient path) and
  // Square (black-box query path) on a few 1x4x4 "images".
  TiledAttackModel victim(tiled, w);
  attack::SquareOptions sq;
  sq.epsilon = 0.15f;
  sq.max_queries = static_cast<std::int64_t>(flag_or(flags, "queries", 30));
  std::int64_t square_wins = 0;
  const std::int64_t n_attack = std::min<std::int64_t>(4, n_eval);
  for (std::int64_t k = 0; k < n_attack; ++k) {
    Tensor img({1, 4, 4});
    for (std::int64_t i = 0; i < feat; ++i) img.data()[static_cast<std::size_t>(i)] = x.at(i, k);
    const std::int64_t label = victim.predict(img);
    sq.seed = 100 + static_cast<std::uint64_t>(k);
    if (attack::square_attack(victim, img, label, sq).success) ++square_wins;
    (void)attack::fgsm_attack(victim, img, label, sq.epsilon);
  }

  std::printf(
      "quickstart on %s: %d solves (mean %.1f sweeps), tiled linear "
      "hw-vs-ideal agreement %.1f%% (n=%lld), square success %lld/%lld\n",
      cfg.name.c_str(), n_solves, mean_sweeps, hw_acc,
      static_cast<long long>(n_eval), static_cast<long long>(square_wins),
      static_cast<long long>(n_attack));

  manifest.set_note("model", "fast_noise tiled linear");
  manifest.add_result("hw_accuracy", hw_acc);
  manifest.add_result("mean_sweeps", mean_sweeps);
  manifest.add_result("square_success_rate",
                      100.0 * static_cast<double>(square_wins) /
                          static_cast<double>(n_attack));
  return 0;
}

/// Micro-batching inference service demo: stands up nvm::serve over a
/// crossbar-deployed linear classifier and drives it with deterministic
/// open-loop Poisson traffic.
int cmd_serve(const Flags& flags) {
  core::RunManifest manifest = manifest_for("serve", flags);

  xbar::CrossbarConfig cfg = xbar::xbar_32x32_100k();
  manifest.set_xbar(cfg);
  const std::string model_kind = flag_or(flags, "model", "fast_noise");
  std::shared_ptr<const xbar::MvmModel> model;
  if (model_kind == "fast_noise") {
    model = std::make_shared<xbar::FastNoiseModel>(cfg);
  } else if (model_kind == "ideal") {
    model = std::make_shared<xbar::IdealXbarModel>(cfg);
  } else {
    std::fprintf(stderr, "serve: --model must be fast_noise or ideal\n");
    return 2;
  }

  const auto classes = static_cast<std::int64_t>(flag_or(flags, "classes", 16));
  const auto feat = static_cast<std::int64_t>(flag_or(flags, "features", 128));
  const auto seed = static_cast<std::uint64_t>(flag_or(flags, "seed", 1));
  Rng wrng(derive_seed(seed, 0));
  Tensor w({classes, feat});
  for (auto& v : w.data()) v = static_cast<float>(wrng.uniform(-1.0, 1.0));
  serve::TiledLinearBackend backend(w, model, puma::HwConfig{}, 1.0f);

  const auto n = static_cast<std::int64_t>(flag_or(flags, "requests", 400));
  Rng xrng(derive_seed(seed, 1));
  std::vector<Tensor> requests;
  requests.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    Tensor x({feat});
    for (auto& v : x.data()) v = static_cast<float>(xrng.uniform());
    requests.push_back(std::move(x));
  }

  serve::ServeOptions opt = serve::ServeOptions::from_env();
  opt.max_batch = static_cast<std::int64_t>(
      flag_or(flags, "batch", static_cast<double>(opt.max_batch)));
  opt.queue_capacity = static_cast<std::int64_t>(
      flag_or(flags, "queue", static_cast<double>(opt.queue_capacity)));
  opt.timeout_us = static_cast<std::int64_t>(
      flag_or(flags, "timeout_us", static_cast<double>(opt.timeout_us)));
  serve::Server server(backend, opt);

  serve::TrafficOptions traffic;
  traffic.rate_rps = flag_or(flags, "rate", 2000.0);
  traffic.seed = derive_seed(seed, 2);
  const serve::TrafficReport rep =
      serve::run_open_loop(server, requests, traffic);
  server.drain();

  std::printf(
      "serve on %s (%s, %lldx%lld classifier): %lld ok / %lld shed / "
      "%lld timeout at %.0f rps offered\n"
      "  throughput %.0f rps, latency p50 %.3f ms p99 %.3f ms "
      "(queue p50 %.3f ms), mean batch %.1f\n",
      cfg.name.c_str(), model_kind.c_str(), static_cast<long long>(classes),
      static_cast<long long>(feat), static_cast<long long>(rep.ok),
      static_cast<long long>(rep.shed), static_cast<long long>(rep.timed_out),
      traffic.rate_rps, rep.throughput_rps, rep.p50_ms, rep.p99_ms,
      rep.queue_p50_ms, rep.mean_batch);

  manifest.set_note("model", model_kind);
  manifest.set_note("serve", "max_batch=" + std::to_string(opt.max_batch));
  manifest.add_result("requests_ok", static_cast<double>(rep.ok));
  manifest.add_result("requests_shed", static_cast<double>(rep.shed));
  manifest.add_result("throughput_rps", rep.throughput_rps);
  manifest.add_result("latency_p50_ms", rep.p50_ms);
  manifest.add_result("latency_p99_ms", rep.p99_ms);
  manifest.add_result("queue_p50_ms", rep.queue_p50_ms);
  manifest.add_result("queue_p99_ms", rep.queue_p99_ms);
  manifest.add_result("mean_batch", rep.mean_batch);
  // Order-sensitive label checksum (FNV-1a over index+label), so scripted
  // A/B runs (e.g. NVM_THREADS=1 vs 4 in check.sh) can assert bit-identical
  // classifications from the manifest alone. Kept in double-exact range.
  std::uint64_t lsum = 1469598103934665603ull;
  for (std::size_t i = 0; i < rep.labels.size(); ++i) {
    lsum ^= static_cast<std::uint64_t>(rep.labels[i] + 2) * 31 + i;
    lsum *= 1099511628211ull;
  }
  manifest.add_result("labels_checksum", static_cast<double>(lsum >> 12));
  return rep.errors == 0 ? 0 : 1;
}

int cmd_serve_cluster(const Flags& flags) {
  core::RunManifest manifest = manifest_for("serve_cluster", flags);

  xbar::CrossbarConfig cfg = xbar::xbar_32x32_100k();
  manifest.set_xbar(cfg);
  auto model = std::make_shared<xbar::FastNoiseModel>(cfg);

  // NVM_CLUSTER_* env fallbacks first, then explicit flags win.
  serve::ClusterOptions opt = serve::ClusterOptions::from_env();
  opt.shards = static_cast<std::int64_t>(
      flag_or(flags, "shards", static_cast<double>(opt.shards)));
  if (opt.shards < 1) opt.shards = 1;
  if (const std::string* policy = flags.find("policy")) {
    if (!serve::try_parse_policy(*policy, &opt.policy)) {
      std::fprintf(stderr,
                   "serve_cluster: --policy must be round_robin | "
                   "consistent_hash | least_loaded\n");
      return 2;
    }
  }
  opt.vnodes =
      static_cast<int>(flag_or(flags, "vnodes", static_cast<double>(opt.vnodes)));
  opt.threads_per_shard = static_cast<std::int64_t>(flag_or(
      flags, "shard_threads", static_cast<double>(opt.threads_per_shard)));
  opt.serve.max_batch = static_cast<std::int64_t>(
      flag_or(flags, "batch", static_cast<double>(opt.serve.max_batch)));
  opt.serve.queue_capacity = static_cast<std::int64_t>(
      flag_or(flags, "queue", static_cast<double>(opt.serve.queue_capacity)));
  opt.serve.timeout_us = static_cast<std::int64_t>(
      flag_or(flags, "timeout_us", static_cast<double>(opt.serve.timeout_us)));

  const auto classes = static_cast<std::int64_t>(flag_or(flags, "classes", 16));
  const auto feat = static_cast<std::int64_t>(flag_or(flags, "features", 128));
  const auto seed = static_cast<std::uint64_t>(flag_or(flags, "seed", 1));
  Rng wrng(derive_seed(seed, 0));
  Tensor w({classes, feat});
  for (auto& v : w.data()) v = static_cast<float>(wrng.uniform(-1.0, 1.0));

  serve::Cluster cluster(opt);
  // Two tenants resident (multi-tenant by default); traffic below targets
  // "primary" only so the run stays comparable with `serve`.
  cluster.add_model(
      serve::tiled_linear_spec("primary", w, model, puma::HwConfig{}, 1.0f));
  cluster.add_model(
      serve::tiled_linear_spec("secondary", w, model, puma::HwConfig{}, 1.0f));

  const auto n = static_cast<std::int64_t>(flag_or(flags, "requests", 400));
  Rng xrng(derive_seed(seed, 1));
  std::vector<Tensor> requests;
  requests.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    Tensor x({feat});
    for (auto& v : x.data()) v = static_cast<float>(xrng.uniform());
    requests.push_back(std::move(x));
  }

  manifest.set_note("cluster", "shards=" + std::to_string(opt.shards) +
                                   " policy=" + to_string(opt.policy) +
                                   " vnodes=" + std::to_string(opt.vnodes));
  manifest.add_result("shards", static_cast<double>(opt.shards));

  const bool drain_race = flag_or(flags, "drain_race", 0.0) != 0.0;
  if (drain_race) {
    // Drain-under-fire accounting check: submitters race a cluster-wide
    // drain; every submit must still resolve to a terminal reply, and
    // nothing admitted may be lost. Exit 1 on any unaccounted request.
    const int n_threads = 4;
    const std::int64_t per_thread = (n + n_threads - 1) / n_threads;
    std::atomic<std::int64_t> ok{0}, shutdown{0}, shed{0}, other{0};
    std::vector<std::thread> workers;
    std::int64_t submitted = 0;
    for (int t = 0; t < n_threads; ++t) {
      const std::int64_t lo = t * per_thread;
      const std::int64_t hi = std::min<std::int64_t>(n, lo + per_thread);
      if (lo >= hi) break;
      submitted += hi - lo;
      workers.emplace_back([&, lo, hi] {
        for (std::int64_t i = lo; i < hi; ++i) {
          const serve::Reply r = cluster.classify(
              "primary", static_cast<std::uint64_t>(i),
              requests[static_cast<std::size_t>(i)]);
          if (r.status == serve::ReplyStatus::Ok) ok.fetch_add(1);
          else if (r.status == serve::ReplyStatus::Shutdown) shutdown.fetch_add(1);
          else if (r.status == serve::ReplyStatus::Shed) shed.fetch_add(1);
          else other.fetch_add(1);
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    cluster.drain();
    for (auto& th : workers) th.join();
    const std::int64_t accounted = ok.load() + shutdown.load() + shed.load();
    const bool all_accounted =
        other.load() == 0 && accounted == submitted;
    std::printf(
        "serve_cluster drain race: %lld submitted, %lld ok / %lld shutdown / "
        "%lld shed / %lld other -> %s\n",
        static_cast<long long>(submitted), static_cast<long long>(ok.load()),
        static_cast<long long>(shutdown.load()),
        static_cast<long long>(shed.load()),
        static_cast<long long>(other.load()),
        all_accounted ? "all accounted" : "LOST REQUESTS");
    manifest.add_result("requests_submitted", static_cast<double>(submitted));
    manifest.add_result("requests_ok", static_cast<double>(ok.load()));
    manifest.add_result("requests_shutdown",
                        static_cast<double>(shutdown.load()));
    manifest.add_result("requests_shed", static_cast<double>(shed.load()));
    manifest.add_result("all_accounted", all_accounted ? 1.0 : 0.0);
    return all_accounted ? 0 : 1;
  }

  serve::TrafficOptions traffic;
  traffic.rate_rps = flag_or(flags, "rate", 2000.0);
  traffic.seed = derive_seed(seed, 2);
  const std::vector<std::string> tenants = {"primary"};
  const serve::ClusterTrafficReport rep =
      run_cluster_open_loop(cluster, tenants, requests, traffic);
  cluster.drain();

  std::printf(
      "serve_cluster on %s: %lld shards, %s dispatch, %lldx%lld classifier, "
      "2 tenants\n  %lld ok / %lld shed / %lld timeout at %.0f rps offered\n"
      "  throughput %.0f rps, latency p50 %.3f ms p99 %.3f ms\n",
      cfg.name.c_str(), static_cast<long long>(opt.shards),
      to_string(opt.policy), static_cast<long long>(classes),
      static_cast<long long>(feat), static_cast<long long>(rep.total.ok),
      static_cast<long long>(rep.total.shed),
      static_cast<long long>(rep.total.timed_out), traffic.rate_rps,
      rep.total.throughput_rps, rep.total.p50_ms, rep.total.p99_ms);
  for (std::size_t k = 0; k < rep.shards.size(); ++k) {
    const auto& s = rep.shards[k];
    std::printf("  shard %zu: %lld ok, p50 %.3f ms p99 %.3f ms\n", k,
                static_cast<long long>(s.ok), s.p50_ms, s.p99_ms);
    const std::string key = "shard" + std::to_string(k) + "_";
    manifest.add_result(key + "ok", static_cast<double>(s.ok));
    manifest.add_result(key + "p99_ms", s.p99_ms);
  }
  manifest.add_result("requests_ok", static_cast<double>(rep.total.ok));
  manifest.add_result("requests_shed", static_cast<double>(rep.total.shed));
  manifest.add_result("throughput_rps", rep.total.throughput_rps);
  manifest.add_result("latency_p50_ms", rep.total.p50_ms);
  manifest.add_result("latency_p99_ms", rep.total.p99_ms);
  return rep.total.errors == 0 ? 0 : 1;
}

void usage() {
  std::printf(
      "usage: nvmrobust_cli <command> [--flag value ...]\n"
      "  quickstart [--n K --solves S]       fast all-layer smoke run\n"
      "  tasks                               list built-in tasks\n"
      "  nf     [--rows N --ron OHM ...]     NF of a custom crossbar design\n"
      "  eval   --task NAME [--xbar MODEL]   clean accuracy\n"
      "  attack --task NAME [--xbar MODEL --eps E --iters I]\n"
      "                                      white-box PGD + transfer\n"
      "  fault_sweep --task NAME [--xbar MODEL --model geniex|fast_noise|solver\n"
      "              --rates 0,0.01,0.05 --drift 0 --chip S --n K\n"
      "              --attack pgd|square|both|none --eps E --iters I]\n"
      "                                      accuracy vs device fault rate\n"
      "  serve  [--rate RPS --requests N --batch B --queue Q\n"
      "          --timeout_us US --model fast_noise|ideal]\n"
      "                                      micro-batching inference service\n"
      "                                      under open-loop Poisson traffic\n"
      "  serve_cluster [--shards N --policy round_robin|consistent_hash|\n"
      "          least_loaded --vnodes V --shard_threads T --rate RPS\n"
      "          --requests N --batch B --queue Q\n"
      "          --timeout_us US --classes C --features F --drain_race 0|1]\n"
      "                                      sharded multi-tenant serving\n"
      "                                      cluster; --drain_race 1 races\n"
      "                                      submitters against drain()\n"
      "  fleet_sim --task NAME [--model fast_noise|geniex|solver --chips N\n"
      "            --epochs E --sample K --dt SEC --policy never|always|\n"
      "            threshold|budgeted --budget B --n K --attack pgd|none\n"
      "            --slo_clean PCT --slo_avail F --seed S]\n"
      "                                      population-scale aging + SLA +\n"
      "                                      recalibration scheduling\n"
      "crossbar MODEL is one of: 64x64_300k, 32x32_100k, 64x64_100k\n"
      "serve also honours NVM_SERVE_MAX_BATCH / NVM_SERVE_QUEUE_CAP /\n"
      "NVM_SERVE_TIMEOUT_US\n"
      "serve_cluster also honours NVM_CLUSTER_SHARDS / NVM_CLUSTER_POLICY /\n"
      "NVM_CLUSTER_VNODES / NVM_CLUSTER_SHARD_THREADS (flags win)\n"
      "fleet_sim also honours NVM_FLEET_CHIPS / NVM_FLEET_EPOCHS /\n"
      "NVM_FLEET_SAMPLE / NVM_FLEET_DT_S / NVM_FLEET_AGE_SPREAD_S /\n"
      "NVM_FLEET_SEED / NVM_FLEET_POLICY\n"
      "every command also accepts --metrics-out PATH (or NVM_METRICS_OUT)\n"
      "to write a JSON run manifest, and --trace-events PATH (or\n"
      "NVM_TRACE_EVENTS) to write a chrome://tracing / Perfetto timeline\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  const Flags flags = parse_flags(argc, argv, 2);
  // --trace-events PATH: same effect as NVM_TRACE_EVENTS — record every
  // NVM_TRACE_SPAN as Chrome-trace B/E events and flush the timeline JSON
  // at exit (chrome://tracing / Perfetto).
  if (const std::string* path = flags.find("trace-events"))
    nvm::trace::enable_events(*path);
  int rc = 2;
  if (cmd == "quickstart") rc = cmd_quickstart(flags);
  else if (cmd == "nf") rc = cmd_nf(flags);
  else if (cmd == "tasks") rc = cmd_tasks();
  else if (cmd == "eval") rc = cmd_eval(flags);
  else if (cmd == "attack") rc = cmd_attack(flags);
  else if (cmd == "fault_sweep") rc = cmd_fault_sweep(flags);
  else if (cmd == "fleet_sim") rc = cmd_fleet_sim(flags);
  else if (cmd == "serve") rc = cmd_serve(flags);
  else if (cmd == "serve_cluster") rc = cmd_serve_cluster(flags);
  else {
    usage();
    return 2;
  }
  // Warn-and-fall-back: a flag the subcommand never read changed nothing.
  for (const std::string& key : flags.unread())
    std::fprintf(stderr, "warning: ignoring unused flag --%s\n", key.c_str());
  return rc;
}
