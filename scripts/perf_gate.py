#!/usr/bin/env python3
"""Performance-regression gate over committed BENCH_*.json run manifests.

Two modes:

  perf_gate.py --baseline DIR --candidate DIR [--tol-scale F] [--strict]
      Compare candidate manifests against baselines metric-by-metric with
      per-metric tolerance bands (SPECS below). Exit 1 on any regression.
      Non-strict mode skips manifests/keys missing from the candidate set
      (so a quickstart-only candidate run gates just the quickstart spec);
      --strict fails on anything missing.

      Host check: a manifest's "host" header names the machine class it ran
      on. When both manifests of a spec carry one and they differ in nproc,
      simd/isa or build_type, the numbers are not comparable: the spec is
      reported as skipped for host mismatch (a failure under --strict). A
      manifest without a header is compared as before, with a note saying
      so.

  perf_gate.py --validate-trace FILE
      Structurally validate a Chrome-trace JSON export (trace.cpp
      flush_events): a traceEvents array whose B/E duration events are
      balanced per (pid, tid) with monotone non-decreasing timestamps.

Tolerance bands are deliberately wide: the benches run on shared CI
hardware, and this gate exists to catch step-change regressions (a
disabled SIMD tier, a solver schedule falling off its fast path, batching
losing its saturation win), not single-digit-percent noise. Scale all
bands with --tol-scale or NVM_PERF_GATE_TOL (flag wins; e.g. 2.0 doubles
every band for a noisy machine).

No third-party imports — standard library only.
"""

import argparse
import json
import os
import sys

# One spec per gated number:
#   (file, section, key, direction, band)
# direction:
#   "higher" — bigger is better; candidate must be >= baseline * (1 - band)
#   "lower"  — smaller is better; candidate must be <= baseline * (1 + band)
#   "min"    — structural floor; candidate must be >= band (baseline unused,
#              tolerance scaling does not apply)
SPECS = [
    # Kernel + solver throughput (BENCH_mvm_perf.json).
    ("BENCH_mvm_perf.json", "metrics", "bench/simd/gflops", "higher", 0.30),
    ("BENCH_mvm_perf.json", "metrics",
     "bench/warm_start/sweeps_per_matmul_cold", "lower", 0.10),
    ("BENCH_mvm_perf.json", "metrics",
     "bench/warm_start/sweeps_per_matmul_warm", "lower", 0.10),
    ("BENCH_mvm_perf.json", "metrics",
     "bench/multi_rhs/multi_b128_cols_per_sec", "higher", 0.35),
    ("BENCH_mvm_perf.json", "metrics",
     "bench/solver/ordering_redblack_ms", "lower", 0.60),
    # Fused fast-noise matmul (BM_TiledMatmulFused/1): the serve-shaped
    # 16x128 classifier head on a 32-column block. With the float route
    # gone there is no in-process ratio to floor, so the fused route is
    # held in absolute time; committed runs on the 4-vCPU host read
    # 0.20-0.25 ms, and a 50% band absorbs host noise while catching a
    # slot falling off its fused kernel.
    ("BENCH_mvm_perf.json", "metrics", "bench/tiled/fused_ms", "lower", 0.50),
    # One-column fused fast-noise matmul (BM_TiledMatmulFused/2): the
    # matmul a lone served request costs. The column-contiguous table
    # layout took it from 0.054-0.058 to 0.045-0.048 ms wall on the 4-vCPU
    # host, and running it inline below the matmul's fan-out floor (no
    # pool fork-join) to 0.017-0.023 ms; a 50% band absorbs host noise and
    # catches step changes on the light-load serve path.
    ("BENCH_mvm_perf.json", "metrics", "bench/tiled/fused_n1_ms", "lower", 0.50),
    # GENIEx tiled matmul (BM_TiledMatmul/1): simd::gemm_madd + one
    # simd::mlp_tanh per crossbar pass took it from 0.73 ms to ~0.24 ms,
    # the fused chunk route further, and claiming its 8 slot passes from
    # the pool's work word to 0.11-0.14 ms; a 50% band absorbs host noise
    # and still catches a return to the old evaluation loop.
    ("BENCH_mvm_perf.json", "metrics", "bench/tiled/geniex_ms", "lower", 0.50),
    # Empty fork-join (BM_ForkJoin: 4 near-empty items on a 4-thread pool).
    # The claim-based pool with spinning workers reads 2-3 us on the 4-vCPU
    # host against 19-24 us for the queue of per-chunk std::functions it
    # replaced; the 100% band absorbs host noise and still catches a
    # return to a condition-variable wake per region.
    ("BENCH_mvm_perf.json", "metrics", "bench/pool/fork_join_us", "lower", 1.0),
    # GENIEx surrogate fit (BM_GeniexFit): 320 circuit solves plus the MLP
    # training, which runs as minibatch simd::gemm_madd calls; a 50% band
    # absorbs host noise and still catches a return to the per-sample
    # training loop (about three times the fit time).
    ("BENCH_mvm_perf.json", "metrics", "bench/xbar/geniex_fit_ms", "lower", 0.50),
    # Deployment of the stage-3 conv GEMM onto GENIEx tiles
    # (BM_TiledProgram: 64x576 weights, 36 slots on 64x64_100k): the
    # slots are sliced, programmed and their chunk kernels compiled in one
    # pool fork-join, 2.6-3.5 ms on the 4-vCPU host against 8.4-13.2 ms
    # one slot at a time; a 50% band absorbs host noise and still catches
    # a return to serial programming.
    ("BENCH_mvm_perf.json", "metrics", "bench/tiled/program_ms", "lower", 0.50),
    # Input-only backward (BM_InputGrad): backward() over input_grad() on
    # the SCIFAR10 ResNet-20, timed alternately. Skipping the parameter
    # gradients measured 2.31-2.58x on the 4-vCPU AVX-512 host of
    # BENCH_mvm_perf.json; a floor of 1.8 absorbs host noise and still
    # fails if input_grad goes back to computing conv dW (ratio ~1.0).
    ("BENCH_mvm_perf.json", "metrics",
     "bench/nn/input_grad_speedup", "min", 1.8),
    # Serving layer (BENCH_serve.json).
    # Saturation throughput at batch 1 and batch 32, each held on its own.
    # Their ratio (saturation_speedup, still printed) fell whenever the
    # batch-1 path got faster, so gating it read a speed-up as a loss.
    ("BENCH_serve.json", "results",
     "b1_saturation_throughput_rps", "higher", 0.35),
    ("BENCH_serve.json", "results",
     "b32_saturation_throughput_rps", "higher", 0.35),
    # Light-load latency with batching on: dispatch is work-conserving, so
    # a lone request pays a scheduler wake-up and one one-column matmul
    # (0.11-0.19 ms on the 4-vCPU host). Holding partial batches for a
    # 200 us flush deadline read 0.39-0.41 ms there; the band (host noise
    # moves this p50 by up to 60%) still catches such a wait.
    ("BENCH_serve.json", "results", "b32_rate1000_p50_ms", "lower", 1.0),
    # Sharded cluster (BENCH_serve_cluster.json): aggregate saturation and
    # the worst per-shard tail; shed fraction under 2.5x overload is rate-
    # coupled, so it gets the widest band.
    ("BENCH_serve_cluster.json", "results",
     "aggregate_saturation_rps", "higher", 0.35),
    ("BENCH_serve_cluster.json", "results",
     "s4_shard_p99_ms_max", "lower", 0.75),
    ("BENCH_serve_cluster.json", "results",
     "overload_shed_frac", "lower", 0.60),
    # Fleet policy scores (BENCH_fleet.json): accuracy-per-cost, nearly
    # deterministic, so tight-ish bands.
    ("BENCH_fleet.json", "results", "fleet/threshold/score", "higher", 0.25),
    ("BENCH_fleet.json", "results", "fleet/budgeted/score", "higher", 0.25),
    # Quickstart smoke (BENCH_quickstart.json): structure + accuracy.
    ("BENCH_quickstart.json", "metrics", "solver/solves", "min", 1),
    ("BENCH_quickstart.json", "metrics", "puma/tiled/matmuls", "min", 1),
    ("BENCH_quickstart.json", "results", "hw_accuracy", "higher", 0.10),
]


def load_manifest(directory, name):
    path = os.path.join(directory, name)
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


# Host fields that make two runs comparable; "compiler" is informational.
HOST_KEYS = ("nproc", "simd/isa", "build_type")


def host_mismatch(base, cand):
    """Returns the differing HOST_KEYS as "key a->b" strings, [] when both
    hosts agree, or None when either manifest has no host header."""
    bh, ch = base.get("host"), cand.get("host")
    if not isinstance(bh, dict) or not isinstance(ch, dict):
        return None
    return [f"{k} {bh.get(k)}->{ch.get(k)}" for k in HOST_KEYS
            if bh.get(k) != ch.get(k)]


def lookup(manifest, section, key):
    value = manifest.get(section, {}).get(key)
    if isinstance(value, dict):  # histogram delta: gate on the count
        value = value.get("count")
    return value


def run_gate(baseline_dir, candidate_dir, tol_scale, strict):
    failures, checked, skipped = [], 0, []
    noted = set()
    for fname, section, key, direction, band in SPECS:
        base = load_manifest(baseline_dir, fname)
        cand = load_manifest(candidate_dir, fname)
        if cand is None or (base is None and direction != "min"):
            skipped.append(f"{fname} missing ({'candidate' if cand is None else 'baseline'})")
            if strict:
                failures.append(f"{fname}: manifest missing")
            continue
        if base is not None:
            diff = host_mismatch(base, cand)
            if diff is None:
                if fname not in noted:
                    noted.add(fname)
                    which = [w for w, m in (("baseline", base), ("candidate", cand))
                             if not isinstance(m.get("host"), dict)]
                    print(f"  [note] {fname}: no host header in "
                          f"{' and '.join(which)}; host not checked")
            elif diff:
                skipped.append(f"{fname}:{key} host mismatch ({', '.join(diff)})")
                if strict:
                    failures.append(f"{fname}: {section}/{key} compared "
                                    f"across hosts ({', '.join(diff)})")
                continue
        cv = lookup(cand, section, key)
        bv = lookup(base, section, key) if base is not None else None
        if cv is None or (direction != "min" and bv is None):
            skipped.append(f"{fname}:{key} missing")
            if strict:
                failures.append(f"{fname}: {section}/{key} missing")
            continue
        checked += 1
        if direction == "min":
            ok = cv >= band
            detail = f"{cv:g} >= floor {band:g}"
        elif direction == "higher":
            limit = bv * (1.0 - band * tol_scale)
            ok = cv >= limit
            detail = f"{cv:g} vs baseline {bv:g} (limit {limit:g}, -{band * tol_scale:.0%})"
        else:  # lower
            limit = bv * (1.0 + band * tol_scale)
            ok = cv <= limit
            detail = f"{cv:g} vs baseline {bv:g} (limit {limit:g}, +{band * tol_scale:.0%})"
        status = "ok  " if ok else "FAIL"
        print(f"  [{status}] {fname} {section}/{key}: {detail}")
        if not ok:
            failures.append(f"{fname}: {section}/{key} regressed ({detail})")
    for s in skipped:
        print(f"  [skip] {s}")
    print(f"perf gate: {checked} checked, {len(skipped)} skipped, "
          f"{len(failures)} failed (tol scale {tol_scale:g})")
    if failures:
        for f in failures:
            print(f"REGRESSION: {f}", file=sys.stderr)
        return 1
    if checked == 0:
        print("perf gate: nothing checked", file=sys.stderr)
        return 1
    return 0


def validate_trace(path):
    """Structural Chrome-trace validation; returns 0 iff well-formed."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    events = doc["traceEvents"] if isinstance(doc, dict) else doc
    if not isinstance(events, list):
        print("trace: traceEvents is not a list", file=sys.stderr)
        return 1
    stacks = {}  # (pid, tid) -> [name, ...] open B events
    last_ts = {}  # (pid, tid) -> last timestamp seen
    n_b = n_e = 0
    for i, e in enumerate(events):
        ph = e.get("ph")
        if ph not in ("B", "E"):
            continue  # metadata/counter events are fine, just not checked
        for field in ("name", "ts", "pid", "tid"):
            if field not in e:
                print(f"trace: event {i} missing '{field}'", file=sys.stderr)
                return 1
        key = (e["pid"], e["tid"])
        ts = e["ts"]
        if key in last_ts and ts < last_ts[key]:
            print(f"trace: event {i} time goes backwards on {key}: "
                  f"{ts} < {last_ts[key]}", file=sys.stderr)
            return 1
        last_ts[key] = ts
        stack = stacks.setdefault(key, [])
        if ph == "B":
            n_b += 1
            stack.append(e["name"])
        else:
            n_e += 1
            if not stack:
                print(f"trace: event {i} 'E' with empty stack on {key}",
                      file=sys.stderr)
                return 1
            top = stack.pop()
            if top != e["name"]:
                print(f"trace: event {i} 'E' name '{e['name']}' does not "
                      f"match open span '{top}' on {key}", file=sys.stderr)
                return 1
    open_spans = {k: v for k, v in stacks.items() if v}
    if open_spans:
        print(f"trace: unclosed spans at EOF: {open_spans}", file=sys.stderr)
        return 1
    threads = len(last_ts)
    print(f"trace ok: {n_b} B / {n_e} E events balanced across "
          f"{threads} thread(s)")
    if n_b == 0:
        print("trace: no duration events at all", file=sys.stderr)
        return 1
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--baseline", help="directory with baseline BENCH_*.json")
    ap.add_argument("--candidate", help="directory with candidate BENCH_*.json")
    ap.add_argument("--tol-scale", type=float, default=None,
                    help="scale every tolerance band (default: "
                         "NVM_PERF_GATE_TOL or 1.0)")
    ap.add_argument("--strict", action="store_true",
                    help="fail on missing manifests/keys instead of skipping")
    ap.add_argument("--validate-trace", metavar="FILE",
                    help="validate a Chrome-trace JSON export instead of gating")
    args = ap.parse_args()

    if args.validate_trace:
        return validate_trace(args.validate_trace)

    if not args.baseline or not args.candidate:
        ap.error("--baseline and --candidate are required (or --validate-trace)")
    tol = args.tol_scale
    if tol is None:
        tol = float(os.environ.get("NVM_PERF_GATE_TOL", "1.0"))
    if tol <= 0:
        ap.error("--tol-scale must be positive")
    return run_gate(args.baseline, args.candidate, tol, args.strict)


if __name__ == "__main__":
    sys.exit(main())
