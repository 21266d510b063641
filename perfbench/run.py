#!/usr/bin/env python3
"""Benchmark of the nvmrobust library: one workload per invocation.

    python3 perfbench/run.py --workload hil_attack --seed 1 --seconds 30 --trace 0

Run from the repository root. The script
  * builds perfbench/ (which builds the library from this checkout's source)
    into .bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench);
  * trains the SCIFAR10 ResNet-20 once into a benchmark-owned cache
    directory, outside every timed region and outside setup_s;
  * gives each run a fresh cache directory holding only that network, so
    GENIEx fits and plan descriptors are rebuilt (and counted in setup_s)
    every run and nothing is written to ./repro_cache;
  * runs the workload, checks its outputs, and prints a human-readable
    report followed by one JSON line:
      {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
    With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
    --trace 1 its per_layer metrics (from a run with the benchmark's spans on).

Output checks: every per-image or per-request output is recorded as a
digest and compared with the digests any earlier run of the same workload
and seed recorded in this checkout (traced and untraced runs share the
store, so a traced run must reproduce the untraced outputs); the cost
model's simulated stats must equal perfbench/reference.json; each workload
also checks its own invariants (see src/). Every mismatch is a failed
operation.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hil_attack", "digital_attack", "serve_open_loop")
# NVM_THREADS is pinned so every run, on any host, uses the same pool size.
PINNED_THREADS = "4"
# Phase spans must account for at least this share of a traced run's timed
# wall time.
MIN_PHASE_COVERAGE = 0.99
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def sh(cmd, log, env=None, timeout=None):
    with open(log, "a") as f:
        f.write("$ " + " ".join(cmd) + "\n")
        f.flush()
        return subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT, env=env,
                              timeout=timeout).returncode


def build(work):
    """Configures once and builds the benchmark program; returns its path."""
    build_dir = os.path.join(work, "build")
    log = os.path.join(work, "build.log")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if sh(["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"], log) != 0:
            fail(f"configure failed, see {log}")
    jobs = str(min(4, os.cpu_count() or 1))
    if sh(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
          log) != 0:
        fail(f"build failed, see {log}")
    return os.path.join(build_dir, "perfbench")


def child_env(cache_dir):
    """The environment with every library knob removed except the pinned
    pool size and the cache directory."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("NVM_", "NVMROBUST_", "REPRO_"))}
    env["NVM_THREADS"] = PINNED_THREADS
    env["NVMROBUST_CACHE_DIR"] = cache_dir
    return env


def trained_model_cache(work, exe):
    """Directory holding only the trained network, trained on first use."""
    model_dir = os.path.join(work, "model_cache")
    os.makedirs(model_dir, exist_ok=True)
    if not any(n.startswith("model_") for n in os.listdir(model_dir)):
        log = os.path.join(work, "train.log")
        if sh([exe, "--prepare"], log, env=child_env(model_dir),
              timeout=900) != 0:
            fail(f"training the benchmark network failed, see {log}")
        for name in os.listdir(model_dir):
            if not name.startswith("model_"):
                os.remove(os.path.join(model_dir, name))
    return model_dir


def fresh_run_cache(work, model_dir):
    run_dir = os.path.join(work, "run_cache")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    for name in os.listdir(model_dir):
        shutil.copy2(os.path.join(model_dir, name), run_dir)
    return run_dir


def source_digest():
    """Content hash of the library sources (the checkout is not a git
    repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    for base in ("src", "CMakeLists.txt"):
        path = os.path.join(ROOT, base)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "none"


def compare_digests(work, workload, seed, digests):
    """Checks outputs against every earlier run of (workload, seed) and
    records new ones. Returns (compared, mismatched keys)."""
    store_dir = os.path.join(work, "digests")
    os.makedirs(store_dir, exist_ok=True)
    path = os.path.join(store_dir, f"{workload}-{seed}.json")
    store = {}
    if os.path.exists(path):
        with open(path) as f:
            store = json.load(f)
    compared, bad = 0, []
    for k, v in digests.items():
        if k in store:
            compared += 1
            if store[k] != v:
                bad.append(k)
        else:
            store[k] = v
    with open(path + ".tmp", "w") as f:
        json.dump(store, f, sort_keys=True)
    os.replace(path + ".tmp", path)
    return compared, bad


def span_report(spans, timed_wall_s):
    """Self time per span name and the share of the timed wall that the
    phase spans (other than set-up) cover."""
    dur = [s[2] - s[1] for s in spans]
    child_cover = [0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_cover[s[3]] += s[2] - s[1]
    totals = {}
    for i, s in enumerate(spans):
        t = totals.setdefault(s[0], [0, 0.0, 0.0])
        t[0] += 1
        t[1] += dur[i] * 1e-9
        t[2] += max(0, dur[i] - child_cover[i]) * 1e-9
    phases = sum(dur[i] for i, s in enumerate(spans)
                 if s[3] < 0 and s[0].startswith("phase/")
                 and s[0] != "phase/setup") * 1e-9
    coverage = phases / timed_wall_s if timed_wall_s > 0 else 0.0
    return totals, coverage


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    bench_json = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("run from a checkout of the nvmrobust repository")
    with open(bench_json) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "reference.json")) as f:
        reference = json.load(f)

    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    work = os.path.abspath(os.path.join(base, "perfbench"))
    os.makedirs(work, exist_ok=True)
    exe = build(work)
    model_dir = trained_model_cache(work, exe)
    cache = fresh_run_cache(work, model_dir)

    out = os.path.join(work, f"result-{args.workload}-{args.trace}.json")
    spans_path = os.path.join(work, f"trace-{args.workload}-{args.seed}.json")
    for p in (out, spans_path):
        if os.path.exists(p):
            os.remove(p)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", out, "--spans", spans_path]
    log = os.path.join(work, "run.log")
    t0 = time.monotonic()
    try:
        rc = sh(cmd, log, env=child_env(cache), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload timed out after {RUN_TIMEOUT_S}s")
    shutil.rmtree(cache, ignore_errors=True)
    if rc != 0 or not os.path.exists(out):
        fail(f"workload exited with {rc}, see {log}")
    with open(out) as f:
        rec = json.load(f)
    wall = time.monotonic() - t0

    failed = rec["failed"]
    attempted = rec["attempted"]
    notes = list(rec["failures"])
    compared, bad = compare_digests(work, args.workload, args.seed,
                                    rec["digests"])
    failed += len(bad)
    if bad:
        notes.append(f"{len(bad)} outputs differ from an earlier run of seed "
                     f"{args.seed}: {', '.join(sorted(bad)[:5])}")
    want = reference.get(args.workload, {})
    for k, v in want.items():
        attempted += 1
        if rec["digests"].get(k) != v:
            failed += 1
            notes.append(f"{k} digest {rec['digests'].get(k)} != reference {v}")

    metrics = {k: (v[0], v[1]) for k, v in rec["metrics"].items()}
    if args.trace:
        with open(spans_path) as f:
            spans = json.load(f)
        totals, coverage = span_report(spans, rec["timed_wall_s"])
        attempted += 1
        if coverage < MIN_PHASE_COVERAGE:
            failed += 1
            notes.append(f"phase spans cover {coverage:.4f} of the timed wall "
                         f"(< {MIN_PHASE_COVERAGE})")
        metrics["trace.phase_coverage"] = (coverage, "ratio")
        metrics["trace.spans"] = (float(len(spans)), "count")
        base_path = os.path.join(work, f"untraced-{args.workload}.json")
        overhead = 0.0
        if os.path.exists(base_path):
            with open(base_path) as f:
                base_rate = json.load(f)["throughput_per_s"]
            overhead = base_rate / metrics["throughput_per_s"][0] - 1.0
        else:
            notes.append("no untraced run in this checkout yet: "
                         "trace.overhead_frac reads 0")
        metrics["trace.overhead_frac"] = (overhead, "ratio")
    else:
        with open(os.path.join(work, f"untraced-{args.workload}.json"), "w") as f:
            json.dump({"throughput_per_s": metrics["throughput_per_s"][0]}, f)
    metrics["error_frac"] = (failed / max(1, attempted), "ratio")

    h = rec["header"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"host: nproc={h['nproc']} NVM_THREADS={h['nvm_threads']} "
          f"simd/isa={h['simd_isa']} compiler=gcc {h['compiler']} "
          f"build={h['build_type']} commit={commit()} "
          f"source={source_digest()}")
    print(f"timed wall {rec['timed_wall_s']:.3f}s, process wall {wall:.1f}s; "
          f"{compared} outputs compared with earlier runs of this seed")
    for name in sorted(metrics):
        v, unit = metrics[name]
        print(f"  {name:34s} {v:16.6g} {unit}")
    if args.trace:
        print("self time by span (count, total s, self s):")
        for name, (n, tot, self_s) in sorted(totals.items(),
                                              key=lambda kv: -kv[1][2]):
            print(f"  {name:34s} {n:8d} {tot:10.4f} {self_s:10.4f}")
        print(f"spans written to {os.path.relpath(spans_path)}")
    for n in notes:
        print(f"  ! {n}")

    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    report = {}
    for m in names:
        name = m["name"]
        if name in metrics:
            v = metrics[name][0]
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                fail(f"metric {name} has no finite value ({v})")
            report[name] = {"value": v, "unit": m["unit"]}
        elif args.trace:
            # A layer this workload does not exercise did no work.
            report[name] = {"value": 0.0, "unit": m["unit"]}
        else:
            fail(f"workload did not measure end-to-end metric {name}")
    print(json.dumps({"correct": failed == 0 and attempted >= 1,
                      "attempted": attempted, "failed": failed,
                      "metrics": report}))


if __name__ == "__main__":
    main()
