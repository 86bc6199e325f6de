"""The ggbm benchmark.  Run from the root of a source checkout:

    python3 perfbench/run.py --mc-paths 4096 --workload mc_potential --seed 1 \
        --seconds 25 --trace 0

Workloads: mc_potential, analytic_queries, path_sampling (see README.md).
One client drives one closed loop of ops; every op's output is checked.
Each pass runs in a fresh interpreter that imports ggbm from ./src.

A run does a fixed amount of work: --seconds times the workload's
nominal rate (OPS_PER_S) ops, which took about --seconds on the code and
machine the benchmark was defined on.  The same seed and --seconds thus
give the same ops, the same digest and the same failed ops on every run,
however fast the machine or the program is.

--trace 0 splits the ops over three measure passes, each in a fresh
interpreter, and prints the end-to-end metrics: setup time (median over
the measure passes), ops per second, latency p50/p90, CPU seconds
per op, peak RSS (median over the measure passes) and the share of ops
that passed.  Times are scaled to reference speed (see reference.py); the raw
values are in the record line.  --trace 1 runs half the ops in an untraced
pass, then a traced pass over the same ops, and prints the per-layer
metrics.

The last stdout line is {"correct", "attempted", "failed", "metrics"};
the line before it records the environment and the run digest, and the
same record is written to .perfbench/.  Exit status 2 when ./src/ggbm is
missing, 1 when a pass fails to produce a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from reference import REFERENCE_S

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_LIMIT_S = 170.0
WORKLOADS = ("mc_potential", "analytic_queries", "path_sampling")
# ops per second of --seconds: about the rate each workload ran at, at
# reference speed, on the 2-core box the benchmark was defined on
OPS_PER_S = {"mc_potential": 1.25, "analytic_queries": 7.5, "path_sampling": 170.0}
LAYERS = ("specfun", "randvar", "fbm", "process", "green", "montecarlo")
# the ops are split over this many fresh interpreters, which run
# consecutive ops; set-up time and peak RSS are their medians, so one
# unlucky cache state in one process does not set them
MEASURE_PASSES = 3


class PassFailed(Exception):
    pass


def run_pass(root: str, deadline: float, **opts) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), json.dumps({"root": root, **opts})]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise PassFailed("pass timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"pass exited with status {proc.returncode}")
    return json.loads(lines[-1])


def environment() -> dict:
    """Where the numbers were measured; read only, nothing is set."""
    import ctypes

    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.argtypes, fn.restype = [], ctypes.c_int
                    threads = fn()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads,
        "thread_env": {k: v for k, v in os.environ.items()
                       if k.endswith("_NUM_THREADS") or k.startswith("OPENBLAS")},
    }


def merge(passes: list[dict]) -> dict:
    """One record for consecutive measure passes: per-op lists joined,
    counts summed, one digest over the passes' digests, the median peak
    RSS."""
    out = {k: [x for p in passes for x in p[k]] for k in
           ("latencies", "iter_s", "iter_cpu_s", "op_ref_s")}
    for k in ("ops", "failed"):
        out[k] = sum(p[k] for p in passes)
    out["digest"] = hashlib.sha256("".join(p["digest"] for p in passes).encode()).hexdigest()
    out["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in passes)
    return out


def end_to_end(m: dict, setup: list[tuple[float, float]], raw: bool = False) -> dict:
    """The end-to-end metrics of measure pass m and the (setup seconds,
    reference seconds) of each set-up; times at reference speed unless raw."""
    unit = (lambda ref: 1.0) if raw else (lambda ref: REFERENCE_S / ref)

    def scaled(times):
        return [t * unit(r) for t, r in zip(times, m["op_ref_s"])]

    lat = scaled(m["latencies"])
    q = statistics.quantiles(lat, n=10, method="inclusive") if len(lat) > 1 else lat * 9
    return {
        "setup_s": (statistics.median(s * unit(r) for s, r in setup), "s"),
        "ops_per_s": (m["ops"] / sum(scaled(m["iter_s"])), "1/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_p90_s": (q[8], "s"),
        "cpu_s_per_op": (sum(scaled(m["iter_cpu_s"])) / m["ops"], "s"),
        "peak_rss_mb": (m["peak_rss_mb"], "MB"),
        "ok_rate": ((m["ops"] - m["failed"]) / m["ops"], "frac"),
    }


def per_layer(u: dict, t: dict, mc_paths: int) -> dict:
    """Per-op layer metrics from the traced pass t, in raw seconds; the
    Monte Carlo figures (at reference speed) and the tracing overhead also
    use the untraced pass u over the same ops.  mc_paths is 0 outside
    mc_potential."""
    k, S, C = t["ops"], t["spans"], t["counts"]

    def at_reference(p, key):
        return sum(x * REFERENCE_S / r for x, r in zip(p[key], p["op_ref_s"]))

    def span(name, key="s"):
        return S.get(name, {}).get(key, 0) / k

    def count(name):
        return C.get(name, 0.0) / k

    def share(part, whole):
        return C.get(part, 0.0) / C[whole] if C.get(whole) else 0.0

    batch_self = S.get("fbm.batch", {}).get("self_s", 0.0)
    mc = u["mc"]
    budget = statistics.median(g["budget_rel"] for g in mc) if mc else 0.0
    out = {
        "specfun.mw_rule.builds": (count("specfun.mw_rule.builds"), "count/op"),
        "specfun.mw_rule.s": (span("specfun.mw_rule"), "s/op"),
        "fbm.factor.builds": (count("fbm.factor.builds"), "count/op"),
        "fbm.factor.hits": (count("fbm.factor.hits"), "count/op"),
        "fbm.factor.s": (span("fbm.factor"), "s/op"),
        "fbm.batch.s": (span("fbm.batch", "self_s"), "s/op"),
        "fbm.gemm.gflop": (count("fbm.gemm.flop") / 1e9, "Gflop/op"),
        "fbm.gemm.gbyte": (count("fbm.gemm.byte") / 1e9, "GB/op"),
        "fbm.gemm.gflop_per_s": (C.get("fbm.gemm.flop", 0.0) / 1e9 / batch_self
                                 if batch_self else 0.0, "Gflop/s"),
        "fbm.generate.s": (span("fbm.generate"), "s/op"),
        "fbm.to_csv.s": (span("fbm.to_csv"), "s/op"),
        "randvar.y_draws": (count("randvar.y_draws"), "count/op"),
        "randvar.y_draw.s": (span("randvar.y_draw"), "s/op"),
        "randvar.y_bad": (count("randvar.y_bad"), "count/op"),
        "randvar.normal_draws": (count("randvar.normal_draws"), "count/op"),
        "randvar.normal_draw.s": (span("randvar.normal_draw"), "s/op"),
        "randvar.streams": (count("randvar.streams"), "count/op"),
        "process.path_product.s": (span("process.path_product"), "s/op"),
        "process.path_subordinated.s": (span("process.path_subordinated"), "s/op"),
        "process.density.s": (span("process.density"), "s/op"),
        "process.charfun.s": (span("process.charfun"), "s/op"),
        "green.f_eval.points": (count("green.f_eval.points"), "count/op"),
        "green.f_eval.s": (span("green.f_eval"), "s/op"),
        "green.potential.calls": (span("green.potential", "calls"), "count/op"),
        "green.potential.s": (span("green.potential"), "s/op"),
        "montecarlo.estimate.s": (span("montecarlo.estimate"), "s/op"),
        "montecarlo.self.s": (span("montecarlo.estimate", "self_s"), "s/op"),
        "montecarlo.chunks": (span("fbm.batch", "calls"), "count/op"),
        "montecarlo.tail_bound.s": (span("montecarlo.tail_bound"), "s/op"),
        "montecarlo.paths_per_s": (mc_paths * u["ops"] / at_reference(u, "latencies"), "1/s"),
        "montecarlo.budget_rel": (budget, "frac"),
        "montecarlo.cert_cost": (budget ** 2 * at_reference(u, "iter_cpu_s") / u["ops"], "s"),
        "setup.import.s": (t["import_s"], "s"),
        "trace.overhead_frac": (at_reference(t, "iter_s") / at_reference(u, "iter_s") - 1.0,
                                "frac"),
        "trace.op.s": (span("op"), "s/op"),
        "trace.uncovered.s": (span("op", "self_s"), "s/op"),
    }
    for fn in ("m_wright", "mittag_leffler"):
        name = f"specfun.{fn}"
        out[f"{name}.calls"] = (count(f"{name}.calls"), "count/op")
        out[f"{name}.s"] = (span(name), "s/op")
        out[f"{name}.integral_share"] = (share(f"{name}.integral", f"{name}.calls"), "frac")
    for part in ("se", "tail", "disc"):
        out[f"montecarlo.{part}_share"] = (
            statistics.fmean(g[f"{part}_share"] for g in mc) if mc else 0.0, "frac")
    for layer in LAYERS:
        out[f"layer.{layer}.self.s"] = (
            sum(v["self_s"] for n, v in S.items() if n.startswith(layer + ".")) / k, "s/op")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mc-paths", type=int, required=True,
                    help="paths per mc_potential estimate (fixed in BENCHMARK.json)")
    args = ap.parse_args(argv)

    # on SIGTERM, unwind through subprocess.run, which kills and reaps the pass
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ggbm", "__init__.py")):
        print(f"error: no ggbm source tree at {root}/src/ggbm; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    outdir = os.path.join(root, ".perfbench")
    os.makedirs(outdir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = dict(workload=args.workload, seed=args.seed, mc_paths=args.mc_paths,
                  spans=os.path.join(outdir, tag + ".npz"))
    n_ops = max(MEASURE_PASSES, round(args.seconds * OPS_PER_S[args.workload]))
    try:
        if args.trace == 0:
            cuts = [n_ops * k // MEASURE_PASSES for k in range(MEASURE_PASSES + 1)]
            passes = [run_pass(root, deadline, first_op=a, stop_op=b, traced=False, **common)
                      for a, b in zip(cuts, cuts[1:])]
            setup = [(p["setup_s"], p["setup_ref_s"]) for p in passes]
            m = merge(passes)
            metrics = end_to_end(m, setup)
            raw = {k: v for k, (v, _) in end_to_end(m, setup, raw=True).items()}
            same_digest = True
        else:
            half = dict(first_op=0, stop_op=max(1, n_ops // 2), **common)
            u = run_pass(root, deadline, traced=False, **half)
            m = run_pass(root, deadline, traced=True, **half)
            metrics = per_layer(u, m, args.mc_paths if args.workload == "mc_potential" else 0)
            passes, same_digest = [u, m], u["digest"] == m["digest"]
            raw = None
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "mc_paths": args.mc_paths, "env": environment(),
        "ops": n_ops, "digest": m["digest"],
        "reference_s": [statistics.median(p["ref_s"]) for p in passes], "raw": raw,
        "passes": [{k: p[k] for k in ("ops", "wall_s", "cpu_s", "failed", "errors",
                                      "unexpected", "digest")} for p in passes],
    }
    result = {
        "correct": same_digest and not any(p["unexpected"] for p in passes),
        "attempted": m["ops"], "failed": m["failed"],
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    with open(os.path.join(outdir, tag + ".json"), "w") as fh:
        json.dump({**record, "result": result}, fh, indent=1)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
