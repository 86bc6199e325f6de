"""Smoke test of the benchmark at tiny sizes.  Run from the repository root:

    python3 perfbench/smoke.py

Checks that every metric named in BENCHMARK.json is emitted with its unit
on every workload, that the run digest and the counts of attempted and
failed ops repeat for a fixed seed, that a perturbed analytic value fails
the mc_potential gate, that every traced span belongs to the op or one of the six layers, that on mc_potential the
layer self times and the uncovered remainder add up to the op time and
the uncovered remainder is a small share of it, and that the benchmark
refuses to run without a ggbm source tree.  Exits 1 on the first failed
check.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np

from run import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
TINY = ["--seconds", "1", "--mc-paths", "256"]


def bench(workload: str, trace: int, seed: int = 3, cwd: str = ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), *TINY],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        return proc.returncode, None, None
    return 0, json.loads(lines[-2]), json.loads(lines[-1])


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        sys.exit(1)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for w in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, record, result = bench(w, trace)
            check(code == 0, f"{w} trace={trace} exits 0")
            check(set(result) == {"correct", "attempted", "failed", "metrics"}
                  and result["correct"] and result["attempted"] >= 1,
                  f"{w} trace={trace} result keys, correct, attempted >= 1")
            got = {k: v["unit"] for k, v in result["metrics"].items()
                   if isinstance(v["value"], (int, float)) and math.isfinite(v["value"])}
            check(got == wanted[trace], f"{w} trace={trace} emits every metric with its unit")
            if trace == 0:
                _, again, again_result = bench(w, 0)
                check(again["digest"] == record["digest"], f"{w} digest repeats for seed 3")
                check([again_result[k] for k in ("attempted", "failed")]
                      == [result[k] for k in ("attempted", "failed")],
                      f"{w} attempted and failed repeat for seed 3")
                check(bench(w, 0, seed=4)[1]["digest"] != record["digest"],
                      f"{w} digest differs for seed 4")
                continue
            spans = os.path.join(ROOT, ".perfbench", f"{w}-seed3-trace1.npz")
            names = set(np.load(spans)["names"].tolist())
            stray = sorted(n for n in names if n != "op" and n.split(".")[0] not in LAYERS)
            check(not stray, f"{w} every span is the op or in a layer (stray: {stray})")
            if w == "mc_potential":
                m = {k: v["value"] for k, v in result["metrics"].items()}
                parts = sum(v for k, v in m.items() if k.startswith("layer."))
                check(math.isclose(parts + m["trace.uncovered.s"], m["trace.op.s"], rel_tol=1e-9),
                      "mc_potential layer self times + uncovered = traced op time")
                check(m["trace.uncovered.s"] < 0.05 * m["trace.op.s"],
                      "mc_potential uncovered time is under 5 % of the traced op time")

    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from spans import NullTracer
    from workloads import GateError, McPotential, mc_gate

    wl = McPotential(seed=3, mc_paths=256)
    mean, se, tail, disc, V = wl.run(wl.warmup_spec(), NullTracer())
    mc_gate(mean, se, tail, disc, V)
    try:
        mc_gate(mean, se, tail, disc, V + 2.0 * (3.0 * se + tail + disc))
        perturbed_fails = False
    except GateError:
        perturbed_fails = True
    check(perturbed_fails, "a perturbed analytic value fails the mc_potential gate")

    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, _, _ = bench("path_sampling", 0, cwd=bare)
        check(code != 0, "refuses to run without ./src/ggbm")
    finally:
        shutil.rmtree(bare)
    return 0


if __name__ == "__main__":
    sys.exit(main())
