"""Acceptance suite: one test per top-level criterion, each printing a
single PASS/FAIL line.  These are the binding end-to-end checks; the
tolerances are fixed and must not be loosened.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from ggbm import GreenDensity, ModelParams, continuity_constant, \
    gaussian_test_function, green_constant, potential, time_integral_kernel
from ggbm.specfun import m_wright_moment
from ggbm.verify import moment_quadrature, run_suite


def report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


@pytest.mark.parametrize("beta,alpha,dim", [(0.5, 1.5, 3), (0.8, 1.2, 2),
                                            (0.9, 2.0, 2)])
def test_criterion_1_perpetual_integral_identity(beta, alpha, dim):
    """MC estimate of E[int_0^inf f(x+B(t)) dt] matches the analytic
    potential within 3*SE + tail bound + discretization bound."""
    rep = run_suite("green", beta=beta, alpha=alpha, dim=dim, paths=100_000,
                    seed=42, t_max=50.0, threads=4)
    check = rep["checks"][0]  # the perpetual-integral identity
    mean, analytic, budget = check["observed"], check["expected"], check["tolerance"]
    diff = abs(mean - analytic)
    report(
        f"criterion 1: potential identity (beta={beta}, alpha={alpha}, "
        f"d={dim})", rep["pass"],
        f"|{mean:.5f} - {analytic:.5f}| = {diff:.5f} <= {budget:.5f}")


def test_criterion_2_brownian_constant():
    """green_constant(1,1,3) equals the classical value 1/(2 pi)."""
    val = green_constant(1.0, 1.0, 3)
    expected = 1.0 / (2.0 * math.pi)
    report("criterion 2: Brownian constant 1/(2 pi)",
           abs(val - expected) <= 1e-12,
           f"|{val:.15g} - {expected:.15g}|")


def test_criterion_3_time_integral_closed_form():
    """Closed-form time integral vs adaptive quadrature, rel err <= 1e-8,
    over a 3x3x2 grid of (alpha, d, tau) in the transient regime."""
    from scipy.integrate import quad
    worst = 0.0
    count = 0
    for alpha in (1.2, 1.5, 2.0):
        for d in (1, 2, 3):
            if d * alpha <= 2.0:
                continue
            for tau in (0.5, 2.0):
                r = 1.1

                def integrand(t):
                    v = t ** alpha * tau
                    return ((2.0 * math.pi * v) ** (-0.5 * d)
                            * math.exp(-0.5 * r * r / v))

                num, _ = quad(integrand, 0.0, np.inf, epsabs=1e-14,
                              epsrel=1e-12, limit=300)
                closed = time_integral_kernel(alpha, d, tau, r)
                worst = max(worst, abs(closed - num) / num)
                count += 1
    report("criterion 3: time-integral closed form",
           worst <= 1e-8 and count >= 12,
           f"worst rel err {worst:.2e} over {count} cases")


def test_criterion_4_moment_identity():
    """Quadrature of the scale-density moments vs the Gamma-ratio closed
    form, rel err <= 1e-9, including the orders -1/alpha used by the
    potential constant."""
    worst = 0.0
    for beta in (0.3, 0.5, 0.7):
        deltas = [0.5, 1.0, 2.0] + [-1.0 / a for a in (1.5, 2.0)]
        for delta in deltas:
            expected = m_wright_moment(beta, delta)
            observed = moment_quadrature(beta, delta)
            worst = max(worst, abs(observed - expected) / abs(expected))
    report("criterion 4: moment identity", worst <= 1e-9,
           f"worst rel err {worst:.2e}")


def test_criterion_5_laplace_identity():
    """E_beta(-s) vs quadrature over the scale density, <= 1e-10; and vs
    the exact sampler at 10^6 draws within 3 standard errors."""
    rep = run_suite("laplace", paths=1_000_000, seed=42)
    failed = [c["name"] for c in rep["checks"] if not c["pass"]]
    report("criterion 5: Laplace identity", rep["pass"],
           "failed checks: " + ", ".join(failed) if failed
           else f"{len(rep['checks'])} checks: quadrature within 1e-10, "
                "sampler within 3*SE")


@pytest.mark.parametrize("suite", ["moments", "covariance", "charfun"])
@pytest.mark.parametrize("beta,alpha", [(0.5, 1.5), (0.8, 1.2)])
def test_criterion_6_property_suites(suite, beta, alpha):
    """Moment, covariance and increment-charfun identities each hold at
    3 standard errors with 10^5 paths."""
    rep = run_suite(suite, beta=beta, alpha=alpha, dim=2 if suite == "covariance" else 1,
                    paths=100_000, seed=42)
    failed = [c["name"] for c in rep["checks"] if not c["pass"]]
    report(f"criterion 6: {suite} suite (beta={beta}, alpha={alpha})",
           rep["pass"], "failed checks: " + ", ".join(failed) if failed
           else f"{len(rep['checks'])} checks within 3*SE")


def test_criterion_7_representation_equivalence():
    """The path construction has the law of the process: at each checked
    time a one-sample KS test against the analytic scale-mixture marginal
    of `ggbm_paths`, and a two-sample KS test between two independent
    batches, accept at significance 0.01 with 10^4 paths per batch.  The
    subordinated construction is the product one by self-similarity."""
    rep = run_suite("representation", beta=0.5, alpha=1.5, dim=1,
                    paths=10_000, seed=42)
    failed = [c["name"] for c in rep["checks"] if not c["pass"]]
    report("criterion 7: representation equivalence", rep["pass"],
           "failed checks: " + ", ".join(failed) if failed
           else f"{len(rep['checks'])} KS checks accept at 0.01")


def test_criterion_8_deterministic_verification(tmp_path):
    """The green verification suite produces byte-identical JSON reports
    for 1 and 8 worker threads."""
    out1 = tmp_path / "t1.json"
    out8 = tmp_path / "t8.json"
    base = [sys.executable, "-m", "ggbm.cli", "verify", "green",
            "--seed", "42", "--paths", "8192"]
    r1 = subprocess.run(base + ["--threads", "1", "--out", str(out1)],
                        capture_output=True, text=True)
    r8 = subprocess.run(base + ["--threads", "8", "--out", str(out8)],
                        capture_output=True, text=True)
    ok = (r1.returncode == 0 and r8.returncode == 0
          and out1.read_bytes() == out8.read_bytes())
    report("criterion 8: thread-count determinism", ok,
           f"exit codes {r1.returncode}/{r8.returncode}, reports "
          + ("identical" if out1.exists() and out8.exists()
             and out1.read_bytes() == out8.read_bytes() else "differ"))
    rep = json.loads(out1.read_text())
    assert rep["pass"] is True


def test_criterion_9_continuity_bound():
    """|V(f, x)| <= K (sup|f| + ||f||_1) over a 10-member Gaussian family
    with the single constant K reported by the module."""
    gd = GreenDensity.from_params(ModelParams(0.5, 1.5, 3))
    K = continuity_constant(gd)
    rng = np.random.default_rng(42)
    worst_ratio = 0.0
    for _ in range(10):
        sigma = float(rng.uniform(0.3, 2.5))
        amp = float(rng.uniform(0.1, 4.0))
        center = rng.uniform(-1.5, 1.5, 3)
        f = gaussian_test_function(sigma, 3, center=center, amplitude=amp)
        v = potential(gd, f, np.zeros(3))
        worst_ratio = max(worst_ratio, abs(v) / f.cl_norm)
    report("criterion 9: continuity bound", worst_ratio <= K,
           f"max |V|/||f||_CL = {worst_ratio:.4f} <= K = {K:.4f}")
