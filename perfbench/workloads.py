"""The three benchmark workloads: seeded op specs, the calls each op makes
into ggbm, and the correctness gate on each op's outputs.

Op i of a run is built from point i of a scrambled Sobol sequence seeded
by the workload seed, plus a per-op random stream for directions and
vectors; ggbm receives only the generated inputs.  Each coordinate of a
Sobol point is uniform on [0, 1), so every parameter covers its whole
range, while any prefix of the sequence is balanced over all parameters
jointly.  That keeps the op mix of a run, and with it the run's cost,
nearly the same under every seed.  The warm-up op is built from the
centre point of the cube and does not depend on the seed.

Library calls go through ``tr.call(name, fn, *args)``: a plain call when
the run is untraced, a recorded span when it is traced (see spans.py).
"""

from __future__ import annotations

import io

import numpy as np
from scipy.stats import qmc

import ggbm
from ggbm import fbm, green, montecarlo, process, randvar, specfun

MC_PARAMS = (0.5, 1.5, 3)
MC_T_MAX = 50.0
WARMUP_MC_PATHS = 256


class GateError(Exception):
    """An op's output failed its correctness gate."""


def _gate(ok, what: str) -> None:
    if not ok:
        raise GateError(what)


def _floats(*values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64)


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


class Workload:
    """Op specs from a seeded scrambled Sobol sequence of DIMS coordinates."""

    DIMS = 1

    def __init__(self, seed: int, mc_paths: int):
        self.seed, self.paths = seed, mc_paths
        self._sobol = qmc.Sobol(self.DIMS, scramble=True, seed=np.random.default_rng(seed))
        self._points = self._sobol.random_base2(10)

    def spec(self, i: int) -> dict:
        while i >= len(self._points):  # extend to the next power of two
            self._points = np.vstack([self._points, self._sobol.random(len(self._points))])
        rng = np.random.default_rng([self.seed, i])
        return self.make_spec(self._points[i], rng, int(rng.integers(2 ** 63)))

    def warmup_spec(self) -> dict:
        return self.make_spec(np.full(self.DIMS, 0.5), np.random.default_rng(2 ** 32), 2 ** 32)

    def make_spec(self, u: np.ndarray, rng: np.random.Generator, master: int) -> dict:
        raise NotImplementedError


class McPotential(Workload):
    """`estimate-potential` at (beta, alpha, d) = (0.5, 1.5, 3), Gaussian f
    with sigma = 1 at x = 0 and t_max = 50, plus the analytic potential;
    only the master seed changes from op to op.  The warm-up op uses fewer
    paths."""

    def make_spec(self, u, rng, master):
        return {"master": master, "paths": self.paths}

    def warmup_spec(self) -> dict:
        return {"master": 2 ** 32, "paths": WARMUP_MC_PATHS}

    @staticmethod
    def run(s: dict, tr) -> np.ndarray:
        params = ggbm.ModelParams(*MC_PARAMS)
        f = tr.test_function(green.gaussian_test_function(1.0, 3))
        x = np.zeros(3)
        spec = montecarlo.PerpetualSpec(t_max=MC_T_MAX, n_paths=s["paths"],
                                        seed=ggbm.SeedSpec(s["master"], 0))
        est = tr.call("montecarlo.estimate", montecarlo.estimate_potential_mc,
                      params, f, x, spec, threads=1)
        V = tr.call("green.potential", green.potential,
                    green.GreenDensity.from_params(params), f, x)
        return _floats(est.mean, est.std_error, est.tail_bound,
                       est.discretization_bound, V)

    @staticmethod
    def check(s: dict, out: np.ndarray) -> dict:
        return mc_gate(*out)


def mc_gate(mean, se, tail, disc, V) -> dict:
    """The headline identity |mean - V| <= 3 SE + tail + disc; returns the
    budget relative to V and its split."""
    _gate(np.all(np.isfinite([mean, se, tail, disc, V])), "non-finite estimate")
    _gate(V > 0.0, "analytic potential not positive")
    budget = 3.0 * se + tail + disc
    _gate(abs(mean - V) <= budget,
          f"|mean - V| = {abs(mean - V):.4g} exceeds budget {budget:.4g}")
    return {"budget_rel": budget / V, "se_share": 3.0 * se / budget,
            "tail_share": tail / budget, "disc_share": disc / budget}


# d = 3 ops take about 4x as long as d = 2 ops.  With 5 in 16 ops at d = 3
# and 2 in 16 at the Brownian point (also d = 3, but no M-Wright work), the
# latency median and p90 each fall inside one cluster rather than on the
# gap between the two.
BROWNIAN_SHARE = 2 / 16
D3_SHARE = 5 / 16


class AnalyticQueries(Workload):
    """A fresh (beta, alpha, d) over the admissible Green domain each op --
    beta in (0, 1], alpha in (1, 2], d in {2, 3}, or the Brownian point
    beta = alpha = 1, d = 3 -- with a random Gaussian f, point x, horizon,
    times and arguments."""

    DIMS = 9

    def make_spec(self, u, rng, master):
        if u[0] < BROWNIAN_SHARE:
            beta, alpha, d = 1.0, 1.0, 3
        else:
            beta, alpha = 1.0 - u[1], 2.0 - u[2]  # (0, 1] and (1, 2]
            d = 3 if u[0] < BROWNIAN_SHARE + D3_SHARE else 2
        direction = rng.standard_normal(d)
        center = 0.5 * rng.standard_normal(d)
        n_t = 2 + int(rng.integers(2))
        return dict(
            beta=beta, alpha=alpha, d=d,
            sigma=_log_uniform(u[3], 0.5, 2.0), center=center,
            x=center + 2.0 * u[4] * direction / np.linalg.norm(direction),
            t_max=_log_uniform(u[5], 10.0, 100.0),
            t=0.5 + 1.5 * u[6], y=rng.standard_normal(d),
            times=np.sort(rng.uniform(0.1, 2.0, n_t)),
            theta=rng.standard_normal((n_t, d)), k=rng.standard_normal((n_t, d)),
            z=-_log_uniform(u[7], 0.01, 50.0), tau=_log_uniform(u[8], 0.01, 5.0),
        )

    @staticmethod
    def run(s: dict, tr) -> np.ndarray:
        call, beta = tr.call, s["beta"]
        params = ggbm.ModelParams(beta, s["alpha"], s["d"])
        f = tr.test_function(green.gaussian_test_function(s["sigma"], s["d"],
                                                          center=s["center"]))
        D = call("specfun.green_constant", specfun.green_constant, beta, s["alpha"], s["d"])
        V = call("green.potential", green.potential,
                 green.GreenDensity.from_params(params), f, s["x"])
        tail = montecarlo.tail_bound(params, f, s["t_max"])
        dens = call("process.density", process.marginal_density, params, s["y"], s["t"])
        fdd = call("process.density", process.fdd_density, params, s["times"], s["theta"])
        cf = call("process.charfun", process.fdd_charfun, params, s["times"], s["k"])
        ml = specfun.mittag_leffler(beta, s["z"]).value
        mw = specfun.m_wright(beta, s["tau"]).value if beta < 1.0 else 0.0
        return _floats(D, V, tail, dens, fdd, cf, ml, mw)

    @staticmethod
    def check(s: dict, out: np.ndarray) -> None:
        D, V, tail, dens, fdd, cf, ml, mw = out
        _gate(np.all(np.isfinite(out)), "non-finite value")
        _gate(D > 0.0 and V >= 0.0 and tail >= 0.0, "negative constant, potential or tail")
        _gate(dens >= 0.0 and fdd >= 0.0 and mw >= 0.0, "negative density")
        _gate(0.0 < ml <= 1.0, f"E_beta = {ml:.6g} outside (0, 1]")
        _gate(0.0 <= cf <= 1.0, f"charfun = {cf:.6g} outside [0, 1]")


PATH_KINDS = ("ybeta", "fbm", "product", "subordinated")
CSV_SHARE = 1 / 8


class PathSampling(Workload):
    """What `ggbm sample` does: Y draws (2^10..2^16 per op), an fBm path, or
    a ggBm path by either construction, with steps log-uniform in 16..4096
    on [0, 1], d in 1..3, beta in (0, 1] and H = alpha/2 in (0, 1]; a fixed
    share of the paths is also written as CSV."""

    DIMS = 7

    def make_spec(self, u, rng, master):
        return dict(
            kind=PATH_KINDS[int(4 * u[0])],
            steps=int(round(_log_uniform(u[1], 16.0, 4096.0))),
            d=1 + int(3 * u[2]),
            beta=1.0 - u[3], hurst=1.0 - u[4],  # both in (0, 1]
            n=int(round(_log_uniform(u[5], 2.0 ** 10, 2.0 ** 16))),
            csv=bool(u[6] < CSV_SHARE), master=master,
        )

    @staticmethod
    def run(s: dict, tr):
        seed = ggbm.SeedSpec(s["master"], 0)
        if s["kind"] == "ybeta":
            return randvar.sample_y_beta_array(s["beta"], randvar.make_stream(seed), s["n"])
        grid = fbm.GridSpec(t_max=1.0, n_steps=s["steps"])
        if s["kind"] == "fbm":
            path = tr.call("fbm.generate", fbm.generate_fbm, s["hurst"], grid, s["d"], seed)
        else:
            params = ggbm.ModelParams(s["beta"], 2.0 * s["hurst"], s["d"])
            build = (process.ggbm_path_product if s["kind"] == "product"
                     else process.ggbm_path_subordinated)
            path = tr.call(f"process.path_{s['kind']}", build, params, grid, seed)
        csv = None
        if s["csv"]:
            buf = io.StringIO()
            tr.call("fbm.to_csv", path.to_csv, buf)
            csv = buf.getvalue()
        return path, csv

    @staticmethod
    def check(s: dict, out) -> None:
        if s["kind"] == "ybeta":
            _gate(out.shape == (s["n"],), f"shape {out.shape} != ({s['n']},)")
            bad = int(np.sum(~np.isfinite(out)))
            _gate(bad == 0, f"{bad} non-finite Y draws at beta = {s['beta']:.6g}")
            return
        path, csv = out
        shape = (s["steps"] + 1, s["d"])
        _gate(path.values.shape == shape and path.times.shape == shape[:1],
              f"shape {path.values.shape} != {shape}")
        _gate(np.all(np.isfinite(path.values)),
              f"non-finite path values at beta = {s['beta']:.6g}")
        _gate(np.all(path.values[0] == 0.0), "values[0] != 0")
        if csv is not None:
            _gate(csv.count("\n") == shape[0] + 1, "CSV row count")


def digest_bytes(out) -> bytes:
    """The bytes of an op's output that enter the run digest."""
    if isinstance(out, np.ndarray):
        return out.tobytes()
    path, csv = out
    return path.times.tobytes() + path.values.tobytes() + (csv or "").encode()


WORKLOADS = {"mc_potential": McPotential, "analytic_queries": AnalyticQueries,
             "path_sampling": PathSampling}
