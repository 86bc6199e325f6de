"""Per-layer tracing of ggbm from outside the package.

A traced run records spans (name, start, end, parent) in memory at two
kinds of boundary: the benchmark's own calls into ggbm (``Tracer.call``),
and the names that ggbm modules look up at call time, which ``install``
replaces with timed wrappers.  Normal draws are timed through a
forwarding proxy for the Generator that ``make_stream`` returns, and f
evaluation through a timed ``eval_many`` on the benchmark's TestFunction.
Each span name starts with its layer: specfun, randvar, fbm, process,
green, montecarlo (or ``op`` for the benchmark's own op span).

Counts that depend only on array shapes (GEMM flops and bytes, f points,
draws) are computed from the arguments, not measured.
"""

from __future__ import annotations

import dataclasses
import time
from collections import defaultdict

import numpy as np


class NullTracer:
    """The untraced run: calls go straight through."""

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @staticmethod
    def test_function(f):
        return f


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack = [-1]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._saved: list[tuple] = []

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start[idx] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def reset(self) -> None:
        """Drop the spans and counts so far."""
        for rec in (self.names, self.start, self.end, self.parent):
            rec.clear()
        self.counts.clear()

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount

    def test_function(self, f):
        def eval_many(pts, _inner=f.eval_many):
            self.count("green.f_eval.points", len(pts))
            return self.call("green.f_eval", _inner, pts)
        return dataclasses.replace(f, eval_many=eval_many)

    # -- wrappers for names ggbm looks up at call time ----------------------

    def install(self, ggbm) -> None:
        """Replace the module attributes ggbm's own functions call through."""
        fbm, mc, process, randvar, specfun = (ggbm.fbm, ggbm.montecarlo, ggbm.process,
                                              ggbm.randvar, ggbm.specfun)

        def sample_fbm_batch(hurst, times, dim, n_paths, rng, _f=mc.sample_fbm_batch):
            if hurst != 1.0:
                m = len(times)
                self.count("fbm.gemm.flop", 2.0 * n_paths * dim * m * m)
                self.count("fbm.gemm.byte", 8.0 * (2 * n_paths * dim * m + m * m))
            return self.call("fbm.batch", _f, hurst, times, dim, n_paths, rng)

        def y_draws(_f):
            def sample_y_beta_array(beta, rng, n):
                y = self.call("randvar.y_draw", _f, beta, rng, n)
                self.count("randvar.y_draws", n)
                self.count("randvar.y_bad", int(np.sum(~np.isfinite(y) | (y == 0.0))))
                return y
            return sample_y_beta_array

        def spanned(name, _f):
            return lambda *args: self.call(name, _f, *args)

        # cache builds and hits are read from ggbm's own caches, so no
        # result is kept alive beyond ggbm's own eviction
        def factor(hurst, times, _f=fbm.fbm_cholesky_factor):
            hit = (hurst, np.asarray(times, dtype=float).tobytes()) in fbm._factor_cache
            self.count("fbm.factor." + ("hits" if hit else "builds"))
            return self.call("fbm.factor", _f, hurst, times)

        def rule(*args, _f=specfun.m_wright_quad_rule):
            info = specfun._mw_rule_cached.cache_info
            misses = info().misses
            try:
                return self.call("specfun.mw_rule", _f, *args)
            finally:
                self.count("specfun.mw_rule.builds", info().misses - misses)

        def branch_counted(name, _f):
            def wrapper(*args):
                res = self.call(name, _f, *args)
                self.count(name + ".calls")
                self.count(name + ".integral", res.terms_used == 0)
                return res
            return wrapper

        def stream(_f):
            def make_stream(seed):
                self.count("randvar.streams")
                return TimedGenerator(self, self.call("randvar.stream", _f, seed))
            return make_stream

        y = y_draws(randvar.sample_y_beta_array)
        ms = stream(randvar.make_stream)
        self._patch(mc, "sample_fbm_batch", sample_fbm_batch)
        self._patch(mc, "tail_bound", spanned("montecarlo.tail_bound", mc.tail_bound))
        self._patch(fbm, "fbm_cholesky_factor", factor)
        self._patch(specfun, "m_wright", branch_counted("specfun.m_wright", specfun.m_wright))
        ml = branch_counted("specfun.mittag_leffler", specfun.mittag_leffler)
        for mod in (mc, process, randvar):
            self._patch(mod, "sample_y_beta_array", y)
        for mod in (mc, process):
            self._patch(mod, "m_wright_quad_rule", rule)
        for mod in (process, specfun):
            self._patch(mod, "mittag_leffler", ml)
        for mod in (mc, process, fbm, randvar):
            self._patch(mod, "make_stream", ms)

    def _patch(self, mod, attr, new) -> None:
        self._saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, new)

    def uninstall(self) -> None:
        for mod, attr, old in reversed(self._saved):
            setattr(mod, attr, old)
        self._saved.clear()

    # -- results ------------------------------------------------------------

    def arrays(self) -> dict:
        return {"names": np.array(self.names), "start": np.array(self.start),
                "end": np.array(self.end), "parent": np.array(self.parent, dtype=np.int64)}

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds (total minus
        the time its child spans cover)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        selftime = dur - child
        names, inv = np.unique(a["names"], return_inverse=True)
        calls = np.bincount(inv, minlength=len(names))
        total = np.bincount(inv, weights=dur, minlength=len(names))
        self_s = np.bincount(inv, weights=selftime, minlength=len(names))
        return {str(n): {"calls": int(c), "s": float(t), "self_s": float(s)}
                for n, c, t, s in zip(names, calls, total, self_s)}


class TimedGenerator:
    """Forwards to a numpy Generator, timing and counting normal draws."""

    __slots__ = ("_tracer", "_gen")

    def __init__(self, tracer: Tracer, gen: np.random.Generator):
        self._tracer, self._gen = tracer, gen

    def standard_normal(self, *args, **kwargs):
        out = self._tracer.call("randvar.normal_draw", self._gen.standard_normal, *args, **kwargs)
        self._tracer.count("randvar.normal_draws", np.size(out))
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)
