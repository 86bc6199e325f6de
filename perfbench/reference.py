"""A fixed reference kernel that tracks how fast this machine runs right now.

On a shared host the same work can take 25 % longer for tens of seconds
at a time, which no median inside one run removes.  Each pass therefore
times this kernel between ops, and run.py scales the pass's times by
REFERENCE_S / (kernel time): times are reported at the speed at which the
kernel takes REFERENCE_S.  The kernel uses no ggbm code, and no BLAS call
large enough to use more than one thread, so no change to ggbm, and no
BLAS thread setting, can move it.
"""

import math
import time

import numpy as np

REFERENCE_S = 0.002  # the kernel's median time on the 2-core box the bounds were set on
EVERY_S = 0.25  # a pass times the kernel before an op once this long has passed
WINDOW = 11  # kernel times taken right after set-up
# an op is scaled by the kernel times taken this close to it; the 2 ms
# kernel is itself preempted now and then, and a median over the four or
# more runs this reaches (at least one per 0.8 s mc_potential op) keeps
# that noise out of the scale factors and so out of the latency tail
REACH_S = 1.5

_X = np.linspace(0.1, 4.0, 4096)
_A = np.random.default_rng(0).standard_normal((48, 48))


def kernel_s() -> float:
    """Seconds the reference kernel takes now: interpreter arithmetic plus
    small numpy elementwise, FFT and matrix work."""
    t = time.perf_counter()
    s = 0.0
    for i in range(20_000):
        s += math.sqrt(i)
    for _ in range(8):
        np.sum(np.exp(-_X) * np.sqrt(_X))
        np.fft.rfft(_X)
        _A @ _A
    return time.perf_counter() - t



def op_medians(op_t, ref_t, refs) -> list[float]:
    """For each op (start, end), the median kernel time over the kernel runs
    that ended within REACH_S of it, or the nearest one if none did."""
    ref_t, refs = np.asarray(ref_t), np.asarray(refs)
    out = []
    for start, end in op_t:
        lo, hi = np.searchsorted(ref_t, [start - REACH_S, end + REACH_S])
        if lo == hi:
            lo = min(int(np.searchsorted(ref_t, start)), len(refs) - 1)
            hi = lo + 1
        out.append(float(np.median(refs[lo:hi])))
    return out
