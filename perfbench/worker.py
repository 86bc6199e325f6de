"""One pass of a workload in a fresh interpreter, so that ggbm's caches
(M-Wright rules, Cholesky factors) start equally cold in every pass.

    python3 perfbench/worker.py '<json options>'

Prints one JSON line.  Options: root (ggbm is imported from <root>/src),
workload, seed, mc_paths, first_op, stop_op, traced, and spans (the file
the traced pass writes its spans to).

After the warm-up op, a pass runs ops first_op, ..., stop_op - 1 in a
closed loop, so
the same options give the same ops whatever the machine's speed.  The
digest hashes the output, or the error, of every op.  Every time
reported is raw and per op (op latency; wall and CPU time of the whole
iteration, with spec, gate and hashing); the reference-kernel times taken
between ops (see reference.py) are reported beside them and are not part
of any iteration.
"""

import time

T0 = time.perf_counter()  # before any import this process pays for

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def main() -> int:
    opts = json.loads(sys.argv[1])
    import ggbm
    import_s = time.perf_counter() - T0
    src = os.path.realpath(os.path.join(opts["root"], "src", "ggbm"))
    if os.path.dirname(os.path.realpath(ggbm.__file__)) != src:
        print(f"ggbm imported from {ggbm.__file__}, not {src}", file=sys.stderr)
        return 2

    import hashlib
    import statistics

    import numpy as np

    import reference
    from spans import NullTracer, Tracer
    from workloads import WORKLOADS, GateError, digest_bytes

    # numerical failures of ggbm and failed gates; anything else means the
    # benchmark no longer matches the program
    numeric = (ggbm.GgbmError, ArithmeticError, ValueError, GateError)
    wl = WORKLOADS[opts["workload"]](opts["seed"], opts["mc_paths"])
    tr = Tracer() if opts["traced"] else NullTracer()
    if opts["traced"]:
        # wrap before the warm-up, so the traced pass makes the same calls
        # as an untraced one; the warm-up's spans are dropped below
        tr.install(ggbm)
    try:
        wl.run(wl.warmup_spec(), tr)
    except numeric:
        pass  # the warm-up only fills caches; a failure there is not measured
    setup_s = time.perf_counter() - T0
    refs = [reference.kernel_s() for _ in range(reference.WINDOW)]
    out = {"import_s": import_s, "setup_s": setup_s, "setup_ref_s": statistics.median(refs)}
    if opts["traced"]:
        tr.reset()

    digest = hashlib.sha256()
    lat, iter_s, iter_cpu_s, op_t, mc, errors, failed, unexpected = [], [], [], [], [], {}, 0, 0
    ref_t = [time.perf_counter()] * len(refs)
    for i in range(opts["first_op"], opts["stop_op"]):
        if time.perf_counter() - ref_t[-1] >= reference.EVERY_S:
            refs.append(reference.kernel_s())
            ref_t.append(time.perf_counter())
        c0, t0 = time.process_time(), time.perf_counter()
        s = wl.spec(i)
        t = time.perf_counter()
        res = None
        try:
            res = tr.call("op", wl.run, s, tr)
            lat.append(time.perf_counter() - t)
            stats = wl.check(s, res)
            if stats:
                mc.append(stats)
            failure = b""
        except Exception as exc:  # one op's failure is counted and the run goes on
            if len(lat) < len(iter_s) + 1:
                lat.append(time.perf_counter() - t)
            key = type(exc).__name__
            if key not in errors:
                traceback.print_exc(file=sys.stderr)
            errors[key] = errors.get(key, 0) + 1
            failed += 1
            unexpected += not isinstance(exc, numeric)
            failure = f"{key}: {exc}".encode()
        digest.update(digest_bytes(res) if res is not None else b"")
        digest.update(failure)
        iter_s.append(time.perf_counter() - t0)
        iter_cpu_s.append(time.process_time() - c0)
        op_t.append((t0, t0 + iter_s[-1]))
    refs.append(reference.kernel_s())
    ref_t.append(time.perf_counter())
    op_ref = reference.op_medians(op_t, ref_t, refs)
    out.update(ops=len(iter_s), wall_s=sum(iter_s), cpu_s=sum(iter_cpu_s), latencies=lat,
               iter_s=iter_s, iter_cpu_s=iter_cpu_s, op_ref_s=op_ref, ref_s=refs,
               failed=failed, errors=errors, unexpected=unexpected, digest=digest.hexdigest(),
               mc=mc, peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if opts["traced"]:
        tr.uninstall()
        np.savez_compressed(opts["spans"], **tr.arrays())
        out.update(spans=tr.summary(), counts=dict(tr.counts))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
