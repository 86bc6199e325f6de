"""Command-line front end.

Subcommands: eval, sample, verify, estimate-potential.  Exit codes:
0 success, 1 verification failure, 2 usage, domain or numeric error.  JSON is the
machine contract; CSV is used only for path dumps.  GGBM_DEFAULT_SEED is
honored when --seed is absent.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import green as green_mod
from . import montecarlo as mc
from . import verify as verify_mod
from .exceptions import GgbmError
from .fbm import GridSpec, generate_fbm, write_table
from .model import ModelParams
from .process import fdd_charfun, marginal_density
from .randvar import SeedSpec, make_stream, sample_y_beta_array
from .specfun import green_constant, m_wright, mittag_leffler

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_DOMAIN = 2


def _default_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("GGBM_DEFAULT_SEED")
    return int(env) if env else 0


def _parse_vector(text: str, dim: int) -> np.ndarray:
    vals = [float(v) for v in text.split(",")] if text else []
    if not vals:
        return np.zeros(dim)
    if len(vals) != dim:
        raise GgbmError(f"expected {dim} components, got {len(vals)}")
    return np.asarray(vals)


def _emit(args, payload) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_eval(args) -> int:
    fn = args.function
    if fn == "ml":
        value = mittag_leffler(args.beta, args.z).value
    elif fn == "mwright":
        value = m_wright(args.beta, args.tau).value
    elif fn == "green-constant":
        value = green_constant(args.beta, args.alpha, args.dim)
    elif fn == "density":
        params = ModelParams(args.beta, args.alpha, args.dim)
        point = _parse_vector(args.point, args.dim)
        value = marginal_density(params, point, args.t)
    elif fn == "charfun":
        params = ModelParams(args.beta, args.alpha, args.dim)
        k = _parse_vector(args.k, args.dim)
        value = fdd_charfun(params, [args.t], k[None, :])
    else:  # pragma: no cover - argparse restricts choices
        raise GgbmError(f"unknown function {fn}")
    if args.format == "json":
        _emit(args, {"function": fn, "value": value})
    else:
        print(f"{value:.15g}")
    return EXIT_OK


def cmd_sample(args) -> int:
    seed = SeedSpec(_default_seed(args), 0)
    what = args.what
    target = args.out if args.out else sys.stdout
    if what == "ybeta":
        rng = make_stream(seed)
        ys = sample_y_beta_array(args.beta, rng, args.n)
        write_table(target, ys[:, None])
        return EXIT_OK
    grid = GridSpec(t_max=args.t_max, n_steps=args.steps)
    if what == "fbm":
        path = generate_fbm(args.hurst, grid, args.dim, seed)
    else:  # ggbm
        from .process import ggbm_path_product
        params = ModelParams(args.beta, args.alpha, args.dim)
        path = ggbm_path_product(params, grid, seed)
    path.to_csv(target)
    return EXIT_OK


def cmd_verify(args) -> int:
    report = verify_mod.run_suite(
        args.suite,
        beta=args.beta,
        alpha=args.alpha,
        dim=args.dim,
        paths=args.paths,
        seed=_default_seed(args),
        t_max=args.t_max,
        threads=args.threads,
    )
    _emit(args, report)
    return EXIT_OK if report["pass"] else EXIT_VERIFY_FAILED


def cmd_estimate_potential(args) -> int:
    params = ModelParams(args.beta, args.alpha, args.dim)
    f = green_mod.gaussian_test_function(args.sigma, args.dim)
    x = _parse_vector(args.x, args.dim)
    spec = mc.PerpetualSpec(t_max=args.t_max, n_paths=args.paths,
                            seed=SeedSpec(_default_seed(args), 0))
    est = mc.estimate_potential_mc(params, f, x, spec, threads=args.threads)
    payload = est.to_dict(params=params, f=f, x=x)
    gd = green_mod.GreenDensity.from_params(params)
    payload["analytic_potential"] = green_mod.potential(gd, f, x)
    payload["budget"] = est.budget
    _emit(args, payload)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ggbm",
        description="Generalized grey Brownian motion toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, paths_default=20_000):
        p.add_argument("--beta", type=float, default=0.5)
        p.add_argument("--alpha", type=float, default=1.5)
        p.add_argument("--dim", type=int, default=3)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--paths", type=int, default=paths_default)
        p.add_argument("--t-max", dest="t_max", type=float, default=50.0)
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--out", default=None)

    p_eval = sub.add_parser("eval", help="evaluate a scalar quantity")
    p_eval.add_argument("function",
                        choices=("ml", "mwright", "green-constant",
                                 "density", "charfun"))
    p_eval.add_argument("--beta", type=float, default=0.5)
    p_eval.add_argument("--alpha", type=float, default=1.5)
    p_eval.add_argument("--dim", type=int, default=3)
    p_eval.add_argument("--z", type=float, default=-1.0)
    p_eval.add_argument("--tau", type=float, default=1.0)
    p_eval.add_argument("--t", type=float, default=1.0)
    p_eval.add_argument("--point", default="")
    p_eval.add_argument("--k", default="")
    p_eval.add_argument("--out", default=None)
    p_eval.add_argument("--format", choices=("json", "text"), default="text")
    p_eval.set_defaults(func=cmd_eval)

    p_sample = sub.add_parser("sample", help="draw samples or paths to CSV")
    p_sample.add_argument("what", choices=("ybeta", "fbm", "ggbm"))
    p_sample.add_argument("--beta", type=float, default=0.5)
    p_sample.add_argument("--alpha", type=float, default=1.5)
    p_sample.add_argument("--hurst", type=float, default=0.5)
    p_sample.add_argument("--dim", type=int, default=1)
    p_sample.add_argument("--steps", type=int, default=1024)
    p_sample.add_argument("--t-max", dest="t_max", type=float, default=1.0)
    p_sample.add_argument("-n", type=int, default=10)
    p_sample.add_argument("--seed", type=int, default=None)
    p_sample.add_argument("--out", default=None)
    p_sample.set_defaults(func=cmd_sample)

    p_verify = sub.add_parser("verify", help="run an identity suite")
    p_verify.add_argument("suite", choices=sorted(verify_mod.SUITES))
    common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_est = sub.add_parser("estimate-potential",
                           help="Monte Carlo perpetual-integral estimate")
    common(p_est, paths_default=100_000)
    p_est.add_argument("--sigma", type=float, default=1.0)
    p_est.add_argument("--x", default="")
    p_est.set_defaults(func=cmd_estimate_potential)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GgbmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (OSError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
