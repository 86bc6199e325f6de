"""Command-line front end.

Subcommands: eval, sample, verify, estimate-potential.  Each leaf command
(an eval function, a sample kind, a verify suite, estimate-potential) is a
function whose parameters are its options, `--t-max` for `t_max` and `-n`
for `n`, typed by their defaults; `ggbm eval <function> --help` lists them.
Options follow the leaf's name, an option the leaf does not read is a usage
error, and a leaf is passed only the options given.  A leaf that takes a
seed gets GGBM_DEFAULT_SEED when --seed is absent.  Every leaf writes its
result, text, JSON or CSV, to --out when given and to stdout otherwise.
Exit codes: 0 success, 1 verification failure, 2 usage, domain or numeric
error.  JSON is the machine contract; CSV is used only for path dumps.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import json
import os
import sys

import numpy as np

from . import green as green_mod
from . import montecarlo as mc
from . import verify as verify_mod
from .exceptions import GgbmError
from .fbm import GridSpec, Path, generate_fbm, write_table
from .model import ModelParams
from .process import fdd_charfun, ggbm_path_product, marginal_density
from .randvar import SeedSpec, make_stream, sample_y_beta_array
from .specfun import green_constant, m_wright, mittag_leffler

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_DOMAIN = 2


def _parse_vector(text: str, dim: int) -> np.ndarray:
    vals = [float(v) for v in text.split(",")] if text else []
    if not vals:
        return np.zeros(dim)
    if len(vals) != dim:
        raise GgbmError(f"expected {dim} components, got {len(vals)}")
    return np.asarray(vals)


def eval_ml(beta=0.5, z=-1.0):
    """The Mittag-Leffler function E_beta(z)."""
    return mittag_leffler(beta, z).value


def eval_mwright(beta=0.5, tau=1.0):
    """The M-Wright density M_beta(tau)."""
    return m_wright(beta, tau).value


def eval_green_constant(beta=0.5, alpha=1.5, dim=3):
    """The constant D of the Green measure D |x|^(2/alpha - d) dx."""
    return green_constant(beta, alpha, dim)


def eval_density(beta=0.5, alpha=1.5, dim=3, point="", t=1.0):
    """The density of B(t) at a comma-separated point (default the origin)."""
    return marginal_density(ModelParams(beta, alpha, dim), _parse_vector(point, dim), t)


def eval_charfun(beta=0.5, alpha=1.5, dim=3, k="", t=1.0):
    """E[exp(i k . B(t))] at a comma-separated k (default 0)."""
    return fdd_charfun(ModelParams(beta, alpha, dim), [t], _parse_vector(k, dim)[None, :])


def sample_ybeta(beta=0.5, n=10, seed=0):
    """n draws of Y_beta, whose density is M_beta, one per line."""
    return sample_y_beta_array(beta, make_stream(SeedSpec(seed, 0)), n)[:, None]


def sample_fbm(hurst=0.5, dim=1, steps=1024, t_max=1.0, seed=0):
    """A d-dimensional fBm path on a uniform grid, as t,x1,...,xd rows."""
    return generate_fbm(hurst, GridSpec(t_max, steps), dim, SeedSpec(seed, 0))


def sample_ggbm(beta=0.5, alpha=1.5, dim=1, steps=1024, t_max=1.0, seed=0):
    """A path of B = sqrt(Y_beta) B_(alpha/2) on a uniform grid, as
    t,x1,...,xd rows."""
    return ggbm_path_product(ModelParams(beta, alpha, dim), GridSpec(t_max, steps),
                             SeedSpec(seed, 0))


def _suite(name: str):
    """The verify leaf of a suite: the suite's signature and docstring,
    run_suite's report."""
    @functools.wraps(verify_mod.SUITES[name])
    def leaf(**options):
        return verify_mod.run_suite(name, **options)
    return leaf


def estimate_potential(beta=0.5, alpha=1.5, dim=3, seed=0, paths=100_000, t_max=50.0,
                       threads=1, sigma=1.0, x=""):
    """Monte Carlo estimate of the perpetual integral of a Gaussian of width
    sigma from a comma-separated x (default the origin), with its error
    budget and the analytic potential."""
    params = ModelParams(beta, alpha, dim)
    f = green_mod.gaussian_test_function(sigma, dim)
    x = _parse_vector(x, dim)
    spec = mc.PerpetualSpec(t_max=t_max, n_paths=paths, seed=SeedSpec(seed, 0))
    est = mc.estimate_potential_mc(params, f, x, spec, threads=threads)
    payload = est.to_dict(params=params, f=f, x=x)
    gd = green_mod.GreenDensity.from_params(params)
    payload["analytic_potential"] = green_mod.potential(gd, f, x)
    payload["budget"] = est.budget
    return payload


EVAL = {"ml": eval_ml, "mwright": eval_mwright, "green-constant": eval_green_constant,
        "density": eval_density, "charfun": eval_charfun}
SAMPLE = {"ybeta": sample_ybeta, "fbm": sample_fbm, "ggbm": sample_ggbm}


def _add_leaf(parsers, name: str, leaf, **kwargs) -> argparse.ArgumentParser:
    """A sub-parser whose options are the leaf's parameters, each absent
    from the namespace unless given, and --out."""
    parser = parsers.add_parser(name, description=leaf.__doc__, **kwargs)
    for param in inspect.signature(leaf).parameters.values():
        flag = "-n" if param.name == "n" else "--" + param.name.replace("_", "-")
        parser.add_argument(flag, type=type(param.default), default=argparse.SUPPRESS,
                            help=f"default {param.default!r}")
    parser.add_argument("--out", default=None)
    parser.set_defaults(leaf=leaf)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ggbm",
        description="Generalized grey Brownian motion toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    suites = {name: _suite(name) for name in verify_mod.SUITES}
    for command, dest, help_, leaves in (
            ("eval", "function", "evaluate a scalar quantity", EVAL),
            ("sample", "what", "draw samples or paths to CSV", SAMPLE),
            ("verify", "suite", "run an identity suite", suites)):
        parsers = commands.add_parser(command, help=help_).add_subparsers(dest=dest,
                                                                          required=True)
        for name, leaf in leaves.items():
            p_leaf = _add_leaf(parsers, name, leaf)
            if command == "eval":
                p_leaf.add_argument("--format", choices=("json", "text"), default="text")
    _add_leaf(commands, "estimate-potential", estimate_potential,
              help="Monte Carlo perpetual-integral estimate")
    return parser


def _emit(result, args) -> None:
    """Write a leaf's result to --out, else stdout: a path or a table as CSV,
    a report as JSON, an eval value as text or JSON."""
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        if isinstance(result, Path):
            result.to_csv(fh)
        elif isinstance(result, np.ndarray):
            write_table(fh, result)
        elif isinstance(result, dict):
            fh.write(json.dumps(result, indent=2) + "\n")
        elif args.format == "json":
            fh.write(json.dumps({"function": args.function, "value": result}, indent=2) + "\n")
        else:
            fh.write(f"{result:.15g}\n")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    names = inspect.signature(args.leaf).parameters
    options = {name: value for name, value in vars(args).items() if name in names}
    try:
        if "seed" in names and os.environ.get("GGBM_DEFAULT_SEED"):
            options.setdefault("seed", int(os.environ["GGBM_DEFAULT_SEED"]))
        result = args.leaf(**options)
        _emit(result, args)
    except (GgbmError, OSError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    failed = isinstance(result, dict) and not result.get("pass", True)
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
