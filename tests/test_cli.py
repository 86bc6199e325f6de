"""Command-line interface tests: exit codes, formats, reproducibility."""

import argparse
import functools
import inspect
import json
import math
import subprocess
import sys

import numpy as np
import pytest

import ggbm.cli
from ggbm import verify
from ggbm.cli import build_parser, main
from ggbm.randvar import SeedSpec, make_stream, sample_y_beta_array

CLI = [sys.executable, "-m", "ggbm.cli"]


def run_cli(args, env=None):
    import os
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(CLI + args, capture_output=True, text=True,
                          env=full_env)


def test_import_does_not_load_scipy_stats():
    """scipy.stats and scipy.integrate are loaded only by the code that
    needs them, not at CLI start."""
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, ggbm.cli; "
         "print('scipy.stats' in sys.modules, 'scipy.integrate' in sys.modules)"],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False False"


def test_gaussian_estimate_does_not_load_scipy_integrate(tmp_path):
    """A Gaussian's estimate and potential are closed forms and Monte Carlo:
    estimate-potential runs no numerical quadrature and does not load
    scipy.integrate."""
    out = tmp_path / "est.json"
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys; from ggbm.cli import main; "
         f"main(['estimate-potential', '--paths', '256', '--seed', '0', '--out', {str(out)!r}]); "
         "print('scipy.integrate' in sys.modules)"],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
    assert json.loads(out.read_text())["n_paths"] == 256


def test_eval_ml_text(capsys):
    assert main(["eval", "ml", "--beta", "1.0", "--z", "-1.0"]) == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_eval_green_constant_brownian(capsys):
    assert main(["eval", "green-constant", "--beta", "1.0",
                 "--alpha", "1.0", "--dim", "3"]) == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-12)


def test_eval_mwright_json(capsys):
    assert main(["eval", "mwright", "--beta", "0.5", "--tau", "1.0",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["function"] == "mwright"
    assert payload["value"] == pytest.approx(
        math.exp(-0.25) / math.sqrt(math.pi), rel=1e-8)


def test_eval_density_and_charfun(capsys):
    assert main(["eval", "density", "--beta", "1.0", "--alpha", "1.0",
                 "--dim", "1", "--point", "0", "--t", "1.0"]) == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == pytest.approx((2.0 * math.pi) ** -0.5, rel=1e-12)
    assert main(["eval", "charfun", "--beta", "1.0", "--alpha", "1.0",
                 "--dim", "1", "--k", "1.0", "--t", "1.0"]) == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == pytest.approx(math.exp(-0.5), rel=1e-12)


@pytest.mark.parametrize("args", [["charfun", "--k", "1e200"], ["density", "--point", "1e200"]])
def test_eval_overflowing_form_prints_zero(args, capsys):
    """A k or a point whose quadratic form overflows gives the limit 0."""
    assert main(["eval"] + args + ["--dim", "1"]) == 0
    assert float(capsys.readouterr().out) == 0.0


def test_eval_out_writes_the_text_value(tmp_path, capsys):
    """--out takes the text value that stdout shows without it, where eval
    wrote to --out only under --format json."""
    args = ["eval", "ml", "--beta", "0.5", "--z", "-1"]
    assert main(args) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "ml.txt"
    assert main(args + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == printed == "0.427583576155807\n"


def test_eval_domain_error_exit_code(capsys):
    assert main(["eval", "green-constant", "--beta", "0.5",
                 "--alpha", "1.5", "--dim", "1"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["ml", "--z=-inf"], ["ml", "--z", "nan"],
                                  ["mwright", "--tau", "nan"],
                                  ["charfun", "--t", "nan", "--dim", "1", "--k", "1"]])
def test_eval_non_finite_argument_exit_code(args, capsys):
    assert main(["eval"] + args) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["moments", "laplace", "representation"])
@pytest.mark.parametrize("paths", ["0", "1"])
def test_verify_too_few_paths_exit_code(suite, paths, capsys):
    assert main(["verify", suite, "--paths", paths]) == 2
    assert "at least 2 paths" in capsys.readouterr().err


def test_eval_numeric_error_exit_code(capsys):
    """M_beta in the band (0.999, 1) is the rule's DomainError, where the
    peak of Kanter's integrand at tau just below 1 lay past its theta rule
    and raised a ConvergenceError."""
    assert main(["eval", "mwright", "--beta", "0.999999", "--tau", "0.999"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "(0.999, 1)" in captured.err


@pytest.mark.parametrize("cmd", [["estimate-potential", "--paths", "64"],
                                 ["sample", "fbm", "--steps", "8"]])
@pytest.mark.parametrize("t_max", ["nan", "inf"])
def test_non_finite_t_max_exit_code(cmd, t_max, capsys):
    """A NaN or infinite --t-max is a DomainError naming t_max, where
    estimate-potential printed "cannot convert float NaN to integer"."""
    assert main(cmd + ["--t-max", t_max]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "t_max" in captured.err


@pytest.mark.parametrize("t_max", ["1e300", "1e308"])
def test_huge_t_max_exit_code(t_max, capsys):
    """A t_max whose clock or t_max^alpha overflows is a DomainError naming
    t_max, where 1e300 printed a NaN mean with a budget of 0 and 1e308
    "cannot convert float infinity to integer"."""
    assert main(["estimate-potential", "--paths", "256", "--seed", "1", "--t-max", t_max]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "t_max" in captured.err


def test_eval_ml_in_the_band_is_domain_error(capsys):
    """E_beta in the band (0.999, 1) is a DomainError that names the band,
    where the spectral integral printed 1.254e-9 for 9.167e-6."""
    assert main(["eval", "ml", "--beta", "0.9999999889", "--z", "-11.6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "(0.999, 1)" in captured.err


def test_sample_ybeta_reproducible(tmp_path):
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    assert main(["sample", "ybeta", "--beta", "0.5", "-n", "20",
                 "--seed", "9", "--out", str(out1)]) == 0
    assert main(["sample", "ybeta", "--beta", "0.5", "-n", "20",
                 "--seed", "9", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    vals = [float(v) for v in out1.read_text().split()]
    assert len(vals) == 20
    assert all(v > 0.0 for v in vals)


_YBETA_EDGES = [-0.0, 5e-324, 1e-300, 1e308, 0.5, 2.0 / 3.0]


@pytest.mark.parametrize("to_file", [False, True], ids=["stream", "file"])
@pytest.mark.parametrize("values", ["draws", "edges", "empty"])
def test_sample_ybeta_bytes_match_per_value_writer(values, to_file, tmp_path,
                                                   capsys, monkeypatch):
    """`sample ybeta` writes the bytes of one f-string per value, the
    reference kept here: on real draws, on edge values (-0.0, the smallest
    subnormal, a tiny and a huge normal) and on an empty sample, whose
    output is one newline."""
    n = {"draws": 300, "edges": len(_YBETA_EDGES), "empty": 0}[values]
    if values == "edges":
        monkeypatch.setattr(ggbm.cli, "sample_y_beta_array",
                            lambda beta, rng, n: np.array(_YBETA_EDGES))
        ys = np.array(_YBETA_EDGES)
    else:
        ys = sample_y_beta_array(0.7, make_stream(SeedSpec(5, 0)), n)
    args = ["sample", "ybeta", "--beta", "0.7", "-n", str(n), "--seed", "5"]
    out = tmp_path / "y.txt"
    assert main(args + (["--out", str(out)] if to_file else [])) == 0
    text = out.read_bytes().decode() if to_file else capsys.readouterr().out
    assert text == "\n".join(f"{y:.17g}" for y in ys) + "\n"


def test_sample_fbm_csv_shape(tmp_path):
    out = tmp_path / "path.csv"
    assert main(["sample", "fbm", "--hurst", "0.7", "--dim", "2",
                 "--steps", "16", "--t-max", "2.0", "--seed", "1",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,x1,x2"
    assert len(lines) == 18
    first = lines[1].split(",")
    assert float(first[0]) == 0.0


def test_sample_ggbm_csv(tmp_path):
    out = tmp_path / "g.csv"
    assert main(["sample", "ggbm", "--beta", "0.5", "--alpha", "1.5",
                 "--dim", "1", "--steps", "8", "--t-max", "1.0",
                 "--seed", "4", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,x1"
    assert len(lines) == 10


def test_sample_ybeta_negative_count_exit_code(capsys):
    """A negative -n is a DomainError naming n, where numpy's "negative
    dimensions are not allowed" was printed."""
    assert main(["sample", "ybeta", "-n", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "n >= 0, got n = -1" in captured.err


def test_default_seed_env(tmp_path):
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    r1 = run_cli(["sample", "ybeta", "-n", "5", "--out", str(out1)],
                 env={"GGBM_DEFAULT_SEED": "123"})
    r2 = run_cli(["sample", "ybeta", "--seed", "123", "-n", "5",
                  "--out", str(out2)])
    assert r1.returncode == 0 and r2.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_specfun_passes(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "specfun", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["suite"] == "specfun"
    assert report["pass"] is True
    assert all(c["pass"] for c in report["checks"])


def test_verify_representation_beta_one_passes(tmp_path):
    """At beta = 1 the analytic marginal is Gaussian."""
    out = tmp_path / "report.json"
    assert main(["verify", "representation", "--beta", "1",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["pass"] is True


def test_verify_unknown_suite_usage_error():
    result = run_cli(["verify", "nonsense"])
    assert result.returncode == 2


def _subparsers(parser):
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("suite", list(verify.SUITES))
def test_verify_options_are_the_suite_signature(suite):
    """`verify <suite>` offers the suite's parameters and --out, nothing else."""
    parsers = _subparsers(_subparsers(build_parser())["verify"])
    assert list(parsers) == list(verify.SUITES)
    options = {o for a in parsers[suite]._actions for o in a.option_strings}
    names = inspect.signature(verify.SUITES[suite]).parameters
    assert options - {"-h", "--help"} == {"--" + n.replace("_", "-") for n in names} | {"--out"}


@pytest.mark.parametrize("suite", list(verify.SUITES))
def test_verify_passes_only_the_options_given(suite, monkeypatch, tmp_path):
    """With no options a suite runs at its own defaults; GGBM_DEFAULT_SEED
    supplies only the seed, and only to a suite that takes one."""
    calls = []

    @functools.wraps(verify.SUITES[suite])
    def recorder(**kwargs):
        calls.append(kwargs)
        return []

    monkeypatch.setitem(verify.SUITES, suite, recorder)
    monkeypatch.delenv("GGBM_DEFAULT_SEED", raising=False)
    out = str(tmp_path / "report.json")
    assert main(["verify", suite, "--out", out]) == 0
    monkeypatch.setenv("GGBM_DEFAULT_SEED", "7")
    assert main(["verify", suite, "--out", out]) == 0
    takes_seed = "seed" in inspect.signature(recorder).parameters
    assert calls == [{}, {"seed": 7} if takes_seed else {}]


def test_verify_report_equals_run_suite(tmp_path):
    """The CLI's report is run_suite's at the suite's own defaults."""
    out = tmp_path / "report.json"
    assert main(["verify", "charfun", "--paths", "2000", "--out", str(out)]) == 0
    expected = json.dumps(verify.run_suite("charfun", paths=2000), indent=2) + "\n"
    assert out.read_text() == expected


@pytest.mark.parametrize("args", [["specfun", "--paths", "5"], ["laplace", "--dim", "2"],
                                  ["charfun", "--threads", "2"]])
def test_verify_option_the_suite_does_not_read_usage_error(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify"] + args)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: " + " ".join(args[1:]) in captured.err


_LEAVES = ([("eval", name) for name in ggbm.cli.EVAL]
           + [("sample", name) for name in ggbm.cli.SAMPLE]
           + [("estimate-potential", None)])


def _leaf_parser(command, name):
    parser = _subparsers(build_parser())[command]
    return parser if name is None else _subparsers(parser)[name]


@pytest.mark.parametrize("command, name", _LEAVES)
def test_leaf_options_are_its_signature(command, name):
    """Each eval function, sample kind and estimate-potential offers its
    function's parameters and --out (and --format on eval), nothing else."""
    parser = _leaf_parser(command, name)
    leaf = parser.get_default("leaf")
    if name is None:
        assert leaf is ggbm.cli.estimate_potential
    else:
        assert leaf is {"eval": ggbm.cli.EVAL, "sample": ggbm.cli.SAMPLE}[command][name]
    options = {o for a in parser._actions for o in a.option_strings}
    names = inspect.signature(leaf).parameters
    expected = {"-n" if n == "n" else "--" + n.replace("_", "-") for n in names} | {"--out"}
    assert options - {"-h", "--help"} == expected | ({"--format"} if command == "eval" else set())


@pytest.mark.parametrize("command, name", _LEAVES)
def test_leaf_passes_only_the_options_given(command, name, monkeypatch, tmp_path):
    """With no options a leaf runs at its own defaults; GGBM_DEFAULT_SEED
    supplies only the seed, and only to a leaf that takes one."""
    leaf = _leaf_parser(command, name).get_default("leaf")
    calls = []
    result = {"eval": 0.0, "sample": np.zeros((1, 1))}.get(command, {})

    @functools.wraps(leaf)
    def recorder(**kwargs):
        calls.append(kwargs)
        return result

    if name is None:
        monkeypatch.setattr(ggbm.cli, "estimate_potential", recorder)
    else:
        monkeypatch.setitem({"eval": ggbm.cli.EVAL, "sample": ggbm.cli.SAMPLE}[command],
                            name, recorder)
    monkeypatch.delenv("GGBM_DEFAULT_SEED", raising=False)
    argv = [command] + ([name] if name else []) + ["--out", str(tmp_path / "out")]
    assert main(argv) == 0
    monkeypatch.setenv("GGBM_DEFAULT_SEED", "7")
    assert main(argv) == 0
    takes_seed = "seed" in inspect.signature(recorder).parameters
    assert takes_seed == (command != "eval")
    assert calls == [{}, {"seed": 7} if takes_seed else {}]


@pytest.mark.parametrize("args", [["sample", "ggbm", "--hurst", "0.7"],
                                  ["sample", "fbm", "--beta", "0.2", "--alpha", "0.4"],
                                  ["eval", "ml", "--tau", "9", "--alpha", "1.9"]])
def test_option_the_leaf_does_not_read_usage_error(args, capsys):
    """sample ggbm's H is alpha/2, fbm has no Y and E_beta no tau or alpha:
    each such option is refused, where it was accepted and ignored."""
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: " + " ".join(args[2:]) in captured.err


@pytest.mark.parametrize("command", [["verify", "green"],
                                     ["estimate-potential"]])
def test_format_flag_removed_usage_error(command):
    result = run_cli(command + ["--format", "csv"])
    assert result.returncode == 2
    assert "unrecognized arguments: --format" in result.stderr


def test_verify_green_identical_under_blas_thread_counts(tmp_path):
    """The report's bytes do not depend on the OpenBLAS thread count."""
    outs = []
    for n in ("1", "2"):
        out = tmp_path / f"blas{n}.json"
        result = run_cli(["verify", "green", "--seed", "42", "--paths", "8192",
                          "--out", str(out)], env={"OPENBLAS_NUM_THREADS": n})
        assert result.returncode == 0, result.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    # the identity check carries its budget over V and the budget's split
    check = json.loads(outs[0])["checks"][0]
    assert check["budget_rel"] == pytest.approx(check["tolerance"] / check["expected"],
                                                rel=1e-12)
    shares = (check["se_share"], check["tail_share"], check["disc_share"])
    assert sum(shares) == pytest.approx(1.0, rel=1e-12)
    # the Gaussian's tail and grid bias are exact, so they are in the mean
    assert check["tail_share"] == 0.0 and check["disc_share"] == 0.0
    assert check["se_share"] == 1.0


@pytest.mark.parametrize("args", [
    ["sample", "fbm", "--hurst", "0.97", "--steps", "2048", "--seed", "3"],
    ["sample", "ggbm", "--alpha", "1.94", "--steps", "2048", "--seed", "3"],
])
def test_sample_identical_under_blas_thread_counts(args):
    """Paths at high H (circulant FFT, no BLAS) do not depend on the
    OpenBLAS thread count."""
    outs = []
    for n in ("1", "2"):
        result = run_cli(args, env={"OPENBLAS_NUM_THREADS": n})
        assert result.returncode == 0, result.stderr
        outs.append(result.stdout)
    assert outs[0] == outs[1]


def test_estimate_potential_json(tmp_path):
    """A Gaussian's exact tail and grid bias are in the mean, at its centre
    and off it, so the reported budget is 3 SE."""
    for x in ("", "0.5,0,0"):
        out = tmp_path / "est.json"
        assert main(["estimate-potential", "--beta", "1.0", "--alpha", "1.0",
                     "--dim", "3", "--paths", "2048", "--t-max", "20",
                     "--seed", "5", "--x", x, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["n_paths"] == 2048
        assert payload["mean"] > 0.0
        assert payload["std_error"] > 0.0
        assert payload["tail_bound"] == 0.0
        assert payload["discretization_bound"] == 0.0
        assert payload["budget"] == 3.0 * payload["std_error"]
        assert abs(payload["mean"] - payload["analytic_potential"]) <= payload["budget"]


def test_estimate_potential_four_dimensions(tmp_path):
    """The Gaussian potential is in closed form in every dimension."""
    out = tmp_path / "est.json"
    assert main(["estimate-potential", "--dim", "4", "--paths", "2048",
                 "--out", str(out)]) == 0
    v = json.loads(out.read_text())["analytic_potential"]
    assert math.isfinite(v) and v > 0.0


def test_estimate_potential_transience_error():
    result = run_cli(["estimate-potential", "--beta", "0.5",
                      "--alpha", "1.5", "--dim", "1", "--paths", "16"])
    assert result.returncode == 2
    assert "error:" in result.stderr
