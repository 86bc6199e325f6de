"""Command-line interface tests: exit codes, formats, reproducibility."""

import json
import math
import subprocess
import sys

import pytest

from ggbm.cli import main

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


def test_eval_domain_error_exit_code(capsys):
    assert main(["eval", "green-constant", "--beta", "0.5",
                 "--alpha", "1.5", "--dim", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_eval_numeric_error_exit_code(capsys):
    # M_beta at beta -> 1 overflows in the integral continuation
    assert main(["eval", "mwright", "--beta", "0.999", "--tau", "5"]) == 2
    assert "error:" in capsys.readouterr().err


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
    # the Gaussian's tail at its centre is exact, so it is in the mean
    assert check["tail_share"] == 0.0
    assert check["se_share"] > 0.0 and check["disc_share"] > 0.0


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
    """At the Gaussian's centre the exact tail is in the mean; off the
    centre it stays a one-sided bound in the budget."""
    for x in ("", "0.5,0,0"):
        out = tmp_path / "est.json"
        assert main(["estimate-potential", "--beta", "1.0", "--alpha", "1.0",
                     "--dim", "3", "--paths", "2048", "--t-max", "20",
                     "--seed", "5", "--x", x, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["n_paths"] == 2048
        assert payload["mean"] > 0.0
        assert payload["std_error"] > 0.0
        if x:
            assert payload["tail_bound"] > 0.0
        else:
            assert payload["tail_bound"] == 0.0
        budget = (3.0 * payload["std_error"] + payload["tail_bound"]
                  + payload["discretization_bound"])
        assert abs(payload["mean"] - payload["analytic_potential"]) <= budget


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
