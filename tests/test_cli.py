"""End-to-end tests of the batch front end, run in-process via ``run``."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import pathlib
import shlex
import signal
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from speclab import (
    CouplingParams,
    InvalidParametersError,
    branch_mus,
    evaluate_forms,
    lower_bound_constant,
    random_forms,
    random_trial,
)
from speclab import cli
from speclab.cli import _COMMANDS, _FLAGS, _build_parser, _fmt_float, _parse, run
from speclab.jacobi_ops import spectral_counts

SQRT2 = math.sqrt(2.0)
TWO_SQRT2 = repr(2.0 * SQRT2)  # exact decimal form of the singular beta


def run_cli(capsys, argv):
    """Exit code, stdout and stderr of one ``run``."""
    rc = run(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# pinned output: one cheap line per command, plus a CSV line and a sweep

PINNED = [
    (["mu", "--alpha", "1", "--beta", "1", "--gamma-re", "0.3", "--gamma-im=-0.2"],
     '{"mu1": 1.47466998136397, "mu2": 0.339058912379523}\n'),
    (["classify", "--alpha", "1.4", "--beta", "1"],
     '{"kind": "Subcritical", "branch1": "Branch1", "mu1": 1.01015254455221, '
     '"kind1": "Subcritical", "branch2": "Branch2", "mu2": 0.353553390593274, '
     '"kind2": "Supercritical"}\n'),
    (["surface", "--beta", "0.5", "--gamma-re", "0.8"],
     '{"alpha_c": 1.68907722170697}\n'),
    (["jacobi-spectrum", "--family", "spectral", "--mu", "1.5", "--lambda", "0.2",
      "--size", "64", "--lo", "-1", "--hi", "1"],
     '{"family": "spectral", "size": 64, "lo": -1, "hi": 1, "count": 1, '
     '"eigenvalues": [0.831087235797895]}\n'),
    (["count", "--alpha", "1", "--beta", "0", "--epsilon", "0.01"],
     '{"count": 1}\n'),
    (["h-spectrum", "--alpha", "1", "--beta", "0"],
     '{"branch_mus": [1.41421356237309], "per_branch_counts": [1], "count": 1, '
     '"eigenvalues": [0.475412264310732], "truncation_size": 64, '
     '"method_agreement": 5.55111512312578e-17}\n'),
    (["discrete2-check", "--alpha", "1", "--beta", "0"],
     '{"lhs": 1, "rhs": 0, "bound": 1, "ok": true, '
     '"branch_mus": [1.41421356237309]}\n'),
    (["asymptotics", "--mu", "1.02"],
     '{"mu": 1.02, "counted": 1, "predicted": 1.25, "ratio": 0.8}\n'),
    (["identity-check", "--mu", "1.5", "--lambda", "0.3", "--lambda-im", "0.1",
      "--size", "256"],
     '{"mu": 1.5, "lambda_re": 0.3, "lambda_im": 0.1, "size": 256, '
     '"residual": 9.38238561770801e-14, '
     '"max_interior_residual": 1.3256755448479e-16}\n'),
    (["transition-scan", "--mu", "1.5", "--sizes", "64,128", "--lo", "-1", "--hi", "1"],
     '[{"mu": 1.5, "size": 64, "smallest": 1.16555324049099, "window_count": 0},\n'
     ' {"mu": 1.5, "size": 128, "smallest": 1.16555324048757, "window_count": 0}]\n'),
    (["forms-test", "--alpha", "1", "--beta", "4", "--trials", "50", "--seed", "7"],
     '{"c": 0.292893218813453, "trials": 50, "violations": 0, '
     '"min_margin": 2.72225075857475}\n'),
    (["classify", "--alpha", "1", "--beta", "0", "--format", "csv"],
     "kind,branch1,mu1,kind1,branch2,mu2,kind2\n"
     "Subcritical,BetaZero,1.41421356237309,Subcritical,,,\n"),
    (["identity-check", "--mu", "1.5", "--size", "64", "--grid", "lambda:0:1:3"],
     '[{"lam": 0, "mu": 1.5, "lambda_re": 0, "lambda_im": 0, "size": 64, '
     '"residual": 0, "max_interior_residual": 8.16855397570965e-17, "status": "ok"},\n'
     ' {"lam": 0.5, "status": "BranchCutError"},\n'
     ' {"lam": 1, "status": "BranchCutError"}]\n'),
]


PINNED_IDS = [a[0] for a, _ in PINNED]
# mu - 1 = 3.1e-4 puts ten eigenvalues below 1/2
PINNED.append(
    (["discrete2-check", "--alpha=1.4137734653255918", "--beta", "0"],
     '{"lhs": 10, "rhs": 9, "bound": 1, "ok": true, '
     '"branch_mus": [1.00031129247952]}\n')
)
PINNED_IDS.append("discrete2-check-near-critical")
# a tol/2 wider than the root's distance to the window top: the polished
# root's x + tol/2 is clamped to the window, and method_agreement reads inf
PINNED.append(
    (["h-spectrum", "--alpha", "1", "--beta", "1", "--tol", "0.1"],
     '{"branch_mus": [1.4142135623731], "per_branch_counts": [1], "count": 1, '
     '"eigenvalues": [0.462524981083007], "truncation_size": 64, '
     '"method_agreement": "inf"}\n')
)
PINNED_IDS.append("h-spectrum-coarse-tol")
# both boundary-form regimes with complex gamma
PINNED += [
    (["forms-test", "--alpha=0.8", "--beta=0", "--gamma-re=0.3", "--gamma-im=-0.4",
      "--trials", "40", "--seed", "3"],
     '{"c": 0.434314575050762, "trials": 40, "violations": 0, '
     '"min_margin": 1.43290651297871}\n'),
    (["forms-test", "--alpha=1.1", "--beta=3.5", "--gamma-re=-0.25", "--gamma-im=0.35",
      "--trials", "40", "--seed", "5"],
     '{"c": 0.0145132567424376, "trials": 40, "violations": 0, '
     '"min_margin": 2.02417798507842}\n'),
]
PINNED_IDS += ["forms-test-beta-zero-complex-gamma", "forms-test-complex-gamma"]


@pytest.mark.parametrize("argv, expected", PINNED, ids=PINNED_IDS)
def test_pinned_output(capsys, argv, expected):
    rc, out, _ = run_cli(capsys, argv)
    assert rc == 0
    assert out == expected


def _readme_usage() -> list[list[str]]:
    """The command lines of README's "CLI usage" sh block, comments dropped."""
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI usage", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines() if line.strip()]


@pytest.mark.parametrize("argv", _readme_usage(), ids=lambda argv: argv[1])
def test_readme_usage_runs(capsys, monkeypatch, tmp_path, argv):
    # in a fresh directory, where asymptotics writes its chart
    assert argv[0] == "speclab"
    monkeypatch.chdir(tmp_path)
    rc, out, err = run_cli(capsys, argv[1:])
    assert rc == 0, err
    assert out


# ---------------------------------------------------------------------------
# single-point runs, exact rendering


def test_mu_single_json_exact(capsys):
    rc, out, _ = run_cli(capsys, ["mu", "--alpha", "1", "--beta", "1"])
    assert rc == 0
    assert out == (
        '{"mu1": %s, "mu2": %s}\n' % (f"{SQRT2:.15g}", f"{SQRT2 / 4.0:.15g}")
    )


def test_mu_divergent_branch_rendered_as_string(capsys):
    rc, out, _ = run_cli(capsys, ["mu", "--alpha", "0", "--beta", "1"])
    assert rc == 0
    row = json.loads(out)
    assert row["mu1"] == "inf"
    assert row["mu2"] == pytest.approx(SQRT2 / 4.0)


def test_classify_csv_exact(capsys):
    rc, out, _ = run_cli(
        capsys, ["classify", "--alpha", "1", "--beta", "1", "--format", "csv"]
    )
    assert rc == 0
    header, row, tail = out.split("\n")
    assert tail == ""
    assert header == "kind,branch1,mu1,kind1,branch2,mu2,kind2"
    assert row == (
        f"Subcritical,Branch1,{SQRT2:.15g},Subcritical,"
        f"Branch2,{SQRT2 / 4.0:.15g},Supercritical"
    )


def test_surface_gamma_zero(capsys):
    rc, out, _ = run_cli(capsys, ["surface", "--beta", "1"])
    assert rc == 0
    assert json.loads(out)["alpha_c"] == pytest.approx(SQRT2, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    mu=st.floats(0.3, 3.0),
    lam=st.floats(-2.0, 0.5),
    lam_im=st.floats(0.05, 2.0) | st.floats(-2.0, -0.05),
    size=st.integers(2, 5000),
)
# squared mantissas near 2^512 used to overflow the identity's sum to nan
@example(mu=1.0344688450419626, lam=-0.8734261681881561, lam_im=1.5106860572764642,
         size=2675)
@example(mu=1.138857525133995, lam=-0.7402653021175278, lam_im=0.13287778473353085,
         size=38204)
# the scale of the top pair overflowed every other term's weight to inf
@example(mu=2.2e-308, lam=-0.8734261681881561, lam_im=1.5106860572764642, size=2675)
def test_identity_check_output_is_finite(mu, lam, lam_im, size):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run(["identity-check", f"--mu={mu!r}", f"--lambda={lam!r}",
                  f"--lambda-im={lam_im!r}", f"--size={size}"])
    assert rc == 0
    row = json.loads(out.getvalue())
    for key in ("residual", "max_interior_residual"):
        value = float(row[key])
        assert math.isfinite(value) and value <= 1e-9, (key, row[key])


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(alpha=finite_floats, beta=finite_floats, gamma_re=finite_floats,
       gamma_im=finite_floats)
# alpha*beta overflowed: mu1 printed "nan" as Supercritical, mu2 0
@example(alpha=1e300, beta=1e300, gamma_re=0.0, gamma_im=0.0)
# |gamma|^2 by float ** 2 raised OverflowError
@example(alpha=1.0, beta=0.0, gamma_re=1e200, gamma_im=0.0)
@example(alpha=1.0, beta=1.0, gamma_re=1e200, gamma_im=0.0)
# alpha*beta underflowed: mu1 overflowed to the alpha = 0 marker "inf"
@example(alpha=1e-320, beta=1e-300, gamma_re=0.0, gamma_im=0.0)
# omega0 + r rounded to 0 at alpha*beta = -1e20: ZeroDivisionError
@example(alpha=1e10, beta=-1e10, gamma_re=0.0, gamma_im=0.0)
# the squared norm of Sigma's eigenvectors overflowed: a RuntimeWarning, and
# eigenvectors of zeros
@example(alpha=6.896562338143908e+16, beta=1.374706910959462e+137, gamma_re=0.0,
         gamma_im=0.0)
def test_closed_form_output_is_finite(alpha, beta, gamma_re, gamma_im):
    coupling = [f"--alpha={alpha!r}", f"--beta={beta!r}",
                f"--gamma-re={gamma_re!r}", f"--gamma-im={gamma_im!r}"]
    for argv in (["mu", *coupling], ["classify", *coupling],
                 ["surface", *coupling[1:]], ["forms-test", "--trials", "2", *coupling]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = run(argv)
        assert rc in (0, 2), argv
        if rc == 2:
            continue
        for key, value in json.loads(out.getvalue()).items():
            # numbers that are not finite are printed as quoted strings
            if value in ("inf", "-inf", "nan"):
                assert (key, value) == ("mu1", "inf"), (argv, key, value)
                assert alpha == 0.0 and beta != 0.0, argv


def test_identity_check_residual_small(capsys):
    rc, out, _ = run_cli(
        capsys,
        ["identity-check", "--mu", "1.5", "--lambda", "0.3",
         "--lambda-im", "0.1", "--size", "256"],
    )
    assert rc == 0
    row = json.loads(out)
    assert row["lambda_re"] == 0.3 and row["lambda_im"] == 0.1
    assert row["residual"] < 1e-9
    assert row["max_interior_residual"] < 1e-12


@pytest.mark.parametrize("point", [
    # Im zeta * Im lam underflowed to 0 and failed the branch check: exit 1
    ["--mu=1.5", "--lambda=0.3", "--lambda-im=1e-200", "--size=10"],
    ["--mu=1.5", "--lambda=0.3", "--lambda-im=-1e-300", "--size=10"],
    # the identity's scale came from the row above its sum: residual 1
    ["--mu=1e200", "--lambda=0.3", "--lambda-im=0.1", "--size=50"],
    ["--mu=1e160", "--lambda=0.3", "--lambda-im=0.1", "--size=50"],
    # Re zeta_n underflowed to 0 for n < 10 and failed the branch check:
    # a RuntimeError traceback, exit 1
    ["--mu=1.5", "--lambda=10", "--lambda-im=5e-324", "--size=20"],
    ["--mu=1.5", "--lambda=10", "--lambda-im=-5e-324", "--size=20"],
    # C_n alternate between about 1 and about mu, and the top pair's scale
    # overflowed every other term of the identity: residual nan, exit 0
    ["--mu=2.2e-308", "--lambda=-0.8734261681881561",
     "--lambda-im=1.5106860572764642", "--size=2675"],
    ["--mu=-2.2e-308", "--lambda=-0.8734261681881561",
     "--lambda-im=1.5106860572764642", "--size=2675"],
])
def test_identity_check_at_extreme_parameters(capsys, point):
    rc, out, _ = run_cli(capsys, ["identity-check", *point])
    assert rc == 0
    row = json.loads(out)
    assert row["residual"] <= 1e-9 and row["max_interior_residual"] < 1e-13


@pytest.mark.parametrize("mu", ["5e-324", "-5e-324"])
def test_identity_check_at_the_least_subnormal_mu(capsys, mu):
    # the weights w_n are subnormal, so the rows do not hold in double
    # precision and a residual near 1 is the honest answer; it used to be
    # nan with exit 0
    rc, out, _ = run_cli(capsys, ["identity-check", f"--mu={mu}", "--lambda=0.3",
                                  "--lambda-im=0.1", "--size=50"])
    assert rc == 0
    row = json.loads(out)
    for key in ("residual", "max_interior_residual"):
        assert math.isfinite(float(row[key])), (key, row[key])


@pytest.mark.parametrize("point, message", [
    # w_k overflowed for k >= 1: exit 0 with "residual": "nan" and
    # "max_interior_residual": 0
    (["--mu=1e308", "--lambda=0.3", "--size=10"], "mu = 1e+308"),
    # every w_k finite, but a row overflowed: a bare OverflowError
    (["--mu=1e154", "--lambda=0.3", "--size=100"], "floating-point range"),
])
def test_identity_check_rejects_a_recurrence_that_overflows(capsys, point, message):
    rc, out, err = run_cli(capsys, ["identity-check", *point])
    assert (rc, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("size", ["0", "-3"])
def test_identity_check_rejects_a_size_below_1(capsys, size):
    # --size 0 read "up_to must lie in [0, -1] for this solution", which
    # named an empty range and no flag
    rc, out, err = run_cli(capsys, ["identity-check", "--mu=1.5", "--lambda=0.3",
                                    f"--size={size}"])
    assert (rc, out) == (2, "")
    assert err == f"speclab: size must be at least 1, got {size}\n"


def test_h_spectrum_known_eigenvalue(capsys):
    rc, out, _ = run_cli(capsys, ["h-spectrum", "--alpha", "1", "--beta", "0"])
    assert rc == 0
    row = json.loads(out)
    assert row["count"] == 1
    assert row["eigenvalues"][0] == pytest.approx(0.47541226430548, abs=1e-9)
    assert row["method_agreement"] < 1e-6


def test_jacobi_spectrum_counting_symmetric(capsys):
    rc, out, _ = run_cli(
        capsys,
        ["jacobi-spectrum", "--family", "counting", "--epsilon", "1",
         "--size", "128", "--lo", "-0.5", "--hi", "0.5"],
    )
    assert rc == 0
    row = json.loads(out)
    eigs = row["eigenvalues"]
    assert row["count"] == len(eigs)
    assert eigs == sorted(eigs)
    # counting operators have spectra symmetric about zero
    for lo_val, hi_val in zip(eigs, reversed(eigs)):
        assert lo_val == pytest.approx(-hi_val, abs=1e-9)


def test_csv_list_cells_use_semicolons(capsys):
    rc, out, _ = run_cli(
        capsys,
        ["jacobi-spectrum", "--family", "counting", "--epsilon", "1",
         "--size", "64", "--lo", "-0.4", "--hi", "0.4", "--format", "csv"],
    )
    assert rc == 0
    header, row, _ = out.split("\n")
    cells = row.split(",")
    assert header.split(",") == ["family", "size", "lo", "hi", "count", "eigenvalues"]
    count = int(cells[4])
    assert count >= 1
    assert len(cells[5].split(";")) == count


def test_forms_test_seeded_and_clean(capsys):
    argv = ["forms-test", "--alpha", "1", "--beta", "0",
            "--trials", "50", "--seed", "7"]
    rc1, out1, _ = run_cli(capsys, argv)
    rc2, out2, _ = run_cli(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2
    row = json.loads(out1)
    assert row["c"] == pytest.approx(1.0 - 1.0 / SQRT2, rel=1e-12)
    assert row["violations"] == 0
    assert row["min_margin"] > 0.0


def test_forms_test_beta_zero_large_gamma(capsys):
    # it used to reject its own projected trials: "violates it by 3.926e-02"
    rc, out, err = run_cli(capsys, ["forms-test", "--alpha=1", "--beta=0",
                                    "--gamma-re=1e8", "--trials", "50"])
    assert (rc, err) == (0, "")
    row = json.loads(out)
    assert row["violations"] == 0
    assert all(math.isfinite(v) for v in row.values())


_FORMS_POINTS = {
    "beta-zero": ["--alpha=0.9", "--beta=0", "--gamma-re=0.3", "--gamma-im=-0.2"],
    "beta-positive": ["--alpha=1.1", "--beta=3.5", "--gamma-re=-0.25", "--gamma-im=0.35"],
}


def _forms_test(capsys, point, trials):
    rc, out, err = run_cli(capsys, ["forms-test", *point, f"--trials={trials}", "--seed=21"])
    assert (rc, err) == (0, "")
    return json.loads(out)


def _margins(params, forms):
    return forms.full - 0.5 * lower_bound_constant(params) * forms.norm_sq


@pytest.mark.parametrize("point", _FORMS_POINTS.values(), ids=_FORMS_POINTS.keys())
def test_forms_test_draws_its_trials_in_blocks(capsys, point):
    params = cli._point_params(_parse(["forms-test", *point]))
    gamma = params.gamma if params.beta == 0.0 else None
    block = cli._TRIAL_BLOCK
    # one trial is one random_trial, whose forms evaluate_forms gives
    one = _margins(params, evaluate_forms(
        random_trial(np.random.default_rng(21), beta_zero_gamma=gamma), params
    ))
    row = _forms_test(capsys, point, 1)
    assert row["min_margin"] == pytest.approx(one, rel=1e-14)
    assert row["violations"] == 0
    # a whole block, then one trial more: the draw that follows the block
    rng = np.random.default_rng(21)
    first = _margins(params, random_forms(params, rng, block))
    extra = _margins(params, evaluate_forms(random_trial(rng, beta_zero_gamma=gamma), params))
    row = _forms_test(capsys, point, block)
    assert row["min_margin"] == float(_fmt_float(first.min()))
    assert row["violations"] == int(np.count_nonzero(first < 0.0)) == 0
    row = _forms_test(capsys, point, block + 1)
    assert row["min_margin"] == pytest.approx(min(first.min(), extra), rel=1e-14)
    assert row["violations"] == 0


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(-3.0, 3.0),
    beta=st.one_of(st.just(0.0), st.floats(-8.0, 8.0).filter(lambda b: abs(b) >= 1e-3)),
    gamma_re=st.floats(-1.5, 1.5),
    gamma_im=st.floats(-1.5, 1.5),
    seed=st.integers(0, 2**31 - 1),
)
def test_forms_test_holds_the_bound_wherever_c_is_positive(
    alpha, beta, gamma_re, gamma_im, seed
):
    assume(lower_bound_constant(CouplingParams(alpha, beta, complex(gamma_re, gamma_im))) > 0.0)
    argv = ["forms-test", f"--alpha={alpha!r}", f"--beta={beta!r}",
            f"--gamma-re={gamma_re!r}", f"--gamma-im={gamma_im!r}",
            "--trials=300", f"--seed={seed}"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = run(argv)
    assert rc == 0, argv
    row = json.loads(out.getvalue())
    assert row["violations"] == 0, argv
    assert math.isfinite(row["min_margin"]), argv


def _numbers(value):
    """Every number in a parsed JSON value, non-finite ones as their string."""
    if isinstance(value, list):
        return [x for item in value for x in _numbers(item)]
    if isinstance(value, dict):
        return [x for item in value.values() for x in _numbers(item)]
    if value in ("inf", "-inf", "nan"):
        return [value]
    return [value] if isinstance(value, (int, float)) else []


_SPECTRAL_POINTS = [
    ["jacobi-spectrum", "--family=counting", "--epsilon=0.5", "--size=64"],
    ["jacobi-spectrum", "--family=reference", "--mu=1.2", "--size=64"],
    ["jacobi-spectrum", "--family=spectral", "--mu=1.5", "--lambda=0.2", "--size=64"],
    ["jacobi-spectrum", "--family=counting-limit", "--size=64", "--lo=-1", "--hi=1"],
    ["transition-scan", "--mu=0.9", "--sizes=64,128"],
    ["transition-scan", "--mu=1.3", "--sizes=64,128", "--lo=-2", "--hi=2"],
    ["h-spectrum", "--alpha=1", "--beta=0"],
    ["h-spectrum", "--alpha=0.7", "--beta=2", "--gamma-re=0.3", "--gamma-im=0.4"],
    ["h-spectrum", "--alpha=1.4", "--beta=0"],
    # mu - 1 = 5e-4: the secular cross-check finds no root at its depth
    ["h-spectrum", "--alpha=1.4135", "--beta=0"],
    ["count", "--alpha=1", "--beta=0", "--epsilon=0.5"],
    ["discrete2-check", "--alpha=1", "--beta=0"],
    ["asymptotics", "--mu=1.5"],
]


@pytest.mark.parametrize("argv", _SPECTRAL_POINTS,
                         ids=lambda argv: "_".join(argv).replace("--", ""))
def test_spectral_output_is_finite(capsys, argv):
    rc, out, _ = run_cli(capsys, argv)
    assert rc == 0
    rows = json.loads(out)
    for row in rows if isinstance(rows, list) else [rows]:
        for key, value in row.items():
            if key == "method_agreement" and value == "inf":
                continue  # the documented "no secular root found" marker
            for x in _numbers(value):
                assert x not in ("inf", "-inf", "nan") and math.isfinite(x), (key, value)


# perfbench/checker.py excuses a failed secular cross-check, which prints
# method_agreement "inf", only below this distance of the largest weight
# from 1 (its KNOWN_DEFECT_MU_MINUS_1)
_CROSS_CHECK_DEFECT_MU_MINUS_1 = 2e-3


@settings(max_examples=30, deadline=None)
@given(
    alpha=st.floats(-3.0, 3.0),
    beta=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
    gamma_re=st.floats(-1.5, 1.5),
    gamma_im=st.floats(-1.5, 1.5),
    epsilon=st.floats(1e-3, 2.0),
)
@example(alpha=1.4137734653255918, beta=0.0, gamma_re=0.0, gamma_im=0.0, epsilon=1e-3)
@example(alpha=1.0, beta=1.0, gamma_re=0.3, gamma_im=-0.2, epsilon=0.5)
@example(alpha=0.0, beta=0.0, gamma_re=0.0, gamma_im=0.0, epsilon=0.5)
def test_spectral_commands_never_print_nan(alpha, beta, gamma_re, gamma_im, epsilon):
    # a small row cap keeps every example cheap: a point that needs more
    # rows exits 3, one without a subcritical branch exits 2
    coupling = [f"--alpha={alpha!r}", f"--beta={beta!r}",
                f"--gamma-re={gamma_re!r}", f"--gamma-im={gamma_im!r}", "--n-cap=2048"]
    for argv in (["h-spectrum", *coupling], ["count", *coupling, f"--epsilon={epsilon!r}"],
                 ["discrete2-check", *coupling]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = run(argv)
        assert rc in (0, 2, 3), argv
        if rc:
            continue
        row = json.loads(out.getvalue())
        for key, value in row.items():
            if key == "method_agreement" and value == "inf":
                assert max(row["branch_mus"]) - 1.0 < _CROSS_CHECK_DEFECT_MU_MINUS_1, argv
                continue
            for x in _numbers(value):
                assert x not in ("inf", "-inf", "nan") and math.isfinite(x), (argv, key, value)


@st.composite
def subcritical_points(draw):
    """(alpha, beta, gamma) whose largest subcritical weight mu has mu - 1
    log-uniform in [1e-4, 30], built from mu in closed form."""
    mu = 1.0 + 10.0 ** draw(st.floats(-4.0, math.log10(30.0)))
    beta = draw(st.one_of(st.just(0.0), st.floats(0.1, 2.5)))
    gamma = complex(draw(st.floats(-1.5, 1.5)), draw(st.floats(-1.5, 1.5)))
    g2 = gamma.real * gamma.real + gamma.imag * gamma.imag
    if beta == 0.0:
        alpha = (4.0 + g2) / (2.0 * SQRT2 * mu)
    else:
        # mu = 2 sqrt2 beta / (omega0 - r), and omega0 - r = e is linear in
        # u = alpha beta + |gamma|^2 once squared: (u - 4)^2 + 16 |gamma|^2
        # = (u + 4 - e)^2; e < 8 here, as beta <= 2.5 and mu > 1
        e = 2.0 * SQRT2 * beta / mu
        u = (e * e - 8.0 * e - 16.0 * g2) / (2.0 * (e - 8.0))
        alpha = (u - g2) / beta
    if draw(st.booleans()):
        alpha, beta = -alpha, -beta  # the mirror point has the same weights
    mus = [m for _, m in branch_mus(CouplingParams(alpha, beta, gamma))]
    assume(1e-4 <= max(mus) - 1.0 <= 30.0)
    return alpha, beta, gamma


@settings(max_examples=20, deadline=None)
@given(subcritical_points(), st.floats(1e-3, 1.0))
def test_no_silent_nan_and_certified_eigenvalues(point, epsilon):
    alpha, beta, gamma = point
    coupling = [f"--alpha={alpha!r}", f"--beta={beta!r}",
                f"--gamma-re={gamma.real!r}", f"--gamma-im={gamma.imag!r}"]
    rows = {}
    for argv in (["h-spectrum", *coupling], ["count", *coupling, f"--epsilon={epsilon!r}"],
                 ["discrete2-check", *coupling]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert run(argv) == 0, argv
        row = rows[argv[0]] = json.loads(out.getvalue())
        for key, value in row.items():
            if key == "method_agreement" and value == "inf":
                assert max(row["branch_mus"]) - 1.0 < _CROSS_CHECK_DEFECT_MU_MINUS_1, argv
                continue
            for x in _numbers(value):
                assert x not in ("inf", "-inf", "nan") and math.isfinite(x), (argv, key, value)

    # the i-th eigenvalue x is certified by counts of all the subcritical
    # branches, each from its own window floor (1 - 1/mu)/2: i eigenvalues
    # of the windows below x - tol/2, i + 1 below x + tol/2
    spectrum = rows["h-spectrum"]
    mus = [mu for _, mu in branch_mus(CouplingParams(alpha, beta, gamma)) if 1.0 < mu < math.inf]
    half = 0.5e-10  # the default tol, halved
    for i, x in enumerate(spectrum["eigenvalues"]):
        counts = [spectral_counts(mu, [0.5 * (1.0 - 1.0 / mu), x - half, x + half])[0]
                  for mu in mus]
        below = sum(c - c[0] for c in counts)
        assert (below[1], below[2]) == (i, i + 1), (i, x)


def _run_quietly(argv):
    """Exit code and the parsed stdout row (None on a nonzero exit)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = run(argv)
    return rc, (json.loads(out.getvalue()) if rc == 0 else None)


@pytest.mark.parametrize("lo, hi, count", [
    # eps (max entry + |level| + ...) overflowed, and these exited 2 with
    # "entries and level must be finite"; shifted by lo the rows read +inf
    ("-1.7e308", "-1.6e308", 0),
    ("-1.7e308", "5e306", 1),
])
def test_jacobi_spectrum_where_the_pivmin_sum_overflows(capsys, lo, hi, count):
    rc, out, err = run_cli(capsys, ["jacobi-spectrum", "--family", "reference", "--mu=5e306",
                                    "--size", "8", f"--lo={lo}", f"--hi={hi}"])
    assert (rc, err) == (0, "")
    row = json.loads(out)
    assert row["count"] == count == len(row["eigenvalues"])


@settings(max_examples=100, deadline=None)
@given(mu=finite_floats, lam=finite_floats, size=st.integers(2, 40))
# a diagonal entry overflowed with a RuntimeWarning, before "matrix
# entries must be finite"
@example(mu=5.85e268, lam=-7.5e246, size=2)
@example(mu=1.697841037416877e307, lam=0.0, size=10)
def test_jacobi_commands_at_extreme_parameters(mu, lam, size):
    for argv in (["jacobi-spectrum", "--family=spectral", f"--mu={mu!r}",
                  f"--lambda={lam!r}", f"--size={size}"],
                 ["jacobi-spectrum", "--family=reference", f"--mu={mu!r}", f"--size={size}"],
                 ["transition-scan", f"--mu={mu!r}", f"--sizes={size},{2 * size}"]):
        rc, row = _run_quietly(argv)
        assert rc in (0, 2), argv
        rows = row if isinstance(row, list) else [row] if row else []
        for r in rows:
            for key, value in r.items():
                for x in _numbers(value):
                    assert x not in ("inf", "-inf", "nan") and math.isfinite(x), (argv, key)


@settings(max_examples=60, deadline=None)
@given(alpha=finite_floats | st.floats(-3.0, 3.0),
       beta=st.just(0.0) | finite_floats | st.floats(-3.0, 3.0),
       gamma_re=finite_floats | st.floats(-1.5, 1.5),
       gamma_im=finite_floats | st.floats(-1.5, 1.5),
       lambda_min=finite_floats | st.floats(-20.0, 0.5))
# the spectral diagonal overflowed with a RuntimeWarning, before "entries
# and level must be finite"
@example(alpha=-1.4319419510251629e-205, beta=0.0, gamma_re=-186423861590.0616,
         gamma_im=6.233478807674116e-305, lambda_min=-7.582129790305882e268)
# the certificate row K overflowed with a RuntimeWarning from lam * mu^2 / (mu^2 - 1)
@example(alpha=1.0, beta=0.0, gamma_re=0.0, gamma_im=0.0, lambda_min=-1.7e308)
def test_spectral_commands_at_extreme_parameters(alpha, beta, gamma_re, gamma_im,
                                                 lambda_min):
    coupling = [f"--alpha={alpha!r}", f"--beta={beta!r}", f"--gamma-re={gamma_re!r}",
                f"--gamma-im={gamma_im!r}", "--n-cap=5000"]
    for argv in (["h-spectrum", *coupling, f"--lambda-min={lambda_min!r}"],
                 ["h-spectrum", *coupling], ["discrete2-check", *coupling]):
        rc, row = _run_quietly(argv)
        assert rc in (0, 2, 3), argv
        for key, value in (row or {}).items():
            if key == "method_agreement" and value == "inf":
                assert max(row["branch_mus"]) - 1.0 < _CROSS_CHECK_DEFECT_MU_MINUS_1, argv
                continue
            for x in _numbers(value):
                assert x not in ("inf", "-inf", "nan") and math.isfinite(x), (argv, key)


def test_forms_test_needs_a_nonnegative_seed(capsys):
    # numpy's own message, "expected non-negative integer", named no flag
    argv = ["forms-test", "--alpha", "1", "--beta", "0", "--seed", "-1"]
    assert run_cli(capsys, argv) == (2, "", "speclab: seed must be nonnegative, got -1\n")
    rc, out, err = run_cli(capsys, argv + ["--grid", "beta:0:1:2"])
    assert (rc, err) == (3, "speclab: all sweep points failed\n")
    assert [r["status"] for r in json.loads(out)] == ["InvalidParametersError"] * 2


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_forms_test_needs_a_trial(capsys, trials):
    # no trials used to pass the check with "violations": 0
    rc, out, err = run_cli(
        capsys, ["forms-test", "--alpha", "1", "--beta", "0", f"--trials={trials}"]
    )
    assert rc == 2
    assert out == ""
    assert "trials" in err


@pytest.mark.parametrize("command", ["count", "h-spectrum", "discrete2-check"])
@pytest.mark.parametrize("point", [["--alpha=2.2e-311", "--beta=1"],
                                   ["--alpha=1e-310", "--beta=0"]])
def test_spectral_commands_reject_weight_out_of_range(capsys, command, point):
    # subnormal alpha overflows a weight to inf; it used to pass for the
    # alpha = 0 marker, and count printed 0 with exit 0
    rc, out, err = run_cli(capsys, [command, *point])
    assert rc == 2
    assert out == ""
    assert "leaves double range" in err


@pytest.mark.parametrize("command", ["count", "h-spectrum", "discrete2-check"])
def test_spectral_commands_without_a_subcritical_branch(capsys, command):
    # count printed {"count": 0} with exit 0 and a raw two-line UserWarning
    rc, out, err = run_cli(capsys, [command, "--alpha=5"])
    assert (rc, out) == (2, "")
    assert err.startswith("speclab: no branch of ") and err.count("\n") == 1
    # a mirrored point is named by its canonical parameters alone
    rc, out, err = run_cli(capsys, [command, "--alpha", "-3", "--beta", "-1"])
    assert (rc, out) == (2, "")
    assert err == ("speclab: no branch of CouplingParams(alpha=3.0, beta=1.0, gamma=0j) has "
                   "weight mu > 1; there are no eigenvalues below the threshold to locate\n")
    # the free case has no branch and nothing below the threshold
    rc, out, err = run_cli(capsys, [command, "--alpha=0", "--beta=0"])
    assert (rc, err) == (0, "")
    row = json.loads(out)
    assert row.get("count", row.get("lhs")) == 0


# a point of each command that walks rows, with one subcritical weight,
# sqrt2 or 1.02
_CAPPED = {
    "h-spectrum": ["--alpha", "1", "--beta", "0"],
    "discrete2-check": ["--alpha", "1", "--beta", "0"],
    "count": ["--alpha", "1", "--beta", "0"],
    "asymptotics": ["--mu", "1.02"],
}


@pytest.mark.parametrize("command", list(_CAPPED))
@pytest.mark.parametrize("cap", ["0", "-4"])
def test_n_cap_below_two_exits_2(capsys, command, cap):
    rc, out, _ = run_cli(capsys, [command, *_CAPPED[command], f"--n-cap={cap}"])
    assert rc == 2
    assert out == ""


@pytest.mark.parametrize("command", list(_CAPPED))
@pytest.mark.parametrize("cap", ["1048577", "4194304"])
def test_n_cap_above_2_20_exits_2(capsys, command, cap):
    # the certificates' rounding argument holds up to 2^20 rows:
    # asymptotics --mu 1.0000001 --n-cap 4194304 printed a count with exit 0
    rc, out, err = run_cli(capsys, [command, *_CAPPED[command], f"--n-cap={cap}"])
    assert (rc, out) == (2, "")
    assert "1048576" in err


# points whose counts need more than 1000 rows: mu - 1 = 1e-4
_NEAR_CRITICAL = {
    "count": [f"--alpha={SQRT2 / 1.0001!r}", "--beta", "0", "--epsilon", "0.001"],
    "asymptotics": ["--mu", "1.0001"],
    "discrete2-check": [f"--alpha={SQRT2 / 1.0001!r}", "--beta", "0"],
}


@pytest.mark.parametrize("command", list(_NEAR_CRITICAL))
def test_uncertified_count_exits_3(capsys, command):
    # the counting walk takes the rows of J two at a time: an odd cap ends
    # it on a whole odd row, an even one on the truncation's last row
    for cap in ("1000", "999", "2"):
        rc, out, err = run_cli(capsys, [command, *_NEAR_CRITICAL[command], f"--n-cap={cap}"])
        assert (rc, out) == (3, "")
        assert f"is not certified within the row cap {cap}\n" in err
    rc, _, _ = run_cli(capsys, [command, *_NEAR_CRITICAL[command]])
    assert rc == 0


@pytest.mark.parametrize("argv", [
    ["count", "--alpha=1e-155", "--beta=0"],
    ["count", "--alpha=1e-300", "--beta=0", "--epsilon=2"],
    ["discrete2-check", "--alpha=1e-6", "--beta=0"],
    ["asymptotics", "--mu=1e160"],
], ids=lambda argv: "_".join(argv).replace("--", ""))
def test_counts_at_huge_weights_are_zero(capsys, argv):
    # weights up to 1.4e300: no count above mu may overflow or stay
    # uncertified
    rc, out, err = run_cli(capsys, argv)
    assert rc == 0, err
    row = json.loads(out)
    assert row.get("count", row.get("rhs", row.get("counted"))) == 0


@pytest.mark.parametrize("epsilon", ["1e-64", "5e-324"])
@pytest.mark.parametrize("alpha, want", [("1", 1), (repr(SQRT2 / 1.002), 4)])
def test_count_at_tiny_epsilon(capsys, epsilon, alpha, want):
    # b_1 is 5e15 at epsilon = 1e-64 and 3e80 at 5e-324; mu = sqrt2 and
    # 1.002 have 1 and 4 eigenvalues above them (the dense oracle on 400
    # rows), where a pivmin that read b_1 printed 65 and 189 with exit 0
    rc, out, err = run_cli(capsys, ["count", f"--alpha={alpha}", "--beta=0", f"--epsilon={epsilon}"])
    assert (rc, err) == (0, "")
    assert json.loads(out) == {"count": want}


def test_h_spectrum_far_lambda_min(capsys):
    # one Sturm batch holds the levels lambda_min and just below 1/2; its
    # pivmin came from the largest diagonal of the batch, so this window
    # found two spurious roots near 1/2 and method_agreement "inf"
    rc, out, _ = run_cli(capsys, ["h-spectrum", "--alpha", "1", "--beta", "0",
                                  "--lambda-min=-1e30"])
    assert rc == 0
    row = json.loads(out)
    assert (row["count"], row["per_branch_counts"]) == (1, [1])
    assert row["eigenvalues"][0] == pytest.approx(0.47541226427148, abs=1e-9)
    assert row["method_agreement"] < 1e-9


@pytest.mark.parametrize("point", [["--alpha=1e-9", "--beta=0"], ["--alpha=2e-9", "--beta=0"],
                                   ["--alpha=2.8e-9", "--beta=0"], ["--beta=1e10"]])
def test_empty_default_window_holds_no_eigenvalues(capsys, point):
    # the form bound (1 - 1/mu)/2 lies within 1e-9 of 1/2, and the gap
    # 1/2 - E_1 (about 1/(16 mu^4)) is far below the spacing of doubles
    # there, so the window holds no eigenvalue to locate; both commands
    # once exited 2 naming a lambda_min that was never given
    rc, out, err = run_cli(capsys, ["h-spectrum", *point])
    assert (rc, err) == (0, "")
    row = json.loads(out)
    assert (row["count"], row["eigenvalues"], row["method_agreement"]) == (0, [], 0)
    rc, out, err = run_cli(capsys, ["discrete2-check", *point])
    assert (rc, err) == (0, "")
    row = json.loads(out)
    assert (row["lhs"], row["ok"]) == (0, True)
    # a lambda_min below the top, the largest double below 1/2, leaves a window
    rc, out, err = run_cli(capsys, ["h-spectrum", *point, "--lambda-min=0.499999999"])
    assert (rc, err) == (0, "")
    assert json.loads(out)["count"] == 0
    # one at or above the top leaves none
    for lambda_min in ("0.5", "3"):
        rc, out, err = run_cli(capsys, ["h-spectrum", *point, f"--lambda-min={lambda_min}"])
        assert (rc, out) == (2, "")
        assert f"lambda_min = {float(lambda_min)!r} does not leave a search window" in err


# mu = sqrt(2)/alpha = 100 at beta = 0: one eigenvalue, about 1/(16 mu^4)
# below 1/2, which a window top 1e-9 below 1/2 missed
_WEAK_COUPLING = ["--alpha", "0.0141421356237310", "--beta", "0"]


def test_weak_coupling_eigenvalue_next_to_the_threshold(capsys):
    rc, out, err = run_cli(capsys, ["h-spectrum", *_WEAK_COUPLING])
    assert (rc, err) == (0, "")
    row = json.loads(out)
    assert row["count"] == 1
    assert row["branch_mus"][0] == pytest.approx(100.0, rel=1e-12)
    assert 0.5 - row["eigenvalues"][0] == pytest.approx(6.25e-10, abs=1e-10)
    rc, out, err = run_cli(capsys, ["count", *_WEAK_COUPLING, "--epsilon", "1e-12"])
    assert (rc, err) == (0, "")
    assert json.loads(out)["count"] == 1
    rc, out, err = run_cli(capsys, ["discrete2-check", *_WEAK_COUPLING])
    assert (rc, err) == (0, "")
    row = json.loads(out)
    assert (row["lhs"], row["ok"]) == (1, True)


def test_discrete2_check_without_subcritical_branch(capsys):
    rc, out, err = run_cli(capsys, ["discrete2-check", "--alpha", "3", "--beta", "1"])
    assert (rc, out) == (2, "")
    assert "has weight mu > 1" in err
    rc, out, _ = run_cli(capsys, ["discrete2-check", "--alpha", "0", "--beta", "0"])
    assert rc == 0
    assert out == '{"lhs": 0, "rhs": 0, "bound": 1, "ok": true, "branch_mus": []}\n'


def test_h_spectrum_n_cap_is_never_passed(capsys):
    argv = ["h-spectrum", "--beta", "0", "--n-cap", "3000"]
    rc, out, _ = run_cli(capsys, argv + ["--alpha", "1"])
    assert rc == 0
    assert json.loads(out)["truncation_size"] == 64
    # at mu - 1 = 1e-4 the counts next to the threshold need about 5000
    # rows, and no count walks past the cap
    rc, out, err = run_cli(capsys, argv + [f"--alpha={SQRT2 / 1.0001!r}"])
    assert rc == 3
    assert out == ""
    assert "3000" in err


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_workers_byte_identical(capsys):
    base = ["mu", "--beta", "1", "--grid", "alpha:0.5:2:7"]
    rc1, out1, _ = run_cli(capsys, base + ["--workers", "1"])
    rc4, out4, _ = run_cli(capsys, base + ["--workers", "4"])
    assert rc1 == rc4 == 0
    assert out1 == out4
    rows = json.loads(out1)
    assert len(rows) == 7
    assert all(r["status"] == "ok" for r in rows)


def _count_forks(monkeypatch) -> list[int]:
    """Patch ``os.fork`` to append the forking pid to the returned list."""
    forks = []
    fork = os.fork

    def counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def test_sweep_pool_has_no_more_workers_than_points(capsys, monkeypatch):
    forks = _count_forks(monkeypatch)
    started = []
    base = ["mu", "--beta", "1", "--grid"]
    rc, out, _ = run_cli(capsys, base + ["alpha:1:2:2", "--workers", "64"])
    assert rc == 0 and len(json.loads(out)) == 2
    started.append(len(forks))
    rc, out, _ = run_cli(capsys, base + ["alpha:1:2:7", "--workers", "3"])
    assert rc == 0 and len(json.loads(out)) == 7
    started.append(len(forks) - started[0])
    assert started == [2, 3]


@pytest.mark.parametrize("workers", ["0", "-5", "257", "100000"])
def test_workers_out_of_bounds_exits_2_before_forking(capsys, monkeypatch, workers):
    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fork)
    rc, out, err = run_cli(
        capsys, ["mu", "--beta", "1", "--grid", "alpha:0:1:1000", "--workers", workers]
    )
    assert (rc, out) == (2, "")
    assert err == f"speclab: workers must be between 1 and 256, got {workers}\n"


def test_sweep_byte_identical_at_one_two_and_three_workers(capsys):
    # 7 points split 4 + 3 and 3 + 2 + 2; two of them end in a status row
    argv = ["h-spectrum", "--beta", "1", "--gamma-re", "0.3", "--grid", "alpha:0.8:1.6:7"]
    serial = run_cli(capsys, argv + ["--workers", "1"])
    assert serial[0] == 0
    assert [r["status"] for r in json.loads(serial[1])].count("ok") == 5
    for workers in ("2", "3"):
        assert run_cli(capsys, argv + ["--workers", workers]) == serial


def test_sweep_workload_block_byte_identical_serially(capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    queries = workloads.block("sweep", 0, 0)
    assert queries
    for q in queries:
        argv = list(q.argv)
        assert argv[-2:] == ["--workers", "2"]
        assert run_cli(capsys, argv) == run_cli(capsys, argv[:-1] + ["1"])


def test_sweep_runs_serially_without_fork(capsys, monkeypatch):
    argv = ["surface", "--gamma-re", "1", "--grid", f"beta:{TWO_SQRT2}:4:3"]
    serial = run_cli(capsys, argv + ["--workers", "1"])
    monkeypatch.delattr(os, "fork")
    assert run_cli(capsys, argv + ["--workers", "2"]) == serial


# one grid of every command, at two points that succeed; forms-test last
_SWEEP_GRIDS = {
    "mu": ["--beta=1", "--grid=alpha:0.5:2:2"],
    "classify": ["--beta=1", "--grid=alpha:0.5:2:2"],
    "surface": ["--grid=beta:0.5:2:2"],
    "jacobi-spectrum": ["--family=reference", "--size=16", "--grid=mu:1.1:1.3:2"],
    "count": ["--beta=0", "--epsilon=0.1", "--grid=alpha:1.3:1.35:2"],
    "h-spectrum": ["--beta=0", "--grid=alpha:1:1.1:2"],
    "discrete2-check": ["--beta=0", "--grid=alpha:1.3:1.35:2"],
    "asymptotics": ["--grid=mu:1.01:1.02:2"],
    "identity-check": ["--size=16", "--grid=mu:0.5:0.7:2"],
    "transition-scan": ["--sizes=16,32", "--grid=mu:0.5:0.7:2"],
    "forms-test": ["--alpha=1", "--trials=2", "--grid=beta:0:1:2"],
}

# runs each grid of argv[1] at --workers 2 and prints, per command, its exit
# code, its statuses, the modules its children imported, whether the parent
# held numpy.random at each fork and whether it held it after the run
_SWEEP_IMPORTS = """
import contextlib, io, json, os, sys
from speclab import cli

at_fork = []
fork = os.fork

def recorded():
    at_fork.append(set(sys.modules))
    return fork()

run_task = cli._run_task

def checked(task):
    rows = run_task(task)
    # in a child, at_fork[-1] holds the modules its parent had when it forked
    new = sorted(set(sys.modules) - at_fork[-1])
    return [row | {"imported": new} for row in rows]

render_json = cli._render_json
rendered = []

def captured(rows, columns, single):
    # JSON prints only the columns, so the rows are read before they print
    rendered.append(rows)
    return render_json(rows, columns, single)

os.fork, cli._run_task, cli._render_json = recorded, checked, captured
report = {}
for command, argv in json.loads(sys.argv[1]).items():
    forks = len(at_fork)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.run([command, *argv, "--workers=2"])
    rows = rendered[-1]
    report[command] = [rc, [r["status"] for r in rows], [r["imported"] for r in rows],
                       ["numpy.random" in m for m in at_fork[forks:]],
                       "numpy.random" in sys.modules]
print(json.dumps(report))
"""


def test_no_sweep_child_imports_a_module():
    # in a fresh interpreter, since pytest's may already hold numpy.random:
    # a forms-test parent imports it before it forks, and no other grid
    # imports it at all
    report = json.loads(_fresh_interpreter(_SWEEP_IMPORTS, json.dumps(_SWEEP_GRIDS)))
    assert list(report) == list(_SWEEP_GRIDS)
    for command, (rc, statuses, imported, forked_with, held_after) in report.items():
        assert (rc, statuses) == (0, ["ok"] * len(statuses)), command
        assert imported == [[]] * len(statuses), command
        forms = command == "forms-test"
        assert forked_with == [forms, forms], command
        assert held_after == forms, command


# each grid of _SWEEP_GRIDS, and one whose second point fails
_HEADER_GRIDS = [*_SWEEP_GRIDS.items(), ("identity-check", ["--size=16", "--grid=lambda:0:1:2"])]


@pytest.mark.parametrize("command, grid", _HEADER_GRIDS)
def test_json_prints_the_csv_header_columns(capsys, command, grid):
    # the single run takes the grid's first point
    spec = next(f for f in grid if f.startswith("--grid="))
    variable, start = spec.removeprefix("--grid=").split(":")[:2]
    single = [f for f in grid if f != spec] + [f"--{variable.replace('_', '-')}={start}"]
    for argv in ([command, *single], [command, *grid, "--workers=1"]):
        rc, out, _ = run_cli(capsys, argv)
        rc_csv, csv, _ = run_cli(capsys, argv + ["--format=csv"])
        assert (rc, rc_csv) == (0, 0), argv
        header, *lines = csv.splitlines()
        objects = json.loads(out)
        objects = objects if isinstance(objects, list) else [objects]
        assert len(objects) == len(lines) > 0, argv
        columns = header.split(",")
        for obj, line in zip(objects, lines):
            cells = dict(zip(columns, line.split(",")))
            assert list(obj) == [c for c in columns if c in obj], argv
            assert all(cells[c] == "" for c in columns if c not in obj), argv
            for c, v in obj.items():
                if not isinstance(v, (str, list)):  # a bool or number prints as its CSV cell
                    assert json.loads(cells[c]) == v, (argv, c)


def _fail_mu_at(monkeypatch, fail) -> None:
    """Make ``mu``'s handler call ``fail(alpha)`` before its own work."""
    mu = _COMMANDS["mu"]

    def handler(a):
        fail(a["alpha"])
        return mu.handler(a)

    monkeypatch.setitem(_COMMANDS, "mu", dataclasses.replace(mu, handler=handler))


@contextlib.contextmanager
def _deadline(seconds: int):
    """Fail the test, not the run, if the block takes longer than ``seconds``."""
    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_sweep_worker_exception_ends_the_run_as_serially(capsys, monkeypatch):
    def fail(alpha):
        if alpha in (0.25, 0.5):
            raise MemoryError(f"no memory at alpha {alpha}")

    _fail_mu_at(monkeypatch, fail)
    # at 2 workers, point 0.5 is the first of child 0 to fail, 0.25 of child 1
    argv = ["mu", "--beta", "1", "--grid", "alpha:0:1:5"]
    serial = run_cli(capsys, argv + ["--workers", "1"])
    assert serial == (2, "", "speclab: no memory at alpha 0.25\n")
    with _deadline(60):
        assert run_cli(capsys, argv + ["--workers", "2"]) == serial
    _assert_no_child_left()


def test_sweep_worker_that_dies_exits_2(capsys, monkeypatch):
    parent = os.getpid()

    def fail(alpha):
        if alpha == 0.5 and os.getpid() != parent:
            os._exit(1)

    _fail_mu_at(monkeypatch, fail)
    with _deadline(60):
        rc, out, err = run_cli(
            capsys, ["mu", "--beta", "1", "--grid", "alpha:0:1:5", "--workers", "2"]
        )
    assert (rc, out) == (2, "")
    assert err == "speclab: a sweep worker exited with code 1 before sending its rows\n"
    _assert_no_child_left()


def test_sweep_rows_in_input_order(capsys):
    rc, out, _ = run_cli(
        capsys,
        ["surface", "--grid", "beta:0.5:2:4", "--format", "csv", "--workers", "2"],
    )
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "beta,alpha_c,status"
    betas = [float(line.split(",")[0]) for line in lines[1:]]
    assert betas == [0.5, 1.0, 1.5, 2.0]
    for line in lines[1:]:
        assert float(line.split(",")[1]) == pytest.approx(SQRT2, abs=1e-12)
        assert line.endswith(",ok")


def test_sweep_singular_point_gets_status_row(capsys):
    rc, out, _ = run_cli(
        capsys,
        ["surface", "--gamma-re", "1",
         "--grid", f"beta:{TWO_SQRT2}:4:2"],
    )
    assert rc == 0  # one good point keeps the run alive
    rows = json.loads(out)
    assert rows[0]["status"] == "SingularFormulaError"
    assert "alpha_c" not in rows[0]
    assert rows[1]["status"] == "ok"


def test_sweep_all_points_failing_exits_3(capsys):
    rc, out, err = run_cli(
        capsys,
        ["surface", "--gamma-re", "1",
         "--grid", f"beta:{TWO_SQRT2}:{TWO_SQRT2}:1"],
    )
    assert rc == 3
    assert err == "speclab: all sweep points failed\n"
    rows = json.loads(out)
    assert rows[0]["status"] == "SingularFormulaError"


def test_count_sweep_monotone_in_epsilon(capsys):
    rc, out, _ = run_cli(
        capsys,
        ["count", "--alpha", "1", "--beta", "0",
         "--grid", "epsilon:0.4:0.02:4", "--format", "csv"],
    )
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "epsilon,count,status"
    counts = [int(line.split(",")[1]) for line in lines[1:]]
    # epsilon decreases along the grid, so the counts may only grow
    assert counts == sorted(counts)


# ---------------------------------------------------------------------------
# config file, output file, svg


def test_config_defaults_and_flag_precedence(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"alpha": 5.0, "beta": 1.0}))
    rc, from_cfg, _ = run_cli(capsys, ["mu", "--config", str(cfg)])
    rc2, overridden, _ = run_cli(
        capsys, ["mu", "--config", str(cfg), "--alpha", "1"]
    )
    assert rc == rc2 == 0
    assert json.loads(from_cfg)["mu1"] != json.loads(overridden)["mu1"]
    rc3, direct, _ = run_cli(capsys, ["mu", "--alpha", "1", "--beta", "1"])
    assert overridden == direct


def test_config_lambda_alias(capsys, tmp_path):
    cfg = tmp_path / "id.json"
    cfg.write_text(json.dumps({"lambda": 0.25, "mu": 1.5, "size": 128}))
    rc, out, _ = run_cli(capsys, ["identity-check", "--config", str(cfg)])
    assert rc == 0
    row = json.loads(out)
    assert row["lambda_re"] == 0.25
    assert row["size"] == 128


def test_config_serves_several_commands(capsys, tmp_path):
    cfg = tmp_path / "shared.json"
    cfg.write_text(json.dumps({"alpha": 1.0, "beta": 1.0, "size": 64,
                               "family": "reference", "mu": 1.5}))
    # size, family and mu are not flags of mu: they are skipped
    rc, out, _ = run_cli(capsys, ["mu", "--config", str(cfg)])
    _, direct, _ = run_cli(capsys, ["mu", "--alpha", "1", "--beta", "1"])
    assert rc == 0 and out == direct
    # a config may supply the required --family
    rc, out, _ = run_cli(capsys, ["jacobi-spectrum", "--config", str(cfg)])
    _, direct, _ = run_cli(
        capsys, ["jacobi-spectrum", "--family", "reference", "--mu", "1.5",
                 "--size", "64"],
    )
    assert rc == 0 and out == direct


def test_config_does_not_leak_into_next_run(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"alpha": 5.0}))
    _, before, _ = run_cli(capsys, ["mu", "--beta", "1"])
    run_cli(capsys, ["mu", "--beta", "1", "--config", str(cfg)])
    _, after, _ = run_cli(capsys, ["mu", "--beta", "1"])
    assert after == before
    assert json.loads(after)["mu1"] == "inf"  # alpha keeps its default 0


@pytest.mark.parametrize(
    "command, config",
    [
        ("identity-check", {"size": "12"}),
        ("classify", {"tol": "abc"}),
        ("mu", {"grid": 5}),
        ("mu", {"grid": {"variable": "alpha"}}),
        ("mu", {"alhpa": 3, "beta": 1}),
        ("mu", {"format": "xml"}),
        ("mu", {"alpha": None}),
        ("mu", [1, 2]),
    ],
)
def test_bad_config_exits_2(capsys, tmp_path, command, config):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    rc, out, err = run_cli(capsys, [command, "--config", str(cfg)])
    assert rc == 2
    assert out == ""
    assert err and "Traceback" not in err


def test_bad_config_key_is_named(capsys, tmp_path):
    cfg = tmp_path / "typo.json"
    cfg.write_text(json.dumps({"alhpa": 3, "beta": 1}))
    rc, _, err = run_cli(capsys, ["mu", "--config", str(cfg)])
    assert rc == 2
    assert "'alhpa'" in err


def test_output_file_matches_stdout(capsys, tmp_path):
    argv = ["classify", "--alpha", "1", "--beta", "1", "--format", "csv"]
    rc, stdout_text, _ = run_cli(capsys, argv)
    target = tmp_path / "out.csv"
    rc2, silent, _ = run_cli(capsys, argv + ["--output", str(target)])
    assert rc == rc2 == 0
    assert silent == ""
    assert target.read_text() == stdout_text


# the charts of the lines below, byte for byte
CHARTS = pathlib.Path(__file__).parent / "charts"


def test_transition_scan_svg(capsys, tmp_path):
    svg = tmp_path / "scan.svg"
    rc, out, _ = run_cli(
        capsys,
        ["transition-scan", "--mu", "1.5", "--sizes", "64,128",
         "--lo", "-1", "--hi", "1", "--svg", str(svg)],
    )
    assert rc == 0
    rows = json.loads(out)
    assert [r["size"] for r in rows] == [64, 128]
    assert svg.read_bytes() == (CHARTS / "transition_scan.svg").read_bytes()


def test_asymptotics_svg(capsys, tmp_path):
    svg = tmp_path / "asymptotics.svg"
    rc, out, _ = run_cli(capsys, ["asymptotics", "--mu=1.5", "--svg", str(svg)])
    assert rc == 0
    assert json.loads(out)["mu"] == 1.5
    assert svg.read_bytes() == (CHARTS / "asymptotics.svg").read_bytes()


@pytest.mark.parametrize("argv, chart", [
    (["--grid", "mu:1.0005:1.05:8:log"], "asymptotics_log_grid.svg"),
    # five of the six points fail: the chart draws the one that is ok
    (["--grid", "mu:0.5:1.05:6", "--format", "csv"], "asymptotics_some_points_fail.svg"),
])
def test_asymptotics_grid_svg(capsys, tmp_path, argv, chart):
    svg = tmp_path / "chart.svg"
    rc, _, _ = run_cli(capsys, ["asymptotics", *argv, "--svg", str(svg)])
    assert rc == 0
    assert svg.read_bytes() == (CHARTS / chart).read_bytes()


def test_no_chart_where_every_point_fails(capsys, tmp_path):
    svg = tmp_path / "chart.svg"
    rc, _, err = run_cli(capsys, ["asymptotics", "--grid", "mu:0.5:0.9:3",
                                  "--svg", str(svg)])
    assert rc == 3
    assert err == "speclab: all sweep points failed\n"
    assert not svg.exists()


# ---------------------------------------------------------------------------
# failure modes


def test_single_invalid_params_exit_2(capsys):
    rc, out, err = run_cli(capsys, ["surface", "--beta", "-1"])
    assert rc == 2
    assert out == ""
    assert err.startswith("speclab: ")


@pytest.mark.parametrize("argv, message", [
    (["mu", "--grid", "alpha:x:1:3"],
     "bad grid numbers in 'alpha:x:1:3': could not convert string to float: 'x'"),
    (["mu", "--grid", "alpha:0:1:0"], "grid steps must be >= 1"),
    (["mu", "--grid", "alpha:0:1:3:cubic"], "grid scale must be 'linear' or 'log'"),
    # at the least subnormal beta the form bound constant c overflows to -inf
    (["forms-test", "--alpha", "1", "--beta", "5e-324", "--trials", "1", "--seed", "1"],
     "the forms at CouplingParams(alpha=1.0, beta=5e-324, gamma=0j) are not finite "
     "in double precision"),
    (["h-spectrum", "--alpha", "1", "--beta", "1", "--lambda-min", "-inf"],
     "lambda_min = -inf is not finite"),
    (["h-spectrum", "--alpha", "1", "--beta", "1", "--lambda-min", "nan"],
     "lambda_min = nan is not finite"),
    (["h-spectrum", "--alpha", "1", "--beta", "1", "--lambda-min", "inf"],
     "lambda_min = inf is not finite"),
    # the free point has no branch to search, and reads the flag all the same
    (["h-spectrum", "--alpha", "0", "--beta", "0", "--lambda-min=nan"],
     "lambda_min = nan is not finite"),
    (["h-spectrum", "--alpha", "0", "--beta", "0", "--lambda-min=3"],
     "lambda_min = 3.0 does not leave a search window below 1/2"),
])
def test_rejected_inputs_name_their_fault(capsys, argv, message):
    rc, out, err = run_cli(capsys, argv)
    assert (rc, out, err) == (2, "", f"speclab: {message}\n")


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_parser_reads_back_every_printed_float(x):
    text = _fmt_float(x)
    assert _parse(["mu", "--gamma-im", text])["gamma_im"] == float(text)


def test_parser_negative_numbers_and_options(capsys):
    for text in ("-9.9e-05", "-1e+300", "-.5", "-inf"):
        argv = ["mu", "--gamma-im", text]
        assert _parse(argv)["gamma_im"] == float(text)
        assert vars(_build_parser().parse_args(argv)) == _parse(argv)
    rc, out, _ = run_cli(capsys, ["mu", "--gamma-im", "-x"])
    assert rc == 2 and out == ""


# 2^50 elements: 8 PiB, more than any address space maps
_UNALLOCATABLE = 2**50


@pytest.mark.parametrize("argv", [
    ["mu", "--beta", "1", "--grid", f"alpha:0:1:{_UNALLOCATABLE}"],
    ["jacobi-spectrum", "--family", "reference", "--mu", "1.5",
     "--size", f"{_UNALLOCATABLE}"],
    ["identity-check", "--mu", "1.5", "--size", f"{_UNALLOCATABLE}"],
    ["transition-scan", "--mu", "0.7", "--sizes", f"{_UNALLOCATABLE}"],
], ids=lambda argv: argv[0])
def test_request_too_large_for_memory_exits_2(capsys, argv):
    # numpy's MemoryError used to end the run in a traceback, exit 1
    rc, out, err = run_cli(capsys, argv)
    assert (rc, out) == (2, "")
    assert err.startswith("speclab: Unable to allocate") and err.count("\n") == 1


def test_classify_nan_tol_exit_2(capsys):
    rc, out, err = run_cli(
        capsys, ["classify", "--alpha=1.414213562373095", "--beta", "0", "--tol", "nan"]
    )
    assert rc == 2
    assert out == ""
    assert "tol" in err


class _ReadRecorder(dict):
    """Parsed flags that remember which keys a handler read."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


# one cheap valid line per command; each family of jacobi-spectrum reads
# different flags
_CHEAP_LINES = {
    "mu": [["--alpha=1"]],
    "classify": [["--alpha=1"]],
    "surface": [["--beta=0.5"]],
    "jacobi-spectrum": [[f"--family={family}", "--size=16"] for family in
                        ("reference", "spectral", "counting", "counting-limit")],
    "count": [["--alpha=1"]],
    "h-spectrum": [["--alpha=1"]],
    "discrete2-check": [["--alpha=1"]],
    "asymptotics": [["--mu=1.5"]],
    "identity-check": [["--size=16"]],
    "transition-scan": [["--sizes=16,32"]],
    "forms-test": [["--alpha=1", "--trials=2"]],
}
# flags that run() reads itself, for any command
_RUN_FLAGS = {"grid", "workers", "format", "output", "config", "svg"}


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_every_accepted_flag_is_read(command):
    read = set()
    for line in _CHEAP_LINES[command]:
        a = _ReadRecorder(_parse([command, *line]))
        _COMMANDS[command].rows(a)
        read |= a.read
    assert set(_COMMANDS[command].options) - _RUN_FLAGS - read == set()


_TOL_DROPPED = ["mu", "surface", "count", "discrete2-check", "asymptotics",
                "identity-check", "forms-test"]
_N_CAP_DROPPED = ["mu", "classify", "surface", "jacobi-spectrum", "identity-check",
                  "transition-scan", "forms-test"]


# every command but the two whose _COMMANDS entry declares a chart
_SVG_DROPPED = [c for c in _COMMANDS if c not in ("asymptotics", "transition-scan")]


@pytest.mark.parametrize("command, flag",
                         [(c, "--tol=1e-10") for c in _TOL_DROPPED]
                         + [(c, "--n-cap=4096") for c in _N_CAP_DROPPED]
                         + [(c, "--svg=chart.svg") for c in _SVG_DROPPED])
def test_unread_flag_exits_2(capsys, command, flag):
    rc, out, err = run_cli(capsys, [command, *_CHEAP_LINES[command][0], flag])
    assert (rc, out) == (2, "")
    assert "unrecognized arguments" in err


def test_unknown_command_exits_2(capsys):
    for argv in (["no-such-command"], [], ["--alpha=1", "mu"]):
        rc, out, err = run_cli(capsys, argv)
        assert (rc, out) == (2, "")
        assert err.startswith("speclab: ") and err.count("\n") == 1
        assert "choose from mu, classify" in err


# ---------------------------------------------------------------------------
# the parse: flags and a --config file read against the two tables

_FLOATS = (st.floats(5e-324, 1.7e308) | st.floats(-1.7e308, -5e-324)
           | st.sampled_from([0.0, -0.0, -math.inf]))


def _flag_values(key):
    """Values of the flag ``key``: any number of its type, or any choice."""
    f = _FLAGS[key]
    if f.choices:
        return st.sampled_from(f.choices)
    if f.type is float:
        return _FLOATS
    if f.type is int:
        return st.integers(-(2**62), 2**62)
    if key == "sizes":
        return st.lists(st.integers(0, 10**6), max_size=3).map(tuple)
    # paths and grid specs; the token after a flag is its value, even "-h"
    return st.text(st.sampled_from("ab-=:., 09"), max_size=6) | st.sampled_from(
        ["-h", "--help", "--alpha", "-9.9e-05"])


def _text(value, write_float) -> str:
    if isinstance(value, float):
        return write_float(value)
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


@st.composite
def _parse_cases(draw, config_path):
    """(argv, config object, the values argv asks for): a command and some
    of its flags, each attached or as two tokens, in a random order; some
    others, or the same ones, in a --config file at ``config_path``."""
    command = draw(st.sampled_from(list(_COMMANDS)))
    keys = [k for k in _COMMANDS[command].options if k != "config"]
    config, from_config, from_line, groups = {}, {}, {}, []
    for key in draw(st.lists(st.sampled_from(keys), unique=True, max_size=4)):
        value = from_config[key] = draw(_flag_values(key))
        spelling = draw(st.sampled_from([key, _FLAGS[key].name]))
        config[spelling] = _text(value, repr) if key == "sizes" else value
    for key in draw(st.lists(st.sampled_from(keys), unique=True, max_size=6)):
        value = draw(_flag_values(key))
        text = _text(value, draw(st.sampled_from([repr, _fmt_float])))
        from_line[key] = float(text) if isinstance(value, float) else value
        option = _FLAGS[key].option
        groups.append(draw(st.sampled_from([[f"{option}={text}"], [option, text]])))
    if config:
        groups.append(draw(st.sampled_from([[f"--config={config_path}"],
                                            ["--config", str(config_path)]])))
    groups = draw(st.permutations(groups))
    argv = [command, *(token for group in groups for token in group)]
    return argv, config, from_config | from_line


_PARSE_SETTINGS = settings(derandomize=True, max_examples=400, deadline=None)


def test_parse_overlays_the_defaults_the_config_and_the_line(tmp_path_factory):
    path = tmp_path_factory.mktemp("parse") / "config.json"

    @_PARSE_SETTINGS
    @given(_parse_cases(path))
    def check(case):
        argv, config, values = case
        path.write_text(json.dumps(config))
        expected = {key: _FLAGS[key].default for key in _COMMANDS[argv[0]].options}
        expected |= {"command": argv[0]} | values
        if config:
            expected["config"] = str(path)
        if expected.get("family", "") is None:
            with pytest.raises(InvalidParametersError, match="--family is required"):
                _parse(argv)
        else:
            assert _parse(argv) == expected

    check()


def test_malformed_line_exits_2_with_one_message(tmp_path_factory):
    path = tmp_path_factory.mktemp("parse") / "config.json"

    @_PARSE_SETTINGS
    @given(_parse_cases(path), st.data())
    def check(case, data):
        (command, *tokens), config, _ = case
        path.write_text(json.dumps(config))
        options = _COMMANDS[command].options
        how = data.draw(st.sampled_from(["command", "unread", "value", "no value"]))
        if how == "command":
            argv = [data.draw(st.sampled_from(["no-such-command", "MU", "-9.9e-05"])), *tokens]
            argv = data.draw(st.sampled_from([argv, tokens]))  # or none at all
        elif how == "unread":
            # a flag of another command, an abbreviation, or no flag at all
            others = [f.option for key, f in _FLAGS.items() if key not in options]
            option = data.draw(st.sampled_from([*others, "--eps", "--no-such-flag"]))
            extra = [f"{option}=1"]
            argv = data.draw(st.sampled_from([[command, *extra, *tokens],
                                              [command, *tokens, *extra]]))
        else:
            f = _FLAGS[data.draw(st.sampled_from([k for k in options if k != "config"]))]
            if how == "value" and not f.choices and f.type is str:
                f = _FLAGS["workers"]  # a path or a grid spec reads any text
            extra = ([f.option] if how == "no value" else
                     data.draw(st.sampled_from([[f"{f.option}=x"], [f.option, "1.5x"]])))
            argv = [command, *tokens, *extra]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = run(argv)
        assert (rc, out.getvalue()) == (2, ""), argv
        assert err.getvalue().startswith("speclab: ") and err.getvalue().count("\n") == 1

    check()


def _fresh_interpreter(code: str, *args: str, numpy_blocked: bool = False) -> str:
    """The stdout of ``code`` run with ``args`` in a new Python process that
    imports this speclab; with ``numpy_blocked``, one that refuses numpy and
    the numeric modules (``tests/numpy_blocked.py``)."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = os.environ | {"PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    head = [str(pathlib.Path(__file__).with_name("numpy_blocked.py"))] if numpy_blocked else ["-c"]
    proc = subprocess.run([sys.executable, *head, code, *args], capture_output=True,
                          text=True, env=env, check=True)
    return proc.stdout


def test_help_comes_from_the_tables_without_argparse(capsys):
    # in a fresh interpreter: no command line brings argparse in
    code = ("import sys; from speclab.cli import run; "
            "assert run(['mu', '--alpha=1']) == 0; print('argparse' in sys.modules)")
    assert _fresh_interpreter(code).splitlines()[-1] == "False"
    rc, out, err = run_cli(capsys, ["h-spectrum", "--help"])
    assert (rc, err) == (0, "")
    assert out.startswith("usage: speclab h-spectrum")
    assert {_FLAGS[key].option for key in _COMMANDS["h-spectrum"].options} <= set(out.split())
    rc, out, _ = run_cli(capsys, ["-h"])
    assert rc == 0 and set(_COMMANDS) <= set(out.split())


# runs each command line of argv[1] and prints [[exit code, stdout], ...]
_RUNS = """
import contextlib, io, json, sys
from speclab.cli import run

answers = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        answers.append([run(argv), out.getvalue()])
print(json.dumps(answers))
"""

# a single run and a linear grid of each closed-form command
_CLOSED_FORM = [
    ("mu", ["--alpha=1", "--beta=1", "--gamma-re=0.3", "--gamma-im=-0.2"], "alpha:0:3:7"),
    ("classify", ["--alpha=1.4", "--beta=1"], "gamma_im:-1:1:6"),
    ("classify", ["--alpha=1.3", "--beta=0", "--tol=1e-3"], "alpha:-2:2:5"),
    ("surface", ["--beta=0.5", "--gamma-re=0.8"], "beta:0:4:9"),
]


def test_closed_form_commands_run_without_numpy(monkeypatch):
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    argvs = [["-h"], ["surface", "-h"]]
    for command, flags, grid in _CLOSED_FORM:
        for fmt in ("--format=json", "--format=csv"):
            argvs.append([command, *flags, fmt])
            argvs += [[command, *flags, f"--grid={grid}", f"--workers={w}", fmt] for w in (1, 2)]
    # the query whose answer times the sweep workload's set-up
    argvs += [list(workloads.setup_query("sweep", seed).argv) for seed in (0, 1)]
    blocked = json.loads(_fresh_interpreter(_RUNS, json.dumps(argvs), numpy_blocked=True))
    assert [rc for rc, _ in blocked] == [0] * len(argvs)
    assert blocked == json.loads(_fresh_interpreter(_RUNS, json.dumps(argvs)))
    # the blocked interpreter refuses what the other commands import
    with pytest.raises(subprocess.CalledProcessError):
        _fresh_interpreter(_RUNS, json.dumps([["count", "--alpha=1.3"]]), numpy_blocked=True)


# ---------------------------------------------------------------------------
# every command at random flag values

# values beside mu = 1, sqrt(2) and 2 sqrt(2), where branches turn critical
# or a formula is singular
_NEAR = [s * c * (1.0 + e) for c in (1.0, SQRT2, 2.0 * SQRT2) for s in (1.0, -1.0)
         for e in (0.0, 2.0**-52, -(2.0**-52), 1e-12, -1e-12, 1e-6, -1e-6, 1e-3, -1e-3)]
_FUZZ_FLOATS = _FLOATS.filter(math.isfinite) | st.sampled_from(_NEAR) | st.floats(-3.0, 3.0)
# flags that would write files, fork or read a config stay at their defaults;
# the ones that size the work are always given, and small
_FUZZ_SMALL = {"size": st.integers(-1, 24), "trials": st.integers(-1, 6),
               "n_cap": st.integers(0, 2048),
               "sizes": st.lists(st.integers(-1, 24), max_size=3).map(tuple)}
_FUZZ_SKIPPED = {"workers", "output", "config", "svg", "grid"}
# the flag that takes each printed column; other floats go back through
# --lambda and other integers through --seed
_TAKES = {"mu1": "mu", "mu2": "mu", "mu_beta0": "mu", "branch_mus": "mu", "alpha_c": "alpha",
          "eigenvalues": "lam", "smallest": "lo", "lambda_re": "lam", "lambda_im": "lam_im",
          "c": "lambda_min", "truncation_size": "n_cap", "counted": "size"}


@st.composite
def _fuzz_lines(draw):
    """A command and values for some of its flags, perhaps swept by a short grid."""
    command = draw(st.sampled_from(list(_COMMANDS)))
    argv = [command]
    for key in _COMMANDS[command].options:
        f = _FLAGS[key]
        if key in _FUZZ_SKIPPED or not (f.required or key in _FUZZ_SMALL or draw(st.booleans())):
            continue
        if key in _FUZZ_SMALL:
            value = _text(draw(_FUZZ_SMALL[key]), repr)
        elif f.choices:
            value = draw(st.sampled_from(f.choices))
        elif f.type is int:
            value = str(draw(st.integers(-(2**62), 2**62)))
        else:
            value = draw(st.sampled_from(["nan", "inf", "-inf"])
                         | _FUZZ_FLOATS.map(draw(st.sampled_from([repr, _fmt_float]))))
        argv += [f.option, value]
    if draw(st.integers(0, 3)) == 0:
        variable = _FLAGS[draw(st.sampled_from(_COMMANDS[command].grid))].name
        ends = [draw(st.sampled_from(["nan", "inf", "-inf"]) | _FUZZ_FLOATS.map(_fmt_float))
                for _ in range(2)]
        scale = draw(st.sampled_from(["linear", "log"]))
        argv += ["--grid", f"{variable}:{ends[0]}:{ends[1]}:{draw(st.integers(1, 3))}:{scale}"]
    return argv


class _Number(str):
    """A number token of printed JSON, as it was printed."""


def _printed_numbers(value, key=None):
    """(column, token) for every number in a row parsed with ``_Number``
    tokens; "inf" and "-inf" are numbers printed as strings."""
    if isinstance(value, dict):
        return [x for k, v in value.items() for x in _printed_numbers(v, k)]
    if isinstance(value, list):
        return [x for v in value for x in _printed_numbers(v, key)]
    return [(key, value)] if isinstance(value, _Number) or value in ("inf", "-inf") else []


def _reads_back(key, text):
    """Whether ``text`` parses through the flag that takes column ``key``."""
    is_int = text.lstrip("-").isdigit()
    flag = key if key in _FLAGS else _TAKES.get(key, "seed" if is_int else "lam")
    command = next(c for c, cmd in _COMMANDS.items()
                   if flag in cmd.options and "family" not in cmd.options)
    want = int(text) if _FLAGS[flag].type is int else float(text)
    return _parse([command, _FLAGS[flag].option, text])[flag] == want


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(_fuzz_lines())
def test_every_command_at_random_flag_values(argv):
    # no exception leaves run; a success writes nothing to stderr, prints no
    # nan, and every number it prints parses again through the flag that
    # takes it; any other exit writes exactly one speclab: line
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = run(argv)
    out, err = out.getvalue(), err.getvalue()
    if rc != 0:
        assert rc in (2, 3), argv
        assert err.startswith("speclab: ") and err.count("\n") == 1, (argv, err)
        return
    assert err == "", (argv, err)
    assert "nan" not in out, argv
    if _parse(argv)["format"] == "json":
        row = json.loads(out, parse_float=_Number, parse_int=_Number)
        for key, text in _printed_numbers(row):
            assert _reads_back(key, text), (argv, key, text)


def test_grid_variable_not_used_by_command(capsys):
    rc, _, err = run_cli(capsys, ["mu", "--grid", "mu:1:2:3"])
    assert rc == 2
    assert "does not use grid variable" in err


@pytest.mark.parametrize("grid", ["alpha:7.26823042218926e+307:-1.07087009264339e+308:3",
                                  "alpha:nan:1:2", "alpha:1:inf:2", "alpha:-inf:inf:1:log"])
def test_grid_with_a_span_past_the_float_range_exits_2(capsys, grid):
    # np.linspace warned of the overflow, and the points were nan or inf:
    # "alpha:nan:1:2" printed a nan point and exited 0
    rc, out, err = run_cli(capsys, ["mu", "--beta", "1", "--grid", grid])
    assert (rc, out) == (2, "")
    assert err == f"speclab: grid ends and their span must be finite, got {grid!r}\n"


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False),
       st.floats(allow_nan=False, allow_infinity=False),
       st.one_of(st.integers(2, 64), st.integers(2, 20_000)))
@example(0.0, 5e-324, 3)  # delta / div underflows to 0: numpy's step == 0 branch
@example(-5e-324, 1e-323, 4)
@example(1.5, 1.5, 5)  # start == stop
@example(-0.0, -0.0, 3)
@example(3.0, -2.5, 2)  # a reversed span
@example(1e300, -1e300, 7)
@example(0.0, 1.7976931348623157e308, 28)  # 27 * step overflows, in numpy alone
@example(-0.1, 0.3, 300_001)  # a large step count
def test_linear_grid_points_are_numpy_linspace(start, stop, steps):
    assume(math.isfinite(stop - start))
    key, points = cli._parse_grid(f"alpha:{start!r}:{stop!r}:{steps}", "mu")
    with np.errstate(over="ignore"):  # numpy's last i * step may overflow; stop replaces it
        expected = [float(v) for v in np.linspace(start, stop, steps)]
    assert key == "alpha"
    assert [p.hex() for p in points] == [v.hex() for v in expected]  # bit for bit


def test_grid_malformed_spec(capsys):
    rc, _, err = run_cli(capsys, ["mu", "--grid", "alpha:0:1"])
    assert rc == 2
    assert "grid must look like" in err


def test_grid_unknown_variable(capsys):
    rc, _, err = run_cli(capsys, ["mu", "--grid", "bogus:0:1:4"])
    assert rc == 2
    assert "grid variable" in err


def test_log_grid_rejects_nonpositive_endpoints(capsys):
    rc, _, err = run_cli(capsys, ["mu", "--grid", "alpha:-1:1:4:log"])
    assert rc == 2
    assert "log grids" in err
