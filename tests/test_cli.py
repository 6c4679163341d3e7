"""End-to-end tests of the batch front end, run in-process via ``run``."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from speclab.cli import _build_parser, _fmt_float, run

SQRT2 = math.sqrt(2.0)
TWO_SQRT2 = repr(2.0 * SQRT2)  # exact decimal form of the singular beta


def run_cli(capsys, argv):
    """Exit code, stdout and stderr, whether ``run`` returns or argparse exits."""
    try:
        rc = run(argv)
    except SystemExit as exc:
        rc = exc.code
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
     '"eigenvalues": [0.47541226427148], "truncation_size": 4096, '
     '"method_agreement": 3.92493815226658e-11}\n'),
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
     '"min_margin": 2.61780668558574}\n'),
    (["classify", "--alpha", "1", "--beta", "0", "--format", "csv"],
     "kind,branch1,mu1,kind1,branch2,mu2,kind2\n"
     "Subcritical,BetaZero,1.41421356237309,Subcritical,,,\n"),
    (["identity-check", "--mu", "1.5", "--size", "64", "--grid", "lambda:0:1:3"],
     '[{"lam": 0, "mu": 1.5, "lambda_re": 0, "lambda_im": 0, "size": 64, '
     '"residual": 0, "max_interior_residual": 8.16855397570965e-17, "status": "ok"},\n'
     ' {"lam": 0.5, "status": "BranchCutError"},\n'
     ' {"lam": 1, "status": "BranchCutError"}]\n'),
]


@pytest.mark.parametrize("argv, expected", PINNED, ids=[a[0] for a, _ in PINNED])
def test_pinned_output(capsys, argv, expected):
    rc, out, _ = run_cli(capsys, argv)
    assert rc == 0
    assert out == expected


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
    assert "all sweep points failed" in err
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
    text = svg.read_text()
    assert text.startswith("<svg ") and text.rstrip().endswith("</svg>")
    assert "polyline" in text


# ---------------------------------------------------------------------------
# failure modes


def test_single_invalid_params_exit_2(capsys):
    rc, out, err = run_cli(capsys, ["surface", "--beta", "-1"])
    assert rc == 2
    assert out == ""
    assert err.startswith("speclab: ")


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_parser_reads_back_every_printed_float(x):
    text = _fmt_float(x)
    args = _build_parser().parse_args(["mu", "--gamma-im", text])
    assert args.gamma_im == float(text)


def test_parser_negative_numbers_and_options(capsys):
    for text in ("-9.9e-05", "-1e+300", "-.5", "-inf"):
        args = _build_parser().parse_args(["mu", "--gamma-im", text])
        assert args.gamma_im == float(text)
    rc, out, _ = run_cli(capsys, ["mu", "--gamma-im", "-x"])
    assert rc == 2 and out == ""


def test_parser_built_once():
    assert _build_parser() is _build_parser()


def test_classify_nan_tol_exit_2(capsys):
    rc, out, err = run_cli(
        capsys, ["classify", "--alpha=1.414213562373095", "--beta", "0", "--tol", "nan"]
    )
    assert rc == 2
    assert out == ""
    assert "tol" in err


def test_unknown_command_raises_argparse_exit(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["no-such-command"])
    assert exc.value.code == 2


def test_grid_variable_not_used_by_command(capsys):
    rc, _, err = run_cli(capsys, ["mu", "--grid", "mu:1:2:3"])
    assert rc == 2
    assert "does not use grid variable" in err


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
