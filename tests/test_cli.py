"""Command-line interface: parsing, rendering, exit codes, file handling."""

import json
import math

import numpy as np
import pytest

from quantest.cli import UsageError, load_column, main, render
from quantest.inference import q_test_one
from quantest.measures import resolve_measure
from quantest.qcov import qcov
from conftest import data_path

BLADDER = str(data_path("bladder_remission.csv"))


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_tail_json(stdout: str) -> dict:
    """TSV header line + TSV value line, then a JSON document."""
    lines = stdout.splitlines()
    return json.loads("\n".join(lines[2:]))


# ---------------------------------------------------------------------------
# load_column


def test_load_column_by_name(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("a,b\n1,10\n2,20\n")
    values, skipped, name = load_column(str(f), "b")
    np.testing.assert_array_equal(values, [10.0, 20.0])
    assert skipped == 0
    assert name == "b"


def test_load_column_defaults_to_first(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("a,b\n1,10\n2,20\n")
    values, _, name = load_column(str(f))
    np.testing.assert_array_equal(values, [1.0, 2.0])
    assert name == "a"


def test_load_column_by_index(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("a,b\n1,10\n2,20\n")
    values, _, name = load_column(str(f), "1")
    np.testing.assert_array_equal(values, [10.0, 20.0])
    assert name == "b"


def test_load_column_skips_bad_cells(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("a\n1\n\nx\n4\ninf\n")
    values, skipped, _ = load_column(str(f), "a")
    np.testing.assert_array_equal(values, [1.0, 4.0])
    assert skipped == 3  # blank row, non-numeric, non-finite


def test_load_column_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(UsageError, match="is empty"):
        load_column(str(empty))
    f = tmp_path / "d.csv"
    f.write_text("a,b\n1,2\n")
    with pytest.raises(UsageError, match="available columns: a, b"):
        load_column(str(f), "c")
    with pytest.raises(UsageError, match="out of range"):
        load_column(str(f), "5")
    nohdr = tmp_path / "n.csv"
    nohdr.write_text("a\nx\ny\n")
    with pytest.raises(UsageError, match="no usable numeric rows"):
        load_column(str(nohdr), "a")
    with pytest.raises(UsageError, match="cannot read"):
        load_column(str(tmp_path / "missing.csv"))


def test_skip_warning_goes_to_stderr(tmp_path, capsys):
    f = tmp_path / "d.csv"
    f.write_text("a\n1\nx\n3\n4\n5\n")
    code, _, err = run(capsys, ["qtest", str(f), "--measure", "median"])
    assert code == 0
    assert "warning: skipped 1 row(s)" in err


# ---------------------------------------------------------------------------
# qtest rendering


def test_qtest_text_report(capsys):
    code, out, _ = run(capsys, ["qtest", BLADDER, "--measure", "median"])
    assert code == 0
    assert "\tOne sample test of the median" in out
    assert "data:  x" in out
    assert "Z = 9.408, p-value < 2.2e-16" in out
    assert "alternative hypothesis: true median is not equal to 0" in out
    assert "95 percent confidence interval:" in out
    assert " 5.06273 7.72727" in out
    assert "sample estimates:" in out
    assert " 6.395" in out


def test_qtest_json_matches_api(capsys, bladder):
    code, out, _ = run(capsys, ["qtest", BLADDER, "--measure", "median",
                                "--format", "json"])
    assert code == 0
    got = json.loads(out)
    want = q_test_one(bladder, resolve_measure("median"))
    assert got["estimate"] == want.estimate
    assert got["se"] == want.se
    assert got["statistic_Z"] == want.statistic_Z
    assert got["p_value"] == want.p_value
    assert got["conf_int"] == list(want.conf_int)
    assert got["null_value"] == 0.0
    assert got["alternative"] == "two_sided"
    assert got["scale"] == "identity"


def test_qtest_two_sample(capsys):
    code, out, _ = run(capsys, ["qtest", BLADDER, BLADDER,
                                "--measure", "median", "--format", "json"])
    assert code == 0
    got = json.loads(out)
    assert got["estimate"] == 0.0
    assert got["p_value"] == 1.0
    assert got["data_name"] == "x and y"
    assert got["description"].startswith("Two sample")


def test_custom_contrast_matches_named_measure(capsys):
    _, out_named, _ = run(capsys, ["qtest", BLADDER, "--measure", "iqr",
                                   "--format", "json"])
    _, out_custom, _ = run(capsys, ["qtest", BLADDER, "--u", "0.25,0.75",
                                    "--coef=-1,1", "--format", "json"])
    named, custom = json.loads(out_named), json.loads(out_custom)
    for key in ("estimate", "se", "statistic_Z", "p_value", "conf_int"):
        assert named[key] == custom[key]


def test_coef_row_matrix_matches_ratio_flags(capsys):
    flags = ["qtest", BLADDER, "--log", "--back", "--format", "json"]
    _, out_rows, _ = run(capsys, flags + [
        "--u", "0.25,0.5,0.75",
        "--coef-row=-0.75,0,0.75", "--coef-row=0,1,0"])
    _, out_pair, _ = run(capsys, flags + [
        "--u", "0.25,0.75", "--coef=-0.75,0.75",
        "--u2", "0.5", "--coef2", "1"])
    _, out_named, _ = run(capsys, flags + ["--measure", "rCViqr"])
    rows, pair, named = (json.loads(s) for s in (out_rows, out_pair, out_named))
    for key in ("estimate", "se", "statistic_Z", "p_value", "conf_int"):
        assert rows[key] == pair[key] == named[key]


def test_alternative_and_level_flags(capsys):
    code, out, _ = run(capsys, ["qtest", BLADDER, "--measure", "median",
                                "--alternative", "greater", "--level", "0.9",
                                "--true-q", "5"])
    assert code == 0
    assert "true median is greater than 5" in out
    assert "90 percent confidence interval:" in out
    assert "Inf" in out


def test_render_function_json_mode(bladder):
    r = q_test_one(bladder, resolve_measure("median"))
    assert json.loads(render(r, "json"))["estimate"] == r.estimate
    assert "Z = " in render(r, "text")


# ---------------------------------------------------------------------------
# qineq


def test_qineq_text(tmp_path, capsys):
    rng = np.random.default_rng(44)
    f = tmp_path / "ln.csv"
    f.write_text("v\n" + "\n".join(f"{v:.9g}" for v in rng.lognormal(size=400)))
    code, out, _ = run(capsys, ["qineq", str(f)])
    assert code == 0
    assert "One sample test of the QRI" in out
    assert "true QRI is not equal to 0.5" in out


def test_qineq_g2_and_null_override(tmp_path, capsys):
    rng = np.random.default_rng(45)
    f = tmp_path / "ln.csv"
    f.write_text("v\n" + "\n".join(f"{v:.9g}" for v in rng.lognormal(size=300)))
    code, out, _ = run(capsys, ["qineq", str(f), "--measure", "G2",
                                "--true-ineq", "0.3", "--format", "json"])
    assert code == 0
    got = json.loads(out)
    assert got["estimate_label"] == "G2"
    assert got["null_value"] == 0.3


@pytest.mark.parametrize("measure, two_sample", [("QRI", False), ("G2", True)])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_qtest_index_prints_what_qineq_prints(tmp_path, capsys, measure, two_sample, fmt):
    # qtest tests against --true-q; qineq's one-sample null defaults to 0.5
    rng = np.random.default_rng(47)
    files = []
    for name in ("x.csv", "y.csv"):
        f = tmp_path / name
        f.write_text("v\n" + "\n".join(f"{v:.9g}" for v in rng.lognormal(size=250)))
        files.append(str(f))
    data = files if two_sample else files[:1]
    null = [] if two_sample else ["--true-q", "0.5"]
    code, via_qtest, _ = run(capsys, ["qtest", *data, "--measure", measure, *null,
                                      "--format", fmt])
    assert code == 0
    code, via_qineq, _ = run(capsys, ["qineq", *data, "--measure", measure,
                                      "--format", fmt])
    assert code == 0
    assert via_qtest == via_qineq


def test_qineq_negative_data_is_computation_error(tmp_path, capsys):
    f = tmp_path / "neg.csv"
    f.write_text("v\n-1\n2\n3\n4\n5\n")
    code, _, err = run(capsys, ["qineq", str(f)])
    assert code == 1
    assert "requires positive data" in err


# ---------------------------------------------------------------------------
# qcov


def test_qcov_json_fields(capsys):
    code, out, _ = run(capsys, ["qcov", BLADDER, "--u", "0.25,0.5,0.75",
                                "--format", "json"])
    assert code == 0
    got = json.loads(out)
    assert got["probs"] == [0.25, 0.5, 0.75]
    assert got["n"] == 128
    assert got["sigma"] == 1.0
    assert got["shift"] is None
    assert got["floored"] == []
    assert got["method"] == {"kind": "qor", "sigma": 1.0}
    m = np.array(got["matrix"])
    assert m.shape == (3, 3)
    np.testing.assert_allclose(m, m.T)
    x = np.loadtxt(BLADDER, skiprows=1)
    assert got["bandwidths"] == list(qcov(x, [0.25, 0.5, 0.75]).bandwidths)


def test_qcov_text_mentions_bandwidth_model(capsys):
    code, out, _ = run(capsys, ["qcov", BLADDER, "--u", "0.5"])
    assert code == 0
    assert "covariance matrix of sample quantiles (n = 128" in out
    assert "lognormal QOR bandwidth, sigma = 1" in out


def test_qcov_density_method(capsys):
    code, out, _ = run(capsys, ["qcov", BLADDER, "--u", "0.5",
                                "--var-method", "density", "--format", "json"])
    assert code == 0
    got = json.loads(out)
    assert got["method"] == {"kind": "density", "sigma": None}
    assert got["sigma"] is None


def test_qcov_bad_probability_is_usage_error(capsys):
    code, _, err = run(capsys, ["qcov", BLADDER, "--u", "1.5"])
    assert code == 2
    assert "error:" in err


def test_qcov_nan_probability_is_usage_error(capsys):
    code, _, err = run(capsys, ["qcov", BLADDER, "--u=nan,0.5"])
    assert code == 2
    assert "strictly inside (0, 1)" in err


# ---------------------------------------------------------------------------
# verify subcommands


def test_verify_coverage_output_shape(capsys):
    code, out, _ = run(capsys, ["verify", "coverage", "--dist", "normal",
                                "--n", "40", "--reps", "100",
                                "--measure", "median", "--seed", "7"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "coverage\tavg_width\tmc_se"
    cells = lines[1].split("\t")
    assert len(cells) == 3
    assert 0.0 <= float(cells[0]) <= 1.0
    got = parse_tail_json(out)
    assert got["command"] == "verify coverage"
    assert got["distribution"] == "normal"
    assert got["seed"] == 7
    assert got["rng"] == "numpy PCG64, per-replicate SeedSequence.spawn streams"
    assert got["coverage"] == float(cells[0]) or abs(got["coverage"] - float(cells[0])) < 1e-6


def test_verify_coverage_inequality_measure(capsys):
    code, out, _ = run(capsys, ["verify", "coverage", "--dist", "lognormal",
                                "--n", "200", "--reps", "100",
                                "--measure", "QRI", "--seed", "1"])
    assert code == 0
    got = parse_tail_json(out)
    assert got["measure"] == "QRI"
    assert 0.5 <= got["coverage"] <= 1.0


def test_verify_bootstrap_output(tmp_path, capsys):
    rng = np.random.default_rng(46)
    f = tmp_path / "ln.csv"
    f.write_text("v\n" + "\n".join(f"{v:.9g}" for v in rng.lognormal(size=150)))
    code, out, _ = run(capsys, ["verify", "bootstrap", str(f),
                                "--measure", "iqr", "--B", "600", "--seed", "3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "bootstrap_se\tB\tseed"
    got = parse_tail_json(out)
    assert got["B"] == 600
    assert got["n"] == 150
    assert got["bootstrap_se"] > 0.0


@pytest.mark.parametrize("argv", [
    ["verify", "coverage", "--dist", "lognormal", "--n", "50", "--reps", "100",
     "--measure", "G2", "--J", "25"],
    ["verify", "bootstrap", BLADDER, "--measure", "qr9010", "--B", "500"],
])
def test_verify_json_format_is_the_json_block_of_text(capsys, argv):
    code, text, _ = run(capsys, argv)
    assert code == 0
    code, out, _ = run(capsys, argv + ["--format", "json"])
    assert code == 0
    assert json.loads(out) == parse_tail_json(text)
    assert text.splitlines()[2:] == out.splitlines()


def test_verify_index_takes_no_tail_parameter(capsys):
    code, _, err = run(capsys, ["verify", "coverage", "--dist", "lognormal",
                                "--n", "50", "--reps", "100",
                                "--measure", "QRI", "--p", "0.2"])
    assert code == 2
    assert "takes no tail parameter" in err


def test_verify_bootstrap_b_too_small(tmp_path, capsys):
    f = tmp_path / "d.csv"
    f.write_text("a\n1\n2\n3\n")
    code, _, err = run(capsys, ["verify", "bootstrap", str(f), "--B", "100"])
    assert code == 2
    assert "at least 500" in err


def test_verify_coverage_reps_too_small(capsys):
    code, _, err = run(capsys, ["verify", "coverage", "--dist", "normal",
                                "--n", "40", "--reps", "50"])
    assert code == 2
    assert "100 replications" in err


# ---------------------------------------------------------------------------
# seeding via environment


def test_env_seed_used_when_flag_absent(capsys, monkeypatch):
    monkeypatch.setenv("QUANTEST_SEED", "123")
    _, out, _ = run(capsys, ["verify", "coverage", "--dist", "normal",
                             "--n", "40", "--reps", "100"])
    assert parse_tail_json(out)["seed"] == 123


def test_flag_overrides_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("QUANTEST_SEED", "123")
    _, out, _ = run(capsys, ["verify", "coverage", "--dist", "normal",
                             "--n", "40", "--reps", "100", "--seed", "9"])
    assert parse_tail_json(out)["seed"] == 9


def test_bad_env_seed_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("QUANTEST_SEED", "abc")
    code, _, err = run(capsys, ["verify", "coverage", "--dist", "normal",
                                "--n", "40", "--reps", "100"])
    assert code == 2
    assert "QUANTEST_SEED" in err


# ---------------------------------------------------------------------------
# exit codes


@pytest.mark.parametrize("argv", [
    ["qtest", BLADDER],                                      # no measure
    ["qtest", BLADDER, "--measure", "median", "--u", "0.5"],  # both
    ["qtest", BLADDER, "--measure", "nosuch"],               # unknown name
    ["qtest", BLADDER, "--measure", "median", "--p", "0.3"],  # stray tail param
    ["qtest", BLADDER, "--measure", "bowley", "--p", "0.7"],  # bad tail param
    ["qtest", BLADDER, "--u", "1.5"],                        # prob out of range
    ["qtest", BLADDER, "--u", "0.5", "--coef", "ab"],        # non-numeric coef
    ["qtest", BLADDER, "--measure", "median", "--back"],     # back without log
    ["qtest", BLADDER, "--u", "0.25,0.75", "--coef-row", "1,1"],  # one row only
    ["qtest", "/nonexistent/file.csv", "--measure", "median"],
    ["qtest", BLADDER, "--measure", "median", "--level", "1.5"],
])
def test_usage_errors_exit_2(capsys, argv):
    code, _, err = run(capsys, argv)
    assert code == 2
    assert "error" in err.lower()


def test_argparse_errors_exit_2(capsys):
    assert run(capsys, [])[0] == 2
    assert run(capsys, ["nosuchcommand"])[0] == 2
    assert run(capsys, ["qtest", BLADDER, "--measure", "median",
                        "--type", "3"])[0] == 2


def test_help_exits_zero(capsys):
    assert run(capsys, ["--help"])[0] == 0
    assert run(capsys, ["qtest", "--help"])[0] == 0


def test_computation_errors_exit_1(tmp_path, capsys):
    f = tmp_path / "flat.csv"
    f.write_text("a\n" + "\n".join(["5"] * 30))
    code, _, err = run(capsys, ["qtest", str(f), "--measure", "median"])
    assert code == 1
    assert "error" in err.lower()
