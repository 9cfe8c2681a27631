"""Command-line interface: parsing, rendering, exit codes, file handling."""

import argparse
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quantest import cli
from quantest.cli import UsageError, load_column, main, render
from quantest.inference import TestOptions, q_test_one, q_test_two, qineq_test
from quantest.measures import InequalitySpec, resolve_measure
from quantest.qcov import qcov
from quantest.qdensity import QdMethod
from quantest.verify import Distribution, SimConfig, coverage_sim
from conftest import data_path

BLADDER = str(data_path("bladder_remission.csv"))
NORM100 = str(data_path("norm100_seed1234.csv"))
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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


def test_load_column_skip_rules(tmp_path):
    kept = ["0.1", " 2.5 ", "\t-3e-300\t", "-0.0", "1_000", "7"]
    bad = ["nan", "inf", "-inf", "1e999", "", "text", None]  # None: a short row
    rows = [f"{i},{cell}" if cell is not None else f"{i}"
            for i, cell in enumerate(kept[:3] + bad + kept[3:])]
    f = tmp_path / "d.csv"
    f.write_text("i,v\n" + "\n".join(rows) + "\n")
    values, skipped, name = load_column(str(f), "v")
    assert (name, skipped) == ("v", len(bad))
    assert values.dtype == np.float64
    assert values.tobytes() == np.array([float(c) for c in kept]).tobytes()


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
    blank = tmp_path / "b.csv"
    blank.write_text("a\n\n\r\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # np.loadtxt warns on a file with no data
        with pytest.raises(UsageError, match="no usable numeric rows"):
            load_column(str(blank), "a")
    with pytest.raises(UsageError, match="cannot read"):
        load_column(str(tmp_path / "missing.csv"))


@pytest.mark.parametrize("na", ["", "NA"])
def test_load_column_ignores_a_utf8_bom(tmp_path, capsys, na):
    # Excel's "CSV UTF-8" starts with a byte-order mark; a clean file takes
    # the C reader, one with an NA cell the row loop
    f = tmp_path / "bom.csv"
    f.write_bytes("\ufeffvalue,w\r\n1.5,2\r\n2.5,4\r\n{},5\r\n3.5,6\r\n".format(na or "7")
                  .encode("utf-8"))
    values, skipped, name = load_column(str(f), "value")
    assert (name, skipped) == ("value", 1 if na else 0)
    assert values.tolist() == ([1.5, 2.5, 3.5] if na else [1.5, 2.5, 7.0, 3.5])
    code, _, err = run(capsys, ["qtest", str(f), "--column", "value", "--measure", "median"])
    assert code == 0
    assert ("skipped 1 row(s)" in err) == bool(na)


@pytest.mark.parametrize("where", ["header", "late row"])
def test_undecodable_file_is_a_usage_error(tmp_path, capsys, where):
    # a Latin-1 e-acute (byte 0xe9) is not UTF-8, in the header or past the
    # first block the decoder reads
    rows = ["1.0"] * 5000 + (["caf\xe9"] if where == "late row" else [])
    f = tmp_path / "latin1.csv"
    f.write_bytes((("caf\xe9" if where == "header" else "value") + "\n"
                   + "\n".join(rows) + "\n").encode("latin-1"))
    with pytest.raises(UsageError,
                       match=re.escape(f"cannot read {f}: 'utf-8' codec can't decode")):
        load_column(str(f))
    code, _, err = run(capsys, ["qtest", str(f), "--measure", "median"])
    assert code == 2
    assert err.startswith(f"error: cannot read {f}:")


def test_csv_error_is_a_usage_error(tmp_path, capsys):
    # the csv module's own errors (Python 3.10 raises one on a NUL byte; every
    # version on a field over csv.field_size_limit()) are input errors too
    f = tmp_path / "long.csv"
    f.write_text("value\n1\n" + "x" * 200_000 + "\n2\n")
    with pytest.raises(UsageError,
                       match=re.escape(f"cannot read {f}: field larger than field limit")):
        load_column(str(f))
    code, _, err = run(capsys, ["qtest", str(f), "--measure", "median"])
    assert code == 2
    assert "cannot read" in err


def test_clean_file_skips_the_row_loop(tmp_path, monkeypatch):
    # files of numbers alone are read by the C reader alone: with CRLF line
    # ends, a quoted cell and no final newline, or with empty lines
    monkeypatch.setattr(cli, "_read_rows", mock.Mock(side_effect=AssertionError("row loop")))
    f = tmp_path / "clean.csv"
    f.write_bytes(b'i,v\r\n0,"0.5"\r\n1,-2e-3\r\n2, 7 \r\n3,1e999')
    values, skipped, name = load_column(str(f), "v")
    assert (name, skipped) == ("v", 1)  # the infinite cell
    assert values.tobytes() == np.array([0.5, -2e-3, 7.0]).tobytes()
    f.write_bytes(b"v\n\n1.5\n\n\n-0.0\n\n")
    values, skipped, _ = load_column(str(f))
    assert skipped == 4  # the empty lines
    assert values.tobytes() == np.array([1.5, -0.0]).tobytes()
    values, skipped, _ = load_column(NORM100)
    assert (values.size, skipped) == (100, 0)


@pytest.mark.parametrize("cell", ["text", "1_000", "\u0661\u0662\u0663", "nan", "NAN"])
def test_dirty_file_skips_the_c_reader(tmp_path, monkeypatch, cell):
    # a cell the C reader cannot take is found in the bytes, before any parse
    monkeypatch.setattr(np, "loadtxt", mock.Mock(side_effect=AssertionError("C reader")))
    f = tmp_path / "dirty.csv"
    f.write_text("v\n" + "1.5\n" * 1000 + cell + "\n")
    values, skipped, _ = load_column(str(f))
    kept = cell in ("1_000", "\u0661\u0662\u0663")  # float() reads both
    assert (values.size, skipped) == ((1001, 0) if kept else (1000, 1))


def test_na_cells_take_the_c_reader(tmp_path, monkeypatch):
    # R's write.csv writes NA for a missing value: the C reader reads it as
    # nan and it is skipped, as the row loop skips it; NA in the header or
    # in a column not read counts for nothing
    monkeypatch.setattr(cli, "_read_rows", mock.Mock(side_effect=AssertionError("row loop")))
    f = tmp_path / "na.csv"
    f.write_text("NA,v\n" + "1.5,NA\n" * 1000 + "NA,2.5\n")
    values, skipped, _ = load_column(str(f), "v")
    assert (values.tolist(), skipped) == ([2.5], 1000)
    f.write_bytes(b'v,w\r\n1.5,NA\r\n"NA",2\r\n NA ,3\r\n-0.0,4')
    values, skipped, _ = load_column(str(f))
    assert (values.tobytes(), skipped) == (np.array([1.5, -0.0]).tobytes(), 2)


# the last two cells split a line unless quoted
_CELLS = ["NA", "-NA", "NANA", "1NA", "text", "1_000", "\u0661\u0662\u0663", "1e999", "nan",
          "-inf", "-0.0", " 2.5 ", "", " ", "4\n", "5\r6"]
_number = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                    st.integers(-10**20, 10**20).map(str))
# mostly numbers, so that many files reach the C reader's count check
_cell = st.one_of(_number, _number, st.sampled_from(_CELLS))
_row = st.one_of(
    st.lists(st.one_of(_cell, _cell.map(lambda c: f'"{c}"')), min_size=1, max_size=3)
    .map(",".join),  # one to three cells: short, full or long rows
    st.sampled_from(["", " ", "\t"]))  # empty and whitespace-only lines


@settings(max_examples=300, deadline=None)
# a quoted line end makes two lines one row, and the C reader drops the empty line
@example(ncols=1, rows=['"4\n"', "", "3"], eol="\n", final_eol=True, bom=False,
         quoted_header=False, selector=None)
@given(ncols=st.integers(1, 3), rows=st.lists(_row, max_size=8),
       eol=st.sampled_from(["\n", "\r\n"]), final_eol=st.booleans(),
       bom=st.booleans(), quoted_header=st.booleans(),
       selector=st.sampled_from([None, "a", "b", "c", "0", "1", "2", "3", "zz"]))
def test_load_column_readers_agree(tmp_path_factory, ncols, rows, eol, final_eol, bom,
                                   quoted_header, selector):
    names = ["a", "b", "c"][:ncols]
    header = ",".join(f'"{h}"' if quoted_header else h for h in names)
    text = eol.join([header] + rows) + (eol if final_eol else "")
    f = tmp_path_factory.getbasetemp() / "agree.csv"
    f.write_bytes(("\ufeff" if bom else "").encode() + text.encode("utf-8"))

    def read():
        try:
            values, skipped, name = load_column(str(f), selector)
        except UsageError as exc:
            return str(exc)
        return values.tobytes(), skipped, name

    with mock.patch.object(cli, "_read_clean", return_value=None):
        want = read()  # the row loop alone
    assert read() == want


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


@pytest.mark.parametrize("argv, call", [
    (["qtest", BLADDER, "--measure", "median"],
     lambda x, y: q_test_one(x, resolve_measure("median"))),
    (["qtest", BLADDER, NORM100, "--measure", "rCViqr", "--level", "0.9"],
     lambda x, y: q_test_two(x, y, resolve_measure("rCViqr"), TestOptions(conf_level=0.9))),
    (["qineq", BLADDER, "--J", "25"],
     lambda x, y: qineq_test(x, spec=InequalitySpec("QRI", 25))),
    (["qcov", BLADDER, "--u", "0.75,0.25,0.5"],
     lambda x, y: qcov(x, [0.75, 0.25, 0.5])),
    (["qcov", BLADDER, "--u", "0.75,0.25,0.5", "--var-method", "density"],
     lambda x, y: qcov(x, [0.75, 0.25, 0.5], method=QdMethod(kind="density"))),
], ids=["qtest", "qtest_two", "qineq", "qcov_qor", "qcov_density"])
def test_json_prints_every_field_of_the_result(capsys, bladder, norm100, argv, call):
    code, out, _ = run(capsys, argv + ["--format", "json"])
    assert code == 0
    got = json.loads(out)
    want = call(bladder, norm100)
    assert list(got) == [f.name for f in dataclasses.fields(want)]
    np.testing.assert_equal(got, dataclasses.asdict(want))


_VAR_METHODS = [("qor", QdMethod()), ("qor-fit", QdMethod(sigma=None)),
                ("density", QdMethod(kind="density"))]


@pytest.mark.parametrize("name, method", _VAR_METHODS, ids=[m for m, _ in _VAR_METHODS])
@pytest.mark.parametrize("argv, call", [
    (["qtest", BLADDER, NORM100, "--measure", "iqr"],
     lambda x, y, m: q_test_two(x, y, resolve_measure("iqr"), TestOptions(var_method=m))),
    (["qineq", BLADDER, "--J", "25"],
     lambda x, y, m: qineq_test(x, spec=InequalitySpec("QRI", 25),
                                opts=TestOptions(var_method=m))),
    (["qcov", BLADDER, "--u", "0.1,0.5,0.9"],
     lambda x, y, m: qcov(x, [0.1, 0.5, 0.9], method=m)),
], ids=["qtest", "qineq", "qcov"])
def test_var_method_names_each_method(capsys, bladder, norm100, argv, call, name, method):
    code, out, _ = run(capsys, argv + ["--var-method", name, "--format", "json"])
    assert code == 0
    np.testing.assert_equal(json.loads(out), dataclasses.asdict(call(bladder, norm100, method)))


@pytest.mark.parametrize("name, method", _VAR_METHODS, ids=[m for m, _ in _VAR_METHODS])
def test_verify_coverage_var_method_names_each_method(capsys, name, method):
    code, out, _ = run(capsys, ["verify", "coverage", "--dist", "lognormal", "--n", "50",
                                "--reps", "100", "--measure", "iqr", "--var-method", name,
                                "--format", "json"])
    assert code == 0
    got = json.loads(out)
    cfg = SimConfig(distribution=Distribution("lognormal"), n=50, reps=100,
                    measure=resolve_measure("iqr"), var_method=method)
    assert got["var_method"] == name
    assert [got["coverage"], got["avg_width"], got["mc_se"]] == list(coverage_sim(cfg))


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
                                "--true-q", "0.3", "--format", "json"])
    assert code == 0
    got = json.loads(out)
    assert got["estimate_label"] == "G2"
    assert got["null_value"] == 0.3


@pytest.mark.parametrize("measure, two_sample", [("QRI", False), ("G2", True), ("G2", False)])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_qtest_index_prints_what_qineq_prints(tmp_path, capsys, measure, two_sample, fmt):
    rng = np.random.default_rng(47)
    files = []
    for name in ("x.csv", "y.csv"):
        f = tmp_path / name
        f.write_text("v\n" + "\n".join(f"{v:.9g}" for v in rng.lognormal(size=250)))
        files.append(str(f))
    data = files if two_sample else files[:1]
    for flags in ([], ["--J", "25"], ["--log", "--back"], ["--min-q", "0.6"]):
        argv = [*data, "--measure", measure, "--format", fmt, *flags]
        code, via_qtest, _ = run(capsys, ["qtest", *argv])
        assert code == 0
        code, via_qineq, _ = run(capsys, ["qineq", *argv])
        assert code == 0
        assert via_qtest == via_qineq, flags


def test_qineq_takes_only_the_indices(capsys):
    code, out, err = run(capsys, ["qineq", BLADDER, "--measure", "median"])
    assert (code, out) == (2, "")
    assert "invalid choice: 'median'" in err


@pytest.mark.parametrize("flag, value", [
    ("--u", "0.5"), ("--coef", "1"), ("--u2", "0.5"), ("--coef2", "1"),
    ("--coef-row", "1"), ("--p", "0.1"),
])
def test_qineq_has_no_measure_building_flags(capsys, flag, value):
    # --measure always names an index, so these flags could never succeed
    code, out, err = run(capsys, ["qineq", BLADDER, flag, value])
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {flag} {value}" in err
    code, out, _ = run(capsys, ["qineq", "--help"])
    assert code == 0 and f"{flag} " not in out


def test_back_transformed_true_q_is_a_ratio(capsys):
    # under --back, --true-q is read on the reported (ratio) scale, and the
    # test is the log-scale test of its log
    code, out, _ = run(capsys, ["qtest", BLADDER, "--measure", "qr9010", "--log", "--back",
                                "--true-q", "5", "--format", "json"])
    assert code == 0
    back = json.loads(out)
    assert back["null_value"] == 5.0
    code, out, _ = run(capsys, ["qtest", BLADDER, "--measure", "qr9010", "--log",
                                "--true-q", repr(math.log(5.0)), "--format", "json"])
    assert code == 0
    assert json.loads(out)["statistic_Z"] == back["statistic_Z"]


def test_back_transformed_index_null_is_half(capsys):
    code, out, _ = run(capsys, ["qtest", BLADDER, "--measure", "QRI", "--log", "--back",
                                "--format", "json"])
    assert code == 0
    assert json.loads(out)["null_value"] == 0.5


def test_a_cancelling_denominator_is_a_usage_error(capsys):
    code, _, err = run(capsys, ["qtest", BLADDER, "--u=0.25,0.75", "--coef=-1,1",
                                "--u2=0.5,0.5", "--coef2=1,-1"])
    assert code == 2
    assert "denominator coefficients are identically zero" in err


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


@pytest.mark.parametrize("argv, J", [
    (["verify", "coverage", "--dist", "lognormal", "--n", "50", "--reps", "100",
      "--measure", "G2", "--J", "25"], 25),
    (["verify", "coverage", "--dist", "normal", "--n", "50", "--reps", "100"], None),
    (["verify", "bootstrap", BLADDER, "--measure", "QRI", "--B", "500"], 100),
    (["verify", "bootstrap", BLADDER, "--measure", "qr9010", "--B", "500"], None),
])
def test_verify_json_records_its_grid_size(capsys, argv, J):
    code, text, _ = run(capsys, argv)
    assert code == 0
    assert parse_tail_json(text)["J"] == J
    # the TSV row holds the results alone
    assert "J" not in text.splitlines()[0].split("\t")


def test_verify_index_takes_no_tail_parameter(capsys):
    code, _, err = run(capsys, ["verify", "coverage", "--dist", "lognormal",
                                "--n", "50", "--reps", "100",
                                "--measure", "QRI", "--p", "0.2"])
    assert code == 2
    assert "takes no tail parameter" in err


@pytest.mark.parametrize("argv", [
    ["verify", "coverage", "--dist", "normal", "--n", "50", "--reps", "100", "--J", "0"],
    ["verify", "bootstrap", BLADDER, "--J", "5"],
    ["verify", "bootstrap", BLADDER, "--measure", "iqr", "--J", "100"],
])
def test_verify_grid_size_only_with_an_inequality_index(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "--J applies only to QRI and G2" in err


@pytest.mark.parametrize("dist, params", [
    ("normal", "nan,1"), ("normal", "0,inf"), ("exponential", "inf"),
])
def test_verify_nonfinite_distribution_parameters_are_usage_errors(capsys, dist, params):
    code, out, err = run(capsys, ["verify", "coverage", "--dist", dist, "--params", params,
                                  "--n", "50", "--reps", "100"])
    assert code == 2
    assert out == ""
    assert "parameters must be finite" in err


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
# seeding


def test_seed_defaults_to_zero(capsys):
    argv = ["verify", "coverage", "--dist", "normal", "--n", "40", "--reps", "100"]
    _, out, _ = run(capsys, argv)
    _, seeded, _ = run(capsys, argv + ["--seed", "0"])
    assert parse_tail_json(out)["seed"] == 0
    assert out == seeded


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
    ["verify", "coverage", "--dist", "lognormal", "--n", "50", "--reps", "100",
     "--measure", "median", "--log-ratio"],                 # log scale of no ratio
    ["qtest", BLADDER, "--measure", "median", "--true-q", "nan"],
    ["qtest", BLADDER, "--measure", "median", "--min-q", "nan"],
    ["qineq", BLADDER, "--true-q", "nan"],
    ["qtest", BLADDER, "--measure", "median", "--log", "--back", "--true-q", "0"],
    ["qtest", BLADDER, BLADDER, "--measure", "median", "--log", "--back", "--true-q", "0"],
    ["qtest", BLADDER, "--u=0.5,0.5", "--coef=1,-1"],         # numerator cancels
    ["verify", "coverage", "--dist", "normal", "--n", "50", "--reps", "100", "--seed", "-1"],
    ["verify", "bootstrap", BLADDER, "--seed", "-1"],
    ["qtest", BLADDER, "--measure", "median", "--J", "25"],   # --J of no index
    ["qtest", BLADDER, "--u", "0.5", "--J", "25"],
])
def test_usage_errors_exit_2(capsys, argv):
    code, _, err = run(capsys, argv)
    assert code == 2
    assert "error" in err.lower()


@pytest.mark.parametrize("flags", [
    ["--u=0.5", "--coef=nan"],
    ["--u=0.5", "--coef=inf"],
    ["--u=0.5", "--u2=0.25", "--coef2=-inf"],
    ["--u=0.25,0.75", "--coef-row=1,nan", "--coef-row=1,1"],
])
def test_nonfinite_coefficients_are_usage_errors(capsys, flags):
    code, out, err = run(capsys, ["qtest", BLADDER] + flags)
    assert (code, out, err) == (2, "", "error: coefficients must be finite\n")


def run_into_closed_pipe(argv, unbuffered: str):
    """Run the CLI with stdout a pipe whose read end is closed before the start."""
    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    try:
        done = subprocess.run([sys.executable, "-m", "quantest.cli"] + argv, stdout=write,
                              stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write)
    return done.returncode, done.stderr


# buffered, the write fails at the flush; unbuffered, at print
@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_exits_1_quietly(unbuffered):
    code, err = run_into_closed_pipe(["qcov", NORM100, "--u=0.1,0.5,0.9"], unbuffered)
    assert (code, err) == (1, b"")


def test_argparse_errors_exit_2(capsys):
    assert run(capsys, [])[0] == 2
    assert run(capsys, ["nosuchcommand"])[0] == 2
    assert run(capsys, ["qtest", BLADDER, "--measure", "median",
                        "--type", "3"])[0] == 2


def test_help_exits_zero(capsys):
    for command in ([], ["qtest"], ["qineq"], ["qcov"], ["verify"],
                    ["verify", "coverage"], ["verify", "bootstrap"]):
        code, out, _ = run(capsys, command + ["--help"])
        assert code == 0
        assert out.startswith(f"usage: {' '.join(['quantest'] + command)} ")


def test_computation_errors_exit_1(tmp_path, capsys):
    f = tmp_path / "flat.csv"
    f.write_text("a\n" + "\n".join(["5"] * 30))
    code, _, err = run(capsys, ["qtest", str(f), "--measure", "median"])
    assert code == 1
    assert "error" in err.lower()


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["nosuchcommand"],
    ["qtest", "--help"], ["qineq", "--help"], ["qcov", "--help"], ["verify", "--help"],
    ["verify", "coverage", "--help"], ["verify", "bootstrap", "--help"],
    ["verify"], ["qcov", NORM100], ["verify", "coverage", "--dist", "normal"],
    ["qtest", BLADDER, "--measure", "median", "--bogus"],
    ["--bogus", "qtest", BLADDER, "--measure", "median"],
    ["qtest", BLADDER, "--measure", "median"],
    ["qineq", BLADDER, "--measure", "G2", "--J", "25"],
    ["qcov", NORM100, "--u=0.1,0.5,0.9", "--format", "json"],
    ["verify", "coverage", "--dist", "normal", "--n", "50", "--reps", "100"],
    ["verify", "bootstrap", BLADDER, "--B", "500"],
    # at the edge between the command's parser and the full parser
    ["qtest", BLADDER, "--meas", "median"],
    ["qtest", BLADDER, "--measure", "median", "--format", "xml"],
    ["qtest", BLADDER, "--measure", "median", "--level", "abc"],
    ["verify", "coverage", "--n", "50", "--reps", "100"],
    ["qtest", "a", "b", "c"],
    ["qtest", "--measure", "median", "--", BLADDER],
    ["qtest", "--", BLADDER, "--measure", "median"],
    ["qtest", BLADDER, "--measure", "median", "-h"],
    ["verify", "nosuch"],
    ["verify", "--help", "coverage"],
])
def test_command_parser_prints_what_the_full_parser_prints(capsys, monkeypatch, argv):
    got = run(capsys, argv)
    monkeypatch.setattr(cli, "_parse_args", lambda argv: cli.build_parser().parse_args(argv))
    assert got == run(capsys, argv)


def _commands(parser):
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def _dests(parser):
    return [a.dest for a in parser._actions]


@pytest.mark.parametrize("argv", [
    ["qtest", BLADDER, "--measure", "median"],
    ["qtest", BLADDER, BLADDER, "--meas", "rCViqr", "--log", "--back", "--format", "json"],
    ["qineq", BLADDER, "--measure", "G2", "--J", "25"],
    ["qcov", NORM100, "--u=0.1,0.5,0.9", "--var-method", "qor-fit"],
    ["verify", "coverage", "--dist", "normal", "--n", "50", "--reps", "100"],
    ["verify", "bootstrap", BLADDER, "--B", "500"],
])
def test_a_valid_command_line_never_builds_the_full_parser(monkeypatch, argv):
    want = cli.build_parser().parse_args(argv)
    monkeypatch.setattr(cli, "build_parser", mock.Mock(side_effect=AssertionError("full parser")))
    assert cli._parse_args(argv) == want


def test_build_parser_holds_every_commands_arguments():
    commands = _commands(cli.build_parser())
    for parsers, table in [(commands, cli._COMMANDS),
                           (_commands(commands["verify"]), cli._VERIFY_COMMANDS)]:
        assert list(parsers) == [name for name, *_ in table]
        for name, _, add_arguments, _ in table:
            if add_arguments is not None:
                want = argparse.ArgumentParser()
                add_arguments(want)
                assert _dests(parsers[name]) == _dests(want), name
    assert "measure" in _dests(commands["qtest"])
