"""The numerical-equality gate's compare mode."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "scripts", "equality_gate.py")


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("equality_gate", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_log(path, records):
    with open(path, "w") as f:
        for test, seq, kind, value in records:
            f.write(json.dumps({"test": test, "seq": seq, "kind": kind, "value": value}) + "\n")
    return str(path)


def test_compare_reports_the_largest_difference_per_field(gate, tmp_path, capsys):
    result = {"se": 0.5, "conf_int": [1.0, 2.0], "scale": "log"}
    moved = {"se": 0.5, "conf_int": [1.0, 2.0 + 2.0 ** -51], "scale": "log"}
    a = write_log(tmp_path / "a.jsonl", [("t::a", 0, "TestResult", result),
                                         ("t::gone", 0, "qdens_kernel", 1.5)])
    b = write_log(tmp_path / "b.jsonl", [("t::a", 0, "TestResult", moved)])

    assert gate.compare(a, a) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "PASS"

    assert gate.compare(a, b) == 1
    out = capsys.readouterr().out
    assert "1 shared records, 1 only in" in out
    row = next(line for line in out.splitlines() if line.startswith("TestResult.conf_int[]"))
    assert row.split()[1:] == ["1", "1", "4.44e-16", "2.22e-16"]
    assert "only in " + a + ": t::gone (1 records)" in out
    assert out.splitlines()[-1].startswith("FAIL: 1 ")

    # within rtol, or ignored, the shared record passes; the missing one is listed only
    assert gate.compare(a, b, rtol=1e-15) == 0
    assert gate.compare(a, b, ignore=["TestResult.conf_int*"]) == 0
    capsys.readouterr()


def test_compare_fails_on_changed_fields_and_values(gate, tmp_path, capsys):
    a = write_log(tmp_path / "a.jsonl", [("t::a", 0, "QuantileCov",
                                          {"method": {"kind": "qor", "kernel": "e"}})])
    b = write_log(tmp_path / "b.jsonl", [("t::a", 0, "QuantileCov",
                                          {"method": {"kind": "density"}})])
    assert gate.compare(a, b, rtol=1.0) == 1
    out = capsys.readouterr().out
    assert "field QuantileCov.method.kernel only in the first log, in 1 records" in out
    assert "'qor' against 'density'" in out


def test_records_built_on_many_threads_line_up_between_runs(gate, tmp_path, capsys):
    # the callers of this test finish in a different order on every run
    test = ("tests/test_concurrent_two_sample.py::"
            "test_callers_on_many_threads_each_get_their_serial_result")
    root = os.path.dirname(os.path.dirname(SCRIPT))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (os.path.join(root, "src"),
                                                    env.get("PYTHONPATH")) if p)
    logs = []
    for run in ("a", "b"):
        log = str(tmp_path / f"{run}.jsonl")
        done = subprocess.run([sys.executable, SCRIPT, "record", log, test], cwd=root, env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stdout + done.stderr
        logs.append(log)
    assert gate.compare(*logs) == 0
    out = capsys.readouterr().out
    assert out.startswith("16 shared records, 0 only in")
    assert out.splitlines()[-1] == "PASS"
