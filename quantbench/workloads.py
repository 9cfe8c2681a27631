"""The benchmark's four workloads.

Each workload is a fixed cycle of ops.  ``make_inputs`` draws every input
from the workload seed (with NumPy alone, plus the CSV files for ``cli``),
and ``make_ops`` builds the ops on top of those inputs, so the package
receives only generated arrays and files.  The cycle repeats the same ops
on the same inputs, so op ``i`` of every cycle gives the same result.

Every op result passes ``Op.check``, which raises ``CheckFailed`` when an
invariant that holds for any seed is broken, and returns the figures that
``reference_seed0.json`` records for the default seed.

The size mix of each cycle puts the nearest-rank p50 and p90 over its ops
inside one class of ops each, away from the boundary between two classes
(fractions below are of the ops in a cycle, cheapest class first):

* ``cli`` calls ``quantest.cli.main(argv)`` in the worker process, one
  command at a time, so an op is argument parsing, CSV loading, the
  library call and rendering.  Interpreter start and imports, about 0.8 s
  of a real ``python -m quantest.cli`` invocation, fall in ``setup_s``.
  Timed as whole invocations, the figures of five runs in a row spread by
  more than a third of their median on a shared 2-vCPU host.
* ``ineq_grid``: G2 J=400 n=1e4 is 60% (p50 at its middle), two-sample
  QRI at 1e5 10%, qcov on 200 points at 1e6 10%, QRI J=100 at 1e6 20%
  (p90 at its middle).  Nearly all the time is in the kernel quantile
  density, evaluated at hundreds of grid points.
* ``scalar_tests``: n=1e2 is 10%, n=1e4 60% (p50), n=1e6 30% (p90).  Few
  grid points and large n, so sorting and copying in ``Sample``
  construction weigh as much as the kernel.
* ``monte_carlo``: coverage studies of the median 15%, IQR 15% and
  rCViqr 30% (p50), a QRI bootstrap 5%, QRI coverage studies 15%, median
  bootstraps at n=1e4 20% (p90 at their middle).  Per-replicate Python
  overhead spread over every layer, and the B x n resample sort sets
  peak memory.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

DEFAULT_SEED = 0
BLADDER = "tests/data/bladder_remission.csv"
NORM100 = "tests/data/norm100_seed1234.csv"

# figures recorded for the reference compare at this relative tolerance;
# integers (coverage counts) must match exactly
REFERENCE_RTOL = 1e-9


class CheckFailed(Exception):
    """An op's output broke a correctness invariant."""


@dataclass(frozen=True)
class Context:
    """Where a workload runs."""

    root: Path
    workdir: Path
    python: str
    env: dict


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], Any]
    items: int
    check: Callable[[Any], dict]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(got: float, want: float, rtol: float, atol: float = 0.0) -> bool:
    return got == want or abs(got - want) <= atol + rtol * abs(want)


def _check_test(r, expected: float, rtol: float = 1e-9, atol: float = 0.0) -> dict:
    """Invariants of a TestResult whose estimate should equal ``expected``."""
    lo, hi = r.conf_int
    _require(_close(r.estimate, expected, rtol, atol),
             f"estimate {r.estimate!r} differs from the plug-in value {expected!r}")
    _require(math.isfinite(r.se) and r.se >= 0.0, f"bad standard error {r.se!r}")
    _require(0.0 <= r.p_value <= 1.0, f"p-value {r.p_value!r} outside [0, 1]")
    _require(lo <= r.estimate <= hi, f"interval ({lo!r}, {hi!r}) misses {r.estimate!r}")
    return {"estimate": r.estimate, "se": r.se, "ci": [lo, hi]}


def compare_record(got, want, rtol: float = REFERENCE_RTOL) -> list[str]:
    """Differences between a check record and its reference, as messages."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(want)}"]
        return [f"{k}: {m}" for k in want for m in compare_record(got[k], want[k], rtol)]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"length differs from reference ({len(want)})"]
        return [f"[{i}] {m}" for i, (g, w) in enumerate(zip(got, want))
                for m in compare_record(g, w, rtol)]
    if isinstance(want, int) and not isinstance(want, bool):
        return [] if got == want else [f"{got!r} != {want!r} (exact)"]
    if isinstance(want, float):
        ok = isinstance(got, (int, float)) and _close(float(got), want, rtol)
        return [] if ok else [f"{got!r} != {want!r} (rtol {rtol:g})"]
    return [] if got == want else [f"{got!r} != {want!r}"]


@dataclass(frozen=True)
class _Result:
    """The TestResult fields a CLI JSON report carries."""

    estimate: float
    se: float
    p_value: float
    conf_int: tuple


# ---------------------------------------------------------------------------
# cli: quantest.cli.main in process, one command at a time


def _cli_inputs(seed: int, ctx: Context) -> dict:
    rng = np.random.default_rng([seed, 0])
    x = rng.lognormal(0.0, 0.5, 2000)
    y = rng.lognormal(0.1, 0.7, 2000)
    paths = []
    for name, values in (("x", x), ("y", y)):
        path = ctx.workdir / f"cli_{name}.csv"
        path.write_text("value\n" + "\n".join(map(repr, values.tolist())) + "\n",
                        encoding="utf-8")
        paths.append(str(path.relative_to(ctx.root)))
    return {"seed": seed, "x": x, "y": y, "x_csv": paths[0], "y_csv": paths[1]}


def _cli_call(argv):
    """Run ``quantest.cli.main(argv)`` in this process; (exit code, stdout, stderr)."""
    import quantest.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = quantest.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _cli_output(result) -> str:
    code, out, err = result
    _require(code == 0, f"exit code {code}: {err.strip()[-300:]}")
    return out


def _printed(value: float, expected: float) -> bool:
    # text reports print 6 significant digits
    return _close(value, expected, 6e-6)


def _parse_test_text(out: str) -> dict:
    lines = out.splitlines()
    stat = next(line for line in lines if line.startswith("Z = "))
    p_text = stat.split("p-value", 1)[1].strip()
    p = 0.0 if p_text.startswith("<") else float(p_text.lstrip("= "))
    at = next(i for i, line in enumerate(lines) if line.endswith("confidence interval:"))
    lo, hi = (float(t) for t in lines[at + 1].split())  # float() reads "Inf" too
    at = lines.index("sample estimates:")
    estimate = float(lines[at + 2])
    _require(0.0 <= p <= 1.0, f"p-value {p!r} outside [0, 1]")
    _require(lo <= estimate <= hi, f"interval ({lo!r}, {hi!r}) misses {estimate!r}")
    return {"estimate": estimate, "ci": [lo, hi], "p_value": p}


def _cli_ops(inp: dict, ctx: Context) -> list[Op]:
    from quantest import estimate_measure, qri_estimate, resolve_measure

    bladder = functools.cache(
        lambda: np.loadtxt(ctx.root / BLADDER, skiprows=1, delimiter=","))

    def check_median(result):
        rec = _parse_test_text(_cli_output(result))
        want = estimate_measure(bladder(), resolve_measure("median"))
        _require(_printed(rec["estimate"], want), f"median {rec['estimate']!r} != {want!r}")
        return rec

    def check_two_sample(result):
        obj = json.loads(_cli_output(result))
        spec = resolve_measure("rCViqr")
        rx, ry = estimate_measure(inp["x"], spec), estimate_measure(inp["y"], spec)
        r = _Result(obj["estimate"], obj["se"], obj["p_value"], tuple(obj["conf_int"]))
        return _check_test(r, math.exp(math.log(rx) - math.log(ry)))

    def check_qri(result):
        rec = _parse_test_text(_cli_output(result))
        want = qri_estimate(bladder(), 100)
        _require(_printed(rec["estimate"], want), f"QRI {rec['estimate']!r} != {want!r}")
        return rec

    def check_qcov(result):
        # the header line and each matrix row start with a "p=" label
        rows = [line.split() for line in _cli_output(result).splitlines()
                if line.strip().startswith("p=")][1:]
        _require(len(rows) == 5 and all(len(row) == 6 for row in rows),
                 "expected a 5 x 5 matrix")
        cells = [row[1:] for row in rows]
        _require(all(cells[i][j] == cells[j][i] for i in range(5) for j in range(5)),
                 "covariance matrix is not symmetric")
        values = [[float(c) for c in row] for row in cells]
        _require(all(values[i][i] > 0.0 for i in range(5)), "nonpositive variance")
        return {"matrix": [v for row in values for v in row]}

    def check_bootstrap(result):
        lines = _cli_output(result).splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("{"))
        obj = json.loads("\n".join(lines[at:]))
        se = obj["bootstrap_se"]
        _require(math.isfinite(se) and se > 0.0, f"bad bootstrap SE {se!r}")
        _require(obj["B"] == 2000 and obj["seed"] == inp["seed"], "B or seed not echoed")
        return {"se": se}

    commands = (
        ("qtest_median", ["qtest", BLADDER, "--measure", "median"], check_median),
        ("qtest_two_rcv_json", ["qtest", inp["x_csv"], inp["y_csv"], "--measure", "rCViqr",
                                "--log", "--back", "--format", "json"], check_two_sample),
        ("qineq_qri", ["qineq", BLADDER, "--measure", "QRI"], check_qri),
        ("qcov_density", ["qcov", NORM100, "--u=0.1,0.25,0.5,0.75,0.9",
                          "--var-method", "density"], check_qcov),
        ("verify_bootstrap", ["verify", "bootstrap", BLADDER, "--B", "2000",
                              "--seed", str(inp["seed"])], check_bootstrap),
    )
    return [Op(label, functools.partial(_cli_call, argv), 1, check)
            for label, argv, check in commands]


# ---------------------------------------------------------------------------
# ineq_grid: qineq_test and qcov on many grid points at large n

INEQ_CYCLE = "GQGTGCGQGG"


def _ineq_inputs(seed: int, ctx: Context) -> dict:
    rng = np.random.default_rng([seed, 1])
    return {
        "qri": [rng.lognormal(0.0, 0.8, 10**6) for _ in range(2)],
        "g2": [rng.exponential(1.0, 10**4) for _ in range(3)],
        "two": (rng.lognormal(0.0, 0.8, 10**5), rng.exponential(1.0, 10**5)),
        "cov": rng.exponential(1.0, 10**6),
    }


def _ineq_ops(inp: dict, ctx: Context) -> list[Op]:
    import quantest as qt
    from quantest import g2_estimate, qri_estimate

    p = (np.arange(1, 101) - 0.5) / 100
    grid = np.concatenate([p / 2.0, 1.0 - p / 2.0])

    def one_sample(x, spec, estimator):
        want = functools.cache(lambda: estimator(x, spec.J))
        return (lambda: qt.qineq_test(x, spec=spec),
                lambda r: _check_test(r, want(), 1e-12))

    def two_sample(x, y, spec):
        want = functools.cache(lambda: qri_estimate(x, spec.J) - qri_estimate(y, spec.J))
        return (lambda: qt.qineq_test(x, y, spec=spec),
                lambda r: _check_test(r, want(), 1e-12, 1e-12))

    def check_qcov(c):
        m = c.matrix
        _require(m.shape == (grid.size, grid.size), f"matrix shape {m.shape}")
        _require(bool(np.all(np.isfinite(m))), "non-finite covariance")
        _require(bool(np.array_equal(m, m.T)), "covariance matrix is not symmetric")
        diag = np.diag(m)
        _require(bool(np.all(diag > 0.0)), "nonpositive variance")
        return {"diag": diag.tolist(), "row_sums": m.sum(axis=1).tolist()}

    ops = []
    seen = {"G": 0, "Q": 0}
    for kind in INEQ_CYCLE:
        if kind == "G":
            x = inp["g2"][seen["G"] % len(inp["g2"])]
            run, check = one_sample(x, qt.InequalitySpec("G2", 400), g2_estimate)
            ops.append(Op("g2_J400_n1e4", run, 1, check))
        elif kind == "Q":
            x = inp["qri"][seen["Q"] % len(inp["qri"])]
            run, check = one_sample(x, qt.InequalitySpec("QRI", 100), qri_estimate)
            ops.append(Op("qri_J100_n1e6", run, 1, check))
        elif kind == "T":
            run, check = two_sample(*inp["two"], qt.InequalitySpec("QRI", 100))
            ops.append(Op("qri_two_J100_n1e5", run, 1, check))
        else:
            x = inp["cov"]
            ops.append(Op("qcov_200_n1e6", lambda x=x: qt.qcov(x, grid), 1, check_qcov))
        seen[kind] = seen.get(kind, 0) + 1
    return ops


# ---------------------------------------------------------------------------
# scalar_tests: q_test_one / q_test_two on few grid points at n up to 1e6

SCALAR_SIZES = (10**4, 10**6, 10**4, 10**2, 10**4, 10**6, 10**4, 10**4, 10**6, 10**4)
SCALAR_MEASURES = (("median", False), ("iqr", False), ("rCViqr", False), ("rCViqr", True),
                   ("bowley", False), ("moors", False), ("qr9010", False))
SCALAR_CYCLE = 70  # lcm of the size pattern (10) and the measure list (7)


def _scalar_inputs(seed: int, ctx: Context) -> dict:
    rng = np.random.default_rng([seed, 2])
    out = {}
    for n in (10**2, 10**4, 10**6):
        xs = [rng.lognormal(0.0, 0.6, n) for _ in range(2)]
        ys = [rng.lognormal(0.2, 0.5, n) for _ in range(2)]
        # rounding to one decimal leaves ties (and a few zeros at large n)
        out[n] = {"x": xs, "y": ys, "x_ties": np.round(xs[0], 1), "y_ties": np.round(ys[0], 1)}
    return out


def scalar_plan(i: int) -> dict:
    """How op ``i`` of the scalar cycle is configured."""
    name, log_back = SCALAR_MEASURES[i % len(SCALAR_MEASURES)]
    return {
        "n": SCALAR_SIZES[i % len(SCALAR_SIZES)],
        "measure": name,
        "log_back": log_back,
        "two_sample": i % 2 == 1,
        "density": i // 7 == 7,             # 1 op in 10
        "fit_sigma": (i + i // 10) % 5 == 0,  # 1 op in 5
        "ties": i // 7 == 4,                # 1 op in 10
        "slot": (i // 10) % 2,
    }


def _scalar_ops(inp: dict, ctx: Context) -> list[Op]:
    import quantest as qt
    from quantest import estimate_measure, resolve_measure

    ops = []
    for i in range(SCALAR_CYCLE):
        plan = scalar_plan(i)
        pool = inp[plan["n"]]
        if plan["ties"]:
            x, y = pool["x_ties"], pool["y_ties"]
        else:
            x, y = pool["x"][plan["slot"]], pool["y"][plan["slot"]]
        if plan["density"]:
            method = qt.QdMethod(kind="density", sigma=None if plan["fit_sigma"] else 1.0)
        else:
            method = qt.QdMethod(sigma=None if plan["fit_sigma"] else 1.0)
        opts = qt.TestOptions(log_transf=plan["log_back"], back_transf=plan["log_back"],
                              var_method=method)
        name = plan["measure"]
        spec = resolve_measure(name)
        if plan["two_sample"]:
            def run(x=x, y=y, name=name, opts=opts):
                return qt.q_test_two(x, y, qt.resolve_measure(name), opts)

            def want(x=x, y=y, spec=spec, log_back=plan["log_back"]):
                ex, ey = estimate_measure(x, spec), estimate_measure(y, spec)
                if log_back:
                    return math.exp(math.log(ex) - math.log(ey)), 0.0
                return ex - ey, 1e-12 * (abs(ex) + abs(ey))
        else:
            def run(x=x, name=name, opts=opts):
                return qt.q_test_one(x, qt.resolve_measure(name), opts)

            def want(x=x, spec=spec):
                return estimate_measure(x, spec), 0.0
        want = functools.cache(want)
        label = (f"{'two' if plan['two_sample'] else 'one'}_{name}"
                 f"{'_logback' if plan['log_back'] else ''}_n{plan['n']}"
                 f"{'_density' if plan['density'] else ''}"
                 f"{'_fitsigma' if plan['fit_sigma'] else ''}{'_ties' if plan['ties'] else ''}")
        ops.append(Op(label, run, 1,
                      lambda r, want=want: _check_test(r, want()[0], 1e-9, want()[1])))
    return ops


# ---------------------------------------------------------------------------
# monte_carlo: coverage_sim studies and bootstrap_se

MC_CYCLE = "MRIBRQMRBIRQbMRBIRQB"
MC_REPS = 100


def _mc_inputs(seed: int, ctx: Context) -> dict:
    rng = np.random.default_rng([seed, 3])
    return {
        "seed": seed,
        "boot_qri": rng.lognormal(0.0, 0.8, 1000),
        "boot_median": rng.lognormal(0.0, 0.8, 10**4),
    }


def _mc_ops(inp: dict, ctx: Context) -> list[Op]:
    import quantest as qt

    D = qt.Distribution
    studies = {
        "M": ("cov_median_normal_n100", D("normal"), 100, "median", False),
        "I": ("cov_iqr_exponential_n50", D("exponential"), 50, "iqr", False),
        "R": ("cov_rcviqr_log_lognormal_n100", D("lognormal"), 100, "rCViqr", True),
        "Q": ("cov_qri_J25_lognormal_n200", D("lognormal"), 200, "QRI", False),
    }

    def check_coverage(result):
        coverage, width, mc_se = result
        covered = coverage * MC_REPS
        _require(0.0 <= coverage <= 1.0, f"coverage {coverage!r} outside [0, 1]")
        _require(abs(covered - round(covered)) < 1e-9, f"coverage {coverage!r} is not k/reps")
        _require(math.isfinite(width) and width > 0.0, f"bad average width {width!r}")
        _require(_close(mc_se, math.sqrt(coverage * (1.0 - coverage) / MC_REPS), 1e-12),
                 f"Monte Carlo SE {mc_se!r} does not match the coverage")
        return {"covered": int(round(covered)), "avg_width": width}

    def check_bootstrap(se):
        _require(math.isfinite(se) and se > 0.0, f"bad bootstrap SE {se!r}")
        return {"se": se}

    ops = []
    for i, kind in enumerate(MC_CYCLE):
        seed = inp["seed"] * 100 + i
        if kind in studies:
            label, dist, n, name, log_ratio = studies[kind]

            def run(dist=dist, n=n, name=name, log_ratio=log_ratio, seed=seed):
                measure = (qt.InequalitySpec("QRI", 25) if name == "QRI"
                           else qt.resolve_measure(name))
                return qt.coverage_sim(qt.SimConfig(dist, n, MC_REPS, measure, seed=seed,
                                                    log_ratio=log_ratio))
            ops.append(Op(label, run, MC_REPS, check_coverage))
        elif kind == "b":
            x = inp["boot_qri"]
            ops.append(Op("boot_qri_n1e3", lambda x=x, seed=seed: qt.bootstrap_se(
                x, qt.InequalitySpec("QRI"), B=2000, seed=seed), 0, check_bootstrap))
        else:
            x = inp["boot_median"]
            ops.append(Op("boot_median_n1e4", lambda x=x, seed=seed: qt.bootstrap_se(
                x, qt.resolve_measure("median"), B=2000, seed=seed), 0, check_bootstrap))
    return ops


# cycles over which an op's fastest time is taken: a fixed number, about
# the cycles a 15-second run makes on a busy 2-vCPU host (a run goes on
# until it has them)
BEST_OF = {"cli": 50, "ineq_grid": 12, "scalar_tests": 12, "monte_carlo": 6}

WORKLOADS = {
    "cli": (_cli_inputs, _cli_ops),
    "ineq_grid": (_ineq_inputs, _ineq_ops),
    "scalar_tests": (_scalar_inputs, _scalar_ops),
    "monte_carlo": (_mc_inputs, _mc_ops),
}


def make_inputs(workload: str, seed: int, ctx: Context) -> dict:
    return WORKLOADS[workload][0](seed, ctx)


def make_ops(workload: str, inputs: dict, ctx: Context) -> list[Op]:
    return WORKLOADS[workload][1](inputs, ctx)


def load_reference(root: Path) -> dict:
    path = root / "quantbench" / "reference_seed0.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
