"""Command-line front end: CSV ingestion, argument parsing, report rendering.

Subcommands:
  qtest   one- or two-sample test of a quantile measure
  qineq   one- or two-sample test of an inequality index (QRI or G2)
  qcov    covariance matrix of a set of sample quantiles
  verify  Monte Carlo coverage study / bootstrap standard-error oracle

Exit codes: 0 success, 2 usage or input error, 1 computation error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from .inequality import InequalitySpec, qineq_test
from .inference import TestOptions, TestResult, q_test_one, q_test_two
from .measures import MeasureSpec, resolve_measure
from .qcov import QuantileCov, qcov
from .qdensity import QdMethod
from .verify import RNG_DESCRIPTION, Distribution, SimConfig, bootstrap_se, coverage_sim

__all__ = ["main", "build_parser", "load_column", "render"]

P_DISPLAY_FLOOR = 2.2e-16

_ALT_FLAG_MAP = {
    "two-sided": "two_sided",
    "two_sided": "two_sided",
    "less": "less",
    "greater": "greater",
}

_ALT_PHRASE = {
    "two_sided": "not equal to",
    "less": "less than",
    "greater": "greater than",
}


class UsageError(ValueError):
    """Bad flags or unusable input files (exit code 2)."""


# ---------------------------------------------------------------------------
# input


def load_column(path: str, selector: str | None = None):
    """Read one numeric column of a headered CSV file.

    selector is a column name, or a 0-based index when no header matches;
    None means the first column.  Rows whose cell is missing or
    non-numeric are skipped and counted.  Returns (values, skipped,
    column_name).
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise UsageError(f"{path} is empty") from None
        header = [h.strip() for h in header]
        if selector is None:
            idx = 0
        elif selector in header:
            idx = header.index(selector)
        else:
            try:
                idx = int(selector)
            except ValueError:
                raise UsageError(
                    f"column {selector!r} not found in {path}; "
                    f"available columns: {', '.join(header)}") from None
            if not 0 <= idx < len(header):
                raise UsageError(f"column index {idx} out of range for {path} "
                                 f"({len(header)} columns)")
        name = header[idx] if idx < len(header) else str(idx)
        values = []
        skipped = 0
        for row in reader:
            cell = row[idx].strip() if idx < len(row) else ""
            try:
                v = float(cell)
            except ValueError:
                skipped += 1
                continue
            if not math.isfinite(v):
                skipped += 1
                continue
            values.append(v)
    if not values:
        raise UsageError(f"no usable numeric rows in column {name!r} of {path}")
    return np.asarray(values), skipped, name


def _load(path: str, selector: str | None):
    values, skipped, name = load_column(path, selector)
    if skipped:
        print(f"warning: skipped {skipped} row(s) with missing or non-numeric "
              f"values in column {name!r} of {path}", file=sys.stderr)
    return values


# ---------------------------------------------------------------------------
# rendering


def _fmt_stat(z: float) -> str:
    return f"{round(z, 4):g}"


def _fmt_p(p: float) -> str:
    if p < P_DISPLAY_FLOOR:
        return "p-value < 2.2e-16"
    return f"p-value = {p:.4g}"


def _fmt6(v: float) -> str:
    if v == math.inf:
        return "Inf"
    if v == -math.inf:
        return "-Inf"
    return f"{v:.6g}"


def _result_dict(r: TestResult) -> dict:
    return {
        "description": r.description,
        "data_name": r.data_name,
        "estimate_label": r.estimate_label,
        "estimate": r.estimate,
        "se": r.se,
        "statistic_Z": r.statistic_Z,
        "p_value": r.p_value,
        "conf_level": r.conf_level,
        "conf_int": list(r.conf_int),
        "null_value": r.null_value,
        "alternative": r.alternative,
        "scale": r.scale,
        "warnings": list(r.warnings),
    }


def _render_test_text(r: TestResult) -> str:
    lines = [
        "",
        f"\t{r.description}",
        "",
        f"data:  {r.data_name}",
        f"Z = {_fmt_stat(r.statistic_Z)}, {_fmt_p(r.p_value)}",
        f"alternative hypothesis: true {r.estimate_label} is "
        f"{_ALT_PHRASE[r.alternative]} {r.null_value:g}",
        f"{r.conf_level * 100:g} percent confidence interval:",
        f" {_fmt6(r.conf_int[0])} {_fmt6(r.conf_int[1])}",
        "sample estimates:",
        r.estimate_label,
        f" {_fmt6(r.estimate)}",
    ]
    for w in r.warnings:
        lines.append(f"Warning: {w}")
    return "\n".join(lines)


def _method_dict(m: QdMethod) -> dict:
    return {"kind": m.kind, "sigma": m.sigma}


def _render_qcov_text(c: QuantileCov) -> str:
    labels = [f"p={p:g}" for p in c.probs]
    cells = [[_fmt6(v) for v in row] for row in c.matrix]
    width = 2 + max(max(len(s) for s in labels),
                    max(len(s) for row in cells for s in row))
    head = " " * width + "".join(f"{s:>{width}}" for s in labels)
    lines = [f"covariance matrix of sample quantiles (n = {c.n}, "
             f"method = {c.method.kind})", head]
    for label, row in zip(labels, cells):
        lines.append(f"{label:>{width}}" + "".join(f"{s:>{width}}" for s in row))
    if c.method.kind == "qor":
        extra = f"lognormal QOR bandwidth, sigma = {_fmt6(c.sigma)}"
        if c.shift is not None:
            extra += " (fitted from the data"
            if c.shift:
                extra += f", shift {_fmt6(c.shift)}"
            extra += ")"
        lines.append(extra)
    if c.floored:
        flagged = ", ".join(f"{p:g}" for p in c.floored)
        lines.append(f"Warning: quantile density floored at p = {flagged}; "
                     "variance there is unreliable")
    return "\n".join(lines)


def _render_qcov_json(c: QuantileCov) -> dict:
    return {
        "probs": list(c.probs),
        "matrix": [list(row) for row in c.matrix],
        "n": c.n,
        "method": _method_dict(c.method),
        "sigma": c.sigma,
        "shift": c.shift,
        "floored": list(c.floored),
        "bandwidths": None if c.bandwidths is None else list(c.bandwidths),
    }


def render(result, fmt: str = "text") -> str:
    """Render a TestResult or QuantileCov as text or JSON."""
    if fmt == "json":
        obj = _render_qcov_json(result) if isinstance(result, QuantileCov) \
            else _result_dict(result)
        return json.dumps(obj, indent=2)
    if isinstance(result, QuantileCov):
        return _render_qcov_text(result)
    return _render_test_text(result)


# ---------------------------------------------------------------------------
# parsing


def _parse_floats(text: str, flag: str) -> list[float]:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            out.append(float(part))
        except ValueError:
            raise UsageError(f"{flag} expects comma-separated numbers, "
                             f"got {part!r}") from None
    if not out:
        raise UsageError(f"{flag} expects at least one number")
    return out


def _add_format(sp):
    sp.add_argument("--format", choices=["text", "json"], default="text",
                    help="output format (default text)")


def _add_data_flags(sp, two_sample: bool):
    sp.add_argument("x", metavar="FILE", help="CSV file with a header row")
    if two_sample:
        sp.add_argument("y", metavar="FILE2", nargs="?", default=None,
                        help="optional second sample (two-sample mode)")
    sp.add_argument("--column", default=None,
                    help="column name or 0-based index (default: first column)")


def _add_var_flags(sp):
    sp.add_argument("--type", type=int, default=8, choices=range(4, 10),
                    metavar="{4..9}", help="quantile interpolation type (default 8)")
    sp.add_argument("--var-method", choices=["qor", "density"], default="qor",
                    help="quantile-density estimator behind the variances")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantest",
        description="Estimation, hypothesis tests and confidence intervals "
                    "for quantile-based measures.")
    sub = parser.add_subparsers(dest="command", required=True)

    qt = sub.add_parser("qtest", help="test a quantile measure")
    _add_data_flags(qt, two_sample=True)
    qt.add_argument("--measure", default=None,
                    help="named measure (median, iqr, rCViqr, bowley, kelly, "
                         "groenR, groenL, moors, lqw, rqw, qrXXYY, QRI, G2); "
                         "QRI and G2 use a grid of 100 ratios")
    qt.add_argument("--u", default=None,
                    help="numerator probabilities, comma separated")
    qt.add_argument("--coef", default=None,
                    help="numerator coefficients (default: all ones); write "
                         "--coef=-1,1 when the list starts with a minus sign")
    qt.add_argument("--u2", default=None,
                    help="denominator probabilities (makes the measure a ratio)")
    qt.add_argument("--coef2", default=None,
                    help="denominator coefficients (with --u2, or reusing --u)")
    qt.add_argument("--coef-row", action="append", default=None, metavar="ROW",
                    help="coefficient matrix row (give twice: numerator then "
                         "denominator, sharing --u)")
    qt.add_argument("--p", type=float, default=None,
                    help="tail parameter of parameterized named measures")
    qt.add_argument("--alternative", choices=sorted(_ALT_FLAG_MAP), default="two-sided")
    qt.add_argument("--level", type=float, default=0.95,
                    help="confidence level (default 0.95)")
    qt.add_argument("--true-q", type=float, default=0.0,
                    help="null value of the measure (default 0)")
    qt.add_argument("--log", action="store_true",
                    help="test on the log scale (log measure, or log ratio of "
                         "the two samples' measures)")
    qt.add_argument("--back", action="store_true",
                    help="report log-scale results back on the original scale")
    qt.add_argument("--min-q", type=float, default=-math.inf,
                    help="lower bound to clamp the reported interval at")
    _add_var_flags(qt)
    _add_format(qt)

    qi = sub.add_parser("qineq", help="test an inequality index")
    _add_data_flags(qi, two_sample=True)
    qi.add_argument("--measure", choices=["QRI", "G2"], default="QRI",
                    help="inequality index (default QRI)")
    qi.add_argument("--J", type=int, default=100,
                    help="quantile-ratio grid size (default 100)")
    qi.add_argument("--true-ineq", type=float, default=None,
                    help="null value (default: 0.5 one-sample, 0 two-sample)")
    qi.add_argument("--alternative", choices=sorted(_ALT_FLAG_MAP), default="two-sided")
    qi.add_argument("--level", type=float, default=0.95)
    _add_var_flags(qi)
    _add_format(qi)

    qc = sub.add_parser("qcov", help="covariance matrix of sample quantiles")
    _add_data_flags(qc, two_sample=False)
    qc.add_argument("--u", required=True,
                    help="probabilities of the quantiles, comma separated")
    _add_var_flags(qc)
    _add_format(qc)

    ver = sub.add_parser("verify", help="Monte Carlo / bootstrap verification")
    vsub = ver.add_subparsers(dest="verify_command", required=True)

    vc = vsub.add_parser("coverage", help="confidence-interval coverage study")
    vc.add_argument("--dist", required=True,
                    choices=["normal", "lognormal", "uniform", "exponential"])
    vc.add_argument("--params", default=None,
                    help="distribution parameters, comma separated "
                         "(defaults: 0,1 / 0,1 / 0,1 / 1)")
    vc.add_argument("--n", type=int, required=True, help="sample size")
    vc.add_argument("--reps", type=int, required=True, help="replications")
    vc.add_argument("--measure", default="median",
                    help="named measure (median, iqr, rCViqr, bowley, kelly, "
                         "groenR, groenL, moors, lqw, rqw, qrXXYY, QRI, G2)")
    vc.add_argument("--p", type=float, default=None,
                    help="tail parameter for parameterized measures")
    vc.add_argument("--J", type=int, default=100)
    vc.add_argument("--level", type=float, default=0.95)
    vc.add_argument("--log-ratio", action="store_true",
                    help="build intervals for ratio measures on the log scale "
                         "with back-transformation")
    vc.add_argument("--seed", type=int, default=None,
                    help="RNG seed (default: QUANTEST_SEED env var, else 0)")
    _add_format(vc)

    vb = vsub.add_parser("bootstrap", help="bootstrap standard error of a measure")
    _add_data_flags(vb, two_sample=False)
    vb.add_argument("--measure", default="median",
                    help="named measure (median, iqr, rCViqr, bowley, kelly, "
                         "groenR, groenL, moors, lqw, rqw, qrXXYY, QRI, G2)")
    vb.add_argument("--p", type=float, default=None)
    vb.add_argument("--J", type=int, default=100)
    vb.add_argument("--B", type=int, default=2000, help="resamples (default 2000)")
    vb.add_argument("--seed", type=int, default=None,
                    help="RNG seed (default: QUANTEST_SEED env var, else 0)")
    _add_format(vb)

    return parser


# ---------------------------------------------------------------------------
# dispatch


def _config_error(fn, *args, **kwargs):
    """Run a config-building call, converting ValueError to UsageError."""
    try:
        return fn(*args, **kwargs)
    except UsageError:
        raise
    except (ValueError, TypeError) as exc:
        raise UsageError(str(exc)) from exc


def _qtest_measure(args):
    if (args.measure is None) == (args.u is None):
        raise UsageError("exactly one of --measure or --u must be given")
    if args.measure is not None:
        for flag, value in (("--coef", args.coef), ("--u2", args.u2),
                            ("--coef2", args.coef2), ("--coef-row", args.coef_row)):
            if value is not None:
                raise UsageError(f"{flag} cannot be combined with --measure")
        return _config_error(resolve_measure, args.measure, args.p)
    if args.p is not None:
        raise UsageError("--p applies only to named measures")
    u = _parse_floats(args.u, "--u")
    if args.coef_row is not None:
        if args.coef is not None or args.u2 is not None or args.coef2 is not None:
            raise UsageError("--coef-row cannot be combined with "
                             "--coef, --u2 or --coef2")
        if len(args.coef_row) != 2:
            raise UsageError("--coef-row must be given exactly twice "
                             "(numerator row, then denominator row)")
        matrix = np.array([_parse_floats(row, "--coef-row")
                           for row in args.coef_row])
        return _config_error(MeasureSpec.from_arrays, u, matrix)
    coef = _parse_floats(args.coef, "--coef") if args.coef is not None else None
    u2 = _parse_floats(args.u2, "--u2") if args.u2 is not None else None
    coef2 = _parse_floats(args.coef2, "--coef2") if args.coef2 is not None else None
    return _config_error(MeasureSpec.from_arrays, u, coef, u2, coef2)


def _seed_from(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("QUANTEST_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise UsageError(f"QUANTEST_SEED must be an integer, got {env!r}") from None


def _cmd_qtest(args) -> int:
    spec = _qtest_measure(args)
    opts = _config_error(
        TestOptions,
        alternative=_ALT_FLAG_MAP[args.alternative],
        conf_level=args.level,
        true_q=args.true_q,
        log_transf=args.log,
        back_transf=args.back,
        min_q=args.min_q,
        quantile_type=args.type,
        var_method=QdMethod(kind=args.var_method),
    )
    x = _load(args.x, args.column)
    if args.y is None:
        result = q_test_one(x, spec, opts)
    else:
        y = _load(args.y, args.column)
        result = q_test_two(x, y, spec, opts)
    print(render(result, args.format))
    return 0


def _cmd_qineq(args) -> int:
    spec = _config_error(InequalitySpec, kind=args.measure, J=args.J,
                         true_ineq=args.true_ineq)
    opts = _config_error(
        TestOptions,
        alternative=_ALT_FLAG_MAP[args.alternative],
        conf_level=args.level,
        quantile_type=args.type,
        var_method=QdMethod(kind=args.var_method),
    )
    x = _load(args.x, args.column)
    y = _load(args.y, args.column) if args.y is not None else None
    result = qineq_test(x, y, spec, opts)
    print(render(result, args.format))
    return 0


def _cmd_qcov(args) -> int:
    us = _parse_floats(args.u, "--u")
    method = QdMethod(kind=args.var_method)
    x = _load(args.x, args.column)
    try:
        c = qcov(x, us, method=method, quantile_type=args.type)
    except ValueError as exc:
        if "(0, 1)" in str(exc) or "at least one" in str(exc):
            raise UsageError(str(exc)) from exc
        raise
    print(render(c, args.format))
    return 0


def _print_tsv_and_json(fields: dict, extra_json: dict, fmt: str) -> None:
    """The TSV header and row, then the JSON; with fmt "json" the JSON alone."""
    if fmt == "text":
        keys = list(fields)
        print("\t".join(keys))
        print("\t".join(f"{fields[k]:.6g}" if isinstance(fields[k], float)
                        else str(fields[k]) for k in keys))
    print(json.dumps({**extra_json, **fields}, indent=2))


def _cmd_verify_coverage(args) -> int:
    measure = _config_error(resolve_measure, args.measure, args.p, args.J)
    params = tuple(_parse_floats(args.params, "--params")) if args.params else ()
    dist = _config_error(Distribution, args.dist, params)
    seed = _seed_from(args)
    cfg = _config_error(SimConfig, distribution=dist, n=args.n, reps=args.reps,
                        measure=measure, level=args.level, seed=seed,
                        log_ratio=args.log_ratio)
    coverage, avg_width, mc_se = coverage_sim(cfg)
    _print_tsv_and_json(
        {"coverage": coverage, "avg_width": avg_width, "mc_se": mc_se},
        {"command": "verify coverage", "distribution": dist.name,
         "params": list(dist.params), "n": args.n, "reps": args.reps,
         "measure": args.measure, "level": args.level, "seed": seed,
         "log_ratio": args.log_ratio, "rng": RNG_DESCRIPTION}, args.format)
    return 0


def _cmd_verify_bootstrap(args) -> int:
    measure = _config_error(resolve_measure, args.measure, args.p, args.J)
    if args.B < 500:
        raise UsageError("need at least 500 bootstrap resamples")
    seed = _seed_from(args)
    x = _load(args.x, args.column)
    se = bootstrap_se(x, measure, B=args.B, seed=seed)
    _print_tsv_and_json(
        {"bootstrap_se": se, "B": args.B, "seed": seed},
        {"command": "verify bootstrap", "file": args.x, "n": int(x.size),
         "measure": args.measure, "rng": RNG_DESCRIPTION}, args.format)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        if args.command == "qtest":
            return _cmd_qtest(args)
        if args.command == "qineq":
            return _cmd_qineq(args)
        if args.command == "qcov":
            return _cmd_qcov(args)
        if args.verify_command == "coverage":
            return _cmd_verify_coverage(args)
        return _cmd_verify_bootstrap(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
