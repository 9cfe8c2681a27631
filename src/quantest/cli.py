"""Command-line front end: a thin shell over the library calls.

--format json prints every field of the result dataclass, in field order.
A command line is parsed by the parser of the command it names alone;
the parser of every command (build_parser) reads only a line that names
none or leaves arguments over, and prints what argparse prints for it.

Subcommands:
  qtest   one- or two-sample test of a quantile measure
  qineq   qtest with --measure QRI (the default) or G2
  qcov    covariance matrix of a set of sample quantiles
  verify  Monte Carlo coverage study / bootstrap standard-error oracle

Exit codes: 0 success, 2 usage or input error, 1 computation error or a
closed stdout (a reader such as head that has quit), which prints nothing.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import os
import re
import sys

import numpy as np

from .inference import TestOptions, TestResult, q_test_one, q_test_two
from .measures import MEASURE_NAMES, InequalitySpec, MeasureSpec, resolve_measure
from .qcov import QuantileCov, qcov
from .qdensity import QdMethod
from .verify import (_DISTRIBUTIONS, RNG_DESCRIPTION, Distribution, SimConfig, _check_seed,
                     bootstrap_se, coverage_sim)

__all__ = ["main", "build_parser", "load_column", "render"]

P_DISPLAY_FLOOR = 2.2e-16

_ALT_PHRASE = {
    "two_sided": "not equal to",
    "less": "less than",
    "greater": "greater than",
}


class UsageError(ValueError):
    """Bad flags or unusable input files (exit code 2)."""


# ---------------------------------------------------------------------------
# input


# the bytes of a CSV body that NumPy's C reader parses as float() does:
# digits, signs, points, exponents, delimiters, quotes, blanks, line ends
_C_READER_BYTES = b'0123456789+-.eE," \t\r\n'
_LINE_CONTENT = re.compile(rb"[^\r\n]")


def load_column(path: str, selector: str | None = None):
    """Read one numeric column of a headered CSV file.

    selector is a column name, or a 0-based index when no header matches;
    None means the first column.  A UTF-8 byte-order mark is ignored.
    Rows whose cell is missing, non-numeric or not finite are skipped and
    counted.  Returns (values, skipped, column_name).

    Two readers give the same values, bit for bit, and the same skip
    count.  NumPy's C reader, np.loadtxt, takes a file whose first line
    has no quote and whose other lines hold only the bytes of
    _C_READER_BYTES, some of them content, and NA, which it reads as nan;
    this is decided from the bytes before any parsing.  Its column stands
    if it read one value per line or, in a file with no quote, if every
    line it dropped is empty, which the loop counts as skipped.  Every
    other file, and every file the C reader rejects, goes through the csv
    row loop (_read_rows), the reference: float() of each row's cell.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}") from exc
    rows = csv.reader(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig", newline=""))
    try:
        header = next(rows, None)
        if header is None:
            raise UsageError(f"{path} is empty")
        idx, name = _select_column([h.strip() for h in header], selector, path)
        values, skipped = _read_clean(raw, idx) or _read_rows(rows, idx)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    finite = np.isfinite(values)
    if not finite.all():
        skipped += values.size - int(np.count_nonzero(finite))
        values = values[finite]
    if not values.size:
        raise UsageError(f"no usable numeric rows in column {name!r} of {path}")
    return values, skipped, name


def _select_column(header: list, selector: str | None, path: str):
    """The index and name of the column selector picks from header."""
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
    return idx, header[idx] if idx < len(header) else str(idx)


def _read_clean(raw: bytes, idx: int):
    """Column idx of the lines after raw's first, read by np.loadtxt, with
    its skip count; None when the row loop might read them otherwise (see
    load_column)."""
    start = raw.find(b"\n") + 1
    head = raw[:start]
    if (not start
            # a quoted line end would carry the header past its first line
            or b'"' in head
            # empty lines alone are no data to np.loadtxt, which warns
            or not _LINE_CONTENT.search(raw, start)):
        return None
    other = (len(raw.translate(None, _C_READER_BYTES))
             - len(head.translate(None, _C_READER_BYTES)))
    grown = 0
    if not other:
        body = io.BytesIO(raw)  # shares raw's buffer
    else:
        # R's write.csv writes NA for a missing value.  As nan, a cell that
        # holds NA reads as NaN or not at all, and float() never reads it:
        # a NaN is skipped as the row loop skips the cell.  raw is copied
        # once, header and all; no NA spans the header's line end
        grown = raw.count(b"NA", 0, start)  # the header's own NAs
        text = raw.replace(b"NA", b"nan")
        if 2 * (len(text) - len(raw) - grown) != other:  # a byte outside every NA
            return None
        body = io.BytesIO(text)
    body.seek(start + grown)
    try:
        values = np.loadtxt(body, delimiter=",", quotechar='"', usecols=idx,
                            comments=None, ndmin=1, encoding="latin-1")
    except ValueError:
        return None
    # np.loadtxt drops empty lines, which the loop counts as skipped; with
    # no quote to join lines, every line it did not return is one of them
    lines = raw.count(b"\n", start) + (not raw.endswith(b"\n"))
    if values.size == lines or b'"' not in raw:
        return values, lines - values.size
    return None


def _read_rows(rows, idx: int):
    """The csv row loop: float() of cell idx of each row.  Returns (values, skipped)."""
    values = []
    skipped = 0
    for row in rows:
        try:  # float() ignores surrounding whitespace
            values.append(float(row[idx]))
        except (ValueError, IndexError):
            skipped += 1
    return np.asarray(values, dtype=float), skipped


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


def _plain(value):
    """A dataclass, array or tuple as the dicts, lists and scalars of JSON."""
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


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


def render(result, fmt: str = "text") -> str:
    """Render a TestResult or QuantileCov as text, or as JSON of its fields."""
    if fmt == "json":
        return json.dumps(_plain(result), indent=2)
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


_MEASURE_HELP = f"named measure ({', '.join(MEASURE_NAMES)})"
_J_HELP = "quantile-ratio grid size of QRI and G2 (default 100)"


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


# --var-method's names of the three quantile-density methods
_VAR_METHODS = {
    "qor": QdMethod(),
    "qor-fit": QdMethod(sigma=None),
    "density": QdMethod(kind="density"),
}


def _add_type_flag(sp):
    sp.add_argument("--type", type=int, default=8, choices=range(4, 10),
                    metavar="{4..9}", help="quantile interpolation type (default 8)")


def _add_var_method(sp):
    sp.add_argument("--var-method", choices=list(_VAR_METHODS), default="qor",
                    help="quantile-density estimator behind the variances: the "
                         "kernel with the lognormal QOR bandwidth at sigma 1 (qor) "
                         "or at sigma fitted from the data (qor-fit), or KDE "
                         "inversion (density); default qor")


def _add_verify_flags(sp):
    sp.add_argument("--measure", default="median", help=_MEASURE_HELP)
    sp.add_argument("--p", type=float, default=None,
                    help="tail parameter for parameterized measures")
    sp.add_argument("--J", type=int, default=None, help=_J_HELP)
    sp.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    _add_format(sp)


def _qtest_flags(sp, indices=False):
    """The flags of qtest, or with indices those of qineq, whose --measure is QRI or G2."""
    _add_data_flags(sp, two_sample=True)
    if indices:
        # --measure always names an index, so the flags that build or
        # parameterize another measure are not registered
        sp.add_argument("--measure", choices=["QRI", "G2"], default="QRI",
                        help="inequality index (default QRI)")
        sp.set_defaults(u=None, coef=None, u2=None, coef2=None, coef_row=None, p=None)
    else:
        sp.add_argument("--measure", default=None, help=_MEASURE_HELP)
        sp.add_argument("--u", default=None,
                        help="numerator probabilities, comma separated")
        sp.add_argument("--coef", default=None,
                        help="numerator coefficients (default: all ones); write "
                             "--coef=-1,1 when the list starts with a minus sign")
        sp.add_argument("--u2", default=None,
                        help="denominator probabilities (makes the measure a ratio)")
        sp.add_argument("--coef2", default=None,
                        help="denominator coefficients (with --u2, or reusing --u)")
        sp.add_argument("--coef-row", action="append", default=None, metavar="ROW",
                        help="coefficient matrix row (give twice: numerator then "
                             "denominator, sharing --u)")
        sp.add_argument("--p", type=float, default=None,
                        help="tail parameter of parameterized named measures")
    sp.add_argument("--J", type=int, default=None, help=_J_HELP)
    sp.add_argument("--alternative", choices=["greater", "less", "two-sided", "two_sided"],
                    default="two-sided")
    sp.add_argument("--level", type=float, default=0.95,
                    help="confidence level (default 0.95)")
    sp.add_argument("--true-q", type=float, default=None,
                    help="null value on the reported scale: the measure (or difference), "
                         "its log with --log, the measure (or ratio) with --back; "
                         "default no effect, or 0.5 for a one-sample QRI or G2")
    sp.add_argument("--log", action="store_true",
                    help="test on the log scale (log measure, or log ratio of "
                         "the two samples' measures)")
    sp.add_argument("--back", action="store_true",
                    help="report log-scale results back on the original scale")
    sp.add_argument("--min-q", type=float, default=-math.inf,
                    help="lower bound to clamp the reported interval at")
    _add_type_flag(sp)
    _add_var_method(sp)
    _add_format(sp)


def _qcov_flags(sp):
    _add_data_flags(sp, two_sample=False)
    sp.add_argument("--u", required=True,
                    help="probabilities of the quantiles, comma separated")
    _add_type_flag(sp)
    _add_var_method(sp)
    _add_format(sp)


def _coverage_flags(sp):
    sp.add_argument("--dist", required=True, choices=list(_DISTRIBUTIONS))
    defaults = " / ".join(",".join(f"{v:g}" for v in row[0])
                          for row in _DISTRIBUTIONS.values())
    sp.add_argument("--params", default=None,
                    help=f"distribution parameters, comma separated (defaults: {defaults})")
    sp.add_argument("--n", type=int, required=True, help="sample size")
    sp.add_argument("--reps", type=int, required=True, help="replications")
    sp.add_argument("--level", type=float, default=0.95)
    sp.add_argument("--log-ratio", action="store_true",
                    help="build intervals for ratio measures on the log scale "
                         "with back-transformation")
    _add_var_method(sp)
    _add_verify_flags(sp)


def _bootstrap_flags(sp):
    _add_data_flags(sp, two_sample=False)
    sp.add_argument("--B", type=int, default=2000, help="resamples (default 2000)")
    _add_verify_flags(sp)


# ---------------------------------------------------------------------------
# dispatch


def _config_error(fn, *args, **kwargs):
    """Run a config-building call, converting ValueError to UsageError."""
    try:
        return fn(*args, **kwargs)
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
        return _named_measure(args)
    if args.p is not None:
        raise UsageError("--p applies only to named measures")
    if args.J is not None:
        raise UsageError("--J applies only to QRI and G2")
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


def _named_measure(args):
    """The measure --measure names; --J is read only by QRI and G2."""
    if args.J is None:
        return _config_error(resolve_measure, args.measure, args.p)
    measure = _config_error(resolve_measure, args.measure, args.p, args.J)
    if not isinstance(measure, InequalitySpec):
        raise UsageError("--J applies only to QRI and G2")
    return measure


def _cmd_qtest(args) -> int:
    spec = _qtest_measure(args)
    opts = _config_error(TestOptions, alternative=args.alternative.replace("-", "_"),
                         conf_level=args.level, true_q=args.true_q, log_transf=args.log,
                         back_transf=args.back, min_q=args.min_q, quantile_type=args.type,
                         var_method=_VAR_METHODS[args.var_method])
    x = _load(args.x, args.column)
    if args.y is None:
        result = q_test_one(x, spec, opts)
    else:
        y = _load(args.y, args.column)
        result = q_test_two(x, y, spec, opts)
    print(render(result, args.format))
    return 0


def _cmd_qcov(args) -> int:
    us = _parse_floats(args.u, "--u")
    if not all(0.0 < p < 1.0 for p in us):  # NaN fails too
        raise UsageError("probabilities must lie strictly inside (0, 1)")
    x = _load(args.x, args.column)
    c = qcov(x, us, method=_VAR_METHODS[args.var_method], quantile_type=args.type)
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
    measure = _named_measure(args)
    params = tuple(_parse_floats(args.params, "--params")) if args.params else ()
    dist = _config_error(Distribution, args.dist, params)
    cfg = _config_error(SimConfig, distribution=dist, n=args.n, reps=args.reps,
                        measure=measure, level=args.level, seed=args.seed,
                        log_ratio=args.log_ratio, var_method=_VAR_METHODS[args.var_method])
    coverage, avg_width, mc_se = coverage_sim(cfg)
    _print_tsv_and_json(
        {"coverage": coverage, "avg_width": avg_width, "mc_se": mc_se},
        {"command": "verify coverage", "distribution": dist.name,
         "params": list(dist.params), "n": args.n, "reps": args.reps,
         "measure": args.measure, "J": getattr(measure, "J", None),
         "level": args.level, "seed": args.seed, "log_ratio": args.log_ratio,
         "var_method": args.var_method, "rng": RNG_DESCRIPTION}, args.format)
    return 0


def _cmd_verify_bootstrap(args) -> int:
    measure = _named_measure(args)
    if args.B < 500:
        raise UsageError("need at least 500 bootstrap resamples")
    _config_error(_check_seed, args.seed)
    x = _load(args.x, args.column)
    se = bootstrap_se(x, measure, B=args.B, seed=args.seed)
    _print_tsv_and_json(
        {"bootstrap_se": se, "B": args.B, "seed": args.seed},
        {"command": "verify bootstrap", "file": args.x, "n": int(x.size),
         "measure": args.measure, "J": getattr(measure, "J", None),
         "rng": RNG_DESCRIPTION}, args.format)
    return 0


# ---------------------------------------------------------------------------
# commands

# (name, help, add-arguments function, run); a command with commands of its
# own has no add-arguments function, and its run is their table
_VERIFY_COMMANDS = (
    ("coverage", "confidence-interval coverage study", _coverage_flags,
     _cmd_verify_coverage),
    ("bootstrap", "bootstrap standard error of a measure", _bootstrap_flags,
     _cmd_verify_bootstrap),
)
_COMMANDS = (
    ("qtest", "test a quantile measure", _qtest_flags, _cmd_qtest),
    ("qineq", "test an inequality index", functools.partial(_qtest_flags, indices=True),
     _cmd_qtest),
    ("qcov", "covariance matrix of sample quantiles", _qcov_flags, _cmd_qcov),
    ("verify", "Monte Carlo / bootstrap verification", None, _VERIFY_COMMANDS),
)


def _add_commands(parser, dest, commands):
    """Register every command of the table on parser, with its arguments."""
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, help_text, add_arguments, run in commands:
        sp = sub.add_parser(name, help=help_text)
        if add_arguments is None:
            _add_commands(sp, f"{name}_command", run)
        else:
            sp.set_defaults(run=run)
            add_arguments(sp)


def build_parser() -> argparse.ArgumentParser:
    """The quantest parser, with every command and its arguments.

    main parses a command line with the parser of the command it names
    alone (_parse_args); this parser reads only the lines that name no
    command or leave arguments over, and prints their help and errors.
    """
    parser = argparse.ArgumentParser(
        prog="quantest",
        description="Estimation, hypothesis tests and confidence intervals "
                    "for quantile-based measures.")
    _add_commands(parser, "command", _COMMANDS)
    return parser


def _parse_args(argv: list) -> argparse.Namespace:
    """build_parser().parse_args(argv), from the parser of the command argv names.

    The words at the start of argv are walked through _COMMANDS.  When
    they name a command, its parser alone reads the rest of argv with
    parse_known_args, the call argparse makes on the subparser it
    chooses; no parser above a command takes an option but -h, so the
    namespace, help and errors are those of the full parser.  A line that
    names no command, or that leaves arguments over (which the full
    parser reports under its own usage), is read by build_parser().
    """
    commands, dest = _COMMANDS, "command"
    namespace = argparse.Namespace()
    for i, word in enumerate(argv):
        row = next((c for c in commands if c[0] == word), None)
        if row is None:
            break
        name, _, add_arguments, run = row
        setattr(namespace, dest, name)
        if add_arguments is None:
            commands, dest = run, f"{name}_command"
            continue
        parser = argparse.ArgumentParser(prog=" ".join(["quantest", *argv[:i + 1]]))
        parser.set_defaults(run=run)
        add_arguments(parser)
        args, extras = parser.parse_known_args(argv[i + 1:], namespace)
        if not extras:
            return args
        break
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        status = args.run(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader of stdout has gone; Python's documented recipe points
        # stdout at devnull, so the interpreter's final flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
