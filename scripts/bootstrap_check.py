"""Delta-method standard errors versus a nonparametric bootstrap oracle.

For each measure and sample size, draws `trials` independent samples,
computes the analytic (delta-method) SE and a B-replicate bootstrap SE on
each, and reports the distribution of their ratio.  Ratios near 1 mean
the analytic standard errors are trustworthy at that sample size.

Examples:
    python3 scripts/bootstrap_check.py
    python3 scripts/bootstrap_check.py --measures rCViqr QRI --n 500 --trials 50
"""

import argparse
import sys
import time

import numpy as np

from quantest import Distribution, bootstrap_se
from quantest.inference import q_test_one
from quantest.measures import resolve_measure


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--measures", nargs="+",
                    default=["median", "iqr", "rCViqr", "QRI"])
    ap.add_argument("--dist", default="lognormal")
    ap.add_argument("--n", type=int, nargs="+", default=[200, 500])
    ap.add_argument("--trials", type=int, default=20,
                    help="independent samples per row (default 20)")
    ap.add_argument("--B", type=int, default=2000,
                    help="bootstrap resamples (default 2000)")
    ap.add_argument("--J", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    dist = Distribution(args.dist)
    print(f"{'measure':10s} {'n':>6s} {'ratio mean':>11s} {'ratio sd':>9s} "
          f"{'min':>7s} {'max':>7s} {'secs':>6s}")
    for name in args.measures:
        measure = resolve_measure(name, J=args.J)
        for n in args.n:
            t0 = time.monotonic()
            streams = np.random.SeedSequence([args.seed, n]).spawn(args.trials)
            ratios = []
            for i, stream in enumerate(streams):
                rng = np.random.default_rng(stream)
                x = dist.sample(rng, n)
                boot = bootstrap_se(x, measure, B=args.B, seed=args.seed + i)
                ratios.append(q_test_one(x, measure).se / boot)
            r = np.asarray(ratios)
            print(f"{name:10s} {n:6d} {r.mean():11.3f} {r.std(ddof=1):9.3f} "
                  f"{r.min():7.3f} {r.max():7.3f} {time.monotonic() - t0:6.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
