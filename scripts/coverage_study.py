"""Confidence-interval coverage study across measures and distributions.

Sweeps sample sizes for a set of measures and prints one table row per
configuration: empirical coverage, its Monte Carlo standard error and the
average interval width.  Everything is driven by the library's simulation
harness, so a row is exactly reproducible from its seed.

Examples:
    python3 scripts/coverage_study.py                      # quick desk run
    python3 scripts/coverage_study.py --reps 5000 --n 50 100 200
    python3 scripts/coverage_study.py --measures rCViqr qr9010 --dist lognormal --log-ratio
"""

import argparse
import sys
import time

from quantest import Distribution, SimConfig, coverage_sim
from quantest.measures import resolve_measure

# measure name -> distribution the study samples from (positive-support
# distributions for ratio measures and inequality indices)
DEFAULT_PLAN = {
    "median": "normal",
    "iqr": "lognormal",
    "rCViqr": "lognormal",
    "bowley": "normal",
    "QRI": "lognormal",
    "G2": "lognormal",
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--measures", nargs="+", default=list(DEFAULT_PLAN),
                    help=f"measures to study (default: {' '.join(DEFAULT_PLAN)})")
    ap.add_argument("--dist", default=None,
                    choices=["normal", "lognormal", "uniform", "exponential"],
                    help="force one sampling distribution for every measure")
    ap.add_argument("--n", type=int, nargs="+", default=[50, 100, 200],
                    help="sample sizes (default 50 100 200)")
    ap.add_argument("--reps", type=int, default=1000,
                    help="replications per row (default 1000)")
    ap.add_argument("--level", type=float, default=0.95)
    ap.add_argument("--J", type=int, default=100,
                    help="grid size for the inequality indices")
    ap.add_argument("--log-ratio", action="store_true",
                    help="use log-scale intervals for ratio measures")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    print(f"{'measure':10s} {'dist':12s} {'n':>6s} {'coverage':>9s} "
          f"{'mc_se':>7s} {'width':>9s} {'secs':>6s}")
    for name in args.measures:
        dist_name = args.dist or DEFAULT_PLAN.get(name, "normal")
        measure = resolve_measure(name, J=args.J)
        for n in args.n:
            cfg = SimConfig(Distribution(dist_name), n=n, reps=args.reps,
                            measure=measure, level=args.level, seed=args.seed,
                            log_ratio=args.log_ratio and measure.is_ratio)
            t0 = time.monotonic()
            coverage, width, mc_se = coverage_sim(cfg)
            print(f"{name:10s} {dist_name:12s} {n:6d} {coverage:9.4f} "
                  f"{mc_se:7.4f} {width:9.4f} {time.monotonic() - t0:6.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
