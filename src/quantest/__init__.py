"""Distribution-free inference for quantile-based measures.

Point estimation, Wald hypothesis tests and confidence intervals for
single quantiles, linear combinations and ratios of quantiles (robust
location/scale/skewness/kurtosis measures), and quantile-ratio
inequality indices — one- and two-sample — with variances built from
kernel estimates of the quantile density function.  A Monte Carlo /
bootstrap harness verifies the asymptotics empirically.
"""

from .inequality import (
    InequalitySpec,
    g2_estimate,
    qineq_test,
    qri_estimate,
)
from .inference import (
    TestOptions,
    TestResult,
    p_value,
    q_test_one,
    q_test_two,
    wald_interval,
)
from .measures import (
    MEASURE_NAMES,
    MeasureSpec,
    estimate_measure,
    resolve_measure,
)
from .qcov import QuantileCov, qcov
from .qdensity import (
    EPANECHNIKOV,
    Kernel,
    QdMethod,
    fit_lognormal_sigma,
    optimal_bandwidth,
    qdens_inversion,
    qdens_kernel,
    qor_lognormal,
)
from .quantiles import Sample, as_sample, sample_quantile, sample_quantiles
from .verify import (
    Distribution,
    SimConfig,
    bootstrap_se,
    coverage_sim,
    population_measure_value,
)

__version__ = "0.1.0"

__all__ = [
    "Sample",
    "as_sample",
    "sample_quantile",
    "sample_quantiles",
    "Kernel",
    "EPANECHNIKOV",
    "QdMethod",
    "qor_lognormal",
    "fit_lognormal_sigma",
    "optimal_bandwidth",
    "qdens_kernel",
    "qdens_inversion",
    "QuantileCov",
    "qcov",
    "MeasureSpec",
    "MEASURE_NAMES",
    "resolve_measure",
    "estimate_measure",
    "TestOptions",
    "TestResult",
    "q_test_one",
    "q_test_two",
    "wald_interval",
    "p_value",
    "InequalitySpec",
    "qri_estimate",
    "g2_estimate",
    "qineq_test",
    "Distribution",
    "SimConfig",
    "coverage_sim",
    "bootstrap_se",
    "population_measure_value",
    "__version__",
]
