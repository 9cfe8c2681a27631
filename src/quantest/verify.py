"""Monte Carlo and bootstrap checks of the inference machinery.

coverage_sim measures empirical confidence-interval coverage against the
true population value of a measure, computed from closed-form population
quantile functions (or, for the inequality indices, a fixed composite
Gauss-Legendre rule on dyadic panels, within 1e-15 relative of 30-digit
values).  A quantile measure's true value comes from the same value step
as its estimates, MeasureSpec._at_quantiles, fed the population quantiles
at the measure's grid in place of the sample quantiles.
bootstrap_se is an independent route to a standard error, used as an
oracle for the delta-method SEs.

Replicate RNG streams are spawned from a single seed (numpy PCG64 via
SeedSequence.spawn), so results are reproducible and independent of
evaluation order.  coverage_sim draws each replicate from its own stream
as a replicate-by-replicate loop would, but sets the streams up a chunk
of replicates at a time: it computes the PCG64 states that
default_rng(SeedSequence(seed).spawn(reps)[i]) would start from, for
every i of the chunk at once, and sets each in turn into one generator.
It draws each replicate into a row of one buffer, sorts each chunk once,
in place, and computes every replicate's interval with the same estimator
core that q_test_one and qineq_test run on a stack of one sample; no
covariance matrix is built.  bootstrap_se draws its resamples in blocks
of about 2^20 indices and holds each resample as integer ranks into the
sample's sort.  It orders the ranks only as far as the estimator reads
them: a small grid's order statistics are selected into their sorted
place by partitions, a large grid sorts every resample.  It gathers only
those order statistics and keeps only the B estimates.  A block of at
least 2^18 indices that gets the process's worker thread
(quantiles._pair_for; not on one CPU, nor while another caller holds it)
is drawn, ranked and ordered on both threads, each taking the next piece
of work when it is free: the draws are cut into pieces of the stream,
each drawn by its own generator moved on by PCG64.advance, with the few
words where neighbouring pieces overlap set right afterwards, wherever
the rejected words put the true ends (PCG's jump distance, with no step
cap), and a piece that starts more words early than it holds drawn
again; then groups of the block's resamples are ordered and estimated
apart.  The results are bit-identical to the serial ones.  Memory in
both is bounded by the chunk or block, not by reps or B.
"""

from __future__ import annotations

import bisect
import collections
import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from ._normal import ndtri
from .inference import TestOptions, _interval, _working_stats
from .measures import InequalitySpec
from .qdensity import _BAND_MAX, QdMethod
from .quantiles import _finite_ends, _pair_for, _Pair, _sorted_one

__all__ = [
    "Distribution",
    "SimConfig",
    "population_measure_value",
    "coverage_sim",
    "bootstrap_se",
    "RNG_DESCRIPTION",
]

RNG_DESCRIPTION = "numpy PCG64, per-replicate SeedSequence.spawn streams"

# resampled indices that bootstrap_se draws, ranks and orders at a time
_BOOT_BLOCK = 2**20

# a split block's draws are drawn in an even number of pieces of about this
# many indices, and its resamples ordered in _SPLIT_TASKS tasks, each task
# taken by the first of the two threads free, so a thread the host runs
# slower takes fewer
_PIECE = 2**17
_SPLIT_TASKS = 4

# indices _draw_ranks draws at a time: 512 KiB of int64, still in cache
# when rank.take reads them
_DRAW_CHUNK = 2**16

# the hash constants of NumPy's SeedSequence (numpy/random/bit_generator.pyx)
# and the multiplier of PCG64's 128-bit LCG (numpy/random/src/pcg64/pcg64.h)
_MASK32 = 2**32 - 1
_MASK128 = 2**128 - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# composite Gauss-Legendre rule for the inequality indices' population values
_GL_POINTS = 20
_GL_PANELS = 61

# The distributions, in order: name -> (default parameters, parameter
# check, quantile function, sampler).  The check pairs a predicate of the
# parameters with the error text when it fails; the quantile function takes
# a float array p, and the sampler a generator and a size, each followed by
# the parameters.
_SCALE_CHECK = (lambda mu, sd: sd > 0, "scale parameter must be positive")
_DISTRIBUTIONS = {
    "normal": ((0.0, 1.0), _SCALE_CHECK,
               lambda p, mu, sd: mu + sd * ndtri(p),
               lambda rng, n, mu, sd: rng.normal(mu, sd, n)),
    "lognormal": ((0.0, 1.0), _SCALE_CHECK,
                  lambda p, mu, sd: np.exp(mu + sd * ndtri(p)),
                  lambda rng, n, mu, sd: rng.lognormal(mu, sd, n)),
    "uniform": ((0.0, 1.0), (lambda a, b: b > a, "uniform needs a < b"),
                lambda p, a, b: a + (b - a) * p,
                lambda rng, n, a, b: rng.uniform(a, b, n)),
    "exponential": ((1.0,), (lambda lam: lam > 0, "rate must be positive"),
                    lambda p, lam: -np.log1p(-p) / lam,
                    lambda rng, n, lam: rng.exponential(1.0 / lam, n)),
}


@dataclass(frozen=True)
class Distribution:
    """Sampling distribution with a closed-form quantile function: a row of _DISTRIBUTIONS."""

    name: str
    params: tuple = ()

    def __post_init__(self):
        if self.name not in _DISTRIBUTIONS:
            raise ValueError(f"unknown distribution {self.name!r}; "
                             f"choose from {sorted(_DISTRIBUTIONS)}")
        defaults, (valid, message), *_ = _DISTRIBUTIONS[self.name]
        params = tuple(float(v) for v in self.params) or defaults
        if len(params) != len(defaults):
            raise ValueError(f"{self.name} takes {len(defaults)} parameter(s)")
        if not all(map(math.isfinite, params)):
            raise ValueError(f"{self.name} parameters must be finite")
        object.__setattr__(self, "params", params)
        if not valid(*params):
            raise ValueError(message)

    def quantile(self, p):
        return _DISTRIBUTIONS[self.name][2](np.asarray(p, dtype=float), *self.params)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return _DISTRIBUTIONS[self.name][3](rng, n, *self.params)


@dataclass(frozen=True)
class SimConfig:
    """Configuration of one coverage study.

    log_ratio switches a ratio measure to the log-scale interval with
    back-transformation (the recommended reporting practice for ratios;
    slightly more conservative); with any other measure it is a
    ValueError.  The default False verifies the interval the package
    constructs with default options.  var_method is the quantile-density
    method of every replicate's variance.
    """

    distribution: Distribution
    n: int
    reps: int
    measure: object  # MeasureSpec or InequalitySpec
    level: float = 0.95
    seed: int = 0
    log_ratio: bool = False
    var_method: QdMethod = field(default_factory=QdMethod)

    def __post_init__(self):
        if self.reps < 100:
            raise ValueError("need at least 100 replications")
        if self.n < 2:
            raise ValueError("need n of at least 2")
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must lie in (0, 1)")
        _check_seed(self.seed)
        if self.log_ratio:
            _check_spec(self.measure)
            if not self.measure.is_ratio:
                raise ValueError("log_ratio applies only to ratio measures")


@functools.cache
def _gauss_legendre_panels():
    """Nodes and weights of the composite rule on (0, 1), built once, read-only."""
    x, w = np.polynomial.legendre.leggauss(_GL_POINTS)
    edges = np.concatenate(([0.0], np.exp2(np.arange(-_GL_PANELS + 1, 1.0))))
    half = np.diff(edges)[:, None] / 2.0
    p = (edges[:-1, None] + half * (x + 1.0)).ravel()
    weights = (half * w).ravel()
    p.setflags(write=False)
    weights.setflags(write=False)
    return p, weights


def population_measure_value(dist: Distribution, measure) -> float:
    """True value of a measure under the distribution.

    Quantile measures plug the population quantile function at their grid
    into the value step the estimators use, MeasureSpec._at_quantiles; a
    zero denominator gives NaN there.  Inequality indices integrate the
    symmetric quantile ratio over (0, 1) with 20-point Gauss-Legendre
    rules on the 61 panels between 0, 2^-60, 2^-59, ..., 1/2 and 1: the
    panels shrink toward 0, where the ratio is not smooth.  Against
    30-digit values this is within 1e-15 relative for QRI and G2 under
    lognormal (sigma 0.25 to 3), exponential and uniform distributions.
    """
    _check_spec(measure)
    if isinstance(measure, InequalitySpec):
        if float(dist.quantile(1e-12)) <= 0.0:
            raise ValueError(f"{measure.kind} requires a positive-support distribution")

        p, weights = _gauss_legendre_panels()
        # at the smallest nodes 1 - p/2 rounds to 1, the upper quantile is
        # infinite and the ratio is 0, its limit
        with np.errstate(divide="ignore", over="ignore"):
            terms = 1.0 - dist.quantile(p / 2.0) / dist.quantile(1.0 - p / 2.0)
        if measure.kind == "G2":
            terms = 2.0 * p * terms
        return float(terms @ weights)
    value = float(measure._at_quantiles(dist.quantile(measure._grid), gradient=False)[0])
    if math.isnan(value):
        raise ValueError(f"the population denominator of the measure is zero under "
                         f"the {dist.name} distribution")
    return value


def _check_seed(seed) -> None:
    """A ValueError unless seed is a non-negative integer, as SeedSequence takes it."""
    try:
        if operator.index(seed) >= 0:
            return
    except TypeError:
        pass
    raise ValueError("seed must be a non-negative integer")


def _check_spec(measure) -> None:
    """A TypeError for anything without a spec's _estimate."""
    if not hasattr(measure, "_estimate"):
        raise TypeError("measure must be a MeasureSpec or InequalitySpec")


def _replicate_intervals(cfg: SimConfig):
    """The study's interval function.

    The function takes a stack of samples, one per row, sorts each row in
    place (the study's chunk buffer, so no copy is made), and returns the
    lower and upper bounds of the interval that q_test_one builds for each.
    """
    opts = TestOptions(conf_level=cfg.level, log_transf=cfg.log_ratio,
                       back_transf=cfg.log_ratio, var_method=cfg.var_method)

    def intervals(values):
        values.sort(axis=-1)
        est, var, _ = _working_stats(_finite_ends(values), cfg.measure, opts)
        return _interval(est, var, opts)[2:]
    return intervals


def _hashmix(const: int, mult: int):
    """SeedSequence's hashmix from the hash constant const, stepped by mult.

    Each call xors the value with the constant, steps the constant and
    multiplies by it, in uint32 arithmetic: on Python ints below 2^32 or
    on uint32 arrays alike.
    """
    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16
    return hashmix


def _mix(x, y):
    r = (x * _MIX_L - y * _MIX_R) & _MASK32
    return r ^ r >> 16


def _stream_states(seed: int, start: int, count: int) -> list:
    """PCG64 states of the replicate streams start, ..., start + count - 1.

    Entry k equals default_rng(SeedSequence(seed).spawn(start + count)[start + k])
    .bit_generator.state.  The spawn keys must lie below 2^32, one word
    each; np.arange refuses larger ones.  A child's entropy is the seed's
    w 32-bit words, padded to the pool's four, then its spawn key: so its
    pool is the seed's own pool, SeedSequence(seed).pool, with the key
    mixed in after 4 max(4, w) hashmix steps.  That last mix, the one step
    that differs between the streams, runs vectorised over the keys;
    generate_state(4, uint64) then reads the pool.  PCG64 seeds from those
    four words: inc = 2 seq + 1 and state = ((inc + initstate) M + inc)
    mod 2^128.
    """
    seed = operator.index(seed)
    pool = np.random.SeedSequence(seed).pool.tolist()
    words = max((seed.bit_length() + 31) // 32, 1)
    hashmix = _hashmix(_INIT_A * pow(_MULT_A, 4 * max(_POOL_SIZE, words), 2**32) & _MASK32,
                       _MULT_A)
    keys = np.arange(start, start + count, dtype=np.uint32)
    for dst in range(_POOL_SIZE):
        pool[dst] = _mix(np.full(count, pool[dst], dtype=np.uint32), hashmix(keys))
    hashmix = _hashmix(_INIT_B, _MULT_B)
    half = np.array([hashmix(pool[i % _POOL_SIZE]) for i in range(2 * _POOL_SIZE)],
                    dtype=np.uint64)
    states = []
    # each uint64 word of generate_state is two of these, low half first
    for hi, lo, seq_hi, seq_lo in (half[0::2] | half[1::2] << 32).T.tolist():
        inc = (seq_hi << 65 | seq_lo << 1 | 1) & _MASK128
        state = ((inc + (hi << 64 | lo)) * _PCG64_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def coverage_sim(cfg: SimConfig):
    """Empirical coverage of the measure's confidence interval.

    Returns (coverage, avg_width, mc_se) where mc_se is the binomial
    Monte Carlo standard error sqrt(c(1-c)/reps).  Each replicate is drawn
    from its own stream, the one default_rng(SeedSequence(seed).spawn(reps)[i])
    gives; the streams are set up a chunk at a time by _stream_states and
    set in turn into one generator, and the draws fill one buffer.  The
    replicates go through the estimators in chunks, each sorted once as a
    stack of rows; a chunk holds about _BAND_MAX numbers, counting each
    replicate's sample and its d quantile-density estimates.  A replicate
    on which q_test_one or qineq_test would raise makes the study raise
    the same error, that of the first such replicate.
    """
    true_val = population_measure_value(cfg.distribution, cfg.measure)
    intervals = _replicate_intervals(cfg)
    step = max(1, _BAND_MAX // (cfg.n + cfg.measure._grid.size))
    draws = np.empty((min(step, cfg.reps), cfg.n))
    rng = np.random.Generator(np.random.PCG64())  # each replicate sets its state
    covered = 0
    widths = np.empty(cfg.reps)
    for start in range(0, cfg.reps, step):
        values = draws[:min(step, cfg.reps - start)]
        for row, state in zip(values, _stream_states(cfg.seed, start, len(values))):
            rng.bit_generator.state = state
            row[:] = cfg.distribution.sample(rng, cfg.n)
        try:
            lo, hi = intervals(values)
        except ValueError:
            # raise the error of the chunk's first failing replicate
            for i in range(len(values)):
                intervals(values[i:i + 1])
            raise
        covered += int(np.count_nonzero((lo <= true_val) & (true_val <= hi)))
        widths[start:start + len(values)] = hi - lo
    coverage = covered / cfg.reps
    mc_se = math.sqrt(coverage * (1.0 - coverage) / cfg.reps)
    return coverage, float(np.mean(widths)), mc_se


def _select_pays(n: int, m: int) -> bool:
    """Whether m one-kth partitions of rows of n ranks cost less than a sort.

    Set from the time per block of 2^20 indices on a 2-vCPU Xeon with
    AVX-512 and NumPy 2.4.  Selecting the columns of d grid probabilities
    (k - 1, then k, as _quantiles_sorted reads them) beat sorting for
    d = 1 from n = 1000, for d up to four or five at n = 10^4, seven at
    3*10^4 and about ten from 10^5 to 10^6, where the limit stops
    growing.  The rule stays at or below those counts.
    """
    return m <= min(math.isqrt(n) // 30, 10)


class _RankRows:
    """Resamples held as ranks into the sorted sample, ordered on demand.

    Each row of ranks is one resample, unsorted.  Indexing with a key
    (..., index) gathers the order statistics that index names along the
    last axis.  Each named column not yet in its sorted place is put there
    first, by one one-kth partition of the stretch between the nearest
    columns already placed; when _select_pays says that costs more, every
    row is sorted instead.  sorted_values[rank] is monotone in the rank,
    so the values gathered equal those from sorting the resampled values.
    """

    def __init__(self, sorted_values: np.ndarray, ranks: np.ndarray):
        self.shape = ranks.shape
        self._sorted = sorted_values
        self._ranks = ranks
        # the columns in their sorted place between two sentinels, or None
        # once every row is sorted
        self._placed = [-1, ranks.shape[-1]]

    def __getitem__(self, key):
        cols = key[-1]
        if isinstance(cols, slice):
            cols = np.arange(*cols.indices(self.shape[-1]))
        if self._placed is not None:
            self._place(np.ravel(cols).tolist())
        return self._sorted.take(self._ranks.take(cols, axis=-1))

    def _place(self, cols: list) -> None:
        new = sorted(set(cols).difference(self._placed))
        if not _select_pays(self.shape[-1], len(new)):
            self._ranks.sort(axis=-1)
            self._placed = None
            return
        for c in new:
            i = bisect.bisect(self._placed, c)
            lo, hi = self._placed[i - 1] + 1, self._placed[i]
            # one kth per call: with several, NumPy leaves its SIMD path
            self._ranks[..., lo:hi].partition(c - lo, axis=-1)
            self._placed.insert(i, c)


def _draw_ranks(rng, rank, out) -> None:
    """rank.take(rng.integers(0, rank.size, out.size)) into out, a chunk at a time.

    Successive integers calls continue one stream, so the draws do not
    depend on the chunk size.
    """
    for i in range(0, out.size, _DRAW_CHUNK):
        part = out[i:i + _DRAW_CHUNK]
        rank.take(rng.integers(0, rank.size, part.size), out=part, mode="clip")


def _share(pair: _Pair, tasks) -> None:
    """Run every task, each taken by the first thread of the pair free."""
    tasks = collections.deque(tasks)

    def drain():
        while tasks:
            try:
                task = tasks.popleft()
            except IndexError:  # the other thread took the last one
                return
            task()
    pair.run(drain, drain)


def _steps_between(start: dict, end: dict) -> int:
    """PCG64 steps from state start to state end.

    O'Neill's jump distance for an LCG (pcg_random.hpp, distance): from
    the lowest bit up, where the states still differ in the bit, take one
    step of the current stride, 2^b plain steps; the stride's multiplier
    and increment are then squared into the next one's.  So it takes one
    round per bit, at most 128, whatever the distance.
    """
    word, target = start["state"]["state"], end["state"]["state"]
    mult, plus = _PCG64_MULT, start["state"]["inc"]
    bit = steps = 0
    while word != target:
        if (word ^ target) >> bit & 1:
            word = (word * mult + plus) & _MASK128
            steps |= 1 << bit
        plus = (mult + 1) * plus & _MASK128
        mult = mult * mult & _MASK128
        bit += 1
    return steps


def _split_draws(pair: _Pair, rng, rank, flat, gens: list) -> None:
    """rank.take(rng.integers(0, n, flat.size)) into flat, drawn in pieces by a pair of threads.

    The draws, and the state rng is left in, are those of the serial
    call, bit for bit.  NumPy draws each index from one 32-bit word (two
    per PCG64 step, low half first) by Lemire's method, which rejects a
    word w when (w n) mod 2^32 < 2^32 mod n, on the word alone.  So piece
    j > 0 is drawn by a generator of gens (scratch generators, added as
    needed) started where the stream would be if no word before the piece
    were rejected: PCG64.advance moves it on by half the indices before
    the piece, less rng's buffered word, and the piece bounds keep that a
    whole step.  Piece 0 is drawn by rng.  The pieces are an even number,
    so the two threads can draw as many.  Then, piece by piece, the
    stream's true state at the end of the pieces before it is r words past
    the piece's start, r the rejections before it; _steps_between finds r
    from the two states.  Of those r words the piece's generator read, a
    were accepted: the piece's draws, shifted left by a and followed by a
    more, are the serial ones.  That needs a no larger than the piece, so
    a piece more than its own length behind (r > its size, reached when
    the rejections before it add up to a piece, for a large n or a long
    block) is drawn again from the true state instead, and the pieces
    after it are further behind still; so no fix-up reads more words than
    its piece holds.
    """
    n, m = rank.size, flat.size
    state = rng.bit_generator.state
    buffered = state["has_uint32"]
    k = max(2, (m // _PIECE + 1) // 2 * 2)
    size = m // k - m // k % 2
    bounds = [0] + [j * size + buffered for j in range(1, k)] + [m]
    while len(gens) < k - 1:
        gens.append(np.random.Generator(np.random.PCG64()))
    starts = []
    for j, g in enumerate(gens[:k - 1], 1):
        g.bit_generator.state = state
        g.bit_generator.advance(j * size // 2)  # and drops the buffered word
        starts.append(g.bit_generator.state)
    pieces = [flat[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    _share(pair, (functools.partial(_draw_ranks, g, rank, piece)
                  for g, piece in zip([rng, *gens], pieces)))
    true, bits = rng, None
    threshold = 2**32 % n
    for g, start, piece in zip(gens, starts, pieces[1:]):
        end = true.bit_generator.state
        steps = _steps_between(start, end)
        r = 2 * steps - end["has_uint32"]
        if r > piece.size:
            _draw_ranks(true, rank, piece)  # true moves on to the piece's end
            continue
        if r:
            bits = bits or np.random.PCG64()
            bits.state = start
            # each step's two words, low half first
            words = bits.random_raw(steps).astype("<u8", copy=False).view("<u4")[:r]
            a = np.count_nonzero(words * np.uint32(n) >= threshold)
            if a:
                piece[:-a] = piece[a:]
                _draw_ranks(g, rank, piece[-a:])
        true = g
    if true is not rng:
        rng.bit_generator.state = true.bit_generator.state


def bootstrap_se(s, measure, B: int = 2000, seed: int = 0) -> float:
    """Standard deviation of B nonparametric-resample estimates.

    The estimates are those of estimate_measure for a MeasureSpec and of
    qri_estimate/g2_estimate for an InequalitySpec, with quantile type 8.
    Resamples failing to produce an estimate (zero denominator, or
    nonpositive values for an inequality index) are dropped; more than 5%
    failures is an error.

    The resamples are drawn in blocks of about _BOOT_BLOCK indices, in the
    generator's order, and only their estimates are kept.  Each resample
    is held as ranks into the sample's sort (int16 up to 2^15 values,
    else int32), unsorted.  The estimators gather only the order
    statistics they read, and only those are put in their sorted place:
    selected by one-kth partitions for a grid of a few probabilities, or
    by sorting every resample for a larger grid or a small sample (see
    _RankRows).  sorted[rank] is monotone in the rank, so the estimates
    equal those from sorting the resampled values.

    A block of at least 2^18 indices that gets the process's pair
    (quantiles._pair_for) runs on the calling thread and the worker
    thread: its draws are split in pieces of the PCG64 stream
    (_split_draws), and its resamples in _SPLIT_TASKS groups of rows that
    are ordered and estimated apart.  A sample of at least 2^18 values may
    be sorted on the same two threads.  The results are bit-identical to
    the serial ones.
    """
    values = np.asarray(s, dtype=float).ravel()
    srt = _sorted_one(values)[0]
    if B < 500:
        raise ValueError("need at least 500 bootstrap resamples")
    _check_spec(measure)
    n = values.size
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    rank = np.empty(n, dtype=np.int16 if n <= 2**15 else np.int32)
    # tied values have equal sorted[rank] whatever their order
    rank[np.argsort(values)] = np.arange(n)
    est = np.empty(B)

    def estimate(ranks, out):
        out[:] = measure._estimate(_RankRows(srt, ranks), 8, gradient=False)[0]

    step = max(1, _BOOT_BLOCK // n)
    buffer, gens = None, []
    for start in range(0, B, step):
        rows = min(step, B - start)
        out = est[start:start + rows]
        # integers(0, 1) reads no words, so a sample of one is not split
        with _pair_for(rows * n if n > 1 else 0) as pair:
            if pair is None:
                estimate(rank.take(rng.integers(0, n, size=(rows, n))), out)
                continue
            if buffer is None:
                buffer = np.empty(step * n, dtype=rank.dtype)
            _split_draws(pair, rng, rank, buffer[:rows * n], gens)
            ranks = buffer[:rows * n].reshape(rows, n)
            group = -(-rows // _SPLIT_TASKS)
            _share(pair, (functools.partial(estimate, ranks[i:i + group], out[i:i + group])
                          for i in range(0, rows, group)))
    ok = np.isfinite(est)
    if (B - int(ok.sum())) > 0.05 * B:
        raise ValueError("estimator failed on more than 5% of bootstrap resamples")
    return float(np.std(est[ok], ddof=1))
