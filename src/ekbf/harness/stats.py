"""Small statistical toolbox shared by the estimators.

Confidence machinery is deliberately boring: Wilson intervals for
proportions, normal intervals, log-scale intervals and the percentile
bootstrap for means, the Mann-Kendall test for trend detection, and least
squares on logs for decay rates.  Everything here is numpy and the
standard library.

The three mean intervals take one input shape: a (k, n) array of k
statistics of the same n units, and row j's interval is bit for bit that
of samples[j:j + 1] alone.  normal_mean_ci is a closed form per row, used
by the moment and Gronwall rows.  log_mean_exp_ci is a closed form on the
log scale for means of exp(x), used by the heavy-tailed Laplace rows: it
takes the exponents x and overflows only in its final exponential.  On
each family's samples their miss rates are within two standard errors of
the bootstrap's (tools/coverage.py).

The bootstrap is the reference those closed forms are scored against and
backs no row.  It knows no seeding policy: its caller hands it a
Generator.  Each resample is one row of unit indices, and all k statistics
are gathered with it, as the nonparametric bootstrap resamples the
sampling unit.  Indices are drawn in blocks of BOOTSTRAP_BLOCK rows that
continue the Generator's stream; each index row gathers the k statistics
into one reused (k, n) buffer, and each mean is the same pairwise sum as
over the whole (BOOTSTRAP_RESAMPLES, n) index matrix.  Intervals are
therefore bit for bit those of the whole-matrix formula applied to each
statistic alone, while memory stays a block of indices and k rows.  Both
constants are read at call time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidArgument

# two-sided 95% normal quantile
Z95 = 1.959963984540054
# values at or below this are numerically dead and left out of decay fits
FIT_FLOOR = 1e-12

BOOTSTRAP_RESAMPLES = 1000
# resample rows drawn and gathered at a time
BOOTSTRAP_BLOCK = 8
# longest untied series whose trend p-value comes from the exact null
# distribution, as in scipy.stats.kendalltau(method="auto")
_EXACT_MAX_N = 33


@dataclass(frozen=True)
class EstimateWithCI:
    """Point estimate with a 95% interval."""

    point: float
    ci_low: float
    ci_high: float

    def __post_init__(self):
        if not (self.ci_low <= self.point <= self.ci_high):
            raise InvalidArgument(
                f"interval [{self.ci_low}, {self.ci_high}] does not contain {self.point}"
            )


def wilson_interval(successes: int, n: int) -> EstimateWithCI:
    """Wilson 95% score interval for a binomial proportion."""
    if n < 1:
        raise InvalidArgument("n must be positive")
    if not (0 <= successes <= n):
        raise InvalidArgument("successes must lie in [0, n]")
    p = successes / n
    z = Z95
    denom = n + z * z
    center = (successes + 0.5 * z * z) / denom
    half = z * np.sqrt(successes * (n - successes) / n + 0.25 * z * z) / denom
    low = max(0.0, center - half)
    high = min(1.0, center + half)
    # the score interval always contains the sample proportion
    low = min(low, p)
    high = max(high, p)
    return EstimateWithCI(point=p, ci_low=low, ci_high=high)


def _mean_table(samples) -> np.ndarray:
    """samples as a (k, n) float array with n >= 1, the one shape of a mean interval's input."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2:
        raise InvalidArgument("samples must be a (statistics, units) array")
    if samples.shape[1] < 1:
        raise InvalidArgument("need at least one sample")
    return samples


def normal_mean_ci(samples):
    """Normal 95% intervals for means: mean +- Z95 s / sqrt(n) per row.

    samples is a (k, n) array of k statistics of the same n units, as for
    bootstrap_mean_ci; s is the ddof = 1 deviation of each contiguous row,
    so row j's interval is bit for bit that of samples[j:j + 1] alone.  Each
    end is clipped to its row's sample range, where a percentile interval
    always lies, so an interval of non-negative samples stays non-negative.
    A one-unit row's interval is its point.  Returns a list of k
    EstimateWithCI.
    """
    samples = _mean_table(samples)
    n = samples.shape[1]
    out = []
    for row in samples:
        point = float(row.mean())
        half = Z95 * float(row.std(ddof=1)) / math.sqrt(n) if n > 1 else 0.0
        low = max(point - half, float(row.min()))
        high = min(point + half, float(row.max()))
        out.append(EstimateWithCI(point, min(low, point), max(high, point)))
    return out


def log_mean_exp_ci(exponents):
    """Log-scale 95% intervals for means of exp(x), from the exponents x.

    exponents is a (k, n) array of finite exponents of k statistics of the
    same n units, as for normal_mean_ci.  Per row, with M = max x and
    w = exp(x - M), the mean's log is M + log(mean w), and its half-width
    on the log scale is the delta method's Z95 s_w / (mean w sqrt(n)), s_w
    the ddof = 1 deviation of w.  Each end on the log scale is clipped to
    the row's range [min x, M], so the interval lies within the samples
    exp(x), as a percentile interval does; a one-unit row's interval is its
    point.  Nothing overflows before the final exponentials, which may read
    inf.  Row j's interval is bit for bit that of exponents[j:j + 1] alone.
    Returns a list of k EstimateWithCI.
    """
    exponents = _mean_table(exponents)
    n = exponents.shape[1]
    out = []
    for row in exponents:
        top = float(row.max())
        w = np.exp(row - top)
        w_bar = float(w.mean())
        log_point = top + math.log(w_bar)
        half = Z95 * float(w.std(ddof=1)) / (w_bar * math.sqrt(n)) if n > 1 else 0.0
        with np.errstate(over="ignore"):
            low, point, high = np.exp([max(log_point - half, float(row.min())), log_point,
                                       min(log_point + half, top)]).tolist()
        out.append(EstimateWithCI(point, min(low, point), max(high, point)))
    return out


def bootstrap_mean_ci(samples, rng: np.random.Generator):
    """Percentile bootstrap intervals for means, BOOTSTRAP_RESAMPLES resamples from rng.

    samples is a (k, n) array of k statistics of the same n units.  Every
    resample draws one row of n unit indices and gathers all k statistics
    with it, so the k intervals share their resamples.  Row j's interval is
    bit for bit that of samples[j:j + 1] alone under an identically seeded
    rng.  Returns a list of k EstimateWithCI.
    """
    samples = _mean_table(samples)
    k, n = samples.shape
    points = [float(row.mean()) for row in samples]
    if n == 1 or k == 0:
        means = samples  # nothing to resample; a one-unit interval is its point
    else:
        means = np.empty((k, BOOTSTRAP_RESAMPLES))
        buf = np.empty((k, n))
        for lo in range(0, BOOTSTRAP_RESAMPLES, BOOTSTRAP_BLOCK):
            idx = rng.integers(0, n, size=(min(BOOTSTRAP_BLOCK, BOOTSTRAP_RESAMPLES - lo), n))
            for r, row in enumerate(idx):
                # indices lie in [0, n), so "clip" gathers without a bounds pass
                np.take(samples, row, axis=1, out=buf, mode="clip")
                buf.mean(axis=1, out=means[:, lo + r])
    out = []
    for point, row in zip(points, means):
        low, high = np.percentile(row, [2.5, 97.5])
        out.append(EstimateWithCI(point, min(float(low), point), max(float(high), point)))
    return out


def increasing_trend_pvalue(times, values) -> float:
    """One-sided Mann-Kendall p-value for an increasing trend.

    Small p means the series is credibly increasing; p >= 0.05 is the
    "no growth" verdict used by the uniform-moment checks.

    times is a record grid and must increase strictly, so only the values
    can tie.  The statistic is S = sum_{i<j} sign(v_j - v_i), the
    concordant minus the discordant pairs.  When no two values tie and
    either n <= 33 or S lies within one pair of its extreme (fewer than two
    discordant or two concordant pairs), p is P(S' >= S) under the exact
    null distribution, from Kendall's recursion on the number of
    permutations with k inversions.  Otherwise S is taken as normal with
    mean 0 and the tie-corrected variance

      Var S = [n(n-1)(2n+5) - sum_g t_g(t_g-1)(2t_g+5)] / 18

    over the groups of t_g equal values, and p = erfc(S / sqrt(2 Var S)) / 2.
    This is scipy.stats.kendalltau(times, values, alternative="greater")
    with method="auto", the normal tail taken from math.erfc.  When every
    value equals the first, S is undefined and p is 1.0; NaN values give NaN.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.ndim != 1 or times.shape != values.shape or times.size < 3:
        raise InvalidArgument("need matching 1-d series of length >= 3")
    if not np.all(np.diff(times) > 0):
        raise InvalidArgument("times must increase strictly")
    if np.isnan(values).any():
        return math.nan
    if np.all(values == values[0]):
        return 1.0
    n = values.size
    _, ranks, counts = np.unique(values, return_inverse=True, return_counts=True)
    dis = _discordant_pairs(ranks)
    tot = n * (n - 1) // 2
    counts = counts[counts > 1].astype(np.int64)
    ties = int((counts * (counts - 1) // 2).sum())
    if ties == 0 and (n <= _EXACT_MAX_N or min(dis, tot - dis) <= 1):
        return _kendall_exact_greater(n, tot - dis)
    s = tot - ties - 2 * dis
    tie_terms = int((counts * (counts - 1) * (2 * counts + 5)).sum())
    var = (n * (n - 1.0) * (2 * n + 5) - tie_terms) / 18
    return 0.5 * math.erfc(s / math.sqrt(var) / math.sqrt(2.0))


def _discordant_pairs(ranks: np.ndarray) -> int:
    """Pairs i < j with ranks[i] > ranks[j], counted by bottom-up merge levels.

    At each level the sorted runs of `width` ranks are paired; every rank of
    a right run counts the ranks above it in its left run, then each pair is
    merged.  Offsetting each pair's ranks by pair * n keeps the pairs apart,
    so one searchsorted and one sort serve all pairs of a level.
    """
    n = ranks.size
    r = ranks.astype(np.int64)
    pos = np.arange(n, dtype=np.int64)
    dis = 0
    width = 1
    while width < n:
        pair = pos // (2 * width)
        key = pair * n + r
        right = (pos // width) % 2 == 1
        # a pair with a right run has a full left run before it
        left_ends = (pair[right] + 1) * width
        dis += int((left_ends - np.searchsorted(key[~right], key[right], side="right")).sum())
        r = np.sort(key, kind="stable") - pair * n
        width *= 2
    return dis


def _kendall_exact_greater(n: int, c: int) -> float:
    """P(C >= c) for the concordant pairs C of n untied points under independence.

    Maurice G. Kendall, "Rank Correlation Methods", 1970, as computed by
    scipy.stats._mstats_basic._kendall_p_exact for n <= 33 or an extreme c.
    """
    half = n * (n - 1) // 2
    in_right_tail = c >= half - c
    c = min(c, half - c)
    if c == 0:
        prob = 2.0 / math.factorial(n) if n < 171 else 0.0
        mass = prob / 2
    elif c == 1:
        prob = 2.0 / math.factorial(n - 1) if n < 172 else 0.0
        mass = (n - 1) / math.factorial(n)
    else:
        # new[k] counts the permutations of j items with k inversions, k <= c
        new = np.zeros(c + 1)
        new[0:2] = 1.0
        for j in range(3, n + 1):
            new = np.cumsum(new)
            if j <= c:
                new[j:] -= new[: c + 1 - j]
        prob = 2.0 * np.sum(new) / math.factorial(n)
        mass = new[-1] / math.factorial(n)
    # prob is the two-sided p-value of the nearer tail
    p = prob / 2 if in_right_tail else 1 - prob / 2 + mass
    return float(np.clip(p, 0, 1))


@dataclass(frozen=True)
class FitResult:
    """Least-squares decay rate of log(values): values ~ C exp(-rate t)."""

    rate: float
    stderr: float
    n_used: int


def fit_decay_rate(times, values) -> FitResult:
    """Fit the exponential decay rate of a positive series by OLS on logs.

    Points at or below FIT_FLOOR are dropped.
    Returns the decay rate (positive = decaying) and the standard error of
    the fitted slope.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = values > FIT_FLOOR
    n = int(mask.sum())
    if n < 3:
        raise InvalidArgument("fewer than 3 usable points above the floor")
    t = times[mask]
    y = np.log(values[mask])
    t_bar = t.mean()
    sxx = float(np.sum((t - t_bar) ** 2))
    if sxx <= 0.0:
        raise InvalidArgument("degenerate time grid")
    slope = float(np.sum((t - t_bar) * (y - y.mean())) / sxx)
    resid = y - (y.mean() + slope * (t - t_bar))
    s2 = float(np.sum(resid**2)) / (n - 2)
    stderr = float(np.sqrt(s2 / sxx))
    return FitResult(rate=-slope, stderr=stderr, n_used=n)
