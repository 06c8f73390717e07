"""Small statistical toolbox shared by the estimators.

Confidence machinery is deliberately boring: Wilson intervals for
proportions, percentile bootstrap for means, Kendall's tau for trend
detection, and least squares on logs for decay rates.

The bootstrap knows no seeding policy: its caller hands it a Generator
(from dynamics.stream, keyed by what the interval is for).  It streams its
resamples in blocks of BOOTSTRAP_BLOCK rows: each block's indices continue
that Generator's stream, are gathered into one reused (rows, n) buffer,
and each row mean is the same pairwise sum as over the whole
(n_resamples, n) index matrix.  Intervals are therefore bit for bit those
of the whole-matrix formula, while memory stays a few rows of n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import kendalltau

from ..errors import InvalidArgument

# two-sided 95% normal quantile
Z95 = 1.959963984540054

BOOTSTRAP_RESAMPLES = 1000
# resample rows drawn and gathered at a time
BOOTSTRAP_BLOCK = 8


@dataclass(frozen=True)
class EstimateWithCI:
    """Point estimate with a 95% interval and the method that produced it."""

    point: float
    ci_low: float
    ci_high: float
    n: int
    method: str

    def __post_init__(self):
        if not (self.ci_low <= self.point <= self.ci_high):
            raise InvalidArgument(
                f"interval [{self.ci_low}, {self.ci_high}] does not contain {self.point}"
            )
        if self.n < 1:
            raise InvalidArgument("n must be positive")


def wilson_interval(successes: int, n: int, z: float = Z95) -> EstimateWithCI:
    """Wilson score interval for a binomial proportion."""
    if n < 1:
        raise InvalidArgument("n must be positive")
    if not (0 <= successes <= n):
        raise InvalidArgument("successes must lie in [0, n]")
    p = successes / n
    denom = n + z * z
    center = (successes + 0.5 * z * z) / denom
    half = z * np.sqrt(successes * (n - successes) / n + 0.25 * z * z) / denom
    low = max(0.0, center - half)
    high = min(1.0, center + half)
    # the score interval always contains the sample proportion
    low = min(low, p)
    high = max(high, p)
    return EstimateWithCI(point=p, ci_low=low, ci_high=high, n=n, method="Wilson")


def bootstrap_mean_ci(
    samples, rng: np.random.Generator, n_resamples: int = BOOTSTRAP_RESAMPLES
) -> EstimateWithCI:
    """Percentile bootstrap interval for the mean of a sample, resampled from rng."""
    if n_resamples < 1:
        raise InvalidArgument("n_resamples must be >= 1")
    samples = np.asarray(samples, dtype=float).ravel()
    n = samples.size
    if n < 1:
        raise InvalidArgument("need at least one sample")
    point = float(samples.mean())
    if n == 1:
        return EstimateWithCI(point=point, ci_low=point, ci_high=point, n=1, method="bootstrap")
    means = np.empty(n_resamples)
    buf = np.empty((min(BOOTSTRAP_BLOCK, n_resamples), n))
    for lo in range(0, n_resamples, BOOTSTRAP_BLOCK):
        rows = buf[: min(BOOTSTRAP_BLOCK, n_resamples - lo)]
        # indices lie in [0, n), so "clip" gathers in place without a bounds pass
        np.take(samples, rng.integers(0, n, size=rows.shape), out=rows, mode="clip")
        rows.mean(axis=1, out=means[lo : lo + rows.shape[0]])
    low, high = np.percentile(means, [2.5, 97.5])
    return EstimateWithCI(
        point=point,
        ci_low=min(float(low), point),
        ci_high=max(float(high), point),
        n=n,
        method="bootstrap",
    )


def increasing_trend_pvalue(times, values) -> float:
    """One-sided Mann-Kendall p-value for an increasing trend.

    Small p means the series is credibly increasing; p >= 0.05 is the
    "no growth" verdict used by the uniform-moment checks.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape or times.size < 3:
        raise InvalidArgument("need matching series of length >= 3")
    if np.allclose(values, values[0]):
        return 1.0
    result = kendalltau(times, values, alternative="greater")
    return float(result.pvalue)


@dataclass(frozen=True)
class FitResult:
    """Least-squares decay rate of log(values): values ~ C exp(-rate t)."""

    rate: float
    stderr: float
    n_used: int


def fit_decay_rate(times, values, floor: float = 1e-12) -> FitResult:
    """Fit the exponential decay rate of a positive series by OLS on logs.

    Points at or below `floor` are dropped (they are numerically dead).
    Returns the decay rate (positive = decaying) and the standard error of
    the fitted slope.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = values > floor
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
