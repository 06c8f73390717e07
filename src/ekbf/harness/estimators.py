"""Batched Monte Carlo engine and the estimators built on top of it.

The engine hands each fixed chunk of CHUNK trials to dynamics.advance,
which stacks the signal over the filter bank and steps both, one kernel
call per step, through the chunk's noise rows; the engine keeps only its
own reductions, which its callback reads from views of that stacked state
and records per step into the chunk's rows of run-wide arrays.  Each trial
draws its noise from an independent stream derived from (seed, trial
index) through the same drawer as PathBundle, and a row's bits do not
depend on the batch width, so a single trial re-simulated with
simulate_coupled reproduces the engine bit for bit and output bytes do not
depend on chunk or tile size.  Every chunk runs on the calling thread, in
order, and its drawer, dynamics.draw_increments, draws its noise blocks
into the drawer's own buffer, one draw per trial per block; nothing in the
package starts a thread.  A chunk seeds no generator per trial: it passes
one, trial lo's from trial_rng, and the drawer points it at each trial's
state, which it derives for the chunk in one vectorized pass.  The run's
one RiccatiFlow carries a state-independent Riccati flow and its guard
verdicts from chunk to chunk, so each shared covariance step runs once per
filter per run; a chunk steps its own covariances once one of its filters
freezes.  A trial counts as diverged when filter 0 or 1 froze, since no
estimator reads any other filter.

Every other random stream comes from dynamics.stream under its own
(purpose, index) key.  The chi-square samples and the two Gronwall
processes each draw from one stream; no interval draws any.  No key equals
a trial's, so no row reuses the noise of the trials it summarizes.

Estimators compare recorded trial statistics against the closed-form
envelopes from the bounds module and return plain dict rows ready for CSV
and JSON serialization.  Each row carries a machine-readable `paper_ref`
slug naming the bound under test, its `pass` verdict and, where an exact
value is known, its `oracle` and `oracle_pass`.  Every field of a CSV-bound
row is named in ROW_FIELDS, with one meaning per name; a row leaves out the
fields it has no value for, and never fills them with NaN or a verdict.
Moment, Laplace and Gronwall rows are 95% intervals of a mean: the
moment and Gronwall rows normal intervals (stats.normal_mean_ci), the
heavy-tailed Laplace rows log-scale intervals of their exponents
(stats.log_mean_exp_ci).  _interval_row is the one home of their
verdicts: `pass` is ci_low <= bound and `oracle_pass` is
ci_low <= oracle <= ci_high, both False when the estimate or an end is
past the float range, which the row then leaves out.  The forgetting row is
JSON-only; its verdict and forgetting.csv share forgetting_curves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import bounds, linalg
from ..dynamics import (
    CHI2,
    GRONWALL_PATHS,
    RiccatiFlow,
    Stepper,
    advance,
    bank_delta_sq,
    deterministic_flow,
    draw_increments,
    initial_bank,
    step_grid,
    stream,
    trial_rng,
)
from ..errors import InvalidArgument
from .stats import (Z95, EstimateWithCI, fit_decay_rate, increasing_trend_pvalue, log_mean_exp_ci,
                    normal_mean_ci, wilson_interval)
# no row bootstraps; the name stays here because bench/tracer.py wraps it by name
from .stats import bootstrap_mean_ci  # noqa: F401

# Trials are processed in fixed chunks, which bounds the noise and state
# held at once; changing this constant changes no results (noise is
# per-trial and rows are width-independent).
CHUNK = 1024

# Highest moment order n whose interval is trusted; higher moments are too
# tail-sensitive.
MAX_MOMENT_ORDER = 4

# Every field a CSV-bound check row may carry, in column order: a check
# CSV's columns are the names its rows carry, in this order.  n is a moment
# order, n_samples a sample count, n_trials an ensemble size.
ROW_FIELDS = (
    "mode", "t", "n", "kind", "delta", "eps", "coefficient", "n_samples", "n_trials", "dt",
    "estimate", "frequency", "max_violation", "ci_low", "ci_high", "oracle", "threshold",
    "bound", "oracle_pass", "n_overflow", "pass", "radius", "n_diverged", "paper_ref",
)


@dataclass
class EnsembleResult:
    """Per-trial statistics recorded by run_ensemble.

    Squared errors are stored per (trial, checkpoint): the signal against the
    noise-free flow from x0, the reference filter mean against the signal,
    and the reference filter mean against the noise-free flow from its own
    initial mean.  trace_gap_max is the per-trial maximum over the full step
    grid of tr(P_t) minus the trace envelope.  delta_sq holds the squared
    joint distance between the first two filters on the record grid.
    diverged marks the trials where filter 0 or 1 froze.  init_sq is the
    squared offset |x0 - mean0|^2 of the reference filter's initial mean.
    """

    dt: float
    n_trials: int
    constants: bounds.ProblemConstants
    init_sq: float
    checkpoint_times: np.ndarray
    signal_err_sq: np.ndarray
    filter_err_sq: np.ndarray
    mean_dev_sq: np.ndarray
    trace_gap_max: np.ndarray
    diverged: np.ndarray
    record_times: np.ndarray | None = None
    delta_sq: np.ndarray | None = None


def run_ensemble(
    model,
    obs,
    x0,
    filters,
    dt: float,
    steps: int,
    n_trials: int,
    seed: int,
    checkpoint_steps,
    record_steps=None,
) -> EnsembleResult:
    """Advance n_trials independent signal/observation/filter triples.

    filters is a sequence of (mean0, cov0) pairs; all filters in a trial see
    the same observations.  checkpoint_steps and record_steps are step
    indices in [0, steps].
    """
    if n_trials < 1:
        raise InvalidArgument("n_trials must be >= 1")
    if steps < 1:
        raise InvalidArgument("steps must be >= 1")
    d = model.dim
    means0, covs0 = initial_bank(filters, d)
    x0 = linalg.as_vector(x0, d)

    cp, cp_pos = step_grid(checkpoint_steps, steps, "checkpoint")
    rec, rec_pos = (None, None) if record_steps is None else step_grid(record_steps, steps, "record")
    with_delta = rec is not None and len(filters) >= 2

    stepper = Stepper(model, dt, obs)
    consts = bounds.problem_constants(model, obs, covs0[0])
    tau_full = np.asarray(bounds.tau_t(consts, np.arange(steps + 1) * dt))
    # noise-free flows from x0 and from the reference filter mean
    flows = deterministic_flow(model, np.stack([x0, means0[0]]), dt, steps)
    flow_x0, flow_xh0 = flows[:, 0], flows[:, 1]

    sig_err, fil_err, dev_err = (np.empty((n_trials, cp.size)) for _ in range(3))
    gap = np.full(n_trials, -np.inf)
    diverged = np.empty(n_trials, dtype=bool)
    dsq = np.empty((n_trials, rec.size)) if with_delta else None
    # one shared Riccati flow serves every chunk of the run
    flow = RiccatiFlow(len(filters), d, obs.obs_dim, steps)

    # trials lo..hi-1 fill their rows of the run's arrays; a chunk's drawer
    # lives in this frame, so its buffers go before the next chunk's
    def run_chunk(lo, hi):
        rows, chunk_gap = slice(lo, hi), gap[lo:hi]

        def record(s, x, xh, P):
            np.maximum(chunk_gap, linalg.trace_stack(P[0]) - tau_full[s], out=chunk_gap)
            i = cp_pos[s]
            if i >= 0:
                sig_err[rows, i] = linalg.sumsq(x - flow_x0[s])
                fil_err[rows, i] = linalg.sumsq(x - xh[0])
                dev_err[rows, i] = linalg.sumsq(xh[0] - flow_xh0[s])
            if with_delta and rec_pos[s] >= 0:
                dsq[rows, rec_pos[s]] = bank_delta_sq(xh, P)

        # one generator per chunk, trial lo's, is pointed at each trial's state
        noise = draw_increments(trial_rng(seed, lo), seed, lo, hi, steps, dt, (d, obs.obs_dim))
        active = advance(stepper, x0, means0, covs0, hi - lo, noise, record, flow)
        # only filters 0 and 1 are read, so only they mark a trial diverged
        diverged[rows] = ~active[:2].all(axis=0)

    for lo in range(0, n_trials, CHUNK):
        run_chunk(lo, min(lo + CHUNK, n_trials))

    return EnsembleResult(
        dt=dt,
        n_trials=n_trials,
        constants=consts,
        init_sq=float(linalg.sumsq(x0 - means0[0])),
        checkpoint_times=cp * dt,
        signal_err_sq=sig_err,
        filter_err_sq=fil_err,
        mean_dev_sq=dev_err,
        trace_gap_max=gap,
        diverged=diverged,
        record_times=None if rec is None else rec * dt,
        delta_sq=dsq,
    )


def estimate_event_probability(result: EnsembleResult, delta_grid, kind: str) -> list[dict]:
    """Empirical frequency of the error staying inside its radius, per (t, delta).

    kind selects the error process: "signal" compares the signal to the
    noise-free flow against the signal radius; "ekf" compares the filter
    mean to the signal against the filter radius, which forgets the run's
    own initial offset result.init_sq.  Diverged trials count as
    failures of the filter event; the signal event depends on no filter, so
    it ignores them.  A row passes when the Wilson interval reaches the
    1 - exp(-delta) threshold.
    """
    if kind not in ("signal", "ekf"):
        raise InvalidArgument("kind must be 'signal' or 'ekf'")
    c = result.constants
    err = result.signal_err_sq if kind == "signal" else result.filter_err_sq
    slug = "event-radius-signal" if kind == "signal" else "event-radius-filter"
    alive = ~result.diverged if kind == "ekf" else True
    rows = []
    for i, t in enumerate(result.checkpoint_times):
        for delta in delta_grid:
            if kind == "signal":
                radius = bounds.signal_radius(c, delta)
            else:
                radius = bounds.ekf_radius(c, delta, t, result.init_sq)
            ok = (err[:, i] <= radius) & alive
            est = wilson_interval(int(ok.sum()), result.n_trials)
            threshold = 1.0 - np.exp(-delta)
            passed = est.ci_high >= threshold
            rows.append(
                {
                    "t": float(t),
                    "delta": float(delta),
                    "frequency": est.point,
                    "ci_low": est.ci_low,
                    "ci_high": est.ci_high,
                    "threshold": float(threshold),
                    "radius": float(radius),
                    "n_diverged": int(result.diverged.sum()),
                    "pass": bool(passed),
                    "paper_ref": slug,
                }
            )
    return rows


def _interval_row(est: EstimateWithCI, bound, paper_ref: str, oracle=None, **fields) -> dict:
    """The row of interval est against bound and, when given, the exact oracle.

    An estimate or end past the float range is left out of the row, which
    then FAILs both verdicts.
    """
    ends = {"estimate": est.point, "ci_low": est.ci_low, "ci_high": est.ci_high}
    finite = {name: value for name, value in ends.items() if np.isfinite(value)}
    held = len(finite) == len(ends)
    row = {**fields, **finite, "bound": float(bound), "pass": held and bool(est.ci_low <= bound),
           "paper_ref": paper_ref}
    if oracle is not None:
        row.update(oracle=float(oracle), oracle_pass=held and bool(est.ci_low <= oracle <= est.ci_high))
    return row


def estimate_moments(result: EnsembleResult, orders) -> list[dict]:
    """Empirical 2n-th error moments against their closed-form envelopes.

    For each checkpoint and order n: the signal-vs-flow moment against the
    stationary signal envelope, and the filter-mean-vs-flow moment against
    the time-dependent filter envelope.  A row passes when the normal
    interval's ci_low sits at or below the bound.  Orders above
    MAX_MOMENT_ORDER are rejected.
    """
    if any(n > MAX_MOMENT_ORDER for n in orders):
        raise InvalidArgument(f"moment orders above {MAX_MOMENT_ORDER} are too tail-sensitive")
    c = result.constants
    errors = {"signal": result.signal_err_sq, "filter-mean": result.mean_dev_sq}
    cells = [(i, n, kind) for i in range(result.checkpoint_times.size) for n in orders for kind in errors]
    # one row per (checkpoint, order, kind); fromiter fills the table row by
    # row, holding no list of rows beside it
    samples = np.fromiter((errors[kind][:, i] ** n for i, n, kind in cells),
                          np.dtype((float, result.n_trials)), len(cells))
    rows = []
    for (i, n, kind), est in zip(cells, normal_mean_ci(samples)):
        t = float(result.checkpoint_times[i])
        if kind == "signal":
            bound, slug = bounds.signal_moment_bound(c, n) ** n, "moment-envelope-signal"
        else:
            bound, slug = float(bounds.moment_bound_xhat(c, 2 * n, t)) ** n, "moment-envelope-filter-mean"
        rows.append(_interval_row(est, bound, slug, t=t, n=int(n), kind=kind,
                                  n_diverged=int(result.diverged.sum())))
    return rows


def _laplace_row(exponents, keep, bound: float, paper_ref: str, **fields) -> dict:
    """A Laplace row: the log-scale interval of the mean of exp(exponents) over keep, against bound.

    keep leaves out diverged trials, and exponents that are not finite are
    left out too; n_overflow counts both.  A finite exponent whose
    exponential overflows stays in the mean, so the estimate or an end may
    pass the float range, and the row then FAILs without them.
    """
    keep = keep & np.isfinite(exponents)
    if not keep.any():
        raise InvalidArgument("every sample diverged or has a non-finite exponent")
    (est,) = log_mean_exp_ci(exponents[keep][None])
    return _interval_row(est, bound, paper_ref, n_overflow=int(np.sum(~keep)), **fields)


def estimate_chi2_laplace(P0, n_samples: int, seed: int) -> dict:
    """Exponential moment of a Gaussian initial error against its ceiling.

    Samples Z ~ N(0, P0) and estimates E exp(|Z|^2 / (4 d rho(P0))), which
    the envelope caps at e regardless of P0.  n_overflow counts non-finite exponents.
    """
    P0 = linalg.as_symmetric(np.atleast_2d(np.asarray(P0, dtype=float)))
    d = P0.shape[0]
    rho = linalg.max_eigenvalue(P0)
    if rho <= 0:
        raise InvalidArgument("P0 must have a positive top eigenvalue")
    if n_samples < 2:
        raise InvalidArgument("need at least two samples")
    z = stream(seed, CHI2, 0).standard_normal((n_samples, d)) @ linalg.sym_sqrt(P0).T
    return _laplace_row(linalg.sumsq(z) / (4.0 * d * rho), True, np.e, "initial-error-laplace",
                        mode="chi2", n_samples=n_samples)


def filter_laplace_coefficient(c: bounds.ProblemConstants, eps: float) -> float:
    """The filter Laplace row's exponent coefficient (1-eps) drift_decay / (4 e sigma_sq_limit noise_trace)."""
    return float((1.0 - eps) * c.drift_decay / (4.0 * np.e * bounds.sigma_sq_limit(c) * c.noise_trace))


def estimate_ekf_laplace(result: EnsembleResult, eps: float) -> dict:
    """Exponential moment of the late-time filter error against its ceiling.

    Uses the final checkpoint, the exponent coefficient of
    filter_laplace_coefficient, and the closed-form right-hand side with
    the 1/4 source-to-bracket ratio.  n_overflow counts the trials that
    diverged or whose exponent is not finite.
    """
    coef = filter_laplace_coefficient(result.constants, eps)
    return _laplace_row(
        coef * result.filter_err_sq[:, -1], ~result.diverged, bounds.laplace_rhs(eps, 0.25, 1.0),
        "filter-error-laplace", mode="ekf", t=float(result.checkpoint_times[-1]), eps=float(eps),
        coefficient=coef,
    )


def verify_trace_bound(result: EnsembleResult) -> dict:
    """Pathwise worst violation of the covariance trace envelope.

    The discrete recursion may overshoot the continuous envelope by O(dt),
    so the tolerance is 5 dt tr(R1).
    """
    violation = float(result.trace_gap_max.max())
    threshold = 5.0 * result.dt * result.constants.noise_trace
    return {
        "max_violation": violation,
        "threshold": threshold,
        "n_trials": result.n_trials,
        "dt": result.dt,
        "n_diverged": int(result.diverged.sum()),
        "pass": bool(violation <= threshold),
        "paper_ref": "trace-envelope",
    }


# Fraction of the horizon discarded before rate fitting, so the fit skips
# the transient, and the level of the no-increasing-trend test.
FORGETTING_BURN_IN = 0.2
TREND_ALPHA = 0.05


def fit_window(times) -> np.ndarray:
    """Mask of the record times at or past the burn-in: the forgetting fit's points."""
    return times >= FORGETTING_BURN_IN * times[-1]


def forgetting_curves(result: EnsembleResult) -> dict:
    """Per record time, the means of delta, delta^2 and delta^{exponent/2}.

    The exponent is bounds.lyapunov_rate's for the run's constants.  Means
    run over surviving trials (all trials when none survived), each a
    pairwise sum over one contiguous row per record time.
    """
    _, exponent = bounds.lyapunov_rate(result.constants)
    alive = ~result.diverged
    dsq = np.ascontiguousarray((result.delta_sq[alive] if alive.any() else result.delta_sq).T)
    return {"mean_delta_n1": dsq.mean(axis=1), "mean_delta_n2": (dsq**2).mean(axis=1),
            "mean_delta_pow": (dsq ** (exponent / 2.0)).mean(axis=1)}


def estimate_forgetting_rate(result: EnsembleResult, eps: float, alpha: float) -> dict:
    """Fitted decay rate of the coupled filter distance against the envelope.

    Takes m(t) = mean of delta^{exponent/2} over surviving trials from
    forgetting_curves, fits its log-slope past the burn-in, and requires the
    fitted decay rate to reach (1-eps) * rate * exponent / 2 up to the
    slope's 95% slack.  Also checks that the raw moments mean delta^n,
    n = 1, 2, show no increasing trend (one-sided Mann-Kendall at 5%).
    conditions_hold reports the paper's spectral-gap and small-noise
    conditions at margin alpha.  A run without the distance record, which
    needs two filters and a record grid, is an InvalidArgument.
    """
    if result.delta_sq is None:
        raise InvalidArgument("the forgetting rate needs two filters and a record grid")
    c = result.constants
    rate, exponent = bounds.lyapunov_rate(c)
    conditions = bounds.check_conditions(c, alpha=alpha)
    alive = ~result.diverged
    if not alive.any():
        return {"status": "inconclusive", "pass": False, "paper_ref": "forgetting-rate"}
    curves = forgetting_curves(result)
    times = result.record_times
    if curves["mean_delta_n1"][0] == 0.0:
        return {"status": "degenerate_input", "pass": True, "paper_ref": "forgetting-rate"}

    window = fit_window(times)
    fit = fit_decay_rate(times[window], curves["mean_delta_pow"][window])
    threshold = (1.0 - eps) * rate * exponent / 2.0
    slack = Z95 * fit.stderr
    rate_ok = fit.rate >= threshold - slack

    trend = {}
    trend_ok = True
    for n in (1, 2):
        p = increasing_trend_pvalue(times, curves[f"mean_delta_n{n}"])
        trend[n] = p
        trend_ok &= p >= TREND_ALPHA

    return {
        "status": "ok",
        "fitted_rate": fit.rate,
        "rate_stderr": fit.stderr,
        "n_fit_points": fit.n_used,
        "threshold": float(threshold),
        "theory_rate": float(rate),
        "exponent": float(exponent),
        "eps": float(eps),
        "conditions_hold": bool(conditions["spectral_gap"] and conditions["small_noise"]),
        "trend_pvalue_n1": float(trend[1]),
        "trend_pvalue_n2": float(trend[2]),
        "n_alive": int(alive.sum()),
        "n_diverged": int(result.diverged.sum()),
        "rate_pass": bool(rate_ok),
        "trend_pass": bool(trend_ok),
        "pass": bool(rate_ok and trend_ok),
        "paper_ref": "forgetting-rate",
    }


def gronwall_test_process(
    a: float,
    w: float,
    dt: float,
    T: float,
    n_paths: int,
    seed: int,
    orders,
    y0: float,
    u: float,
    v: float,
) -> list[dict]:
    """Scalar squared-norm test process against the moment envelopes.

    Simulates dY = -a Y dt + sqrt(w) Y dN from Y_0 = y0 (Y standing for the
    squared norm) and checks, per order n at the checkpoints T/2 and T, the
    empirical E Y^{n/2} against the exact geometric closed form and against
    the homogeneous envelope.  When u or v is positive, also runs the
    sourced variant dY = (-a Y + u) dt + sqrt(v Y + w Y^2) dN from Y_0 = 0
    and checks E(Y_T^{n/2})^{2/n} at T against the closed-form envelope
    bounds.gronwall_moment_rhs; at n = 2 and 4 its exact value
    bounds.gronwall_sourced_moment is the row's oracle, and rows of other
    orders carry none.
    Each process draws its (n_paths,) normals one Euler step at a time from
    its own stream, keyed by the process index, so the noise held at once
    is one step's.  Every row is a normal interval of its paths; clipped to
    the samples' range, a sourced row's interval stays non-negative, so its
    x -> x^{2/n} map keeps the ends in order.
    """
    if dt <= 0 or T <= dt:
        raise InvalidArgument("need 0 < dt < T")
    if w < 0 or v < 0 or u < 0 or y0 < 0:
        raise InvalidArgument("w, u, v, y0 must be non-negative")
    if n_paths < 2:
        raise InvalidArgument("need at least two paths")
    steps = int(round(T / dt))
    cp_idx = sorted({max(1, int(round(0.5 * T / dt))), steps})

    def intervals(index, y_init, drift_const, bracket_lin, cells):
        """Intervals of E Y_s^{n/2} per (s, n) of cells, from the paths of process index."""
        rng = stream(seed, GRONWALL_PATHS, index)
        y = np.full(n_paths, float(y_init))
        snaps = {}
        root = np.sqrt(dt)
        for k in range(1, steps + 1):
            bracket = np.sqrt(np.maximum(bracket_lin * y + w * y * y, 0.0))
            y = y + (-a * y + drift_const) * dt + bracket * rng.standard_normal(n_paths) * root
            np.maximum(y, 0.0, out=y)
            if k in cp_idx:
                snaps[k] = y  # the next step builds a new array
        return normal_mean_ci(np.fromiter((snaps[s] ** (n / 2.0) for s, n in cells),
                                          np.dtype((float, n_paths)), len(cells)))

    rows = []
    if y0 > 0:
        cells = [(s, n) for s in cp_idx for n in orders]
        for (s, n), est in zip(cells, intervals(0, y0, 0.0, 0.0, cells)):
            m, t = n / 2.0, s * dt
            oracle = y0**m * np.exp(-m * a * t + m * (m - 1.0) * w * t / 2.0)
            bound = y0**m * np.exp(0.5 * (-n * a + n * (n - 1.0) * w / 2.0) * t)
            rows.append(_interval_row(est, bound, "gronwall-envelope", oracle,
                                      t=float(t), n=int(n), kind="homogeneous"))
    if u > 0 or v > 0:
        t, cells = steps * dt, [(steps, n) for n in orders]
        for (_, n), est in zip(cells, intervals(1, 0.0, u, v, cells)):
            # the sourced envelope bounds (E Y^{n/2})^{2/n}, a monotone map of the interval
            est = EstimateWithCI(*(x ** (2.0 / n) for x in (est.point, est.ci_low, est.ci_high)))
            oracle = bounds.gronwall_sourced_moment(n, t, a, w, u, v)
            bound = bounds.gronwall_moment_rhs(n, t, a, w, u, v)
            rows.append(_interval_row(est, bound, "gronwall-sourced-envelope", oracle,
                                      t=float(t), n=int(n), kind="sourced"))
    return rows
