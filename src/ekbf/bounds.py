"""Closed-form stability, concentration, and forgetting envelopes.

Every function here is a closed-form formula in a small set of problem
constants; nothing simulates, integrates numerically or writes a file.  The
Monte Carlo harness imports these to decide PASS/FAIL, so each one is written
directly from its algebraic definition and pinned by frozen-value tests.

The constants bundle:
  jac_decay    decay rate of the symmetrized drift Jacobian (conservative), > 0
  jac_lip      Lipschitz constant of the Jacobian
  drift_decay  one-sided monotonicity rate of the drift (>= jac_decay/2), > 0
  noise_trace  trace of the signal noise covariance
  sensor_gain  spectral norm of B^T R2^{-1} B
  prior_trace  trace of the initial filter covariance
  prior_norm   spectral norm of the initial filter covariance
  dim          signal dimension
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import linalg
from .errors import InvalidArgument, NotStable

_E = float(np.e)
# Degenerate-rate threshold for switching the two-exponential ramp to its
# continuous extension t * exp(-rate * t).
_RAMP_DEGENERATE = 1e-12


@dataclass(frozen=True)
class ProblemConstants:
    jac_decay: float
    jac_lip: float
    drift_decay: float
    noise_trace: float
    sensor_gain: float
    prior_trace: float
    prior_norm: float
    dim: int

    def __post_init__(self):
        vals = [
            self.jac_decay,
            self.jac_lip,
            self.drift_decay,
            self.noise_trace,
            self.sensor_gain,
            self.prior_trace,
            self.prior_norm,
        ]
        if not all(np.isfinite(v) for v in vals):
            raise InvalidArgument("constants must be finite")
        if self.jac_lip < 0 or self.sensor_gain < 0 or self.prior_trace < 0 or self.prior_norm < 0:
            raise InvalidArgument("rates and traces must be non-negative")
        if self.noise_trace <= 0:
            raise InvalidArgument("noise_trace must be positive")
        if self.dim < 1:
            raise InvalidArgument("dim must be at least 1")
        # the one stability check: no envelope below tests a rate again
        if self.jac_decay <= 0.0 or self.drift_decay <= 0.0:
            raise NotStable("jac_decay and drift_decay must be positive")


def problem_constants(model, obs, P0) -> ProblemConstants:
    """Assemble the constants bundle from a model, sensor, and initial covariance."""
    c = model.regularity_constants()
    P0 = linalg.as_symmetric(P0, model.dim)
    return ProblemConstants(
        jac_decay=c.jac_decay,
        jac_lip=c.jac_lip,
        drift_decay=c.drift_decay,
        noise_trace=float(np.trace(model.R1)),
        sensor_gain=obs.sensor_gain,
        prior_trace=float(np.trace(P0)),
        prior_norm=max(linalg.max_eigenvalue(P0), 0.0),
        dim=model.dim,
    )


def tau_t(c: ProblemConstants, t) -> np.ndarray | float:
    """Trace envelope of the filter covariance at time t.

    exp(-jac_decay * t) * prior_trace + noise_trace / jac_decay.
    Vectorized over t.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise InvalidArgument("t must be non-negative")
    out = np.exp(-c.jac_decay * t) * c.prior_trace + c.noise_trace / c.jac_decay
    return float(out) if out.ndim == 0 else out


def pi_limit(c: ProblemConstants) -> float:
    """Long-time ratio (sensor_gain / jac_decay) * (noise_trace / jac_decay)."""
    return (c.sensor_gain / c.jac_decay) * (c.noise_trace / c.jac_decay)


def sigma_sq_limit(c: ProblemConstants) -> float:
    """Long-time fluctuation factor 1 + 2 * pi_limit."""
    return 1.0 + 2.0 * pi_limit(c)


def varpi(delta: float) -> float:
    """High-probability radius multiplier (e^2/sqrt(2)) * (1/2 + delta + sqrt(delta)).

    A process whose 2n-th moments grow like (z * sqrt(n))^{2n} stays inside
    z^2 * varpi(delta) with probability at least 1 - exp(-delta).
    """
    if delta < 0:
        raise InvalidArgument("delta must be non-negative")
    return (_E**2 / np.sqrt(2.0)) * (0.5 + delta + np.sqrt(delta))


def chi(c: ProblemConstants) -> float:
    """Normalizer 4 * dim * prior_norm of the initial-error exponential moment.

    E exp(|X0 - mean|^2 / chi) <= e for a Gaussian initial error with
    covariance P0.
    """
    if c.prior_norm <= 0:
        raise InvalidArgument("prior_norm must be positive for the chi normalizer")
    return 4.0 * c.dim * c.prior_norm


def signal_radius(c: ProblemConstants, delta: float) -> float:
    """High-probability squared radius of the signal around the noise-free flow."""
    return varpi(delta) * c.noise_trace / c.drift_decay


def decay_ramp(drift_decay: float, jac_decay: float, t) -> np.ndarray | float:
    """|exp(-a t) - exp(-b t)| / |a - b| with the limit t exp(-a t) at a == b."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise InvalidArgument("t must be non-negative")
    a, b = drift_decay, jac_decay
    if abs(a - b) < _RAMP_DEGENERATE:
        out = t * np.exp(-a * t)
    else:
        out = np.abs(np.exp(-a * t) - np.exp(-b * t)) / abs(a - b)
    return float(out) if out.ndim == 0 else out


def ekf_radius(c: ProblemConstants, delta: float, t, init_sq: float):
    """High-probability squared radius of the filter mean around the signal.

    Three additive parts: a steady fluctuation floor, the forgotten initial
    mean offset, and a transient carrying the initial covariance:

      4 varpi(delta) (noise_trace/drift_decay) sigma_sq_limit
      + 2 exp(-jac_decay t) init_sq
      + 8 varpi(delta) ramp(t) sensor_gain prior_trace^2
    """
    if init_sq < 0:
        raise InvalidArgument("init_sq must be non-negative")
    w = varpi(delta)
    floor = 4.0 * w * (c.noise_trace / c.drift_decay) * sigma_sq_limit(c)
    t = np.asarray(t, dtype=float)
    forget = 2.0 * np.exp(-c.jac_decay * t) * init_sq
    transient = 8.0 * w * decay_ramp(c.drift_decay, c.jac_decay, t) * c.sensor_gain * c.prior_trace**2
    out = floor + forget + transient
    return float(out) if out.ndim == 0 else out


def check_conditions(c: ProblemConstants, alpha: float) -> dict:
    """The two sufficient conditions behind the forgetting rate, with their sides.

    spectral gap:  jac_decay > max(sqrt(2 jac_lip noise_trace), 4 sensor_gain)
    small noise:   4 e alpha sqrt(sensor_gain/jac_decay) (noise_trace/drift_decay)
                   * (1 + 2 (noise_trace/jac_decay)(sensor_gain/jac_decay)) < 1
    """
    if alpha <= 1.0:
        raise InvalidArgument("alpha must exceed 1")
    gap_rhs = max(np.sqrt(2.0 * c.jac_lip * c.noise_trace), 4.0 * c.sensor_gain)
    lhs = (
        4.0
        * _E
        * alpha
        * np.sqrt(c.sensor_gain / c.jac_decay)
        * (c.noise_trace / c.drift_decay)
        * sigma_sq_limit(c)
    )
    return {
        "contractive": True,  # ProblemConstants holds jac_decay > 0
        "spectral_gap": bool(c.jac_decay > gap_rhs),
        "spectral_gap_lhs": float(c.jac_decay),
        "spectral_gap_rhs": float(gap_rhs),
        "small_noise": bool(lhs < 1.0),
        "small_noise_lhs": float(lhs),
        "alpha": float(alpha),
    }


def lyapunov_rate(c: ProblemConstants):
    """Forgetting rate and moment exponent of the coupled filter pair.

    Returns (rate, exponent) with

      rate = jac_decay * (1 - 2 (jac_lip/jac_decay)(noise_trace/jac_decay)
                            - g (1 - 3 g / 4)),   g = sqrt(sensor_gain/jac_decay)
      exponent = sqrt(jac_decay / sensor_gain) / 2.

    Under the spectral-gap condition the rate keeps the floor
    jac_decay (1/2 - 2 jac_lip noise_trace / jac_decay^2) and the exponent
    exceeds 1; test_lyapunov_rate_keeps_unconditional_floor checks both.
    """
    if c.sensor_gain <= 0.0:
        raise NotStable("sensor_gain must be positive for the forgetting rate")
    g = np.sqrt(c.sensor_gain / c.jac_decay)
    rate = c.jac_decay * (
        1.0
        - 2.0 * (c.jac_lip / c.jac_decay) * (c.noise_trace / c.jac_decay)
        - g * (1.0 - 0.75 * g)
    )
    exponent = 0.5 * np.sqrt(c.jac_decay / c.sensor_gain)
    return float(rate), float(exponent)


def signal_moment_bound(c: ProblemConstants, n: float) -> float:
    """Envelope of E(|signal - flow|^{2n})^{1/n}: (n - 1/2) noise_trace / drift_decay."""
    if n < 1:
        raise InvalidArgument("moment order must be >= 1")
    return (n - 0.5) * c.noise_trace / c.drift_decay


def moment_bound_xhat(c: ProblemConstants, n: float, t) -> np.ndarray | float:
    """Envelope of E(|flow(mean0) - filter mean|^n)^{2/n} at time t.

    (2n - 1) * [ (noise_trace/drift_decay) sigma_sq_limit/2
                 + ramp(t) sensor_gain prior_trace^2 ].
    """
    if n < 1:
        raise InvalidArgument("moment order must be >= 1")
    base = (c.noise_trace / c.drift_decay) * sigma_sq_limit(c) / 2.0
    trans = decay_ramp(c.drift_decay, c.jac_decay, t) * c.sensor_gain * c.prior_trace**2
    out = (2.0 * n - 1.0) * (base + trans)
    return float(out) if np.ndim(out) == 0 else out


def gronwall_moment_rhs(n: float, T: float, a: float, w: float, u: float, v: float) -> float:
    """Sourced moment envelope of a quadratic process, in closed form.

    For d|X|^2 <= (-a |X|^2 + u) dt + dM_t with bracket rate
    v |X|^2 + w |X|^4 and X_0 = 0, the n-th moment obeys

      E(|X_T|^n)^{2/n} <= int_0^T exp(-(a - h w)(T - s) - h w s) (u + h v) ds,

    h = (n - 1)/2.  The integral is (u + h v) ramp(T) with
    ramp(T) = (e^{-h w T} - e^{-(a - h w) T}) / (a - 2 h w), which decay_ramp
    evaluates, its limit T e^{-h w T} at a = 2 h w included.  The factor
    e^{-h w T} makes the bound decay in T while E Y_T -> u/a, so it falls
    below the truth at large T (ROADMAP item 1).
    """
    if n < 1:
        raise InvalidArgument("moment order must be >= 1")
    if w < 0 or u < 0 or v < 0:
        raise InvalidArgument("w, u, v must be non-negative")
    h = 0.5 * (n - 1.0)
    return float((u + h * v) * decay_ramp(h * w, a - h * w, T))


def laplace_rhs(eps: float, u_a: float, v_a: float) -> float:
    """Uniform exponential-moment ceiling for a stable quadratic process.

    0.5 * exp(((1-eps)/e) * u_a / v_a) + (e / (2 sqrt 2)) / sqrt(eps), where
    u_a and v_a dominate the convolved source and bracket integrals.
    """
    if not (0.0 < eps <= 1.0):
        raise InvalidArgument("eps must lie in (0, 1]")
    if v_a <= 0 or u_a < 0:
        raise InvalidArgument("need v_a > 0 and u_a >= 0")
    return 0.5 * np.exp(((1.0 - eps) / _E) * u_a / v_a) + _E / (2.0 * np.sqrt(2.0)) / np.sqrt(eps)


def laplace_time_avg_rhs(eps: float, a: float, v: float, integral_u: float) -> float:
    """Ceiling of E exp[(a^2/(4v)) eps int |X|^2] for constant bracket scale v.

    exp[(1/2) (a/v) (eps / (1 + sqrt(1-eps))) * int_u].  The left-hand
    exponent uses the a^2/(4 v) normalization; callers must match it.
    """
    if not (0.0 <= eps <= 1.0):
        raise InvalidArgument("eps must lie in [0, 1]")
    if a <= 0 or v <= 0 or integral_u < 0:
        raise InvalidArgument("need a > 0, v > 0, integral_u >= 0")
    return float(np.exp(0.5 * (a / v) * (eps / (1.0 + np.sqrt(1.0 - eps))) * integral_u))


def bounds_report(c: ProblemConstants, t_grid, delta_grid, alpha: float, init_sq: float = 0.0) -> dict:
    """Every envelope on the given grids as plain data; pi_t = tau_t^2 sensor_gain / noise_trace."""
    t_grid = [float(t) for t in np.asarray(t_grid, dtype=float)]
    delta_grid = [float(d) for d in np.asarray(delta_grid, dtype=float)]
    tau = np.atleast_1d(tau_t(c, t_grid))
    pi_t = np.square(tau) * c.sensor_gain / c.noise_trace
    try:
        chi_norm = chi(c)
    except InvalidArgument:
        chi_norm = None
    try:
        rate, exponent = lyapunov_rate(c)
    except NotStable:
        rate, exponent = None, None
    return {
        "constants": asdict(c),
        "t_grid": t_grid,
        "delta_grid": delta_grid,
        "alpha": alpha,
        "init_sq": init_sq,
        "tau": [float(x) for x in tau],
        "pi_t": [float(x) for x in pi_t],
        "sigma_sq_t": [float(x) for x in 1.0 + 2.0 * pi_t],
        "pi_limit": pi_limit(c),
        "sigma_sq_limit": sigma_sq_limit(c),
        "varpi_values": [varpi(d) for d in delta_grid],
        "chi_normalizer": chi_norm,
        "signal_radii": [signal_radius(c, d) for d in delta_grid],
        "ekf_radii": [[float(ekf_radius(c, d, t, init_sq)) for t in t_grid] for d in delta_grid],
        "conditions": check_conditions(c, alpha),
        "rate": rate,
        "exponent": exponent,
    }
