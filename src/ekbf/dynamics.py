"""Time stepping: signal paths, deterministic flow, and the filter recursion.

All steppers accept leading batch dimensions.  One driver, advance(), runs
every coupled simulation: m trials of signal and observation, and a bank
of filters fed the same observation increments, through every block of
pre-drawn noise; simulate_coupled passes a whole PathBundle as one block
at m = 1, the ensemble engine a chunk of trials.  The one drawer,
draw_increments, fills one buffer with one draw per trial per block from
the trial's counter-derived stream, so a PathBundle and a batched run see
the same increments.  Every product in a step is a linalg.matvec (ascending
multiply-adds) or one small matrix product per covariance, so a row's bits
do not depend on the batch width and the two callers agree bit for bit.
Stepper(model, dt, obs) always has a sensor; the noise-free flow needs
none, so deterministic_flow runs its own RK4 stages on model.drift.

This module is the one home of the seeding policy: every other random
stream of the package (Laplace bootstraps, chi-square samples, Gronwall
paths) comes from stream(), under a key no trial uses.

The bank keeps one covariance per filter while the Riccati flow does not
depend on the data (a state-independent Jacobian, as for LinearModel) and
one per trial and filter otherwise; broadcasting picks the width, so the
same code serves both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import linalg
from .errors import DimensionMismatch, InvalidArgument, UnstableStep
from .models import ObservationModel

# Canonical noise protocol: standard normals are drawn in blocks of this many
# steps, signal block first then observation block.  Changing it would change
# every seeded result, so treat it as part of the on-disk format.
NOISE_BLOCK = 4096

# A filter whose mean norm or covariance trace passes this guard is recorded
# as diverged and frozen rather than allowed to overflow.
DIVERGENCE_GUARD = 1e8


# Purposes of the streams that are not trial noise.  stream() keys them
# (purpose, index), and a 2-tuple never equals a trial's 1-tuple key (k,).
# Like NOISE_BLOCK, these keys are part of the on-disk format.  Purposes 1
# and 5 are unused; renumbering the others would move their bits.
EKF_LAPLACE_BOOTSTRAP = 2  # index 0
CHI2 = 3  # index 0: samples, 1: their bootstrap
GRONWALL_PATHS = 4  # index 0: homogeneous process, 1: sourced process


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent stream for one trial, invariant to scheduling and batching."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial,)))


def stream(seed: int, purpose: int, index: int = 0) -> np.random.Generator:
    """Independent stream for one non-trial purpose, keyed (purpose, index)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(purpose, index)))


def draw_increments(gens, steps: int, dt: float, dims, buf: np.ndarray):
    """Yield (start, dW, dV) noise blocks, one generator per trial.

    dims is (signal_dim, obs_dim); buf (m_max, n) holds at least len(gens)
    trials of min(NOISE_BLOCK, steps) * sum(dims) normals.  Per block, one
    draw per generator fills its trial's row with its signal block, then its
    observation block; dW (m, nb, signal_dim) and dV (m, nb, obs_dim) are
    views of buf, variance dt per coordinate, valid until the next draw.
    """
    (d, r), m, root = dims, len(gens), np.sqrt(dt)
    if buf.shape[0] < m or buf.shape[1] < min(NOISE_BLOCK, steps) * (d + r):
        raise DimensionMismatch("the noise buffer holds fewer trials or steps than a block")
    for start in range(0, steps, NOISE_BLOCK):
        nb = min(NOISE_BLOCK, steps - start)
        block = buf[:m, : nb * (d + r)]
        for j, g in enumerate(gens):
            g.standard_normal(block[j].shape, out=block[j])
        block *= root
        yield start, block[:, : nb * d].reshape(m, nb, d), block[:, nb * d :].reshape(m, nb, r)


@dataclass(frozen=True)
class PathBundle:
    """Pre-drawn Brownian increments for one trial.

    dW and dV have one row per step, shapes (steps, dim), and variance dt
    per coordinate.
    """

    dt: float
    dW: np.ndarray
    dV: np.ndarray

    def __post_init__(self):
        if self.dt <= 0.0:
            raise InvalidArgument("dt must be positive")
        if self.dW.shape[0] != self.dV.shape[0]:
            raise DimensionMismatch("increment arrays must have one row per step")


def make_path_bundle(
    seed: int, trial: int, steps: int, dt: float, signal_dim: int, obs_dim: int
) -> PathBundle:
    """Draw the canonical increment arrays for one trial."""
    if steps < 1:
        raise InvalidArgument("steps must be positive")
    if dt <= 0.0:
        raise InvalidArgument("dt must be positive")
    dW, dV = np.empty((steps, signal_dim)), np.empty((steps, obs_dim))
    buf = np.empty((1, min(NOISE_BLOCK, steps) * (signal_dim + obs_dim)))
    for start, w, v in draw_increments([trial_rng(seed, trial)], steps, dt, (signal_dim, obs_dim), buf):
        dW[start : start + w.shape[1]] = w[0]
        dV[start : start + v.shape[1]] = v[0]
    return PathBundle(dt=dt, dW=dW, dV=dV)


class FilterState(NamedTuple):
    """Mean and covariance of one filter; any (mean, cov) pair serves as well."""

    mean: np.ndarray
    cov: np.ndarray


def check_step_size(model, dt: float) -> None:
    """Reject step sizes that make the explicit covariance update stiff."""
    if dt <= 0.0:
        raise InvalidArgument("dt must be positive")
    consts = model.regularity_constants()
    if dt * consts.jac_decay >= 0.5:
        raise UnstableStep(
            f"dt * jac_decay = {dt * consts.jac_decay:.3f} >= 0.5; reduce the step"
        )


class Stepper:
    """Precomputed matrices for advancing the signal and a bank of filters on one sensor."""

    def __init__(self, model, dt: float, obs: ObservationModel):
        check_step_size(model, dt)
        if obs.state_dim != model.dim:
            raise DimensionMismatch("sensor matrix and model dimension disagree")
        self.model = model
        self.dt = float(dt)
        self.obs = obs
        self.R1_sqrt = linalg.sym_sqrt(model.R1)

    def signal_step(self, x: np.ndarray, dw: np.ndarray) -> np.ndarray:
        """Euler-Maruyama update of the state equation."""
        return x + self.model.drift(x) * self.dt + linalg.matvec(self.R1_sqrt, dw)

    def obs_increment(self, x: np.ndarray, dv: np.ndarray) -> np.ndarray:
        """Sensor increment dY generated by the state x over one step."""
        return linalg.matvec(self.obs.B, x) * self.dt + linalg.matvec(self.obs.R2_sqrt, dv)

    def filter_step(self, xhat, P, dy, active):
        """One explicit Euler step of the mean and covariance recursions.

        Batched over leading dimensions, which broadcast: xhat (..., d),
        P (..., d, d) and dy (..., r) may each carry size-1 axes where the
        others do not.  A P shared by many rows stays shared while the
        Jacobian is state-independent, so its Riccati step runs once; a
        state-dependent Jacobian widens it to one P per row.  Rows that are
        not active, or where the update leaves the admissible region, keep
        their previous value (which widens a shared P) and are reported in
        the returned boolean mask (True = still healthy).  The covariance is
        symmetrized and eigenvalue-clipped after every step.
        """
        dt, obs = self.dt, self.obs
        innovation = dy - linalg.matvec(obs.B, xhat) * dt
        gain = P @ obs.gain_map
        J = self.model.drift_jacobian(xhat)
        new_x = xhat + self.model.drift(xhat) * dt + linalg.matvec(gain, innovation)
        JP = J @ P
        new_P = P + dt * (JP + JP.swapaxes(-1, -2) + self.model.R1 - P @ obs.S @ P)
        new_P = linalg.psd_project_stack(linalg.symmetrize_stack(new_P))

        # |x|^2 <= GUARD^2 exactly when |x| <= GUARD, and is False for a NaN
        # or infinite mean, so only P needs its own finiteness check.  new_x
        # has a row for every row of P, so P's per-row checks run only when
        # one of its whole-array checks fails.
        healthy = (linalg.sumsq(new_x) <= DIVERGENCE_GUARD**2) & active
        tr = np.abs(linalg.trace_stack(new_P))
        if not (healthy.all() and tr.max() <= DIVERGENCE_GUARD and np.isfinite(new_P).all()):
            healthy &= np.isfinite(new_P).all(axis=(-2, -1)) & (tr <= DIVERGENCE_GUARD)
            keep = healthy[..., None]
            new_x = np.where(keep, new_x, xhat)
            new_P = np.where(keep[..., None], new_P, P)
        return new_x, new_P, healthy


def deterministic_flow(model, x0, dt: float, steps: int) -> np.ndarray:
    """Integrate the noise-free flow with classical RK4; batched over leading dims of x0.

    Returns shape (steps + 1,) + x0.shape.
    """
    if steps < 0:
        raise InvalidArgument("steps must be non-negative")
    x = np.asarray(x0, dtype=float)
    check_step_size(model, dt)
    dt, f = float(dt), model.drift
    path = np.empty((steps + 1,) + x.shape)
    path[0] = x
    for k in range(steps):
        k1 = f(x)
        k2 = f(x + 0.5 * dt * k1)
        k3 = f(x + 0.5 * dt * k2)
        k4 = f(x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        path[k + 1] = x
    return path


def initial_bank(filters, d: int):
    """Means (n_f, d) and covariances (n_f, d, d) of non-empty (mean, cov) pairs."""
    if len(filters) == 0:
        raise InvalidArgument("need at least one filter")
    means0 = np.stack([linalg.as_vector(mean, d) for mean, _ in filters])
    covs0 = np.stack([linalg.as_symmetric(cov, d) for _, cov in filters])
    return means0, covs0


def advance(stepper: Stepper, x0, means0, covs0, m: int, blocks, on_step):
    """Run m trials from x0 (d,) and their filter bank through every noise block.

    The bank starts at initial_bank's means0 and covs0 and is xh (n_f, m, d),
    P (n_f, m_P, d, d) with m_P 1 or m, and the health mask active (n_f, m):
    filter f of trial i is xh[f, i], and its covariance is P[f, 0] while the
    filter's covariance is shared by all trials, P[f, i] once it is not.
    blocks yields (start, dW, dV) with dW (m, nb, d) and dV (m, nb, r), as
    draw_increments does; the observation increment (m, r) broadcasts
    against every filter of a trial.  Filters that trip the divergence guard
    freeze.  on_step(k, x, xh, P) is called at step 0 and after every step
    k.  Returns the final health mask.
    """
    x = np.repeat(x0[None], m, axis=0)
    xh = np.repeat(means0[:, None], m, axis=1)
    # every filter starts with one covariance, shared by all trials
    P = covs0[:, None]
    active = np.ones((len(means0), m), dtype=bool)
    on_step(0, x, xh, P)
    for start, dW, dV in blocks:
        for j in range(dW.shape[1]):
            dy = stepper.obs_increment(x, dV[:, j])
            xh, P, active = stepper.filter_step(xh, P, dy, active)
            x = stepper.signal_step(x, dW[:, j])
            on_step(start + j + 1, x, xh, P)
    return active


def bank_delta_sq(xh, P) -> np.ndarray:
    """Per-trial squared joint distance (mean and covariance) of filters 0 and 1."""
    dm = xh[0] - xh[1]
    dP = P[0] - P[1]
    return linalg.sumsq(dm) + np.sum(dP * dP, axis=(-2, -1))


def record_grid(steps: int, every: int) -> list:
    """Steps 0, every, 2 * every, ..., with the final step always included."""
    grid = list(range(0, steps + 1, every))
    if grid[-1] != steps:
        grid.append(steps)
    return grid


def step_grid(values, steps: int, what: str):
    """Sorted unique step indices and each step's position in them (-1 if absent)."""
    grid = np.asarray(sorted(set(int(s) for s in values)), dtype=int)
    if grid.size == 0 or grid[0] < 0 or grid[-1] > steps:
        raise InvalidArgument(f"{what} steps must lie in [0, steps]")
    pos = np.full(steps + 1, -1, dtype=int)
    pos[grid] = np.arange(grid.size)
    return grid, pos


@dataclass
class TrialRecord:
    """One coupled run: the signal plus a bank of filters fed the same data.

    Recorded on a decimated grid (every record_every steps, endpoints always
    included).  traces holds tr(P) per filter on the full step grid so that
    envelope checks see every step; delta is the squared joint distance
    (mean and covariance) between the first two filters, when present.
    """

    times: np.ndarray
    signal: np.ndarray
    means: np.ndarray
    full_times: np.ndarray
    traces: np.ndarray
    delta: np.ndarray | None
    diverged: np.ndarray


def simulate_coupled(
    model,
    obs: ObservationModel,
    x0,
    filters: Sequence[FilterState],
    bundle: PathBundle,
    record_every: int,
) -> TrialRecord:
    """Run one signal/observation path and a bank of filters on it.

    This is advance() at m = 1 with the whole bundle as its one block.
    Every filter sees the identical observation increments.  Filters that
    trip the divergence guard freeze and are flagged rather than aborting
    the trial.
    """
    d = model.dim
    x0 = linalg.as_vector(x0, d)
    means0, covs0 = initial_bank(filters, d)
    if record_every < 1:
        raise InvalidArgument("record_every must be >= 1")
    stepper = Stepper(model, bundle.dt, obs)
    n_f = len(filters)

    steps = bundle.dW.shape[0]
    rec_idx, rec_pos = step_grid(record_grid(steps, record_every), steps, "record")
    n_rec = rec_idx.size

    signal = np.empty((n_rec, d))
    means = np.empty((n_f, n_rec, d))
    traces = np.empty((n_f, steps + 1))
    delta = np.empty(n_rec) if n_f >= 2 else None

    def record(step, x, xh, P):
        traces[:, step] = linalg.trace_stack(P[:, 0])
        i = rec_pos[step]
        if i >= 0:
            signal[i] = x[0]
            means[:, i] = xh[:, 0]
            if delta is not None:
                delta[i] = bank_delta_sq(xh, P)[0]

    block = (0, bundle.dW[None], bundle.dV[None])
    active = advance(stepper, x0, means0, covs0, 1, [block], record)[:, 0]

    return TrialRecord(
        times=rec_idx * bundle.dt,
        signal=signal,
        means=means,
        full_times=np.arange(steps + 1) * bundle.dt,
        traces=traces,
        delta=delta,
        diverged=~active,
    )

