"""Time stepping: signal paths, deterministic flow, and the filter recursion.

All steppers accept leading batch dimensions.  One driver, advance(), runs
every coupled simulation: m trials of signal and observation, and a bank
of filters fed the same observation increments, through one (m, d + r) row
of noise per step; simulate_coupled passes a PathBundle's rows at m = 1,
the ensemble engine the drawer's rows for all its trials in one call.
The trials' state is one array, the signal stacked over the filter means,
and each step is one kernel call, Stepper.filter_step, which evaluates
the drift and the sensor once on the whole stack.  While no filter has
frozen, one whole-array test on the means and one on the covariances
stand for the divergence guard.  The one drawer, draw_increments, draws a step at a
time: each group of GROUP trials fills its rows of the drawer's buffer with
one draw from the group's stream, and the rows, scaled by sqrt(dt) in
place, are yielded; nothing is held across steps.
Every product in a step is a linalg.matvec (ascending multiply-adds) or
one small matrix product per covariance, so a row's bits do not depend on
the batch width and the two callers agree bit for bit.  Stepper(model,
dt, obs) always has a sensor; the noise-free flow needs none, so
deterministic_flow runs its own RK4 stages on model.drift.

This module is the one home of the seeding policy.  Trials draw in groups
of GROUP: group g holds trials GROUP * g .. GROUP * g + GROUP - 1, and its
stream is numpy's PCG64 seeded by SeedSequence(seed, spawn_key=(g,)).  A
group is always drawn whole, so a trial's increments do not depend on how
many trials run.  Every other random stream of the package (chi-square
samples, Gronwall paths) comes from stream(), under a key no group uses.

The bank keeps one covariance per filter while the Riccati flow does not
depend on the data (a state-independent Jacobian, as for LinearModel) and
one per trial and filter otherwise; broadcasting picks the width, so the
same code serves both, and a shared Riccati step runs once per filter and
step however many trials share it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import linalg
from .errors import DimensionMismatch, InvalidArgument, UnstableStep
from .models import ObservationModel

# Canonical noise protocol: trials draw their noise in groups of this many,
# one stream per group, one (GROUP, d + r) draw per step.  Changing it would
# change every seeded result, so treat it as part of the on-disk format.
GROUP = 256

# A filter whose mean norm or covariance trace passes this guard is recorded
# as diverged and frozen rather than allowed to overflow.
DIVERGENCE_GUARD = 1e8


# Purposes of the streams that are not trial noise.  stream() keys them
# (purpose, index), and a 2-tuple never equals a trial group's 1-tuple key (g,).
# Like GROUP, these keys are part of the on-disk format.  Purposes 1,
# 2 and 5 and the key (3, 1) keyed retired bootstraps and stay unused;
# renumbering the others would move their bits.
CHI2 = 3  # index 0: samples
GRONWALL_PATHS = 4  # index 0: homogeneous process, 1: sourced process


def trial_rng(seed: int, group: int) -> np.random.Generator:
    """The stream of trial group g: trials GROUP * g .. GROUP * g + GROUP - 1."""
    if seed < 0 or group < 0:
        raise InvalidArgument("trial streams need seed >= 0 and trials >= 0")
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(group,)))


def stream(seed: int, purpose: int, index: int = 0) -> np.random.Generator:
    """Independent stream for one non-trial purpose, keyed (purpose, index)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(purpose, index)))


def trial_groups(lo: int, hi: int) -> range:
    """The groups that hold trials lo .. hi - 1, whole groups included."""
    return range(lo // GROUP, -(-hi // GROUP))


def draw_increments(gens, lo: int, hi: int, steps: int, dt: float, dims):
    """Yield each step's (hi - lo, d + r) row of increments for trials lo .. hi - 1.

    gens holds one generator per group of trial_groups(lo, hi), each the
    group's trial_rng stream.  dims is (d, r).  At each step every group
    fills its GROUP rows of the drawer's buffer with one (GROUP, d + r)
    standard_normal draw, a partial group drawn whole; the rows of trials
    lo .. hi - 1 are scaled by sqrt(dt) in place and yielded, valid until
    the next step.  Row i holds trial lo + i's signal increment, then its
    observation increment, each of variance dt per coordinate, so a trial's
    increments depend on (seed, trial, d, r, dt) alone.
    """
    if len(gens) != len(trial_groups(lo, hi)):
        raise InvalidArgument("draw_increments needs one generator per group of trials lo .. hi - 1")
    (d, r), root = dims, np.sqrt(dt)
    buf = np.empty((len(gens), GROUP, d + r))
    first = lo % GROUP
    rows = buf.reshape(-1, d + r)[first : first + hi - lo]
    for _ in range(steps):
        for gen, block in zip(gens, buf):
            gen.standard_normal(block.shape, out=block)
        rows *= root
        yield rows


@dataclass(frozen=True)
class PathBundle:
    """Pre-drawn Brownian increments for one trial.

    noise (steps, d + r) holds one row per step, as the drawer yields it:
    the signal increment dW (d = signal_dim), then dV, each of variance dt.
    """

    dt: float
    noise: np.ndarray
    signal_dim: int

    def __post_init__(self):
        if self.dt <= 0.0:
            raise InvalidArgument("dt must be positive")


def make_path_bundle(
    seed: int, trial: int, steps: int, dt: float, signal_dim: int, obs_dim: int
) -> PathBundle:
    """Draw the canonical increment rows for one trial."""
    if steps < 1:
        raise InvalidArgument("steps must be positive")
    if dt <= 0.0:
        raise InvalidArgument("dt must be positive")
    # the trial's whole group is drawn, and its row kept
    gens = [trial_rng(seed, g) for g in trial_groups(trial, trial + 1)]
    rows = draw_increments(gens, trial, trial + 1, steps, dt, (signal_dim, obs_dim))
    noise = np.fromiter((row[0] for row in rows), np.dtype((float, signal_dim + obs_dim)), steps)
    return PathBundle(dt=dt, noise=noise, signal_dim=signal_dim)


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
        """Euler-Maruyama update of the state equation alone; filter_step steps z[0] the same way."""
        return x + self.model.drift(x) * self.dt + linalg.matvec(self.R1_sqrt, dw)

    def obs_increment(self, x: np.ndarray, dv: np.ndarray) -> np.ndarray:
        """Sensor increment dY generated by the state x over one step, as filter_step forms it."""
        return linalg.matvec(self.obs.B, x) * self.dt + linalg.matvec(self.obs.R2_sqrt, dv)

    def filter_step(self, z, P, noise, active=None):
        """One explicit Euler step of the signal and of its filter bank.

        z (1 + n_f, ..., d) stacks the signal z[0] over the filter means
        z[1:], and noise (..., d + r) holds the step's signal increment dw,
        then its observation increment dv.  One pass evaluates drift(z) and
        B z dt for every row, forms the observation increment
        dy = sqrt(R2) dv + B z[0] dt, moves each filter mean by its gain
        times its innovation dy - B z[1:] dt, and the signal by sqrt(R1) dw.
        The bank is batched over leading dimensions, which broadcast:
        P (n_f, ..., d, d) may carry size-1 axes where z does not.  A P
        shared by many rows stays shared while the Jacobian is
        state-independent, so its Riccati step runs once; a state-dependent
        Jacobian widens it to one P per row.  The covariance is symmetrized
        and eigenvalue-clipped after every step.

        active is the (n_f, ...) mask of the filters still stepping, True
        when all are, or None when no filter has frozen and the caller
        keeps no mask.  Filters that are not active, or whose update leaves
        the admissible region, keep their previous mean and covariance
        (which widens a shared P); the signal is never guarded.  Returns
        the next z and P and the mask of healthy filters.  With active=None
        one whole-array test on the means and the covariance verdict of
        _covariance_step stand for the guard, and while both hold the step
        builds no mask and returns None for it.
        """
        dt, obs, model = self.dt, self.obs, self.model
        d, xh = z.shape[-1], z[1:]
        gain, new_P, P_ok = self._covariance_step(P, model.drift_jacobian(xh))
        # in place on fresh arrays: each sum is the one the separate signal,
        # sensor and filter updates formed, with its two terms commuted
        Bz = linalg.matvec(obs.B, z)
        Bz *= dt
        dy = linalg.matvec(obs.R2_sqrt, noise[..., d:])
        dy += Bz[0]
        new_z = model.drift(z) * dt
        new_z += z
        new_z[0] += linalg.matvec(self.R1_sqrt, noise[..., :d])
        new_z[1:] += linalg.matvec(gain, dy - Bz[1:])

        # |x|^2 <= GUARD^2 exactly when |x| <= GUARD, and is False for a NaN
        # or infinite mean, so only P needs its own finiteness check
        sq = linalg.sumsq(new_z[1:])
        if active is None and P_ok is True and sq.max() <= DIVERGENCE_GUARD**2:
            return new_z, new_P, None
        healthy = (sq <= DIVERGENCE_GUARD**2) & P_ok
        if active is not None:
            healthy &= active
        if not healthy.all():
            keep = healthy[..., None]
            new_z[1:] = np.where(keep, new_z[1:], xh)
            new_P = np.where(keep[..., None], new_P, P)
        return new_z, new_P, healthy

    def _covariance_step(self, P, J):
        """The gain P @ gain_map, the projected Euler step of the Riccati flow, its verdict.

        The verdict is True when one whole-array test passes (every
        covariance finite, |tr P| <= DIVERGENCE_GUARD), else its per-row mask.
        """
        JP = J @ P
        new_P = P + self.dt * (JP + JP.swapaxes(-1, -2) + self.model.R1 - P @ self.obs.S @ P)
        new_P = linalg.psd_project_stack(linalg.symmetrize_stack(new_P))
        gain, tr = P @ self.obs.gain_map, np.abs(linalg.trace_stack(new_P))
        if tr.max() <= DIVERGENCE_GUARD and np.isfinite(new_P).all():
            return gain, new_P, True
        return gain, new_P, np.isfinite(new_P).all(axis=(-2, -1)) & (tr <= DIVERGENCE_GUARD)


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


def advance(stepper: Stepper, x0, means0, covs0, m: int, rows, on_step):
    """Run m trials from x0 (d,) and their filter bank through every noise row.

    The trials' state is one array z (1 + n_f, m, d): the signal z[0] and,
    from initial_bank's means0 and covs0, the filter means z[1:], with
    P (n_f, m_P, d, d), m_P 1 or m.  Filter f of trial i is z[1 + f, i],
    and its covariance is P[f, 0] while the filter's covariance is shared
    by all trials, P[f, i] once it is not.  rows yields each step's noise
    (m, d + r), as draw_increments does, and each is one
    Stepper.filter_step on z.  Filters that trip the divergence guard
    freeze, which widens P.  on_step(k, x, xh, P) is called at step 0 and
    after every step k, with the views x = z[0] and xh = z[1:].  Returns
    the final (n_f, m) health mask.
    """
    n_f, d = means0.shape
    z = np.empty((1 + n_f, m, d))
    z[0], z[1:] = x0, means0[:, None]
    # every filter starts with one covariance, shared by all trials
    P = covs0[:, None]
    active = None  # no filter has frozen, so no mask is kept
    on_step(0, z[0], z[1:], P)
    for k, noise in enumerate(rows):
        z, P, active = stepper.filter_step(z, P, noise, active)
        on_step(k + 1, z[0], z[1:], P)
    return np.ones((n_f, m), dtype=bool) if active is None else active


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

    This is advance() at m = 1 on the bundle's rows, drawn at d = model.dim
    and r = obs.obs_dim.  Every filter sees the identical observation
    increments.  Filters that trip the divergence guard freeze and are
    flagged rather than aborting the trial.
    """
    d = model.dim
    x0 = linalg.as_vector(x0, d)
    means0, covs0 = initial_bank(filters, d)
    if record_every < 1:
        raise InvalidArgument("record_every must be >= 1")
    stepper = Stepper(model, bundle.dt, obs)
    if bundle.signal_dim != d or bundle.noise.shape[1:] != (d + obs.obs_dim,):
        raise DimensionMismatch("the bundle's rows are not model.dim, then obs.obs_dim wide")
    n_f, steps = len(filters), len(bundle.noise)

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

    # each row of the bundle is one step's row of a one-trial run
    active = advance(stepper, x0, means0, covs0, 1, bundle.noise[:, None], record)[:, 0]

    return TrialRecord(
        times=rec_idx * bundle.dt,
        signal=signal,
        means=means,
        full_times=np.arange(steps + 1) * bundle.dt,
        traces=traces,
        delta=delta,
        diverged=~active,
    )

