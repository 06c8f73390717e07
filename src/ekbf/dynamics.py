"""Time stepping: signal paths, deterministic flow, and the filter recursion.

All steppers accept leading batch dimensions.  One driver, advance(), runs
every coupled simulation: m trials of signal and observation, and a bank
of filters fed the same observation increments, through every tile of
pre-drawn noise; simulate_coupled passes a whole PathBundle as one tile at
m = 1, the ensemble engine a chunk of trials.  The trials' state is one
array, the signal stacked over the filter means, and each step is one
kernel call, Stepper.filter_step, which evaluates the drift and the sensor
once on the whole stack.  While no filter has frozen, one whole-array test
stands for the divergence guard.  The one drawer, draw_increments, fills
one buffer with one draw per trial per block from the trial's
counter-derived stream, then hands each block over time-major, TILE steps
at a time and scaled on that copy, so a step reads contiguous rows; a
PathBundle and a batched run see the same increments.  Every product in a
step is a linalg.matvec (ascending multiply-adds) or one small matrix
product per covariance, so a row's bits do not depend on the batch width
and the two callers agree bit for bit.  Stepper(model, dt, obs) always has
a sensor; the noise-free flow needs none, so deterministic_flow runs its
own RK4 stages on model.drift.

This module is the one home of the seeding policy.  Trial k's stream is
numpy's PCG64 seeded by SeedSequence(seed, spawn_key=(k,)); trial_states
replays that seeding for a whole range of trials in one vectorized uint32
pass, and the drawer points one generator at each trial's state in turn.
Every other random stream of the package (chi-square samples, Gronwall
paths) comes from stream(), under a key no trial uses.

The bank keeps one covariance per filter while the Riccati flow does not
depend on the data (a state-independent Jacobian, as for LinearModel) and
one per trial and filter otherwise; broadcasting picks the width, so the
same code serves both.  A RiccatiFlow carries that shared covariance from
one call of advance to the next, so a run of many chunks takes each shared
Riccati step once.
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

# The drawer hands each block to the stepper time-major, this many steps at
# a time.  Like the engine's chunk size, it changes no result.
TILE = 16

# A filter whose mean norm or covariance trace passes this guard is recorded
# as diverged and frozen rather than allowed to overflow.
DIVERGENCE_GUARD = 1e8


# Purposes of the streams that are not trial noise.  stream() keys them
# (purpose, index), and a 2-tuple never equals a trial's 1-tuple key (k,).
# Like NOISE_BLOCK, these keys are part of the on-disk format.  Purposes 1,
# 2 and 5 and the key (3, 1) keyed retired bootstraps and stay unused;
# renumbering the others would move their bits.
CHI2 = 3  # index 0: samples
GRONWALL_PATHS = 4  # index 0: homogeneous process, 1: sourced process


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent stream for one trial, invariant to scheduling and batching."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial,)))


def stream(seed: int, purpose: int, index: int = 0) -> np.random.Generator:
    """Independent stream for one non-trial purpose, keyed (purpose, index)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(purpose, index)))


# numpy's SeedSequence: a pool of four uint32 words and its hash constants;
# PCG64's 128-bit LCG multiplier.  trial_states replays both bit for bit.
_POOL = 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341
_M32, _M128 = (1 << 32) - 1, (1 << 128) - 1


def _hasher(h: int, mult: int):
    """SeedSequence's hashmix on uint32 arrays, its constant h advancing by mult per call."""

    def hashmix(v):
        nonlocal h
        v = v ^ h
        h = h * mult & _M32
        v = v * h
        return v ^ (v >> 16)

    return hashmix


def trial_states(seed: int, lo: int, hi: int) -> list:
    """The PCG64 states trial_rng(seed, k) starts from, for k = lo .. hi - 1.

    Each is a dict as PCG64.state reads.  One vectorized uint32 pass over
    the trials replays SeedSequence(seed, spawn_key=(k,)): the seed's 32-bit
    words, padded to the pool of four, and then the word k are hashed and
    mixed into the pool; the pool's eight generated words seed PCG64's
    128-bit (state, inc) as PCG64(seed_seq) does.  numpy gives a trial past
    2**32 - 1 a second spawn-key word, so such trials are refused.
    """
    seed = int(seed)
    if seed < 0 or lo < 0 or hi > 1 << 32:
        raise InvalidArgument("trial streams need seed >= 0 and trials in [0, 2**32)")
    words = [(seed >> s) & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL - len(words))
    entropy = [np.full(hi - lo, w, np.uint32) for w in words] + [np.arange(lo, hi, dtype=np.uint32)]

    def mix(x, y):
        v = _MIX_L * x - _MIX_R * y
        return v ^ (v >> 16)

    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(e) for e in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for e in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(e))
    hashmix = _hasher(_INIT_B, _MULT_B)
    out = [hashmix(pool[i % _POOL]).astype(np.uint64) for i in range(8)]
    # little-endian word pairs make four uint64s: (seed high, low, inc high, low)
    v0, v1, v2, v3 = ((out[i] | out[i + 1] << np.uint64(32)).tolist() for i in range(0, 8, 2))
    states = []
    for a, b, c, e in zip(v0, v1, v2, v3):
        inc = ((c << 64 | e) << 1 | 1) & _M128
        state = ((inc + (a << 64 | b)) * _PCG64_MULT + inc) & _M128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def noise_buffers(m: int, steps: int, dims):
    """The drawer's two buffers for m trials: a block row per trial and a time-major tile."""
    d, r = dims
    return np.empty((m, min(NOISE_BLOCK, steps) * (d + r))), np.empty((min(TILE, steps), m, d + r))


def draw_increments(gen, states, steps: int, dt: float, dims, buf: np.ndarray, tile: np.ndarray):
    """Yield (start, noise) tiles of increments, one PCG64 state per trial.

    gen is a Generator over PCG64; before each trial's draw it is set to
    that trial's state (trial_states), so one generator serves every trial
    and each trial's draws are those of its own stream.  A trial's state is
    read back after its draw only when another block follows.  dims is
    (signal_dim, obs_dim); buf (m_max, n) holds at least len(states) trials
    of min(NOISE_BLOCK, steps) * sum(dims) normals.  Per block, one draw per
    trial fills its row with its signal block, then its observation block.
    The block is then handed over time-major, a tile of at most
    tile.shape[0] steps at a time: tile (n_t, m_max, sum(dims)) takes the
    tile's increments, scaled by sqrt(dt) on the copy, and noise =
    tile[:nt, :m] is yielded, valid until the next tile.  Row j of noise is
    step start + j: noise[j, i] holds trial i's signal increment, then its
    observation increment, each of variance dt per coordinate.  The tile
    length moves no bit.
    """
    (d, r), states, root = dims, list(states), np.sqrt(dt)
    m, bits, n_t = len(states), gen.bit_generator, tile.shape[0]
    if buf.shape[0] < m or buf.shape[1] < min(NOISE_BLOCK, steps) * (d + r):
        raise DimensionMismatch("the noise buffer holds fewer trials or steps than a block")
    if tile.shape[1] < m or tile.shape[2] != d + r:
        raise DimensionMismatch("the noise tile holds fewer trials than a block or rows of another width")
    for start in range(0, steps, NOISE_BLOCK):
        nb = min(NOISE_BLOCK, steps - start)
        block = buf[:m, : nb * (d + r)]
        for j in range(m):
            bits.state = states[j]
            gen.standard_normal(block[j].shape, out=block[j])
            if start + nb < steps:
                states[j] = bits.state
        W, V = block[:, : nb * d].reshape(m, nb, d), block[:, nb * d :].reshape(m, nb, r)
        for t in range(0, nb, n_t):
            noise = tile[: min(n_t, nb - t), :m]
            np.multiply(W[:, t : t + len(noise)].swapaxes(0, 1), root, out=noise[..., :d])
            np.multiply(V[:, t : t + len(noise)].swapaxes(0, 1), root, out=noise[..., d:])
            yield start + t, noise


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
    states = trial_states(seed, trial, trial + 1)
    if steps < 1:
        raise InvalidArgument("steps must be positive")
    if dt <= 0.0:
        raise InvalidArgument("dt must be positive")
    dims = (signal_dim, obs_dim)
    dW, dV = np.empty((steps, signal_dim)), np.empty((steps, obs_dim))
    gen = np.random.Generator(np.random.PCG64())  # its state is set to the trial's before drawing
    for start, noise in draw_increments(gen, states, steps, dt, dims, *noise_buffers(1, steps, dims)):
        dW[start : start + len(noise)] = noise[:, 0, :signal_dim]
        dV[start : start + len(noise)] = noise[:, 0, signal_dim:]
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
        """Euler-Maruyama update of the state equation alone; filter_step steps z[0] the same way."""
        return x + self.model.drift(x) * self.dt + linalg.matvec(self.R1_sqrt, dw)

    def obs_increment(self, x: np.ndarray, dv: np.ndarray) -> np.ndarray:
        """Sensor increment dY generated by the state x over one step, as filter_step forms it."""
        return linalg.matvec(self.obs.B, x) * self.dt + linalg.matvec(self.obs.R2_sqrt, dv)

    def filter_step(self, z, P, noise, active=None, flow=None, k: int = 0):
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
        Jacobian widens it to one P per row.  Given a RiccatiFlow whose
        shared covariance after k steps is P, a state-independent Jacobian
        reads the flow's row k (the gain, the next covariance and its guard
        verdicts), which the first caller to reach step k writes.  The
        covariance is symmetrized and eigenvalue-clipped after every step.

        active is the (n_f, ...) mask of the filters still stepping, True
        when all are, or None when all are and the caller keeps no mask.
        Filters that are not active, or whose update leaves the admissible
        region, keep their previous mean and covariance (which widens a
        shared P); the signal is never guarded.  Returns the next z and P
        and the mask of healthy filters.  With active=None one whole-array
        test stands for the guard, and while it holds the step builds no
        mask and returns None for it.
        """
        dt, obs, model = self.dt, self.obs, self.model
        d, xh = z.shape[-1], z[1:]
        J = model.drift_jacobian(xh)
        if flow is not None and np.ndim(J) == 2:
            if len(flow.fine) == k:
                flow.gain[k], flow.P[k] = self._covariance_step(P, J)
                flow.ok[k] = _covariance_ok(flow.P[k])
                flow.fine.append(bool(flow.ok[k].all()))
            gain, new_P = flow.gain[k], flow.P[k]
            P_ok = True if flow.fine[k] else flow.ok[k]
        else:
            gain, new_P = self._covariance_step(P, J)
            # per-row verdicts only when a whole-array check fails
            fine = np.abs(linalg.trace_stack(new_P)).max() <= DIVERGENCE_GUARD
            P_ok = True if fine and np.isfinite(new_P).all() else _covariance_ok(new_P)
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
        """The gain P @ gain_map and the projected Euler step of the Riccati flow from P."""
        JP = J @ P
        new_P = P + self.dt * (JP + JP.swapaxes(-1, -2) + self.model.R1 - P @ self.obs.S @ P)
        return P @ self.obs.gain_map, linalg.psd_project_stack(linalg.symmetrize_stack(new_P))


def _covariance_ok(P) -> np.ndarray:
    """Per-row guard verdict on covariances (..., d, d): finite, and |tr P| <= DIVERGENCE_GUARD."""
    return np.isfinite(P).all(axis=(-2, -1)) & (np.abs(linalg.trace_stack(P)) <= DIVERGENCE_GUARD)


class RiccatiFlow:
    """The bank's shared covariance flow, kept across every chunk of a run.

    Row k holds step k of a state-independent Riccati flow, counting from
    0: gain[k] (n_f, 1, d, r) the gain the step used, P[k] (n_f, 1, d, d)
    the covariance it yields, after k + 1 steps, ok[k] (n_f, 1) the guard
    verdict on P[k], and fine[k] the one bool "every row of ok[k] holds".
    The first len(fine) rows are written: the first chunk to reach step k
    writes row k and every later chunk reads it, so a shared Riccati step
    and its guard reduction run once per filter per run.  The arrays are
    allocated once, for every step.
    """

    def __init__(self, n_f: int, d: int, r: int, steps: int):
        self.P = np.empty((steps, n_f, 1, d, d))
        self.gain = np.empty((steps, n_f, 1, d, r))
        self.ok = np.empty((steps, n_f, 1), dtype=bool)
        self.fine = []


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


def advance(stepper: Stepper, x0, means0, covs0, m: int, blocks, on_step, flow=None):
    """Run m trials from x0 (d,) and their filter bank through every noise tile.

    The trials' state is one array z (1 + n_f, m, d): the signal z[0] and,
    from initial_bank's means0 and covs0, the filter means z[1:], with
    P (n_f, m_P, d, d), m_P 1 or m.  Filter f of trial i is z[1 + f, i],
    and its covariance is P[f, 0] while the filter's covariance is shared
    by all trials, P[f, i] once it is not.  blocks yields (start, noise)
    with noise (nt, m, d + r), as draw_increments does, and each step is one
    Stepper.filter_step on z.  Filters that trip the divergence guard
    freeze.  flow, a RiccatiFlow of the run that started at covs0, serves
    the shared covariance until a frozen row widens P; from then on this
    call steps its own.  on_step(k, x, xh, P) is called at step 0 and after
    every step k, with the views x = z[0] and xh = z[1:].  Returns the
    final (n_f, m) health mask.
    """
    n_f, d = means0.shape
    z = np.empty((1 + n_f, m, d))
    z[0], z[1:] = x0, means0[:, None]
    # every filter starts with one covariance, shared by all trials
    P = covs0[:, None]
    active = None  # no filter has frozen, so no mask is kept
    on_step(0, z[0], z[1:], P)
    for start, noise in blocks:
        for j in range(len(noise)):
            z, P, active = stepper.filter_step(z, P, noise[j], active, flow, start + j)
            # a frozen row widened P: it no longer follows the shared flow
            if active is not None:
                flow = None
            on_step(start + j + 1, z[0], z[1:], P)
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

    This is advance() at m = 1 with the whole bundle as its one tile.
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

    # the whole bundle is one time-major tile of one trial
    noise = np.concatenate([bundle.dW, bundle.dV], axis=1)[:, None]
    active = advance(stepper, x0, means0, covs0, 1, [(0, noise)], record)[:, 0]

    return TrialRecord(
        times=rec_idx * bundle.dt,
        signal=signal,
        means=means,
        full_times=np.arange(steps + 1) * bundle.dt,
        traces=traces,
        delta=delta,
        diverged=~active,
    )

