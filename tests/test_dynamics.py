"""Steppers and simulators: exact-moment oracles, contraction, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ekbf import linalg
from ekbf.dynamics import (
    DIVERGENCE_GUARD,
    NOISE_BLOCK,
    TILE,
    FilterState,
    RiccatiFlow,
    Stepper,
    advance,
    check_step_size,
    deterministic_flow,
    draw_increments,
    make_path_bundle,
    simulate_coupled,
    trial_rng,
    trial_states,
)
from ekbf.errors import DimensionMismatch, InvalidArgument, UnstableStep
from ekbf.models import LinearModel, QuadraticCubicModel, observation_params

OU = LinearModel(np.array([[-1.0]]), np.array([[1.0]]))
OBS1 = observation_params(np.array([[1.0]]), np.array([[1.0]]))


def _qc2():
    return QuadraticCubicModel(np.eye(2), np.zeros(2), np.eye(2), 1.0, 0.5 * np.eye(2))


def test_path_bundle_reproducible_and_blocked():
    b1 = make_path_bundle(seed=9, trial=4, steps=5000, dt=0.01, signal_dim=2, obs_dim=1)
    b2 = make_path_bundle(seed=9, trial=4, steps=5000, dt=0.01, signal_dim=2, obs_dim=1)
    assert b1.noise.shape == (5000, 3) and np.array_equal(b1.noise, b2.noise)
    other = make_path_bundle(seed=9, trial=5, steps=5000, dt=0.01, signal_dim=2, obs_dim=1)
    assert not np.array_equal(b1.noise[:, :2], other.noise[:, :2])

    # replicate the block protocol by hand: per block, the signal draw comes
    # first, then the observation draw, from the same per-trial stream; a
    # row holds the step's signal increment, then its observation increment
    rng = trial_rng(9, 4)
    root = np.sqrt(0.01)
    for start in (0, NOISE_BLOCK):
        n = min(NOISE_BLOCK, 5000 - start)
        assert np.array_equal(b1.noise[start : start + n, :2], rng.standard_normal((n, 2)) * root)
        assert np.array_equal(b1.noise[start : start + n, 2:], rng.standard_normal((n, 1)) * root)


def test_draw_increments_hands_over_its_tile_rows():
    # each block is drawn into the drawer's block buffer and copied
    # time-major into its tile, TILE steps at a time, whose rows are handed
    # over one step at a time
    steps, dt = NOISE_BLOCK + 10, 0.01
    rows, copies = [], []
    for row in draw_increments(trial_rng(9, 0), 9, 0, 2, steps, dt, (2, 1)):
        assert row.shape == (2, 3)
        # one tile serves the whole call: a row takes the place of the row TILE steps back
        assert len(rows) < TILE or np.shares_memory(row, rows[-TILE])
        rows.append(row)
        copies.append(row.copy())
    assert len(rows) == steps
    bundle = make_path_bundle(seed=9, trial=1, steps=steps, dt=dt, signal_dim=2, obs_dim=1)
    assert np.array_equal(np.array(copies)[:, 1], bundle.noise)


class _CountingGenerator:
    """A generator that records the size of every standard_normal call."""

    def __init__(self, gen, sizes):
        self._gen, self._sizes = gen, sizes
        self.bit_generator = gen.bit_generator

    def standard_normal(self, size=None, **kwargs):
        self._sizes.append(size)
        return self._gen.standard_normal(size, **kwargs)


def test_one_buffer_drawer_matches_the_stream_order():
    # each trial fills its [signal block | observation block] row with one
    # draw, so the handed-over increments are a signal draw followed by an
    # observation draw from the trial's stream, scaled by sqrt(dt), the
    # short last block too; every step is handed over once, in order, and a
    # range of trials past 0 gets those trials' own rows
    steps, lo, hi, d, r, dt = NOISE_BLOCK + 3, 3, 5, 2, 1, 0.01
    m, sizes = hi - lo, []
    gen = _CountingGenerator(trial_rng(5, lo), sizes)
    want_w, want_v = np.empty((steps, m, d)), np.empty((steps, m, r))
    for j in range(m):
        ref = trial_rng(5, lo + j)
        for start in (0, NOISE_BLOCK):
            nb = min(NOISE_BLOCK, steps - start)
            want_w[start : start + nb, j] = ref.standard_normal((nb, d)) * np.sqrt(dt)
            want_v[start : start + nb, j] = ref.standard_normal((nb, r)) * np.sqrt(dt)
    bundles = [make_path_bundle(5, k, steps, dt, d, r).noise for k in range(lo, hi)]
    seen = 0
    for k, noise in enumerate(draw_increments(gen, 5, lo, hi, steps, dt, (d, r))):
        assert noise.shape == (m, d + r)
        assert np.array_equal(noise[:, :d], want_w[k])
        assert np.array_equal(noise[:, d:], want_v[k])
        assert np.array_equal(noise, [b[k] for b in bundles])
        seen += 1
    assert seen == steps
    # one call per trial per block, each naming its size
    assert sizes == [(NOISE_BLOCK * (d + r),)] * m + [(3 * (d + r),)] * m


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63, 2**128 + 1])
def test_trial_states_match_numpy_seeding(seed):
    # one to five seed words, with trials on both sides of 2**16; the states
    # are numpy's own, and a draw from one equals the trial stream's draw
    hi = 2**16 + 40
    states = trial_states(seed, 0, hi)
    assert len(states) == hi
    trials = [*range(40), *range(2**16 - 40, hi), *range(40, 2**16 - 40, 997)]
    gen = np.random.Generator(np.random.PCG64(0))
    for k in trials:
        want = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(k,))).state
        assert states[k] == want, k
        gen.bit_generator.state = states[k]
        assert np.array_equal(gen.standard_normal(7), trial_rng(seed, k).standard_normal(7)), k
    # a range that starts past 0 gives the same states
    assert trial_states(seed, 2**16 - 3, 2**16 + 3) == states[2**16 - 3 : 2**16 + 3]


def test_trial_states_refuse_what_numpy_keys_otherwise():
    # numpy keys trial 2**32 and above with two spawn-key words: refused, as
    # are negative trials and seeds; the last one-word trial is numpy's
    last = 2**32 - 1
    assert trial_states(3, last, last + 1)[0] == np.random.PCG64(
        np.random.SeedSequence(3, spawn_key=(last,))).state
    refused = [(3, last, last + 2), (3, 2**32, 2**32 + 1), (3, 0, 2**40), (-1, 0, 1), (3, -1, 1)]
    for seed, lo, hi in refused:
        with pytest.raises(InvalidArgument):
            trial_states(seed, lo, hi)
    with pytest.raises(InvalidArgument):
        make_path_bundle(seed=3, trial=-1, steps=5, dt=0.01, signal_dim=1, obs_dim=1)


def _signal_step(stepper, x, dw):
    """The signal row of one filter_step from x, beside one filter started at x."""
    d = x.shape[-1]
    P = np.eye(d).reshape((1,) * x.ndim + (d, d))
    noise = np.concatenate([dw, np.zeros(dw.shape[:-1] + (stepper.obs.obs_dim,))], axis=-1)
    return stepper.filter_step(np.stack([x, x]), P, noise)[0][0]


def test_ou_variance_matches_closed_form():
    # batched Euler paths of dX = -X dt + dW from 0; Var X_T = (1 - e^{-2T})/2
    n, steps, dt = 2000, 500, 0.01
    stepper = Stepper(OU, dt, OBS1)
    rng = np.random.default_rng(77)
    x = np.zeros((n, 1))
    for _ in range(steps):
        x = _signal_step(stepper, x, rng.standard_normal((n, 1)) * np.sqrt(dt))
    var = float(np.mean(x**2))
    want = 0.5 * (1.0 - np.exp(-2.0 * steps * dt))
    assert var == pytest.approx(want, rel=0.12)


def test_riccati_converges_to_algebraic_root():
    # scalar filter covariance: dP/dt = -2P + 1 - P^2, fixed point sqrt(2) - 1
    stepper = Stepper(OU, 1e-3, OBS1)
    P = np.array([[[1.0]]])
    z = np.array([[0.0], [0.0]])  # the signal and one filter mean, at rest
    for _ in range(10000):
        z, P, ok = stepper.filter_step(z, P, np.zeros(2), active=True)
        assert ok.all()
    assert P[0, 0, 0] == pytest.approx(np.sqrt(2.0) - 1.0, abs=1e-3)


def test_coupled_trajectories_contract_pathwise():
    """Two copies of the signal driven by the same noise shrink together at
    least at the certified one-sided rate (Euler leaves an O(dt) fudge)."""
    model = _qc2()
    dt, steps = 0.005, 1000
    lam = model.regularity_constants().drift_decay
    stepper = Stepper(model, dt, observation_params(np.eye(2), np.eye(2)))
    rng = np.random.default_rng(88)
    x = np.tile(np.array([1.5, -0.5]), (20, 1))
    y = np.tile(np.array([-1.0, 2.0]), (20, 1))
    gap0 = np.linalg.norm(x[0] - y[0])
    for k in range(steps):
        dw = rng.standard_normal((20, 2)) * np.sqrt(dt)
        x = _signal_step(stepper, x, dw)
        y = _signal_step(stepper, y, dw)
        t = (k + 1) * dt
        gaps = np.linalg.norm(x - y, axis=1)
        assert np.all(gaps <= gap0 * np.exp(-lam * t) * (1.0 + 10.0 * dt))


def test_deterministic_flow_contracts():
    model = _qc2()
    dt, steps = 0.01, 800
    lam = model.regularity_constants().drift_decay
    rng = np.random.default_rng(89)
    starts = rng.standard_normal((16, 2)) * 2.0
    path = deterministic_flow(model, starts, dt, steps)
    ref = deterministic_flow(model, starts + np.array([0.5, -0.3]), dt, steps)
    gap0 = np.linalg.norm(np.array([0.5, -0.3]))
    for k in (100, 400, 800):
        t = k * dt
        gaps = np.linalg.norm(path[k] - ref[k], axis=1)
        assert np.all(gaps <= gap0 * np.exp(-lam * t) * (1.0 + 10.0 * dt))


def test_signal_step_first_order_in_dt():
    # noise-free Euler against the exact exponential: halving dt halves the error
    def endpoint(dt):
        stepper = Stepper(OU, dt, OBS1)
        x = np.array([1.0])
        for _ in range(int(round(1.0 / dt))):
            x = _signal_step(stepper, x, np.zeros(1))
        return float(x[0])

    err1 = abs(endpoint(0.01) - np.exp(-1.0))
    err2 = abs(endpoint(0.005) - np.exp(-1.0))
    assert err1 / err2 == pytest.approx(2.0, abs=0.3)


def test_trace_stays_under_envelope_single_trial():
    model = _qc2()
    obs = observation_params(np.eye(2), np.eye(2))
    bundle = make_path_bundle(seed=3, trial=0, steps=1000, dt=0.005, signal_dim=2, obs_dim=2)
    state = FilterState(mean=np.zeros(2), cov=0.5 * np.eye(2))
    rec = simulate_coupled(model, obs, np.zeros(2), [state], bundle, record_every=1)
    lam = model.regularity_constants().jac_decay
    tr_R1 = float(np.trace(model.R1))
    tau = np.exp(-lam * rec.full_times) * 1.0 + tr_R1 / lam
    assert np.all(rec.traces[0] <= tau + 5 * bundle.dt * tr_R1)


def test_simulate_coupled_refuses_rows_of_another_width():
    # a bundle's rows must be d signal, then r observation coordinates wide:
    # one drawn at d = r = 1 cannot drive a run at d = r = 2, nor one drawn
    # at d = 2, r = 1 a run at d = r = 1, nor one drawn at d = 1, r = 2 a
    # run at d = 2, r = 1, though its rows are as wide
    bank2 = [FilterState(mean=np.zeros(2), cov=np.eye(2))]
    qc = (_qc2(), observation_params(np.eye(2), np.eye(2)), np.zeros(2), bank2)
    qc1 = (_qc2(), observation_params(np.array([[1.0, 0.0]]), np.eye(1)), np.zeros(2), bank2)
    ou = (OU, OBS1, np.zeros(1), [FilterState(mean=np.zeros(1), cov=np.eye(1))])
    for (model, obs, x0, bank), dims in ((qc, (1, 1)), (ou, (2, 1)), (qc1, (1, 2))):
        bundle = make_path_bundle(seed=3, trial=0, steps=5, dt=0.01, signal_dim=dims[0], obs_dim=dims[1])
        with pytest.raises(DimensionMismatch, match="wide"):
            simulate_coupled(model, obs, x0, bank, bundle, record_every=1)


def test_divergence_guard_freezes_and_flags():
    bundle = make_path_bundle(seed=11, trial=0, steps=50, dt=0.01, signal_dim=1, obs_dim=1)
    bad = FilterState(mean=np.array([5e8]), cov=np.array([[1.0]]))
    good = FilterState(mean=np.array([0.0]), cov=np.array([[1.0]]))
    rec = simulate_coupled(OU, OBS1, np.zeros(1), [good, bad], bundle, record_every=1)
    assert list(rec.diverged) == [False, True]
    # the diverged filter froze at its initial state
    assert np.all(rec.means[1] == 5e8)


def _guarded_step_by_formula(stepper, z, P, noise, active):
    """The Euler step with the divergence mask written out from its definition.

    The signal z[0] moves by its own Euler-Maruyama step and feeds the
    observation increment; only the filter means z[1:] are guarded.
    """
    dt, guard, model, obs = stepper.dt, DIVERGENCE_GUARD, stepper.model, stepper.obs
    mv = lambda M, v: np.einsum("...ij,...j->...i", M, v)  # noqa: E731
    d = z.shape[-1]
    x, xhat, dw, dv = z[0], z[1:], noise[..., :d], noise[..., d:]
    dy = mv(obs.B, x) * dt + mv(obs.R2_sqrt, dv)
    new_signal = (x + model.drift(x) * dt + mv(stepper.R1_sqrt, dw))[None]
    gain = np.matmul(P, obs.gain_map)
    new_x = xhat + model.drift(xhat) * dt + mv(gain, dy - mv(obs.B, xhat) * dt)
    JP = np.matmul(model.drift_jacobian(xhat), P)
    new_P = P + dt * (JP + np.swapaxes(JP, -1, -2) + model.R1 - P @ obs.S @ P)
    new_P = linalg.psd_project_stack(0.5 * (new_P + np.swapaxes(new_P, -1, -2)))
    healthy = np.isfinite(new_P).all(axis=(-2, -1)) & (
        np.einsum("...i,...i->...", new_x, new_x) <= guard**2
    )
    healthy &= np.abs(np.einsum("...ii->...", new_P)) <= guard
    healthy &= active
    if healthy.all():  # nothing froze: a shared covariance stays shared
        return np.concatenate([new_signal, new_x]), new_P, healthy
    keep = healthy[..., None]
    return (np.concatenate([new_signal, np.where(keep, new_x, xhat)]),
            np.where(keep[..., None], new_P, P), healthy)


def test_filter_step_guard_matches_its_formula():
    # a bank of 2 filters x 4 trials at d = 2: per-row covariances with one
    # all-healthy row, a NaN covariance, a mean past the guard and a row
    # already inactive; then a shared covariance that one frozen row widens.
    # The signal of trial 1 sits past the guard too, and is never frozen
    model = LinearModel(np.array([[-1.0, 0.3], [0.0, -0.8]]), np.eye(2))
    obs = observation_params(np.array([[1.0, 0.5]]), np.array([[0.7]]))
    stepper = Stepper(model, 0.01, obs)
    rng = np.random.default_rng(21)
    z = rng.standard_normal((3, 4, 2))
    noise = rng.standard_normal((4, 3)) * 0.1
    P = np.broadcast_to(np.array([[1.0, 0.2], [0.2, 0.5]]), (2, 4, 2, 2)).copy()
    P[1, 1] = np.nan
    z[0, 1] = [3e8, 0.0]
    z[1, 2] = [2e8, 0.0]
    active = np.ones((2, 4), dtype=bool)
    active[1, 3] = False
    with np.errstate(invalid="ignore"):
        got = stepper.filter_step(z, P, noise, active)
        want = _guarded_step_by_formula(stepper, z, P, noise, active)
    for g, w in zip(got, want):
        assert g.shape == w.shape and np.array_equal(g, w, equal_nan=True)
    assert got[2].tolist() == [[True, True, False, True], [True, False, True, False]]
    assert got[0][0, 1, 0] > DIVERGENCE_GUARD

    shared = P[:, :1].copy()
    shared[1] = np.eye(2)
    got = stepper.filter_step(z, shared, noise, np.ones((2, 4), dtype=bool))
    want = _guarded_step_by_formula(stepper, z, shared, noise, np.ones((2, 4), dtype=bool))
    for g, w in zip(got, want):
        assert g.shape == w.shape and np.array_equal(g, w)
    assert got[1].shape == (2, 4, 2, 2) and np.array_equal(got[1][0, 2], shared[0, 0])

    # an all-healthy step returns the full mask, for a mask or True alike,
    # and None for None, which stands for the mask no caller has built yet
    healthy_z = np.where(np.abs(z) < 1e3, z, 0.0)
    want = _guarded_step_by_formula(stepper, healthy_z, shared, noise, True)
    for active in (np.ones((2, 4), dtype=bool), True, None):
        got = stepper.filter_step(healthy_z, shared, noise, active)
        for g, w in zip(got[:2], want[:2]):
            assert g.shape == w.shape and np.array_equal(g, w)
        assert got[2] is None if active is None else got[2].shape == (2, 4) and got[2].all()
        assert got[1].shape == (2, 1, 2, 2)

    # the run's shared flow: at k = 0 the first call writes row 0 and its
    # verdict, True or, for a NaN covariance or one whose trace passes the
    # guard, the per-row mask, with the bits and the mask of the flow-free
    # step; a second call reads row 0 and appends nothing
    nan_P, big_P = shared.copy(), shared.copy()
    nan_P[1, 0, 0, 0] = np.nan
    big_P[0, 0] = 2e8 * np.eye(2)
    for cov, verdict in ((shared, True), (nan_P, [[True], [False]]), (big_P, [[False], [True]])):
        flow = RiccatiFlow(2, 2, 1, 3)
        with np.errstate(invalid="ignore"):
            want = _guarded_step_by_formula(stepper, healthy_z, cov, noise, True)
            free = stepper.filter_step(healthy_z, cov, noise)
            for _ in range(2):
                got = stepper.filter_step(healthy_z, cov, noise, None, flow, 0)
                for g, f, w in zip(got[:2], free[:2], want[:2]):
                    assert g.shape == f.shape == w.shape and np.array_equal(g, f, equal_nan=True)
                    assert np.array_equal(g, w, equal_nan=True)
                if verdict is True:
                    assert got[2] is None and free[2] is None and want[2].all()
                else:
                    assert np.array_equal(got[2], free[2]) and np.array_equal(got[2], want[2])
                    assert not got[2].all()
                assert len(flow.ok) == 1
                assert flow.ok[0] is True if verdict is True else flow.ok[0].tolist() == verdict

    # with a mask the step takes its own covariance and leaves the flow
    # untouched, written or not
    mask = np.ones((2, 4), dtype=bool)
    row = flow.P[0].copy(), flow.gain[0].copy()
    for f in (flow, RiccatiFlow(2, 2, 1, 3)):
        with np.errstate(invalid="ignore"):
            got = stepper.filter_step(healthy_z, nan_P, noise, mask, f, 0)
            want = _guarded_step_by_formula(stepper, healthy_z, nan_P, noise, mask)
        for g, w in zip(got, want):
            assert g.shape == w.shape and np.array_equal(g, w, equal_nan=True)
        assert len(f.ok) == (f is flow)
    assert np.array_equal(flow.P[0], row[0]) and np.array_equal(flow.gain[0], row[1])


def test_signal_step_and_obs_increment_are_the_kernels_rows():
    # the signal row of filter_step is signal_step, and its filter rows see
    # obs_increment's observation increment, bit for bit
    model, obs = _qc2(), observation_params(np.array([[1.0, 0.5]]), np.array([[0.7]]))
    stepper = Stepper(model, 0.01, obs)
    rng = np.random.default_rng(5)
    z, noise = rng.standard_normal((3, 4, 2)), rng.standard_normal((4, 3)) * 0.1
    P = np.broadcast_to(np.array([[1.0, 0.2], [0.2, 0.5]]), (2, 1, 2, 2))
    new_z, _, _ = stepper.filter_step(z, P, noise)
    assert np.array_equal(new_z[0], stepper.signal_step(z[0], noise[:, :2]))
    dy = stepper.obs_increment(z[0], noise[:, 2:])
    gain = P @ obs.gain_map
    innovation = dy - linalg.matvec(obs.B, z[1:]) * stepper.dt
    want = z[1:] + model.drift(z[1:]) * stepper.dt + linalg.matvec(gain, innovation)
    assert np.array_equal(new_z[1:], want)


def _spd(draw, scale):
    """A random 2x2 positive definite matrix, scale times L L^T."""
    L = np.array([[draw(st.floats(0.1, 1.0)), 0.0],
                  [draw(st.floats(-1.0, 1.0)), draw(st.floats(0.1, 1.0))]])
    return scale * (L @ L.T)


@settings(max_examples=30, deadline=None, database=None)
@given(data=st.data())
def test_covariance_psd_and_finite_after_every_step(data):
    # stiff steps and large or near-singular priors push the explicit
    # Riccati update outside the PSD cone; the projection must bring it back
    draw = data.draw
    if draw(st.booleans(), label="linear"):
        skew = draw(st.floats(-2.0, 2.0), label="skew")
        A = np.array([[-1.0, skew], [-skew, -draw(st.floats(0.5, 3.0))]])
        model = LinearModel(A, np.eye(2))
    else:
        model = _qc2()
    obs = observation_params(
        np.array([[1.0, draw(st.floats(-1.0, 1.0))], [0.0, draw(st.floats(0.2, 2.0))]]),
        _spd(draw, draw(st.floats(0.05, 2.0))),
    )
    # up to the largest step check_step_size accepts
    dt = draw(st.floats(0.05, 0.99), label="dt") * 0.5 / model.regularity_constants().jac_decay
    m, n_f = 4, 2
    P0 = np.stack([_spd(draw, draw(st.floats(1e-6, 1e3), label="prior scale")) for _ in range(n_f)])
    stepper = Stepper(model, dt, obs)
    means0 = np.broadcast_to(draw(st.floats(-1e3, 1e3), label="mean"), (n_f, 2))
    steps_seen = []

    def check(step, x, xh, P):
        steps_seen.append(step)
        assert np.isfinite(P).all()
        w = np.linalg.eigvalsh(P)
        assert np.all(w[..., 0] >= -linalg.EIG_ZERO_BAND * np.maximum(1.0, w[..., -1]))

    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    with np.errstate(over="ignore", invalid="ignore"):  # blown-up rows freeze
        noise = draw_increments(trial_rng(seed, 0), seed, 0, m, 40, dt, (2, 2))
        # a linear model's shared covariance steps through the run's flow
        advance(stepper, np.zeros(2), means0, P0, m, noise, check, RiccatiFlow(n_f, 2, 2, 40))
    assert steps_seen == list(range(41))  # step 0 is checked too


def test_step_size_guard():
    with pytest.raises(UnstableStep):
        check_step_size(OU, 0.3)  # 0.3 * 2.0 >= 0.5
    check_step_size(OU, 0.01)

