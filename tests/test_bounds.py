"""Closed-form envelopes pinned against independently computed values.

The frozen numbers below were produced from the algebraic definitions with a
separate scratch script (mpmath-checked where rounding matters), so a silent
change in any formula fails loudly here.
"""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ekbf import bounds
from ekbf.errors import InvalidArgument, NotStable

# OU benchmark: dX = -X dt + dW observed with B = R2 = 1 and unit prior
OU_C = bounds.ProblemConstants(
    jac_decay=2.0,
    jac_lip=0.0,
    drift_decay=1.0,
    noise_trace=1.0,
    sensor_gain=1.0,
    prior_trace=1.0,
    prior_norm=1.0,
    dim=1,
)
# same benchmark started from a deterministic prior
OU_C0 = bounds.ProblemConstants(2.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1)
# derived forgetting example: jac_decay 5, drift_decay 2.5, tiny noise
FORGET_C = bounds.ProblemConstants(5.0, 0.0, 2.5, 0.01, 1.0, 0.0, 0.0, 1)


def test_varpi_frozen_values():
    assert bounds.varpi(0.0) == pytest.approx(2.6124258370608393, rel=1e-12)
    assert bounds.varpi(0.5) == pytest.approx(8.919379723587003, rel=1e-12)
    assert bounds.varpi(1.0) == pytest.approx(13.062129185304197, rel=1e-12)
    assert bounds.varpi(2.0) == pytest.approx(20.451185284234846, rel=1e-12)
    assert bounds.varpi(4.0) == pytest.approx(33.96153588179091, rel=1e-12)
    with pytest.raises(InvalidArgument):
        bounds.varpi(-0.1)


def test_tau_frozen_and_vectorized():
    # prior trace 1, noise trace 1, rate 2: at t = ln(2)/2 the value is exactly 1
    assert bounds.tau_t(OU_C, np.log(2.0) / 2.0) == pytest.approx(1.0, rel=1e-12)
    vals = bounds.tau_t(OU_C, [0.0, 100.0])
    assert vals[0] == pytest.approx(1.5)
    assert vals[1] == pytest.approx(0.5)
    with pytest.raises(InvalidArgument):
        bounds.tau_t(OU_C, -1.0)


def test_sigma_pi_frozen():
    report = bounds.bounds_report(OU_C0, [3.0], [1.0], alpha=1.1, init_sq=0.0)
    assert report["pi_t"] == [pytest.approx(0.25)]
    assert report["pi_limit"] == pytest.approx(0.25)
    assert report["sigma_sq_t"] == [pytest.approx(1.5)]
    assert bounds.sigma_sq_limit(OU_C0) == pytest.approx(1.5)


def test_chi_normalizer():
    assert bounds.chi(OU_C) == pytest.approx(4.0)
    with pytest.raises(InvalidArgument):
        bounds.chi(OU_C0)  # deterministic prior has no Gaussian tail to normalize


def test_signal_radius_frozen():
    assert bounds.signal_radius(OU_C, 1.0) == pytest.approx(13.062129185304197)


def test_ekf_radius_floor_and_decay():
    # with a deterministic prior the radius is the pure fluctuation floor
    floor = bounds.ekf_radius(OU_C0, 1.0, 50.0, 0.0)
    assert floor == pytest.approx(4.0 * 13.062129185304197 * 1.5, rel=1e-9)
    # with an initial mean offset the radius decreases monotonically in time
    ts = np.linspace(0.0, 10.0, 200)
    vals = bounds.ekf_radius(OU_C0, 1.0, ts, 3.0)
    assert np.all(np.diff(vals) <= 1e-12)
    assert vals[-1] == pytest.approx(floor, rel=1e-6)


def test_decay_ramp_degenerate_limit():
    assert bounds.decay_ramp(1.0, 1.0, 1.0) == pytest.approx(np.exp(-1.0), rel=1e-12)
    # continuity across the degenerate-rate switch
    near = bounds.decay_ramp(1.0, 1.0 + 1e-9, 1.0)
    assert near == pytest.approx(np.exp(-1.0), rel=1e-6)


def test_check_conditions_frozen():
    report = bounds.check_conditions(FORGET_C, alpha=1.1)
    assert report["contractive"] and report["spectral_gap"] and report["small_noise"]
    assert report["spectral_gap_rhs"] == pytest.approx(4.0)
    assert report["small_noise_lhs"] == pytest.approx(0.021412601974006133, rel=1e-12)
    with pytest.raises(InvalidArgument):
        bounds.check_conditions(FORGET_C, alpha=1.0)


def test_check_conditions_failure_modes():
    heavy = bounds.ProblemConstants(5.0, 0.0, 2.5, 10.0, 1.0, 0.0, 0.0, 1)
    report = bounds.check_conditions(heavy, alpha=2.0)
    assert report["spectral_gap"]  # gap only involves jac_lip and sensor gain here
    assert not report["small_noise"]  # but heavy noise sinks the product condition


def test_lyapunov_rate_frozen_examples():
    quarter = bounds.ProblemConstants(1.0, 0.0, 0.5, 1.0, 1.0 / 16.0, 0.0, 0.0, 1)
    rate, exponent = bounds.lyapunov_rate(quarter)
    assert rate == pytest.approx(51.0 / 64.0, rel=1e-12)
    assert exponent == pytest.approx(2.0, rel=1e-12)

    rate, exponent = bounds.lyapunov_rate(FORGET_C)
    assert rate == pytest.approx(3.51393202250021, rel=1e-12)
    assert exponent == pytest.approx(1.118033988749895, rel=1e-12)
    # criterion threshold used by the forgetting harness
    assert 0.5 * rate * exponent / 2.0 == pytest.approx(0.9821738588279738, rel=1e-12)


def test_lyapunov_rate_keeps_unconditional_floor():
    rng = np.random.default_rng(404)
    for _ in range(50):
        lam = rng.uniform(1.0, 10.0)
        gain = rng.uniform(0.0, 0.9) * lam / 4.0 + 1e-6
        kappa = rng.uniform(0.0, 0.2)
        noise = rng.uniform(0.01, 0.5)
        c = bounds.ProblemConstants(lam, kappa, lam / 2.0, noise, gain, 0.0, 0.0, 1)
        if not bounds.check_conditions(c, 1.0 + 1e-9)["spectral_gap"]:
            continue
        # under the spectral-gap condition the rate keeps a guaranteed floor
        # and the moment exponent exceeds one
        rate, exponent = bounds.lyapunov_rate(c)
        floor = lam * (0.5 - 2.0 * kappa * noise / lam**2)
        assert rate >= floor - 1e-12 * max(1.0, abs(floor))
        assert exponent > 1.0


def test_lyapunov_rate_requires_positive_gain():
    with pytest.raises(NotStable):
        bounds.lyapunov_rate(bounds.ProblemConstants(2.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1))


def test_moment_bounds_frozen():
    assert bounds.signal_moment_bound(OU_C0, 1) == pytest.approx(0.5)
    assert bounds.signal_moment_bound(OU_C0, 2) == pytest.approx(1.5)
    assert bounds.moment_bound_xhat(OU_C0, 1, 5.0) == pytest.approx(0.75)
    assert bounds.moment_bound_xhat(OU_C0, 2, 5.0) == pytest.approx(2.25)
    with pytest.raises(InvalidArgument):
        bounds.signal_moment_bound(OU_C0, 0.5)


def test_moment_bound_xhat_transient_term():
    # a non-trivial prior adds the ramp * gain * trace^2 transient
    t = 0.3
    ramp = bounds.decay_ramp(1.0, 2.0, t)
    want = 1.0 * (1.0 * 1.5 / 2.0 + ramp * 1.0 * 1.0)
    assert bounds.moment_bound_xhat(OU_C, 1, t) == pytest.approx(want, rel=1e-12)


def test_gronwall_rhs_closed_form():
    # constant decay a, no bracket, constant source: u (1 - e^{-aT}) / a
    got = bounds.gronwall_moment_rhs(1, 2.0, 1.3, 0.0, 0.7, 0.0)
    assert got == pytest.approx(0.49846807326920484, rel=1e-6)


def test_gronwall_rhs_validation():
    with pytest.raises(InvalidArgument):
        bounds.gronwall_moment_rhs(1, -1.0, 1.0, 0.0, 1.0, 0.0)  # negative horizon
    with pytest.raises(InvalidArgument):
        bounds.gronwall_moment_rhs(1, 1.0, 1.0, -0.1, 1.0, 0.0)  # negative bracket


def test_gronwall_rhs_matches_scipy_quad():
    # the closed form against the integral its docstring states, a = h w included
    quad = pytest.importorskip("scipy.integrate").quad

    rng = np.random.default_rng(808)
    cases = [(2, 1.0, 2.0, 0.3, 0.2, 3.0), (3, 1.0, 1.0, 0.5, 0.1, 1.5)]  # a == h w
    for _ in range(100):
        n = int(rng.integers(1, 5))
        a, w, u, v = rng.uniform(0.0, 2.0, 4)
        cases.append((n, a, w, u, v, rng.uniform(0.0, 10.0)))
    for n, a, w, u, v, T in cases:
        h = (n - 1) / 2.0
        want, _ = quad(lambda s: np.exp(-(a - h * w) * (T - s)) * (u + h * v),
                       0.0, T, epsabs=0.0, epsrel=1e-12)
        assert bounds.gronwall_moment_rhs(n, T, a, w, u, v) == pytest.approx(want, rel=1e-9)


def _sourced_moments_ivp(T, a, w, u, v):
    """E Y_T and E Y_T^2 of dY = (-a Y + u) dt + sqrt(v Y + w Y^2) dN from 0, by solve_ivp."""
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp

    def rhs(_, m):
        return [-a * m[0] + u, (w - 2.0 * a) * m[1] + (2.0 * u + v) * m[0]]

    sol = solve_ivp(rhs, (0.0, T), [0.0, 0.0], method="DOP853", rtol=1e-12, atol=1e-14)
    return sol.y[0, -1], sol.y[1, -1]


def test_gronwall_rhs_bounds_the_exact_moment():
    # the envelope holds at every horizon, not only while the process is young
    grid = itertools.product((0.5, 1.0, 2.0), (0.0, 0.25, 0.5, 1.0), (0.1, 0.3, 1.0),
                             (0.0, 0.2, 1.0), (0.5, 2.0, 5.0, 10.0))
    for a, w, u, v, T in grid:
        m1, m2 = _sourced_moments_ivp(T, a, w, u, v)
        for n, exact in ((2, m1), (4, np.sqrt(m2))):
            # equality holds at v = w = 0, up to the solver's error
            assert bounds.gronwall_moment_rhs(n, T, a, w, u, v) >= exact * (1.0 - 1e-9), (n, a, w, u, v, T)


def test_gronwall_sourced_moment_matches_scipy_ivp():
    rng = np.random.default_rng(809)
    # c = 2a - w at 0, below 0 and equal to a, then random draws
    cases = [(1.0, 2.0, 0.3, 0.2, 4.0), (0.5, 1.5, 0.3, 0.2, 6.0), (1.0, 1.0, 0.7, 0.4, 2.0)]
    for _ in range(40):
        a, w, u, v = rng.uniform(0.1, 2.0), *rng.uniform(0.0, 2.0, 3)
        cases.append((a, w, u, v, rng.uniform(0.1, 10.0)))
    for a, w, u, v, T in cases:
        m1, m2 = _sourced_moments_ivp(T, a, w, u, v)
        assert bounds.gronwall_sourced_moment(2, T, a, w, u, v) == pytest.approx(m1, rel=1e-9)
        assert bounds.gronwall_sourced_moment(4, T, a, w, u, v) == pytest.approx(np.sqrt(m2), rel=1e-9)
    assert bounds.gronwall_sourced_moment(3, 1.0, 1.0, 0.5, 0.3, 0.2) is None  # no exact value at odd n
    with pytest.raises(InvalidArgument):
        bounds.gronwall_sourced_moment(2, 1.0, 0.0, 0.5, 0.3, 0.2)  # the formula divides by a


def test_laplace_rhs_frozen():
    assert bounds.laplace_rhs(1.0, 0.0, 1.0) == pytest.approx(1.4610577570397791, rel=1e-12)
    assert bounds.laplace_rhs(0.5, 0.25, 1.0) == pytest.approx(1.8826702301384135, rel=1e-12)
    with pytest.raises(InvalidArgument):
        bounds.laplace_rhs(0.0, 0.0, 1.0)


def test_laplace_time_avg_rhs_frozen():
    assert bounds.laplace_time_avg_rhs(0.5, 2.0, 4.0, 3.0) == pytest.approx(
        1.2456654861176002, rel=1e-12
    )
    assert bounds.laplace_time_avg_rhs(0.0, 1.0, 1.0, 5.0) == pytest.approx(1.0)


def test_problem_constants_from_models():
    from ekbf.models import LinearModel, observation_params

    model = LinearModel(np.array([[-1.0]]), np.array([[1.0]]))
    obs = observation_params(np.array([[1.0]]), np.array([[1.0]]))
    c = bounds.problem_constants(model, obs, np.array([[1.0]]))
    assert c == OU_C


def test_ops_reject_unstable_constants():
    # the bundle itself refuses a non-positive rate, so no envelope sees one
    with pytest.raises(NotStable):
        bounds.ProblemConstants(-1.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1)
    with pytest.raises(NotStable):
        bounds.ProblemConstants(2.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1)


def test_bounds_report_serializes():
    report = bounds.bounds_report(OU_C, [1.0, 5.0], [0.5, 1.0], alpha=1.1, init_sq=0.5)
    blob = json.loads(json.dumps(report))
    assert blob["constants"]["jac_decay"] == 2.0
    assert len(blob["tau"]) == 2
    assert len(blob["ekf_radii"]) == 2 and len(blob["ekf_radii"][0]) == 2
    assert blob["conditions"]["alpha"] == 1.1
    assert blob["rate"] is not None and blob["exponent"] is not None
    # deterministic prior: no chi normalizer, emitted as null
    r0 = bounds.bounds_report(OU_C0, [1.0], [1.0], alpha=1.0 + 1e-9, init_sq=0.0)
    assert json.loads(json.dumps(r0))["chi_normalizer"] is None


_rate = st.floats(1e-3, 1e3)
_level = st.floats(0.0, 1e3)
_constants = st.builds(
    bounds.ProblemConstants,
    jac_decay=_rate,
    jac_lip=_level,
    drift_decay=_rate,
    noise_trace=_rate,
    sensor_gain=_level,
    prior_trace=_level,
    prior_norm=_level,
    dim=st.integers(1, 8),
)


def _sorted_pair(values):
    return st.tuples(values, values).map(sorted)


@settings(max_examples=200, deadline=None, database=None)
@given(
    c=_constants,
    deltas=_sorted_pair(st.floats(0.0, 1e3)),
    times=_sorted_pair(st.floats(0.0, 1e2)),
    orders=_sorted_pair(st.floats(1.0, 64.0)),
    init_sq=_level,
)
def test_envelopes_monotone(c, deltas, times, orders, init_sq):
    # radii widen with the confidence level delta
    lo, hi = deltas
    assert bounds.varpi(lo) <= bounds.varpi(hi)
    assert bounds.signal_radius(c, lo) <= bounds.signal_radius(c, hi)
    for t in times:
        assert bounds.ekf_radius(c, lo, t, init_sq) <= bounds.ekf_radius(c, hi, t, init_sq)
    # the covariance trace envelope only relaxes toward its limit
    early, late = times
    assert bounds.tau_t(c, late) <= bounds.tau_t(c, early)
    # higher moments have wider envelopes
    n_lo, n_hi = orders
    assert bounds.signal_moment_bound(c, n_lo) <= bounds.signal_moment_bound(c, n_hi)
    for t in times:
        assert bounds.moment_bound_xhat(c, n_lo, t) <= bounds.moment_bound_xhat(c, n_hi, t)
