"""Acceptance suite: every guarantee checked end to end at desk scale.

Run with `pytest -v tests/test_acceptance.py` to get one PASS/FAIL line per
criterion.  Heavy ensembles are shared across criteria through module-scoped
fixtures; total runtime is a few minutes on one core.
"""

import time

import numpy as np
import pytest

from ekbf import bounds
from ekbf.dynamics import Stepper, deterministic_flow
from ekbf.harness.estimators import (
    estimate_chi2_laplace,
    estimate_event_probability,
    estimate_forgetting_rate,
    estimate_moments,
    gronwall_test_process,
    run_ensemble,
    verify_trace_bound,
)
from ekbf.models import (
    InteractingModel,
    LinearModel,
    QuadraticCubicModel,
    lipschitz_empirical_check,
    observation_params,
)

DELTAS = (0.5, 1.0, 2.0, 4.0)
CHECKPOINT_TIMES = (1.0, 5.0, 10.0)


def _qc_model():
    # planar double-well-free confinement: quadratic plus cubic growth
    return QuadraticCubicModel(np.eye(2), np.zeros(2), np.eye(2), 1.0, 0.5 * np.eye(2))


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")


@pytest.fixture(scope="module")
def ou_events():
    """OU benchmark ensemble: 10^4 trials, dt = 0.01, horizon 10."""
    model = LinearModel(np.array([[-1.0]]), np.array([[1.0]]))
    obs = observation_params(np.array([[1.0]]), np.array([[1.0]]))
    dt, steps = 0.01, 1000
    cp = [int(round(t / dt)) for t in CHECKPOINT_TIMES]
    return run_ensemble(
        model, obs, np.zeros(1), [(np.zeros(1), np.ones((1, 1)))],
        dt, steps, 10_000, 20240803, cp,
    )


@pytest.fixture(scope="module")
def qc_events():
    """Quadratic-cubic ensemble: 10^4 trials, dt = 0.01, horizon 10."""
    model = _qc_model()
    obs = observation_params(np.eye(2), np.eye(2))
    dt, steps = 0.01, 1000
    cp = [int(round(t / dt)) for t in CHECKPOINT_TIMES]
    return run_ensemble(
        model, obs, np.zeros(2), [(np.zeros(2), 0.5 * np.eye(2))],
        dt, steps, 10_000, 20240804, cp,
    )


def test_criterion_1_trace_bound_pathwise():
    """Covariance trace never exceeds its envelope beyond the O(dt) fudge."""
    start = time.perf_counter()
    model = _qc_model()
    obs = observation_params(np.eye(2), np.eye(2))
    res = run_ensemble(
        model, obs, np.zeros(2), [(np.zeros(2), 0.5 * np.eye(2))],
        1e-3, 20_000, 1000, 20240801, [20_000],
    )
    row = verify_trace_bound(res)
    elapsed = time.perf_counter() - start
    _report(
        "trace bound",
        row["pass"],
        f"max violation {row['max_violation']:.3e} <= {row['threshold']:.1e} "
        f"({elapsed:.0f}s, {res.n_trials} trials)",
    )
    assert row["pass"], row
    assert int(res.diverged.sum()) == 0
    assert elapsed < 60.0


def test_criterion_2_initial_error_laplace():
    """Gaussian exponential moment: sqrt(2) +- 0.02 over 10^5 samples, under e."""
    row = estimate_chi2_laplace(np.array([[1.0]]), 100_000, seed=20240817)
    err = abs(row["estimate"] - np.sqrt(2.0))
    ok = err <= 0.02 and row["estimate"] <= np.e and row["pass"]
    _report("initial-error Laplace", ok, f"estimate {row['estimate']:.5f}, |err| {err:.4f}")
    assert ok, row


def test_criterion_3_event_frequencies(ou_events, qc_events):
    """Error events hold with frequency at least 1 - e^{-delta} on both models."""
    start = time.perf_counter()
    failures = []
    n_rows = 0
    for label, res in (("ou", ou_events), ("qc", qc_events)):
        for kind in ("signal", "ekf"):
            rows = estimate_event_probability(res, DELTAS, kind)
            n_rows += len(rows)
            failures += [(label, kind, r) for r in rows if not r["pass"]]
    elapsed = time.perf_counter() - start
    _report(
        "event frequencies",
        not failures,
        f"{n_rows - len(failures)}/{n_rows} (t, delta) cells on two models ({elapsed:.0f}s)",
    )
    assert not failures, failures[:4]


def test_criterion_4_moment_bounds(ou_events, qc_events):
    """2n-th moments stay below their envelopes; OU stationary value is exact."""
    failures = []
    n_rows = 0
    for label, res in (("ou", ou_events), ("qc", qc_events)):
        rows = estimate_moments(res, (1, 2))
        n_rows += len(rows)
        failures += [(label, r) for r in rows if not r["pass"]]
    stationary = float(ou_events.signal_err_sq[:, -1].mean())
    target = 0.5  # tr(R1) / (2 lambda) for the OU benchmark
    stat_ok = abs(stationary - target) / target <= 0.03
    ok = not failures and stat_ok
    _report(
        "moment bounds",
        ok,
        f"{n_rows - len(failures)}/{n_rows} envelope cells; "
        f"OU stationary {stationary:.4f} vs {target} "
        f"({abs(stationary - target) / target:.1%} off)",
    )
    assert not failures, failures[:4]
    assert stat_ok, stationary


def test_criterion_5_riccati_cross_check():
    """Scalar covariance recursion lands on the algebraic fixed point."""
    model = LinearModel(np.array([[-1.0]]), np.array([[1.0]]))
    obs = observation_params(np.array([[1.0]]), np.array([[1.0]]))
    stepper = Stepper(model, 1e-3, obs)
    z = np.zeros((2, 1))  # the signal and one filter mean, at rest
    P = np.ones((1, 1, 1))
    for _ in range(20_000):
        z, P, ok = stepper.filter_step(z, P, np.zeros(2), active=True)
        assert ok.all()
    got = float(P[0, 0, 0])
    want = np.sqrt(2.0) - 1.0
    ok = abs(got - want) <= 1e-3
    _report("Riccati fixed point", ok, f"P_inf {got:.7f} vs {want:.7f}")
    assert ok


def test_criterion_6_forgetting_rate():
    """Coupled filters forget their initialization at the certified rate."""
    start = time.perf_counter()
    model = LinearModel(np.array([[-2.5]]), np.array([[0.01]]))
    obs = observation_params(np.array([[1.0]]), np.array([[1.0]]))
    filters = [
        (np.array([1.0]), np.array([[1.0]])),
        (np.array([-1.0]), np.array([[0.1]])),
    ]
    steps = 4000
    res = run_ensemble(
        model, obs, np.zeros(1), filters, 1e-3, steps, 1000, 20240806,
        [steps], record_steps=range(0, steps + 1, 10),
    )
    report = estimate_forgetting_rate(res, eps=0.5, alpha=1.1)
    elapsed = time.perf_counter() - start
    ok = (
        report["status"] == "ok"
        and report["conditions_hold"]
        and report["pass"]
        and report["threshold"] == pytest.approx(0.9821738588279738, rel=1e-12)
    )
    _report(
        "forgetting rate",
        ok,
        f"fitted {report.get('fitted_rate', float('nan')):.3f} >= "
        f"threshold {report.get('threshold', float('nan')):.4f}; "
        f"trend p-values {report.get('trend_pvalue_n1', float('nan')):.2f}/"
        f"{report.get('trend_pvalue_n2', float('nan')):.2f} ({elapsed:.0f}s)",
    )
    assert ok, report
    assert elapsed < 600.0


def test_criterion_7_gronwall_oracle():
    """Synthetic squared-norm process: moments match the geometric oracle and
    stay under the homogeneous envelope."""
    start = time.perf_counter()
    rows = gronwall_test_process(
        a=1.0, w=0.5, dt=1e-3, T=2.0, n_paths=10_000, seed=20240812, orders=(1, 2),
        y0=1.0, u=0.0, v=0.0,
    )
    n2 = [r for r in rows if r["n"] == 2]
    ok = all(r["oracle_pass"] and r["pass"] for r in n2) and all(r["pass"] for r in rows)
    elapsed = time.perf_counter() - start
    detail = ", ".join(
        f"t={r['t']:g}: {r['estimate']:.4f} (oracle {r['oracle']:.4f}, cap {r['bound']:.4f})"
        for r in n2
    )
    _report("stochastic Gronwall", ok, f"{detail} ({elapsed:.0f}s)")
    assert ok, rows
    assert elapsed < 60.0


def test_criterion_8_flow_contraction():
    """Noise-free flows of 100 random pairs contract at half the Jacobian rate."""
    model = _qc_model()
    rate = model.regularity_constants().jac_decay / 2.0
    dt, steps = 0.01, 500
    rng = np.random.default_rng(20240808)
    a = 3.0 * rng.standard_normal((100, 2))
    b = 3.0 * rng.standard_normal((100, 2))
    pa = deterministic_flow(model, a, dt, steps)
    pb = deterministic_flow(model, b, dt, steps)
    gap0 = np.linalg.norm(a - b, axis=1)
    worst = 0.0
    ok = True
    for k in range(1, steps + 1):
        t = k * dt
        ratio = np.linalg.norm(pa[k] - pb[k], axis=1) / gap0
        cap = np.exp(-rate * t) * (1.0 + 10.0 * dt)
        worst = max(worst, float((ratio / cap).max()))
        ok &= bool(np.all(ratio <= cap))
    _report("flow contraction", ok, f"worst ratio/cap {worst:.3f} over {steps} grid times")
    assert ok


def test_criterion_9_jacobian_lipschitz():
    """Sampled Jacobian difference quotients stay under each model's constant."""
    def du1(z):
        return z - np.sin(z)

    def d2u1(z):
        return 1.0 - np.cos(z)

    def du2(p):
        diff = p[..., 0] - p[..., 1]
        return np.stack([0.5 * diff + 0.6 * p[..., 0], -0.5 * diff + 0.6 * p[..., 1]], axis=-1)

    def d2u2(p):
        H = np.array([[1.1, -0.5], [-0.5, 1.1]])
        return np.broadcast_to(H, p.shape[:-1] + (2, 2)).copy()

    models = {
        "quadratic-cubic": _qc_model(),
        "linear": LinearModel(np.array([[-1.0, 0.4], [-0.4, -2.0]]), np.eye(2)),
        "interacting": InteractingModel(
            du1, d2u1, du2, d2u2, 0.0, 0.6, 1.0, 0.0, 3, 1.0, np.eye(3)
        ),
    }
    reports = {name: lipschitz_empirical_check(m, n_pairs=10_000, seed=20240809)
               for name, m in models.items()}
    ok = all(r["passed"] for r in reports.values())
    detail = "; ".join(
        f"{name} max {r['max_ratio']:.4f} <= {r['bound']:.4f}" for name, r in reports.items()
    )
    _report("Jacobian Lipschitz", ok, detail)
    assert ok, reports
