"""Model classes against finite-difference oracles and their certified rates."""

import numpy as np
import pytest

from ekbf import linalg
from ekbf.errors import InvalidArgument, ModelNotContractive, NotPD, NotReducible
from ekbf.models import (
    InteractingModel,
    LinearModel,
    ObservationModel,
    QuadraticCubicModel,
    RegularityConstants,
    TransformedModel,
    lipschitz_empirical_check,
    observation_params,
)

FD_STEP = 1e-6


def _qc(Q1=None, q=None, Q2=None, beta=1.0, R1=None, d=2):
    return QuadraticCubicModel(
        Q1 if Q1 is not None else np.eye(d),
        q if q is not None else np.zeros(d),
        Q2 if Q2 is not None else np.eye(d),
        beta,
        R1 if R1 is not None else np.eye(d),
    )


def _qc_potential(model, x):
    """Direct evaluation of the confining potential, used as the oracle."""
    quad = 0.5 * x @ model.Q1 @ x + model.q @ x
    cubic = (x @ model.Q2 @ x) ** 1.5 / 3.0
    return quad + cubic


def test_qc_gradient_matches_finite_difference():
    rng = np.random.default_rng(310)
    A = rng.standard_normal((2, 2))
    model = _qc(Q1=A @ A.T + np.eye(2), q=np.array([0.3, -0.4]), Q2=np.diag([2.0, 0.5]))
    for _ in range(5):
        x = rng.standard_normal(2)
        grad = model.potential_gradient(x)
        for i in range(2):
            e = np.zeros(2)
            e[i] = FD_STEP
            fd = (_qc_potential(model, x + e) - _qc_potential(model, x - e)) / (2 * FD_STEP)
            assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-7)


def test_qc_hessian_matches_finite_difference():
    rng = np.random.default_rng(311)
    model = _qc(Q1=np.diag([1.0, 2.0]), Q2=np.array([[1.0, 0.2], [0.2, 0.8]]))
    for _ in range(5):
        x = rng.standard_normal(2) + 0.1
        H = model.potential_hessian(x)
        assert np.allclose(H, H.T)
        for i in range(2):
            e = np.zeros(2)
            e[i] = FD_STEP
            fd = (model.potential_gradient(x + e) - model.potential_gradient(x - e)) / (2 * FD_STEP)
            assert np.allclose(H[:, i], fd, rtol=1e-5, atol=1e-6)


def test_qc_gradient_and_hessian_at_origin():
    # the cubic term is C^1 but its Hessian term vanishes only because the
    # implementation cuts the form off near zero; both must stay finite
    model = _qc(q=np.array([0.5, -1.0]))
    assert np.allclose(model.potential_gradient(np.zeros(2)), model.q)
    assert np.allclose(model.potential_hessian(np.zeros(2)), model.Q1)


def test_qc_hessian_is_exactly_symmetric():
    # no symmetrizing pass: Q1 and Q2 are averaged with their transposes at
    # construction, and every term added to them is exactly symmetric
    rng = np.random.default_rng(313)
    A, B = rng.standard_normal((2, 3, 3))
    skew = 1e-13 * np.triu(rng.standard_normal((3, 3)), 1)  # within as_symmetric's tolerance
    model = _qc(Q1=A @ A.T + np.eye(3) + skew, Q2=B @ B.T + skew, d=3)
    below = np.array([1e-8, -2e-8, 0.5e-8])  # <Q2 x, x> below CUBIC_CUTOFF
    for x in (3.0 * rng.standard_normal((4, 5, 3)), np.zeros(3), below):
        H = model.potential_hessian(x)
        assert np.array_equal(H, H.swapaxes(-1, -2))
    assert np.array_equal(model.potential_hessian(below), model.Q1)


def test_qc_hessian_dominates_quadratic_part():
    rng = np.random.default_rng(312)
    model = _qc(Q1=np.diag([0.5, 1.5]), Q2=np.array([[1.0, 0.3], [0.3, 2.0]]))
    for _ in range(20):
        x = 3.0 * rng.standard_normal(2)
        H = model.potential_hessian(x)
        assert linalg.min_eigenvalue(H - model.Q1) >= -1e-9


def test_qc_frozen_constants():
    consts = _qc().regularity_constants()
    assert consts.jac_decay == pytest.approx(0.5)
    assert consts.jac_lip == pytest.approx(2.0)
    assert consts.drift_decay == pytest.approx(0.25)


def test_qc_beta_scales_constants():
    consts = _qc(beta=3.0).regularity_constants()
    assert consts.jac_decay == pytest.approx(1.5)
    assert consts.jac_lip == pytest.approx(6.0)


def test_drift_one_sided_monotonicity():
    """<x - y, A(x) - A(y)> <= -drift_decay |x - y|^2 for both model families."""
    rng = np.random.default_rng(313)
    models = [
        _qc(Q1=np.diag([1.0, 2.0]), Q2=np.array([[1.0, 0.4], [0.4, 1.0]]), beta=0.7),
        LinearModel(np.array([[-2.0, 1.0], [-1.0, -3.0]]), np.eye(2)),
    ]
    for model in models:
        lam = model.regularity_constants().drift_decay
        x = 4.0 * rng.standard_normal((50, 2))
        y = 4.0 * rng.standard_normal((50, 2))
        lhs = np.einsum("ki,ki->k", x - y, model.drift(x) - model.drift(y))
        rhs = -lam * np.einsum("ki,ki->k", x - y, x - y)
        assert np.all(lhs <= rhs + 1e-8)


def test_jacobian_symmetrized_abscissa_below_rate():
    rng = np.random.default_rng(314)
    model = _qc(Q1=np.diag([1.0, 0.8]), Q2=np.eye(2), beta=1.2)
    lam = model.regularity_constants().jac_decay
    for _ in range(20):
        J = model.drift_jacobian(2.0 * rng.standard_normal(2))
        assert np.allclose(J, J.T)
        assert linalg.sym_spectral_abscissa(J) <= -lam + 1e-9


def test_linear_model_constants_and_rejection():
    model = LinearModel(np.array([[-1.0]]), np.array([[1.0]]))
    consts = model.regularity_constants()
    assert (consts.jac_decay, consts.jac_lip, consts.drift_decay) == (2.0, 0.0, 1.0)
    with pytest.raises(ModelNotContractive):
        LinearModel(np.eye(2), np.eye(2))
    with pytest.raises(NotPD):
        LinearModel(-np.eye(2), np.zeros((2, 2)))


def test_regularity_constants_validation():
    with pytest.raises(ModelNotContractive):
        RegularityConstants(jac_decay=0.0, jac_lip=0.0)
    with pytest.raises(InvalidArgument):
        RegularityConstants(jac_decay=2.0, jac_lip=-1.0)


def _interacting():
    """Three particles, cosine-perturbed confinement, quadratic coupling.

    U1(z) = z^2/2 + cos(z):   curvature in [0, 2] so u1 = 0, third derivative
                              bounded by 1 so kappa1 = 1.
    U2(p) = (p0 - p1)^2/4 + 0.3 |p|^2:  Hessian eigenvalues {0.6, 1.6} so
                              u2 = 0.6, kappa2 = 0.
    """

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

    return InteractingModel(du1, d2u1, du2, d2u2, 0.0, 0.6, 1.0, 0.0, 3, 1.0, np.eye(3))


def _interacting_potential(x):
    total = np.sum(x**2 / 2.0 + np.cos(x))
    n = x.shape[0]
    for i in range(n):
        for j in range(n):
            if i != j:
                p = np.array([x[i], x[j]])
                total += (p[0] - p[1]) ** 2 / 4.0 + 0.3 * (p @ p)
    return total


def test_interacting_drift_matches_potential_gradient():
    model = _interacting()
    rng = np.random.default_rng(315)
    for _ in range(4):
        x = rng.standard_normal(3)
        drift = model.drift(x)
        for k in range(3):
            e = np.zeros(3)
            e[k] = FD_STEP
            fd = (_interacting_potential(x + e) - _interacting_potential(x - e)) / (2 * FD_STEP)
            assert drift[k] == pytest.approx(-fd, rel=1e-5, abs=1e-6)


def test_interacting_jacobian_matches_drift_difference():
    model = _interacting()
    rng = np.random.default_rng(316)
    x = rng.standard_normal(3)
    J = model.drift_jacobian(x)
    assert np.allclose(J, J.T)
    for k in range(3):
        e = np.zeros(3)
        e[k] = FD_STEP
        fd = (model.drift(x + e) - model.drift(x - e)) / (2 * FD_STEP)
        assert np.allclose(J[:, k], fd, rtol=1e-5, atol=1e-6)


def test_interacting_frozen_constants():
    consts = _interacting().regularity_constants()
    # (u1 + (N-1) u2) / 2 with N = 3
    assert consts.jac_decay == pytest.approx(0.6)
    # kappa1 + kappa2 (N-1) sqrt(2(N-1))
    assert consts.jac_lip == pytest.approx(1.0)

    simple = InteractingModel(
        lambda z: z,
        lambda z: np.ones_like(z),
        lambda p: 0.25 * p,
        lambda p: np.broadcast_to(0.25 * np.eye(2), p.shape[:-1] + (2, 2)).copy(),
        1.0,
        0.25,
        0.0,
        0.0,
        3,
        1.0,
        np.eye(3),
    )
    assert simple.regularity_constants().jac_decay == pytest.approx(0.75)


def test_interacting_rejects_indefinite_confinement():
    with pytest.raises(ModelNotContractive):
        InteractingModel(
            lambda z: -z,
            lambda z: -np.ones_like(z),
            lambda p: np.zeros_like(p),
            lambda p: np.zeros(p.shape[:-1] + (2, 2)),
            -1.0,
            0.0,
            0.0,
            0.0,
            2,
            1.0,
            np.eye(2),
        ).regularity_constants()


def test_observation_model_derived_fields():
    obs = observation_params(np.array([[2.0]]), np.array([[0.5]]))
    assert obs.S[0, 0] == pytest.approx(8.0)
    assert obs.sensor_gain == pytest.approx(8.0)
    assert obs.gain_map[0, 0] == pytest.approx(4.0)
    wide = observation_params(np.array([[1.0, 0.0]]), np.array([[1.0]]))
    assert wide.obs_dim == 1 and wide.state_dim == 2


def _transformed(model, T):
    """model conjugated by y = T x, its noise carried to T R1 T^T."""
    return TransformedModel(base=model, T=T, T_inv=np.linalg.inv(T), R1=T @ model.R1 @ T.T)


def test_change_of_basis_nonlinear_scales_lipschitz():
    model = _qc()
    new_model = _transformed(model, 2.0 * np.eye(2))
    consts = new_model.regularity_constants()
    assert consts.jac_decay == pytest.approx(0.5)
    assert consts.jac_lip == pytest.approx(1.0)  # divided by the scale factor 2
    # drift conjugation: A'(z) = T A(T^{-1} z)
    z = np.array([0.4, -1.2])
    assert np.allclose(new_model.drift(z), 2.0 * model.drift(z / 2.0))


def test_change_of_basis_rejects_bad_sensors():
    # a non-conformal T stretches one axis more than the other
    skewed = _transformed(_qc(), np.diag([1.0, 2.0]))
    with pytest.raises(NotReducible):
        skewed.regularity_constants()


def test_lipschitz_empirical_check_passes_for_both_families():
    report = lipschitz_empirical_check(_qc(), n_pairs=2000, seed=5)
    assert report["passed"]
    assert report["max_ratio"] <= report["bound"] * (1.0 + 1e-6)
    linear = lipschitz_empirical_check(
        LinearModel(np.array([[-1.0, 0.5], [-0.5, -2.0]]), np.eye(2)), n_pairs=500, seed=6
    )
    assert linear["passed"] and linear["max_ratio"] == 0.0
