"""Matrix helpers: oracle checks against determinant bisection and random search."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ekbf import linalg
from ekbf.errors import InvalidArgument, InvalidMatrix, NotPSD


def _charpoly_max_eig(M, iters=200):
    """Largest eigenvalue via sign bisection of det(lam I - M).

    Uses LU-based determinants only, so it is independent of the eigensolver
    under test.  Assumes the top eigenvalue is simple (true almost surely for
    the random matrices used here).
    """
    d = M.shape[0]
    hi = 1.0 + float(np.abs(M).sum(axis=1).max())  # Gershgorin upper bound
    lo = hi
    step = 0.01 * hi
    while np.linalg.det(lo * np.eye(d) - M) > 0.0:
        lo -= step
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.linalg.det(mid * np.eye(d) - M) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_max_eigenvalue_matches_charpoly_bisection():
    rng = np.random.default_rng(101)
    for _ in range(5):
        A = rng.standard_normal((4, 4))
        M = 0.5 * (A + A.T)
        assert linalg.max_eigenvalue(M) == pytest.approx(_charpoly_max_eig(M), abs=1e-9)


def test_max_eigenvalue_frozen_diagonal():
    assert linalg.max_eigenvalue(np.diag([1.0, 2.0, 3.0])) == 3.0
    assert linalg.min_eigenvalue(np.diag([1.0, 2.0, 3.0])) == 1.0


def test_sym_spectral_abscissa_general_square():
    # the abscissa is defined through the symmetric part, not the eigenvalues
    assert linalg.sym_spectral_abscissa(-np.eye(2)) == pytest.approx(-2.0)
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])  # skew: symmetric part is zero
    assert linalg.sym_spectral_abscissa(rot) == pytest.approx(0.0, abs=1e-12)


def test_as_symmetric_rejects_skew_and_fixes_roundoff():
    M = np.array([[1.0, 2.0], [2.0 + 1e-12, 3.0]])
    S = linalg.as_symmetric(M)
    assert np.array_equal(S, S.T)
    with pytest.raises(InvalidMatrix):
        linalg.as_symmetric(np.array([[1.0, 2.0], [0.0, 3.0]]))


def test_dimension_cap():
    with pytest.raises(InvalidArgument):
        linalg.as_square(np.eye(65))


def test_psd_project_is_local_frobenius_optimum():
    """The projection must beat nearby hand-built PSD candidates in Frobenius
    distance; this is an independent certificate that the clipped point is the
    metric projection, without reusing the eigensolver."""
    rng = np.random.default_rng(202)
    A = rng.standard_normal((3, 3))
    M = 0.5 * (A + A.T) - 1.5 * np.eye(3)  # push some eigenvalues negative
    P = linalg.psd_project_stack(M[np.newaxis])[0]
    base = np.linalg.norm(M - P)
    # PSD certificate by principal minors (determinant-based, independent)
    for k in range(1, 4):
        assert np.linalg.det(P[:k, :k]) >= -1e-10
    root = linalg.sym_sqrt(P)
    for _ in range(200):
        G = root + 0.05 * rng.standard_normal((3, 3))
        cand = G @ G.T  # PSD by construction
        assert base <= np.linalg.norm(M - cand) + 1e-12


def test_psd_project_fixes_nothing_on_psd_input():
    rng = np.random.default_rng(203)
    G = rng.standard_normal((3, 3))
    M = G @ G.T
    assert np.allclose(linalg.psd_project_stack(M[np.newaxis])[0], M, atol=1e-12)


def test_sym_sqrt_multiplies_back():
    rng = np.random.default_rng(204)
    G = rng.standard_normal((4, 4))
    M = G @ G.T + 0.1 * np.eye(4)
    R = linalg.sym_sqrt(M)
    assert np.allclose(R @ R, M, atol=1e-10)


def test_sym_sqrt_rejects_indefinite():
    with pytest.raises(NotPSD):
        linalg.sym_sqrt(np.diag([1.0, -1.0]))


def test_psd_project_stack_matches_single_projection():
    rng = np.random.default_rng(205)
    mats = []
    for _ in range(6):
        A = rng.standard_normal((2, 2))
        mats.append(0.5 * (A + A.T) - rng.random() * np.eye(2))
    stack = np.stack(mats)
    out = linalg.psd_project_stack(stack.copy())
    for k in range(6):
        assert np.allclose(out[k], linalg.psd_project_stack(mats[k][np.newaxis])[0], atol=1e-12)


def test_psd_project_stack_passes_nonfinite_rows_through():
    stack = np.stack([np.eye(2), np.full((2, 2), np.nan)])
    out = linalg.psd_project_stack(stack)
    assert np.allclose(out[0], np.eye(2))
    assert np.isnan(out[1]).all()


@settings(max_examples=40, deadline=None, database=None)
@given(
    d=st.integers(1, 9),
    n=st.integers(1, 9),
    width=st.integers(2, 300),
    stride=st.integers(1, 3),
    batched=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_matvec_rows_independent_of_batch_width(d, n, width, stride, batched, seed):
    # the engine and a single-trial run must compute bit-identical rows
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((3, 1, n, d) if batched else (n, d))
    block = rng.standard_normal((3, width, stride, d))
    x = block[:, :, 0]  # rows of a noise block: a strided view, as in the engine
    full = linalg.matvec(M, x)
    assert np.allclose(full, (M @ x[..., None])[..., 0], rtol=1e-12, atol=1e-12)
    for i in range(width):
        row = x[:, i : i + 1]
        assert np.array_equal(full[:, i], linalg.matvec(M, row)[:, 0])
        assert np.array_equal(full[:, i], linalg.matvec(M, np.ascontiguousarray(row))[:, 0])


@settings(max_examples=60, deadline=None, database=None)
@given(
    d=st.integers(1, 9),
    n=st.integers(1, 3),
    width=st.integers(1, 12),
    stride=st.integers(1, 3),
    layout=st.sampled_from(["shared", "broadcast", "batched"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_matvec_bits_are_the_ascending_sum(d, n, width, stride, layout, seed):
    # every entry is M[i, 0] x_0 + M[i, 1] x_1 + ... in ascending j, one
    # rounding per product and per sum; at d <= 2 that is einsum's result,
    # which the engine's seeded outputs were first computed with
    rng = np.random.default_rng(seed)
    shape = {"shared": (n, d), "broadcast": (3, 1, n, d), "batched": (3, width, n, d)}[layout]
    M = rng.standard_normal(shape)
    x = rng.standard_normal((3, width, stride, d))[:, :, 0]  # a strided view
    got = linalg.matvec(M, x)
    Mb = np.broadcast_to(M, (3, width, n, d))
    assert got.shape == (3, width, n)
    for a, b, i in np.ndindex(3, width, n):
        s = float(Mb[a, b, i, 0]) * float(x[a, b, 0])
        for j in range(1, d):
            s = s + float(Mb[a, b, i, j]) * float(x[a, b, j])
        assert got[a, b, i] == s
    if d <= 2:
        assert np.array_equal(got, np.einsum("...ij,...j->...i", M, x))


@pytest.mark.parametrize("d", range(1, 10))
def test_sumsq_and_trace_stack_are_ascending_sums(d):
    rng = np.random.default_rng(d)
    P = rng.standard_normal((2, 5, d, d))
    x = rng.standard_normal((2, 5, 2, d))[:, :, 0]
    want_tr, want_sq = P[..., 0, 0], x[..., 0] * x[..., 0]
    for j in range(1, d):
        want_tr, want_sq = want_tr + P[..., j, j], want_sq + x[..., j] * x[..., j]
    assert np.array_equal(linalg.trace_stack(P), want_tr)
    assert np.array_equal(linalg.sumsq(x), want_sq)
    if d <= 2:
        assert np.array_equal(linalg.trace_stack(P), np.einsum("...ii->...", P))
        assert np.array_equal(linalg.trace_stack(P), np.trace(P, axis1=-2, axis2=-1))
        assert np.array_equal(linalg.sumsq(x), np.einsum("...i,...i->...", x, x))
