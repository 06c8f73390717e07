"""Signal and observation models.

Three drift families are supported, all strongly stable:

  * LinearModel          dX = A X dt + sqrt(R1) dW, with A + A^T negative definite
  * QuadraticCubicModel  gradient flow of V(x) = <Q1 x, x>/2 + <q, x>
                         + <Q2 x, x>^{3/2}/3, scaled by an inverse temperature
  * InteractingModel     N exchangeable scalar particles with a confining
                         potential and a smooth pair interaction

Every model exposes a vectorized drift(x) and drift_jacobian(x) accepting
leading batch dimensions, plus regularity_constants() packaging the decay and
Lipschitz rates the stability envelopes are built from.  drift(x) has the
shape of x.  drift_jacobian(x) is broadcastable to x.shape[:-1] + (d, d): a
state-independent Jacobian (LinearModel) is returned as one shared (d, d)
matrix, which callers must not modify, so that the filter's Riccati step runs
once per filter instead of once per trial.  Matrix-vector products go
through linalg.matvec, so a row's drift has the same bits at every batch
width.

The two gradient-flow families share drift, drift_jacobian and
regularity_constants through _GradientFlow, which states the convention of
their constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import linalg
from .errors import (
    InvalidArgument,
    InvalidMatrix,
    ModelNotContractive,
    NotPD,
    NotPSD,
    NotReducible,
)

# Below this value of <Q2 x, x> the cubic part of the potential is dropped and
# the Hessian falls back to the quadratic part, avoiding 0/0 at the origin.
CUBIC_CUTOFF = 1e-14


@dataclass(frozen=True)
class RegularityConstants:
    """Decay and smoothness rates of a drift field.

    jac_decay   : rate lambda such that the symmetrized Jacobian stays below
                  -lambda (conservatively for gradient flows, see _GradientFlow)
    jac_lip     : Lipschitz constant of the Jacobian map
    drift_decay : one-sided monotonicity rate of the drift itself, which is
                  jac_decay / 2 by construction
    """

    jac_decay: float
    jac_lip: float

    def __post_init__(self):
        if not (self.jac_decay > 0.0):
            raise ModelNotContractive(f"jac_decay must be positive, got {self.jac_decay}")
        if self.jac_lip < 0.0:
            raise InvalidArgument("jac_lip must be non-negative")

    @property
    def drift_decay(self) -> float:
        return 0.5 * self.jac_decay


def _check_noise(R1, dim: int) -> np.ndarray:
    R1 = linalg.as_symmetric(R1, dim)
    if linalg.min_eigenvalue(R1) <= 0.0:
        raise NotPD("signal noise covariance must be positive definite")
    return R1


@dataclass(frozen=True)
class LinearModel:
    """dX = A X dt + sqrt(R1) dW with a strictly stable symmetric part."""

    A: np.ndarray
    R1: np.ndarray

    def __post_init__(self):
        A = linalg.as_square(self.A)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "R1", _check_noise(self.R1, A.shape[0]))
        if linalg.sym_spectral_abscissa(A) >= 0.0:
            raise ModelNotContractive("A + A^T must be negative definite")

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    def drift(self, x) -> np.ndarray:
        return linalg.matvec(self.A, np.asarray(x, dtype=float))

    def drift_jacobian(self, x) -> np.ndarray:
        return self.A

    def regularity_constants(self) -> RegularityConstants:
        return RegularityConstants(jac_decay=-linalg.sym_spectral_abscissa(self.A), jac_lip=0.0)


class _GradientFlow:
    """Drift -beta * grad V of a convex potential V, and its regularity constants.

    A subclass supplies potential_gradient, potential_hessian and
    _curvature_bounds(): a lower bound curv on the Hessian of V and the
    Hessian's Lipschitz constant lip.  The constants are the deliberately
    conservative

        jac_decay = beta * curv / 2,   jac_lip = beta * lip,

    4 times below the symmetrized-Jacobian value 2 * beta * curv, the
    definition LinearModel applies exactly to its A.  Every envelope built
    from them stays valid, only looser.
    """

    def drift(self, x) -> np.ndarray:
        return -self.beta * self.potential_gradient(x)

    def drift_jacobian(self, x) -> np.ndarray:
        return -self.beta * self.potential_hessian(x)

    def regularity_constants(self) -> RegularityConstants:
        curv, lip = self._curvature_bounds()
        return RegularityConstants(jac_decay=0.5 * self.beta * curv, jac_lip=self.beta * lip)


@dataclass(frozen=True)
class QuadraticCubicModel(_GradientFlow):
    """Gradient flow of a quadratic potential plus a cubic confinement term.

    V(x) = <Q1 x, x>/2 + <q, x> + <Q2 x, x>^{3/2}/3 with Q1 positive definite
    and Q2 positive semi-definite; the drift is -beta * grad V.
    """

    Q1: np.ndarray
    q: np.ndarray
    Q2: np.ndarray
    beta: float
    R1: np.ndarray

    def __post_init__(self):
        Q1 = linalg.as_symmetric(self.Q1)
        d = Q1.shape[0]
        q = linalg.as_vector(self.q, d)
        Q2 = linalg.as_symmetric(self.Q2, d)
        if not (self.beta > 0.0):
            raise InvalidArgument("beta must be positive")
        if linalg.min_eigenvalue(Q1) <= 0.0:
            raise NotPD("Q1 must be positive definite")
        if linalg.min_eigenvalue(Q2) < -linalg.EIG_ZERO_BAND:
            raise NotPSD("Q2 must be positive semi-definite")
        object.__setattr__(self, "Q1", Q1)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "Q2", Q2)
        object.__setattr__(self, "R1", _check_noise(self.R1, d))

    @property
    def dim(self) -> int:
        return self.Q1.shape[0]

    def _cubic_parts(self, x: np.ndarray):
        """Q2 x, <Q2 x, x> and the clipped square root of the latter."""
        g = linalg.matvec(self.Q2, x)
        s = np.einsum("...i,...i->...", x, g)
        return g, s, np.sqrt(np.maximum(s, 0.0))

    def potential_gradient(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        g, s, root = self._cubic_parts(x)
        cubic = np.where(s[..., None] > CUBIC_CUTOFF, root[..., None] * g, 0.0)
        return self.q + linalg.matvec(self.Q1, x) + cubic

    def potential_hessian(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        g, s, root = self._cubic_parts(x)
        # rank-one term (Q2 x)(Q2 x)^T / sqrt(<Q2 x, x>), zero at the cutoff
        safe = np.where(s > CUBIC_CUTOFF, root, 1.0)
        outer = np.einsum("...i,...j->...ij", g, g) / safe[..., None, None]
        mask = (s > CUBIC_CUTOFF)[..., None, None]
        # every term is exactly symmetric, Q1 and Q2 having been averaged with their transposes
        return self.Q1 + np.where(mask, root[..., None, None] * self.Q2 + outer, 0.0)

    def _curvature_bounds(self):
        # Q2 may sit just below zero within the PSD tolerance
        lip = 2.0 * max(linalg.max_eigenvalue(self.Q2), 0.0) ** 1.5
        return linalg.min_eigenvalue(self.Q1), lip


@dataclass(frozen=True)
class InteractingModel(_GradientFlow):
    """Gradient flow of N scalar particles with confinement and pair coupling.

    Potential:  sum_i U1(x_i) + sum_{i != j} U2(x_i, x_j)  (ordered pairs).

    The callbacks must be vectorized over leading batch dimensions:
      du1(z) -> dU1/dz with z of shape (...,),
      d2u1(z) -> second derivative, same shape,
      du2(p) -> gradient of U2 with p of shape (..., 2),
      d2u2(p) -> symmetric 2x2 Hessian of U2, shape (..., 2, 2).

    u1, u2 are curvature lower bounds (d2U1 >= u1, d2U2 >= u2 * I), kappa1 and
    kappa2 the Lipschitz constants of the respective Hessians; these are
    supplied by the caller because they depend on the analytic form of the
    potentials, not just on point evaluations.
    """

    du1: Callable[[np.ndarray], np.ndarray]
    d2u1: Callable[[np.ndarray], np.ndarray]
    du2: Callable[[np.ndarray], np.ndarray]
    d2u2: Callable[[np.ndarray], np.ndarray]
    u1: float
    u2: float
    kappa1: float
    kappa2: float
    n_particles: int
    beta: float
    R1: np.ndarray

    def __post_init__(self):
        if self.n_particles < 2:
            raise InvalidArgument("need at least two particles")
        if not (self.beta > 0.0):
            raise InvalidArgument("beta must be positive")
        if self.kappa1 < 0.0 or self.kappa2 < 0.0:
            raise InvalidArgument("Hessian Lipschitz constants must be non-negative")
        object.__setattr__(self, "R1", _check_noise(self.R1, self.n_particles))

    @property
    def dim(self) -> int:
        return self.n_particles

    def _pair_indices(self):
        n = self.n_particles
        return [(i, j) for i in range(n) for j in range(n) if i != j]

    def potential_gradient(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        g = np.asarray(self.du1(x), dtype=float).copy()
        for i, j in self._pair_indices():
            pair = np.stack([x[..., i], x[..., j]], axis=-1)
            gp = np.asarray(self.du2(pair), dtype=float)
            g[..., i] += gp[..., 0]
            g[..., j] += gp[..., 1]
        return g

    def potential_hessian(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        n = self.n_particles
        H = np.zeros(x.shape[:-1] + (n, n))
        diag = np.asarray(self.d2u1(x), dtype=float)
        for k in range(n):
            H[..., k, k] += diag[..., k]
        for i, j in self._pair_indices():
            pair = np.stack([x[..., i], x[..., j]], axis=-1)
            Hp = np.asarray(self.d2u2(pair), dtype=float)
            H[..., i, i] += Hp[..., 0, 0]
            H[..., j, j] += Hp[..., 1, 1]
            H[..., i, j] += Hp[..., 0, 1]
            H[..., j, i] += Hp[..., 1, 0]
        return linalg.symmetrize_stack(H)

    def _curvature_bounds(self):
        n = self.n_particles
        curv = self.u1 + (n - 1) * self.u2
        if curv <= 0.0:
            raise ModelNotContractive("u1 + (n-1) * u2 must be positive")
        lip = self.kappa1 + self.kappa2 * (n - 1) * np.sqrt(2.0 * (n - 1))
        return curv, lip


@dataclass(frozen=True)
class TransformedModel:
    """A base model conjugated by an invertible linear map y = T x.

    drift'(y) = T drift(T^{-1} y).  Regularity constants transport only when
    T is a positive multiple of an orthogonal matrix.
    """

    base: object
    T: np.ndarray
    T_inv: np.ndarray
    R1: np.ndarray

    @property
    def dim(self) -> int:
        return self.T.shape[0]

    def drift(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return linalg.matvec(self.T, self.base.drift(linalg.matvec(self.T_inv, x)))

    def drift_jacobian(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        J = self.base.drift_jacobian(linalg.matvec(self.T_inv, x))
        return self.T @ J @ self.T_inv

    def regularity_constants(self) -> RegularityConstants:
        TTt = self.T @ self.T.T
        d = self.dim
        scale2 = np.trace(TTt) / d
        if scale2 <= 0.0 or np.abs(TTt - scale2 * np.eye(d)).max() > 1e-10 * max(1.0, scale2):
            raise NotReducible(
                "regularity constants transport only for conformal basis changes"
            )
        base_c = self.base.regularity_constants()
        c = float(np.sqrt(scale2))
        return RegularityConstants(jac_decay=base_c.jac_decay, jac_lip=base_c.jac_lip / c)


@dataclass(frozen=True)
class ObservationModel:
    """Linear sensor dY = B X dt + sqrt(R2) dV with derived filter matrices."""

    B: np.ndarray
    R2: np.ndarray
    S: np.ndarray = field(init=False)
    sensor_gain: float = field(init=False)
    R2_sqrt: np.ndarray = field(init=False)
    gain_map: np.ndarray = field(init=False)

    def __post_init__(self):
        B = np.asarray(self.B, dtype=float)
        if B.ndim != 2:
            raise InvalidMatrix("B must be a matrix")
        if not np.all(np.isfinite(B)):
            raise InvalidMatrix("B has non-finite entries")
        R2 = linalg.as_symmetric(self.R2, B.shape[0])
        if linalg.min_eigenvalue(R2) <= 0.0:
            raise NotPD("observation noise covariance must be positive definite")
        w, V = np.linalg.eigh(R2)
        R2_inv = (V / w) @ V.T
        S = linalg.symmetrize_stack(B.T @ R2_inv @ B)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "R2", R2)
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "sensor_gain", linalg.max_eigenvalue(S))
        object.__setattr__(self, "R2_sqrt", linalg.sym_sqrt(R2))
        object.__setattr__(self, "gain_map", B.T @ R2_inv)

    @property
    def obs_dim(self) -> int:
        return self.B.shape[0]

    @property
    def state_dim(self) -> int:
        return self.B.shape[1]


def observation_params(B, R2) -> ObservationModel:
    """Build an ObservationModel, deriving S = B^T R2^{-1} B and its gain."""
    return ObservationModel(B=B, R2=R2)


def lipschitz_empirical_check(
    model, n_pairs: int = 10_000, radius: float = 10.0, seed: int = 0, rtol: float = 1e-6
) -> dict:
    """Sample Jacobian difference quotients and compare with the analytic rate.

    Draws pairs uniformly in the centered ball of the given radius, computes
    |J(x) - J(y)|_2 / |x - y| for each, and checks the max against
    jac_lip * (1 + rtol).  Returns a small report dict.
    """
    if n_pairs < 1:
        raise InvalidArgument("n_pairs must be positive")
    consts = model.regularity_constants()
    d = model.dim
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(77,)))

    def ball(n):
        g = rng.standard_normal((n, d))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        r = radius * rng.random(n) ** (1.0 / d)
        return g * r[:, None]

    x = ball(n_pairs)
    y = ball(n_pairs)
    gap = np.linalg.norm(x - y, axis=1)
    keep = gap > 1e-9
    diff = model.drift_jacobian(x[keep]) - model.drift_jacobian(y[keep])
    ratios = np.linalg.norm(diff, ord=2, axis=(-2, -1)) / gap[keep]
    max_ratio = float(ratios.max(initial=0.0))
    return {
        "max_ratio": max_ratio,
        "bound": consts.jac_lip,
        "n_pairs": int(keep.sum()),
        "passed": bool(max_ratio <= consts.jac_lip * (1.0 + rtol) + 1e-15),
    }
