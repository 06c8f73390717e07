"""Small dense symmetric-matrix kernel used by the filter, model, and bound code.

Everything operates on plain numpy arrays.  The scalar entry points take one
matrix or vector and validate it: as_vector, as_square and as_symmetric return
it as float64, and max_eigenvalue, min_eigenvalue, sym_spectral_abscissa and
sym_sqrt compute from it.  The batched helpers matvec, sumsq, trace_stack,
symmetrize_stack and psd_project_stack accept leading batch dimensions and
are what the trial engine calls in its inner loop.

Conventions:
  * matrices are at most MAX_DIM x MAX_DIM,
  * eigenvalues in [-EIG_ZERO_BAND, 0) are treated as exact zeros,
  * symmetry is accepted up to SYM_TOL (relative, inf-norm) and then enforced
    exactly by averaging with the transpose.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, InvalidMatrix, NotPSD

MAX_DIM = 64
EIG_ZERO_BAND = 1e-10
SYM_TOL = 1e-9


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Validate a 1-d real array and return it as float64."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise InvalidMatrix(f"expected a vector, got ndim={v.ndim}")
    if not np.all(np.isfinite(v)):
        raise InvalidMatrix("vector has non-finite entries")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatch(f"expected length {dim}, got {v.shape[0]}")
    return v


def as_square(M, dim: int | None = None) -> np.ndarray:
    """Validate a square 2-d real array and return it as float64."""
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidMatrix(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise InvalidMatrix("matrix has non-finite entries")
    if A.shape[0] > MAX_DIM:
        raise InvalidArgument(f"dimension {A.shape[0]} exceeds the supported maximum {MAX_DIM}")
    if dim is not None and A.shape[0] != dim:
        raise DimensionMismatch(f"expected {dim}x{dim}, got {A.shape[0]}x{A.shape[1]}")
    return A


def as_symmetric(M, dim: int | None = None) -> np.ndarray:
    """Validate near-symmetry and return the exactly symmetrized matrix.

    Asymmetry beyond SYM_TOL * max(1, |M|_inf) is treated as a bug in the
    caller, not something to silently average away.
    """
    A = as_square(M, dim)
    skew = np.abs(A - A.T).max(initial=0.0)
    scale = max(1.0, np.abs(A).max(initial=0.0))
    if skew > SYM_TOL * scale:
        raise InvalidMatrix(f"matrix is not symmetric: |M - M^T|_inf = {skew:.3e}")
    return 0.5 * (A + A.T)


def max_eigenvalue(M) -> float:
    """Largest eigenvalue of a symmetric matrix."""
    A = as_symmetric(M)
    return float(np.linalg.eigvalsh(A)[-1])


def min_eigenvalue(M) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    A = as_symmetric(M)
    return float(np.linalg.eigvalsh(A)[0])


def sym_spectral_abscissa(M) -> float:
    """Largest eigenvalue of M + M^T for a general square matrix.

    Note the convention: no factor 1/2, so for M = -a*I the result is -2a.
    """
    A = as_square(M)
    return float(np.linalg.eigvalsh(A + A.T)[-1])


def sym_sqrt(M) -> np.ndarray:
    """Symmetric PSD square root.

    Eigenvalues in [-EIG_ZERO_BAND * scale, 0) are flushed to zero; anything
    more negative raises NotPSD.
    """
    A = as_symmetric(M)
    w, V = np.linalg.eigh(A)
    scale = max(1.0, float(np.abs(w).max(initial=0.0)))
    if w[0] < -EIG_ZERO_BAND * scale:
        raise NotPSD(f"matrix has eigenvalue {w[0]:.3e} below the PSD tolerance")
    w = np.clip(w, 0.0, None)
    R = (V * np.sqrt(w)) @ V.T
    return 0.5 * (R + R.T)


# ---------------------------------------------------------------------------
# Batched helpers.  Shapes are (..., d, d); used per step by the trial engine,
# so the common all-PSD case must not pay a LAPACK call for d <= 2.
# ---------------------------------------------------------------------------


def matvec(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M @ x over the last axes, broadcast over the leading ones.

    M has shape (..., n, d) and x (..., d).  The sum over j runs as
    broadcast multiply-adds in ascending j, which no ufunc fuses, so a row
    has the same bits at any batch width and memory layout, unlike x @ M.T,
    whose BLAS kernel may sum one row differently from many.
    """
    if x.shape[-1] == 1:  # x[..., None, 0] is x itself: one product
        return M[..., 0] * x
    out = M[..., 0] * x[..., None, 0]
    for j in range(1, x.shape[-1]):
        out += M[..., j] * x[..., None, j]
    return out


def sumsq(x: np.ndarray) -> np.ndarray:
    """|x|^2 over the last axis, as matvec's ascending sum of x_j * x_j."""
    return matvec(x[..., None, :], x)[..., 0]


def trace_stack(P: np.ndarray) -> np.ndarray:
    """tr P over the last two axes, summed in ascending order (a view of P at d = 1)."""
    return sum((P[..., j, j] for j in range(1, P.shape[-1])), P[..., 0, 0])


def symmetrize_stack(P: np.ndarray) -> np.ndarray:
    return 0.5 * (P + P.swapaxes(-1, -2))


def _min_eig_stack(P: np.ndarray) -> np.ndarray:
    if P.shape[-1] == 2:
        a = P[..., 0, 0]
        c = P[..., 1, 1]
        b = P[..., 0, 1]
        mean = 0.5 * (a + c)
        radius = np.sqrt((0.5 * (a - c)) ** 2 + b * b)
        return mean - radius
    return np.linalg.eigvalsh(P)[..., 0]


def psd_project_stack(P: np.ndarray) -> np.ndarray:
    """Clip the eigenvalues of a stack of symmetric matrices at zero.

    Fast path: detect offenders analytically for d <= 2 (and via eigvalsh
    otherwise) and run the eigendecomposition only on the rows that actually
    need fixing.  Non-finite rows pass through untouched; divergence handling
    is the caller's job.
    """
    P = np.ascontiguousarray(P, dtype=float)
    if P.shape[-1] == 1:
        return np.maximum(P, 0.0)
    flat = P.reshape((-1,) + P.shape[-2:])
    finite = np.all(np.isfinite(flat), axis=(1, 2))
    wmin = np.full(flat.shape[0], np.inf)
    if finite.any():
        wmin[finite] = _min_eig_stack(flat[finite])
    bad = finite & (wmin < 0.0)
    if bad.any():
        out = flat.copy()
        w, V = np.linalg.eigh(flat[bad])
        w = np.clip(w, 0.0, None)
        fixed = np.einsum("nij,nj,nkj->nik", V, w, V)
        out[bad] = 0.5 * (fixed + np.swapaxes(fixed, -1, -2))
        return out.reshape(P.shape)
    return P
