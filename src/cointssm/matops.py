"""Dense matrix kernels shared by the rest of the package.

Everything here is a pure function of its arguments and carries no model
semantics: matrix exponentials, the single-sided exponential integral, a
Bartels-Stewart Lyapunov solver, the blocked linear-recursion scan behind
the filter, every sampler and the error correction residuals, SVD rank
decisions, orthogonal complements,
block-companion polynomial roots and the positive-lower-triangular
orthonormalization used by the canonical form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import (
    DimensionError,
    NumericError,
    RankError,
    StabilityError,
    ValidationError,
)

#: Default relative tolerance (w.r.t. the largest singular value) for every
#: rank decision made in the package; overridable at each call site.
RANK_REL_TOL = 1e-9

#: Real-part threshold below which an eigenvalue counts as strictly stable.
HURWITZ_TOL = 1e-9


def as_matrix(M, name: str = "matrix") -> np.ndarray:
    """Coerce ``M`` to a 2-D float64 array, rejecting NaN/Inf entries."""
    A = np.asarray(M, dtype=float)
    if A.ndim != 2:
        raise DimensionError(f"{name} must be 2-dimensional, got shape {A.shape}")
    if A.size and not np.all(np.isfinite(A)):
        raise ValidationError(f"{name} contains non-finite entries")
    return A


def as_square(M, name: str = "matrix") -> np.ndarray:
    A = as_matrix(M, name)
    if A.shape[0] != A.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {A.shape}")
    return A


def as_vector(v, name: str = "vector") -> np.ndarray:
    x = np.asarray(v, dtype=float).reshape(-1)
    if x.size and not np.all(np.isfinite(x)):
        raise ValidationError(f"{name} contains non-finite entries")
    return x


def check_symmetric(M: np.ndarray, name: str = "matrix", tol: float = 1e-10) -> np.ndarray:
    """Validate symmetry up to ``tol`` (relative) and return the symmetrized matrix."""
    A = as_square(M, name)
    scale = 1.0 + np.linalg.norm(A)
    if np.linalg.norm(A - A.T) > tol * scale:
        raise ValidationError(f"{name} is not symmetric to tolerance {tol}")
    return 0.5 * (A + A.T)


def expm(M) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring Pade) of a square matrix, or
    of each matrix in a stack over the last two axes."""
    A = np.asarray(M, dtype=float)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise DimensionError(
            f"expm input must be square over its last two axes, got shape {A.shape}"
        )
    if A.size and not np.all(np.isfinite(A)):
        raise ValidationError("expm input contains non-finite entries")
    return sla.expm(A)


def cross_integral(A2, G, h: float) -> np.ndarray:
    """Single-sided integral ``int_0^h e^{A2 u} G du``: the top-right block
    of the augmented exponential ``exp([[A2, G], [0, 0]] h)`` (Van Loan
    1978), accurate to working precision for singular ``A2`` and small h
    alike.
    """
    A = as_square(A2, "A2")
    Gm = as_matrix(G, "G")
    if Gm.shape[0] != A.shape[0]:
        raise DimensionError(
            f"G has {Gm.shape[0]} rows, expected {A.shape[0]}"
        )
    if h < 0:
        raise ValidationError(f"integration length h must be >= 0, got {h}")
    n, k = A.shape[0], Gm.shape[1]
    if h == 0 or n == 0 or k == 0:
        return np.zeros((n, k))
    blk = np.zeros((n + k, n + k))
    blk[:n, :n] = A
    blk[:n, n:] = Gm
    phi = sla.expm(blk * h)
    return phi[:n, n:]


def spectral_abscissa(A: np.ndarray) -> float:
    """Largest real part over the spectrum; < 0 iff the matrix is Hurwitz."""
    if A.size == 0:
        return -np.inf
    return float(np.max(np.linalg.eigvals(A).real))


def lyapunov_solve(A2, Q, tol: float = HURWITZ_TOL) -> np.ndarray:
    """Unique solution of ``A2 G + G A2' + Q = 0`` for Hurwitz ``A2``.

    Solved by Bartels-Stewart (Schur decomposition of ``A2``).
    """
    A = as_square(A2, "A2")
    Qs = check_symmetric(Q, "Q")
    if Qs.shape[0] != A.shape[0]:
        raise DimensionError(f"Q has shape {Qs.shape}, expected {A.shape}")
    n = A.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    if spectral_abscissa(A) >= -tol:
        raise StabilityError(
            "A2 is not Hurwitz: an eigenvalue has real part >= "
            f"{-tol} (max Re = {spectral_abscissa(A):.3e})"
        )
    G = sla.solve_continuous_lyapunov(A, -Qs)
    return 0.5 * (G + G.T)


def linear_recursion(F, U, x0) -> np.ndarray:
    """``X[n] = F X[n-1] + U[n]`` for ``n = 0 .. T-1`` with ``X[-1] = x0``.

    Time runs along axis 0 of ``U``, the state along its last axis and any
    batch axes sit in between; ``x0`` broadcasts against ``U[0]``. Two-level
    scan (Blelloch 1990; Martin & Cundy 2018) with block length
    ``B = max(1, isqrt(T))``: every block is first scanned from a zero start
    at once (``B - 1`` batched products), then one pass over the blocks adds
    ``F^{j+1}`` times the previous block's last state to the block's row j.
    The output is the only array of ``U``'s size the scan allocates.
    """
    A = as_square(F, "F")
    X = np.array(U, dtype=float, order="C")
    n = A.shape[0]
    if X.ndim < 2 or X.shape[-1] != n:
        raise DimensionError(f"U must have shape (T, ..., {n}), got {X.shape}")
    batch = math.prod(X.shape[1:-1])
    try:
        carry = np.broadcast_to(np.asarray(x0, dtype=float), X.shape[1:]).reshape(batch, n)
    except ValueError as exc:
        raise DimensionError(f"x0 does not broadcast to the state shape {X.shape[1:]}") from exc
    T = X.shape[0]
    B = max(1, math.isqrt(T))
    for j in range(1, B):
        rows = X[j::B]
        rows += X[j - 1::B][:len(rows)] @ A.T
    powers = [A.T]
    for _ in range(1, B):
        powers.append(powers[-1] @ A.T)
    powers = np.hstack(powers)  # carry @ powers holds (F^{j+1} carry)' in columns j n .. (j+1) n
    for s in range(0, T, B):
        block = X[s:s + B]
        lift = (carry @ powers).reshape(batch, B, n).transpose(1, 0, 2)
        block += lift[:len(block)].reshape(block.shape)
        carry = block[-1].reshape(batch, n)
    return X


@dataclass(frozen=True)
class RankResult:
    """Outcome of an SVD rank decision."""

    rank: int
    singular_values: np.ndarray
    tolerance_used: float


def numerical_rank(M, rel_tol: float = RANK_REL_TOL) -> RankResult:
    """Numerical rank: count of singular values above ``rel_tol * sigma_max``."""
    A = as_matrix(M, "rank input")
    if not (math.isfinite(rel_tol) and rel_tol > 0):
        raise ValidationError(f"rel_tol must be positive and finite, got {rel_tol}")
    if A.size == 0:
        return RankResult(0, np.zeros(0), 0.0)
    s = np.linalg.svd(A, compute_uv=False)
    tol = rel_tol * s[0]
    return RankResult(int(np.sum(s > tol)), s, float(tol))


def orth_complement(M, rel_tol: float = RANK_REL_TOL) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of ``colspace(M)``.

    Requires full column rank ``s < d``; returns a ``d x (d - s)`` matrix
    with orthonormal columns satisfying ``M' M_perp = 0``.
    """
    A = as_matrix(M, "orth_complement input")
    d, s = A.shape
    if s >= d:
        raise RankError(
            f"need fewer columns than rows for a complement, got shape {A.shape}"
        )
    rr = numerical_rank(A, rel_tol)
    if rr.rank != s:
        raise RankError(f"matrix is rank deficient: rank {rr.rank} < {s} columns")
    U = np.linalg.svd(A, full_matrices=True)[0]
    return U[:, s:].copy()


def sort_complex(roots: np.ndarray) -> np.ndarray:
    """Deterministic root ordering: ascending real part, then imaginary part."""
    z = np.asarray(roots, dtype=complex)
    return z[np.lexsort((z.imag, z.real))]


def companion_matrix(coeffs: list[np.ndarray]) -> np.ndarray:
    """Block companion linearization of a monic matrix polynomial.

    ``coeffs`` lists the coefficients of ``z^p .. z^0``; the leading one must
    be the identity. The returned ``pd x pd`` matrix has identity blocks on
    the superdiagonal and ``(-P_p ... -P_1)`` in the last block row, so its
    eigenvalues are the roots of ``det P(z)``.
    """
    mats = [as_square(Ci, f"coefficient {i}") for i, Ci in enumerate(coeffs)]
    if not mats:
        raise ValidationError("coefficient sequence is empty")
    d = mats[0].shape[0]
    for i, Ci in enumerate(mats):
        if Ci.shape != (d, d):
            raise DimensionError(f"coefficient {i} has shape {Ci.shape}, expected ({d}, {d})")
    if np.linalg.norm(mats[0] - np.eye(d)) > 1e-12 * (1.0 + d):
        raise ValidationError("matrix polynomial is not monic (leading coefficient != I)")
    p = len(mats) - 1
    if p == 0:
        return np.zeros((0, 0))
    A = np.zeros((p * d, p * d))
    for k in range(p - 1):
        A[k * d:(k + 1) * d, (k + 1) * d:(k + 2) * d] = np.eye(d)
    for k in range(p):
        # block order: -P_p, -P_{p-1}, ..., -P_1
        A[(p - 1) * d:, k * d:(k + 1) * d] = -mats[p - k]
    return A


def poly_det_roots(coeffs: list[np.ndarray]) -> np.ndarray:
    """All ``p*d`` roots of ``det P(z)`` for a monic matrix polynomial."""
    A = companion_matrix(coeffs)
    if A.shape[0] == 0:
        return np.zeros(0, dtype=complex)
    return sort_complex(np.linalg.eigvals(A))


def first_independent_rows(M: np.ndarray, count: int, rel_tol: float = RANK_REL_TOL) -> list[int]:
    """Indices of the first ``count`` linearly independent rows of ``M``.

    Greedy scan from the top with modified Gram-Schmidt against the rows
    already selected; the acceptance threshold is relative to the largest
    singular value of ``M`` so the selection is invariant under
    right-multiplication by well-conditioned matrices.
    """
    A = as_matrix(M, "row selection input")
    if count == 0:
        return []
    sigma = np.linalg.norm(A, 2)
    thresh = max(rel_tol * sigma, np.finfo(float).tiny)
    basis = np.zeros((0, A.shape[1]))
    picked: list[int] = []
    for i in range(A.shape[0]):
        r = A[i] - basis.T @ (basis @ A[i])
        r -= basis.T @ (basis @ r)
        nr = np.linalg.norm(r)
        if nr > thresh:
            picked.append(i)
            basis = np.vstack([basis, r / nr])
            if len(picked) == count:
                return picked
    raise RankError(
        f"only {len(picked)} linearly independent rows found, needed {count}"
    )


def positive_lower_triangularize(C, rel_tol: float = RANK_REL_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Unique positive-lower-triangular orthonormal basis of ``colspace(C)``.

    Returns ``(C1, T1)`` with ``C1 = C @ inv(T1)``, ``C1' C1 = I`` and the
    first nonzero entry of every column of ``C1`` positive, the pivot rows
    strictly descending the columns (column echelon structure). The output
    depends only on the column space of ``C``, which is what makes the
    canonical form of the unit-root block unique.
    """
    A = as_matrix(C, "C")
    d, c = A.shape
    if c == 0:
        return np.zeros((d, 0)), np.zeros((0, 0))
    if c > d:
        raise RankError(f"need at most as many columns as rows, got shape {A.shape}")
    if numerical_rank(A, rel_tol).rank != c:
        raise RankError(f"C is rank deficient: fewer than {c} independent columns")
    U = np.linalg.svd(A, full_matrices=False)[0]
    rows = first_independent_rows(U, c, rel_tol)
    Upiv = U[rows]
    # LQ with positive diagonal: Upiv = L Qf, L lower triangular
    Qq, Rr = np.linalg.qr(Upiv.T)
    signs = np.sign(np.diag(Rr))
    signs[signs == 0] = 1.0
    C1 = U @ (Qq * signs)
    T1 = C1.T @ A
    return C1, T1


def psd_factor(S: np.ndarray, tol: float = 1e-8, name: str = "matrix") -> np.ndarray:
    """Symmetric factor ``F`` with ``F F' = S`` for a PSD matrix.

    Eigen-based so that exactly singular covariances are handled; raises if
    the smallest eigenvalue is below ``-tol * scale``.
    """
    Ss = check_symmetric(S, name)
    if Ss.shape[0] == 0:
        return Ss.copy()
    w, V = np.linalg.eigh(Ss)
    scale = max(1.0, float(w[-1]))
    if w[0] < -tol * scale:
        raise NumericError(
            f"{name} is not positive semidefinite to tolerance "
            f"(min eigenvalue {w[0]:.3e})"
        )
    return V * np.sqrt(np.clip(w, 0.0, None))
