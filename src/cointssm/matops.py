"""Dense matrix kernels shared by the rest of the package.

Everything here carries no model semantics and, apart from
`linear_recursion`, which scans its input in place, is a pure function of
its arguments: matrix exponentials and their action on many vectors at
many times, a Bartels-Stewart Lyapunov solver, the ends-first blocked scan
of the linear recursion ``x_n = F x_{n-1} + u_n`` behind the filter, the
sampler and the error correction residuals and coefficients, SVD rank
decisions (among them the unit-root count of a state matrix and its
unit roots),
block-companion polynomial roots and the
positive-lower-triangular orthonormalization used by the canonical form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import (
    CointegrationRankError,
    DimensionError,
    MultiplicityError,
    NumericError,
    RankError,
    StabilityError,
    ValidationError,
)

# Tolerance table: every numerical threshold of the package and what it is relative to
# (Frobenius norms). Only RANK_REL_TOL can be replaced, per call, as ``rel_tol`` (the
# CLI's ``--rank-tol``); model construction always validates against the table.
RANK_REL_TOL = 1e-9       #: rank: a singular value counts when > tol sigma_max; unit-root
                          #: count c = N - rank(A) (`unit_roots`)
HURWITZ_TOL = 1e-9        #: stable: Re < -tol (absolute), for every eigenvalue of A2 and, in
                          #: `unit_roots`, of A (or root of det P) but its c unit roots
ZERO_EIG_REL_TOL = 1e-8   #: unit roots of A: at least c eigenvalues have |eig| < t = tol (1 +
                          #: ||A||), exactly c when semisimple, and then their Schur block
                          #: has norm <= t max(1, ||A||)
C1_ORTHO_TOL = 1e-10      #: canonical C1: ||C1 - P|| <= tol (1 + c), P its orthonormal positive
                          #: lower triangular basis (`positive_lower_triangularize`)
RESIDUAL_TOL = 1e-10      #: Riccati: ||Omega - Ric(Omega)|| <= tol (1 + ||Omega||)
IDEMPOTENCY_TOL = 1e-10   #: `structural_check`: ||P P - P|| <= tol (absolute)
K1_REBUILD_TOL = 1e-8     #: `structural_check`: ||k(1) - P (I + P R P)^-1|| <= tol (absolute)
COV_TOL = 1e-10           #: symmetric covariance: ||S - S'|| <= tol (1 + ||S||); `LevySpec`
LEVY_SPLIT_TOL = 1e-8     #: Brownian part of a jump driver: norm (pure jumps) or -min eigenvalue
                          #: <= tol (1 + ||sigma_L||); `LevySpec` sets the negative ones to 0
PSD_TOL = 1e-8            #: `psd_factor`: min eigenvalue >= -tol max(1, max eigenvalue)
SIGN_PIVOT_TOL = 1e-12    #: column signs: the first |x| > tol (1 + sigma_max) is made positive
MONIC_TOL = 1e-12         #: monic polynomial: ||P_0 - I|| <= tol (1 + d)
GRID_TOL = 1e-9           #: uniform path grid: |t_{n+1} - t_n - h| <= tol max(1, h)


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


def pow2_scaled(A: np.ndarray) -> tuple[np.ndarray, float]:
    """``(A / 2^e, 2^-e)``, with ``2^e`` the power of two just above
    ``max|A|`` when that exceeds 1 (``e = 0`` otherwise). A test
    ``f(A) <= tol (1 + ||A||)`` with ``f`` homogeneous, evaluated as
    ``f(A / 2^e) <= tol (2^-e + ||A / 2^e||)``, has no norm that overflows
    and ``2^-e`` stays at most 1; since the scaling is exact, the decision
    is the unscaled one wherever that one's norms are finite."""
    e = max(0, int(np.frexp(np.max(np.abs(A), initial=0.0))[1]))
    return np.ldexp(A, -e), math.ldexp(1.0, -e)


def is_symmetric(A: np.ndarray) -> bool:
    """``||A - A'|| <= COV_TOL (1 + ||A||)`` for a square matrix, evaluated on
    the scaled matrix of `pow2_scaled`."""
    As, s = pow2_scaled(A)
    return bool(np.linalg.norm(As - As.T) <= COV_TOL * (s + np.linalg.norm(As)))


def check_symmetric(M: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate symmetry (`is_symmetric`) and return the symmetrized matrix."""
    A = as_square(M, name)
    if not is_symmetric(A):
        raise ValidationError(f"{name} is not symmetric to tolerance {COV_TOL}")
    return 0.5 * (A + A.T)


def expm(M) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring Pade) of a square matrix."""
    return sla.expm(as_square(M, "expm input"))


#: Degree of the Taylor polynomials in `expm_action`: for ``||M||_1 <= 1/2``
#: the remainder of ``e^M``, about 0.5^15/15!, is below the unit roundoff 2^-53.
TAYLOR_DEGREE = 14


def _expm1_taylor(M: np.ndarray) -> np.ndarray:
    """``e^M - I`` for ``||M||_1 <= 1/2``, by Horner, without forming ``e^M``."""
    eye = np.eye(M.shape[0])
    X = eye + M / TAYLOR_DEGREE
    for j in range(TAYLOR_DEGREE - 1, 1, -1):
        X = eye + (M / j) @ X
    return M @ X


def expm_action(A, horizon: float, times, V) -> np.ndarray:
    """Rows ``e^{A times[j]} V[j]`` for times in ``[0, horizon]``, with no
    exponential per row (the action of the exponential; Al-Mohy and Higham
    2011, SIAM J. Sci. Comput. 33(2)).

    Each time is ``i delta + r`` with ``delta = horizon / 2^s``, ``s`` the
    least with ``||A delta||_1 < 1/2``, and ``0 <= r < delta``. The Taylor
    polynomial of ``e^{A r}`` of degree ``TAYLOR_DEGREE`` is applied to every
    row by Horner, one ``(k, n)`` product per degree. Then ``e^{A i delta}``
    is applied one bit of ``i`` at a time: each row whose bit ``b`` is set
    gains ``D_b`` times itself, where ``D_b = e^{A delta 2^b} - I`` comes
    from `_expm1_taylor` and doubling. Held as differences from ``I``, a
    mode of ``e^{A delta}`` near 1 keeps its relative accuracy over any
    number of doublings, however stiff ``A``.
    """
    A = as_square(A, "A")
    Vm = as_matrix(V, "V")
    t = as_vector(times, "times")
    if Vm.shape != (t.size, A.shape[0]):
        raise DimensionError(f"V has shape {Vm.shape}, expected ({t.size}, {A.shape[0]})")
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValidationError(f"horizon must be finite and > 0, got {horizon}")
    if t.size and not (t.min() >= 0 and t.max() <= horizon):
        raise ValidationError(f"times must lie in [0, {horizon}]")
    s = max(0, math.frexp(2.0 * float(np.abs(A).sum(axis=0).max(initial=0.0)) * horizon)[1])
    if s > 62:
        raise NumericError(f"||A||_1 horizon is too large for a 64-bit time index (2^{s} steps)")
    delta = math.ldexp(horizon, -s)
    i = np.minimum((t / delta).astype(np.int64), (1 << s) - 1)
    r = (t - i * delta)[:, None]
    At = np.ascontiguousarray(A.T)  # numpy multiplies by the strided A.T about 3x slower
    out, step = Vm.copy(), np.empty_like(Vm)
    for j in range(TAYLOR_DEGREE, 0, -1):  # V + (r A / j) out
        np.matmul(out, At, out=step)
        step *= r / j
        np.add(step, Vm, out=out)
    del r
    Dt = np.ascontiguousarray(_expm1_taylor(A * delta).T)  # (e^{A delta 2^bit} - I)'
    bit_set = np.empty((t.size, 1))
    for bit in range(s):
        if bit:
            Dt = Dt @ Dt + 2.0 * Dt  # e^{2x} - 1 = (e^x - 1)^2 + 2 (e^x - 1)
        np.matmul(out, Dt, out=step)
        np.bitwise_and(i[:, None], 1, out=bit_set)  # 1.0 where the bit is set, else 0.0
        i >>= 1
        step *= bit_set
        out += step
    return out


def spectral_abscissa(A: np.ndarray) -> float:
    """Largest real part over the spectrum; < 0 iff the matrix is Hurwitz."""
    if A.size == 0:
        return -np.inf
    return float(np.max(np.linalg.eigvals(A).real))


def lyapunov_solve(A2, Q) -> np.ndarray:
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
    if spectral_abscissa(A) >= -HURWITZ_TOL:
        raise StabilityError(
            "A2 is not Hurwitz: an eigenvalue has real part >= "
            f"{-HURWITZ_TOL} (max Re = {spectral_abscissa(A):.3e})"
        )
    G = sla.solve_continuous_lyapunov(A, -Qs)
    return 0.5 * (G + G.T)


#: Block length of the ends-first scan in `linear_recursion`.
SCAN_BLOCK = 16


def _block_powers(A: np.ndarray) -> np.ndarray:
    """``A^0 .. A^SCAN_BLOCK`` stacked along axis 0, by doubling."""
    P = np.empty((SCAN_BLOCK + 1, *A.shape))
    P[0] = np.eye(A.shape[0])
    P[1] = A
    k = 1
    while k < SCAN_BLOCK:
        m = min(k, SCAN_BLOCK - k)
        np.matmul(P[1:m + 1], P[k], out=P[k + 1:k + m + 1])
        k += m
    return P


def _scan(A: np.ndarray, X: np.ndarray, carry: np.ndarray) -> None:
    """Ends-first scan of ``X`` (paths, T, n) in place, path p starting from
    ``carry[p]``; see `linear_recursion`."""
    paths, T, n = X.shape
    b = SCAN_BLOCK
    nb = T // b
    prev = carry[:, None]
    if nb:
        P = _block_powers(A)
        # each block's end from a zero start, sum_j A^{b-1-j} u_j, in one product
        W = P[b - 1::-1].transpose(0, 2, 1).reshape(b * n, n)
        ends = X[:, :nb * b].reshape(paths, nb, b * n) @ W
        _scan(P[b], ends, carry)  # true ends: e_s = A^b e_{s-1} + ends_s
        X[:, b - 1::b] = ends
        prev = np.concatenate((prev, ends), axis=1)  # the state before every block
    At = np.ascontiguousarray(A.T)
    for j in range(min(b - 1, T)):
        rows = X[:, j::b]  # row j of every block, the partial last one included
        rows += prev[:, :rows.shape[1]] @ At
        prev = rows


def linear_recursion(F, U, x0) -> np.ndarray:
    """``X[n] = F X[n-1] + U[n]`` for ``n = 0 .. T-1`` with ``X[-1] = x0``,
    written over ``U``, which is returned.

    ``U`` is a float64 array with time along axis 0, the state along its
    last axis and any batch axes in between; those must flatten into one
    without a copy (one batch axis, or none, always does). ``x0``
    broadcasts against ``U[0]``. A caller that needs its input kept passes
    a copy.

    Ends-first blocked scan (reduce, then scan; Blelloch 1990) with the
    block length ``SCAN_BLOCK`` = b, on a path-major view (paths, T, n) of
    ``U``. One product ``blocks.reshape(rows, b n) @ [F^{b-1}; ..; F; I]'``
    gives the end of every block from a zero start; the true block ends obey
    ``e_s = F^b e_{s-1} + end_s``, the same recursion, which the scan solves
    by calling itself (depth ``ceil(log_b T)``); one pass over the rows
    ``j = 0 .. b-2`` of every block then starts each block from the true end
    of the one before. Every step is one product or sum over all blocks of
    all paths at once. Beyond ``U``, the scan allocates O(T/b) rows per path.
    """
    A = as_square(F, "F")
    n = A.shape[0]
    if not isinstance(U, np.ndarray) or U.dtype != np.float64:
        raise DimensionError(f"U must be a float64 array, got {getattr(U, 'dtype', type(U))}")
    if U.ndim < 2 or U.shape[-1] != n:
        raise DimensionError(f"U must have shape (T, ..., {n}), got {U.shape}")
    T, paths = U.shape[0], math.prod(U.shape[1:-1])
    carry = np.zeros(U.shape[1:])
    try:
        carry += np.asarray(x0, dtype=float)
    except ValueError as exc:
        raise DimensionError(f"x0 does not broadcast to the state shape {U.shape[1:]}") from exc
    X = U.reshape(T, paths, n)
    if U.size and not np.may_share_memory(X, U):
        raise DimensionError(f"the batch axes of U {U.shape} do not flatten without a copy")
    _scan(A, X.transpose(1, 0, 2), carry.reshape(paths, n))
    return U


@dataclass(frozen=True)
class RankResult:
    """Outcome of an SVD rank decision."""

    rank: int
    singular_values: np.ndarray
    tolerance_used: float


def _rank_of(s: np.ndarray, rel_tol: float) -> RankResult:
    """The rank rule on descending singular values ``s``: the count above ``rel_tol * s[0]``."""
    if not (math.isfinite(rel_tol) and rel_tol > 0):
        raise ValidationError(f"rel_tol must be positive and finite, got {rel_tol}")
    tol = rel_tol * s[0] if s.size else 0.0
    return RankResult(int(np.sum(s > tol)), s, float(tol))


def numerical_rank(M, rel_tol: float = RANK_REL_TOL) -> RankResult:
    """Numerical rank: count of singular values above ``rel_tol * sigma_max``."""
    A = as_matrix(M, "rank input")
    return _rank_of(np.linalg.svd(A, compute_uv=False) if A.size else np.zeros(0), rel_tol)


@dataclass(frozen=True)
class UnitRoots:
    """The unit-root count ``c = N - rank(A)`` of a state matrix, with how
    far its deciding singular values sit from the tolerance (``margin_kept =
    sigma_{N-c} / tol``, > 1 and inf when c = N; ``margin_dropped = tol /
    sigma_{N-c+1}``, >= 1 and inf when c = 0 or that value is exactly 0),
    and its eigenvalues in `sort_complex` order with the mask ``is_unit`` of
    those below ``tolerance`` in modulus: at least c of them, and exactly c
    when they are its unit roots."""

    c: int
    margin_kept: float
    margin_dropped: float
    eigenvalues: np.ndarray
    is_unit: np.ndarray
    tolerance: float

    @property
    def unstable(self) -> np.ndarray:
        """The eigenvalues that are neither below the tolerance nor stable."""
        z = self.eigenvalues
        return z[~self.is_unit & (z.real >= -HURWITZ_TOL)]

    def check_semisimple(self) -> None:
        """Raise `MultiplicityError` unless exactly c eigenvalues are below
        the tolerance: more is a zero eigenvalue that is not semisimple, or
        a nonzero one too small to tell from zero at the rank tolerance."""
        k = int(np.sum(self.is_unit))
        if k != self.c:
            raise MultiplicityError(
                f"A has {k} eigenvalues of modulus below {self.tolerance:.3e} but rank "
                f"deficiency c={self.c}: they are not a semisimple zero eigenvalue, or one is "
                "too small to tell from zero at this rank tolerance"
            )


def unit_roots(A, rel_tol: float = RANK_REL_TOL) -> UnitRoots:
    """The unit roots of ``A``: ``c = N`` minus its `numerical_rank` at
    ``rel_tol * sigma_max(A)``, among its eigenvalues of modulus below ``t =
    ZERO_EIG_REL_TOL (1 + ||A||)``. For the block companion matrix of an
    MCARMA model c is ``d - rank P_p`` in exact arithmetic, at the
    companion's scale. Fewer than c eigenvalues below t is a rank
    deficiency that is not a unit root, as in a stable but badly
    conditioned ``A``, and raises `CointegrationRankError`; more is left to
    `UnitRoots.check_semisimple`."""
    A = as_square(A, "A")
    res = numerical_rank(A, rel_tol)
    s, tol, r = res.singular_values, res.tolerance_used, res.rank
    c = s.size - r
    kept = s[r - 1] / tol if r else math.inf
    dropped = tol / s[r] if c and s[r] else math.inf
    eigs = sort_complex(np.linalg.eigvals(A))
    t = ZERO_EIG_REL_TOL * (1.0 + np.linalg.norm(A))
    is_unit = np.abs(eigs) < t
    if np.sum(is_unit) < c:
        raise CointegrationRankError(
            f"A has rank deficiency c={c} at rel_tol={rel_tol:g} but only {np.sum(is_unit)} "
            f"eigenvalues of modulus below {t:.3e}: the deficiency is not a unit root (A is "
            "too badly conditioned to decide c at this tolerance)"
        )
    return UnitRoots(c, float(kept), float(dropped), eigs, is_unit, float(t))


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
    if np.linalg.norm(mats[0] - np.eye(d)) > MONIC_TOL * (1.0 + d):
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
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    if _rank_of(s, rel_tol).rank != c:
        raise RankError(f"C is rank deficient: fewer than {c} independent columns")
    rows = first_independent_rows(U, c, rel_tol)
    Upiv = U[rows]
    # LQ with positive diagonal: Upiv = L Qf, L lower triangular
    Qq, Rr = np.linalg.qr(Upiv.T)
    signs = np.sign(np.diag(Rr))
    signs[signs == 0] = 1.0
    C1 = U @ (Qq * signs)
    T1 = C1.T @ A
    return C1, T1


def psd_factor(S: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Symmetric factor ``F`` with ``F F' = S`` for a PSD matrix.

    Eigen-based so that exactly singular covariances are handled; raises if
    the smallest eigenvalue is below ``-PSD_TOL max(1, largest eigenvalue)``.
    """
    Ss = check_symmetric(S, name)
    if Ss.shape[0] == 0:
        return Ss.copy()
    w, V = np.linalg.eigh(Ss)
    scale = max(1.0, float(w[-1]))
    if w[0] < -PSD_TOL * scale:
        raise NumericError(
            f"{name} is not positive semidefinite to tolerance "
            f"(min eigenvalue {w[0]:.3e})"
        )
    return V * np.sqrt(np.clip(w, 0.0, None))
