"""Discrete-time error correction decomposition of the filtered model.

The innovation transfer function k(z) maps observations to innovations; its
value at one has reduced rank equal to the cointegration rank and factors as
-alpha beta' with beta spanning the cointegration space. Splitting k into
the long-run matrix and the infinite-order short-run filter gives the error
correction form dY_n = alpha beta' Y_{n-1} + ktilde(B) dY_n + eps_n.
Both infinite filters are state recursions on the Kalman closed loop, so the
residual reconstructions are exact, whatever the sampling step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matops
from .cointegration import signed_rank_factors
from .errors import (
    CointegrationRankError,
    ConditioningError,
    DimensionError,
    NumericError,
    ValidationError,
)
from .kalman import KalmanSolution
from .model import CointCanonicalForm
from .moments import SampledModel

DEFAULT_TRUNCATION = 200

#: ``whiteness_diagnostic`` needs this many observations per lag.
WHITENESS_ROWS_PER_LAG = 100


@dataclass(frozen=True)
class EcfDecomposition:
    """Long-run matrix, its factorization, the leading filter coefficients
    and what the infinite filters need.

    ``L_coeffs[j]`` is the j-th moving-average coefficient of k (L_0 = I),
    ``Ktilde_coeffs[j]`` the j-th short-run filter coefficient (Ktilde_0 = 0);
    both are stored for j <= truncation, and ``tail_bound`` bounds the size of
    the coefficients beyond it. The residual functions apply the whole
    infinite filters through the Kalman solution ``ks`` and its
    ``settle = (I - closed_loop)^{-1} K``, not the stored coefficients.
    """

    k1: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    r: int
    L_coeffs: np.ndarray
    Ktilde_coeffs: np.ndarray
    truncation: int
    tail_bound: float
    ks: KalmanSolution

    @property
    def d(self) -> int:
        return self.k1.shape[0]


def transfer_eval(ks: KalmanSolution, z: complex) -> np.ndarray:
    """Innovation transfer function ``k(z) = I - C [I - closed_loop z]^{-1} K z``."""
    cl, K, C = ks.closed_loop, ks.gain, ks.c_matrix
    N, d = cl.shape[0], C.shape[0]
    M = np.eye(N) - cl * z
    try:
        resolvent = np.linalg.solve(M, K.astype(complex))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"I - closed_loop z is singular at z={z}: {exc}") from exc
    return np.eye(d) - (C @ resolvent) * z


def k_at_one(ks: KalmanSolution) -> np.ndarray:
    """Long-run matrix ``k(1) = I - C [I - closed_loop]^{-1} K`` (real)."""
    C = ks.c_matrix
    return np.eye(C.shape[0]) - C @ ks.settle


def factor_alpha_beta(k1: np.ndarray, c: int,
                      rel_tol: float = matops.RANK_REL_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Factor ``k(1) = -alpha beta'`` through its rank-r SVD, r = d - c.

    Sign convention as in the cointegration module: each beta column's first
    nonzero entry is positive. Raises when the numerical rank of k(1)
    disagrees with the cointegration structure.
    """
    K1 = matops.as_square(k1, "k1")
    d = K1.shape[0]
    r = d - c
    if r <= 0 or r >= d:
        raise CointegrationRankError(
            f"factorization needs a cointegrated model (0 < d - c < d), got c={c}, d={d}"
        )
    found = matops.numerical_rank(K1, rel_tol).rank
    if found != r:
        raise CointegrationRankError(
            f"numerical rank of k(1) is {found}, expected d - c = {r}"
        )
    alpha, beta = signed_rank_factors(-K1, r)
    return alpha, beta


def ma_and_ktilde_coeffs(ks: KalmanSolution, sm: SampledModel, J: int = DEFAULT_TRUNCATION,
                         rel_tol: float = matops.RANK_REL_TOL) -> EcfDecomposition:
    """Error correction decomposition with the coefficients of lags 0 .. J.

    ``L_j = -C closed_loop^{j-1} K`` for j >= 1 and the short-run weights in
    geometric closed form ``Ktilde_j = -C closed_loop^j (I - closed_loop)^{-1} K``,
    the expansion of ``ktilde(z) = I - (k(z) - k(1) z) / (1 - z)``; the
    infinite tails collapse because the closed loop is Schur stable. The sign
    is pinned by that definition: it makes ``k(z) = k(1) z + (1-z)(I -
    ktilde(z))`` and the residual reconstruction hold, and implies the
    coefficient recursion ``Ktilde_j - Ktilde_{j-1} = -L_j``. ``tail_bound``
    bounds the coefficients past lag J, which are not stored; J limits only
    what is stored and shown, since ``ecf_residuals`` and
    ``innovations_alt_rep`` apply the infinite filters.
    """
    if J < 1:
        raise ValidationError(f"truncation J must be >= 1, got {J}")
    cl, K, C = ks.closed_loop, ks.gain, ks.c_matrix
    N, d = cl.shape[0], C.shape[0]
    c = sm.c
    k1 = k_at_one(ks)
    alpha, beta = factor_alpha_beta(k1, c, rel_tol)

    # row j of path i is column i of cl^j [K, cl settle]: one scan of batch 2d
    paths = np.zeros((2 * d, J, N))
    steps = paths.transpose(1, 0, 2)
    steps[0] = np.hstack([K, cl @ ks.settle]).T
    matops.linear_recursion(cl, steps, 0.0)
    lags = -C @ paths.transpose(1, 2, 0)  # (J, d, 2d): [L_j, Ktilde_j] for j = 1 .. J
    L = np.concatenate([np.eye(d)[None], lags[:, :, :d]])
    Kt = np.concatenate([np.zeros((1, d, d)), lags[:, :, d:]])
    tail = float(np.linalg.norm(C) * ks.spectral_radius**J * np.linalg.norm(ks.settle))
    return EcfDecomposition(
        k1=k1, alpha=alpha, beta=beta, r=d - c,
        L_coeffs=L, Ktilde_coeffs=Kt, truncation=J, tail_bound=tail,
        ks=ks,
    )


def _first_row(dec: EcfDecomposition, J: int | None) -> int:
    """The residual row offset J: the stored truncation by default, else any
    J >= 0."""
    if J is None:
        return dec.truncation
    if J < 0:
        raise ValidationError(f"first-row offset J must be >= 0, got {J}")
    return J


def ecf_residuals(dec: EcfDecomposition, y: np.ndarray, J: int | None = None) -> np.ndarray:
    """Innovation estimates reconstructed from the error correction form.

    ``eps_n = dY_n - alpha beta' Y_{n-1} - sum_{j>=1} Ktilde_j dY_{n-j}`` with
    the whole infinite short-run sum: it equals ``-C w_n`` for
    ``w_n = closed_loop (w_{n-1} + S dY_{n-1})``, ``S = (I - closed_loop)^{-1} K``,
    so ``w_n = closed_loop q_{n-1}`` for the ``matops.linear_recursion`` scan
    ``q_n = closed_loop q_{n-1} + S dY_n``. The pre-sample is zero
    (``Y_{-1} = 0``), as in ``kalman.filter_innovations``, whose innovations
    these are. Rows n = J+1 .. n_obs-1 (0-based) are returned, J defaulting
    to the stored truncation, so the output shape follows J alone.
    """
    Y = matops.as_matrix(y, "observations")
    J = _first_row(dec, J)
    T, d = Y.shape
    if d != dec.d:
        raise DimensionError(f"path has d={d}, decomposition has d={dec.d}")
    if T < J + 2:
        raise ValidationError(f"path of length {T} is shorter than J + 2 = {J + 2}")
    cl, C = dec.ks.closed_loop, dec.ks.c_matrix
    dY = np.empty(Y.shape)
    dY[0] = Y[0]
    np.subtract(Y[1:], Y[:-1], out=dY[1:])
    U = dY @ dec.ks.settle.T  # S dY_n
    del dY
    q = matops.linear_recursion(cl, U, 0.0)
    out = q[J:-1] @ (C @ cl).T  # C w_n = -sum_j Ktilde_j dY_{n-j}
    del q, U
    out -= Y[J:-1] @ (np.eye(d) + dec.alpha @ dec.beta.T).T
    out += Y[J + 1:]
    return out


@dataclass(frozen=True)
class StructuralCheckReport:
    projector: np.ndarray
    idempotency_defect: float
    projector_rank: int
    k1_reconstruction_error: float
    ok: bool


def structural_check(ks: KalmanSolution, sm: SampledModel, cf: CointCanonicalForm,
                     rel_tol: float = matops.RANK_REL_TOL) -> StructuralCheckReport:
    """Verify the structural identities behind the rank law of k(1).

    With the gain partitioned along the unit-root split,
    ``P = I - C1 (K1 C1)^{-1} K1`` must be idempotent of rank d - c and
    ``k(1) = P (I + P R P)^{-1}`` for ``R = C2 (I - e^{A2 h})^{-1} K2``.
    """
    c = cf.c
    d = cf.d
    K1 = ks.gain[:c, :]
    K2 = ks.gain[c:, :]
    C1, C2 = np.asarray(cf.C1), np.asarray(cf.C2)
    core = K1 @ C1
    if c > 0 and matops.numerical_rank(core, rel_tol).rank < c:
        raise ConditioningError("K1 C1 is singular; structural identities unavailable")
    P = np.eye(d) - (C1 @ np.linalg.solve(core, K1) if c else np.zeros((d, d)))
    idem = float(np.linalg.norm(P @ P - P))
    rank_p = matops.numerical_rank(P, rel_tol).rank

    n2 = cf.n2
    R = C2 @ np.linalg.solve(np.eye(n2) - sm.eA2h, K2) if n2 else np.zeros((d, d))
    PRP = P @ R @ P
    k1_rebuilt = P @ np.linalg.inv(np.eye(d) + PRP)
    err = float(np.linalg.norm(k1_rebuilt - k_at_one(ks)))
    ok = idem <= matops.IDEMPOTENCY_TOL and rank_p == d - c and err <= matops.K1_REBUILD_TOL
    return StructuralCheckReport(
        projector=P,
        idempotency_defect=idem,
        projector_rank=rank_p,
        k1_reconstruction_error=err,
        ok=ok,
    )


def innovations_alt_rep(dec: EcfDecomposition, ps, J: int | None = None) -> np.ndarray:
    """Innovations via the split representation
    ``eps_n = k(B) y2_n + (I - ktilde)(B) C1 r1_n``.

    Both infinite filters are recursions on the closed loop:
    ``eps_n = y2_n + C1 r1_n - C z_n`` with
    ``z_n = closed_loop z_{n-1} + K y2_{n-1} - closed_loop S C1 r1_{n-1}``
    (one ``matops.linear_recursion`` scan, zero pre-sample,
    ``S = (I - closed_loop)^{-1} K``). Rows n = J .. n_steps-1 (0-based) are
    returned, J defaulting to the stored truncation. Reads the path's
    ``y2``, ``r1`` and ``c1``; a `PathSet` regenerates the first two when
    they are first read.
    """
    J = _first_row(dec, J)
    y2 = getattr(ps, "y2", None)
    r1 = getattr(ps, "r1", None)
    if y2 is None or r1 is None:
        raise ValidationError("PathSet lacks the y2/r1 components the representation needs")
    y2 = matops.as_matrix(y2, "y2")
    r1 = matops.as_matrix(r1, "r1")
    T = y2.shape[0]
    if r1.shape[0] != T:
        raise DimensionError(f"r1 has {r1.shape[0]} rows, y2 has {T}")
    if T <= J:
        raise ValidationError(f"path of length {T} is too short for J={J}")
    cl, K, C = dec.ks.closed_loop, dec.ks.gain, dec.ks.c_matrix
    C1 = np.asarray(ps.c1)
    U = np.zeros((T, cl.shape[0]))
    np.matmul(np.hstack([y2[:-1], r1[:-1]]), np.vstack([K.T, -(cl @ dec.ks.settle @ C1).T]),
              out=U[1:])
    z = matops.linear_recursion(cl, U, 0.0)
    out = z[J:] @ -C.T
    del z, U
    out += r1[J:] @ C1.T
    out += y2[J:]
    return out


@dataclass(frozen=True)
class WhitenessReport:
    n_obs: int
    max_lag: int
    band: float
    autocorrelations: np.ndarray
    max_abs: float
    degenerate: bool
    passed: bool


def whiteness_diagnostic(eps: np.ndarray, max_lag: int = 10) -> WhitenessReport:
    """Entrywise sample autocorrelations of an innovation sequence with the
    plus/minus 3/sqrt(n) whiteness band.

    Every autocovariance ``c_k = (1/n) sum_s e_{s+k} e_s'`` (k = 0 ..
    max_lag, e centered) comes from two Gram products. With m = max_lag + 1,
    the centered rows fill a zero-padded buffer of ceil(n/m) m rows, viewed
    as X with one chunk of m rows per row; lag k sums the (i, j) blocks of
    ``X'X`` with i - j = k (pairs within a chunk) and of ``X[1:]'X[:-1]``
    with i + m - j = k (pairs across a chunk boundary). The zero tail adds
    nothing, so the partial last chunk needs no separate term. A column is
    degenerate when its standard deviation is within the rounding error of
    its own mean, ``sd_j <= n eps rms_j`` with ``rms_j`` the column's root
    mean square: the rule does not depend on the units.
    """
    E = matops.as_matrix(eps, "innovations")
    n, d = E.shape
    if max_lag < 1:
        raise ValidationError(f"max_lag must be >= 1, got {max_lag}")
    if n < WHITENESS_ROWS_PER_LAG * max_lag:
        raise ValidationError(
            f"need at least {WHITENESS_ROWS_PER_LAG} * max_lag = "
            f"{WHITENESS_ROWS_PER_LAG * max_lag} observations, got {n}"
        )
    band = 3.0 / np.sqrt(n)
    m = max_lag + 1
    chunks = -(-n // m)
    buf = np.zeros((chunks * m, d))
    mean = np.ones(n) @ E / n
    np.subtract(E, mean, out=buf[:n])
    X = buf.reshape(chunks, m * d)
    # block (i, i + m - k) of [X[1:]'X[:-1], X'X] holds lag k for every i
    grams = np.hstack([X[1:].T @ X[:-1], X.T @ X]).reshape(m, d, 2 * m, d)
    i = np.arange(m)
    cov = grams[i, :, i + m - i[:, None], :].sum(axis=1) / n
    sd = np.sqrt(np.diag(cov[0]))
    degenerate = bool(np.any(sd <= n * np.finfo(float).eps * np.sqrt(mean**2 + sd**2)))
    if degenerate:
        acf, max_abs = np.zeros((max_lag, d, d)), float("nan")
    else:
        acf = cov[1:] / np.outer(sd, sd)
        max_abs = float(np.max(np.abs(acf)))
    passed = bool(not degenerate and max_abs <= band)
    return WhitenessReport(
        n_obs=n, max_lag=max_lag, band=float(band),
        autocorrelations=acf, max_abs=max_abs,
        degenerate=degenerate, passed=passed,
    )
