"""Cointegration characterization for MCARMA models.

Three conditions on the autoregressive polynomial decide whether the process
is cointegrated: (a) all determinant roots are stable or zero, (b) P_p has
reduced rank 0 < r < d with factorization alpha beta', (c) the transversality
matrix alpha_perp' P_{p-1} beta_perp has full rank d - r. The zero roots,
and their number c with r = d - c, are `matops.unit_roots` of the block
companion matrix: the decision `canonicalize` makes on the same matrix of
the companion realization, with the same stability threshold for the other
roots. Also houses the continuous-time error-correction polynomial and the
two integrated-MCARMA constructions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matops
from .errors import CointegrationRankError, ValidationError
from .model import CointCanonicalForm, McarmaModel


@dataclass(frozen=True)
class CointReport:
    condition_a: bool
    offending_roots: np.ndarray
    condition_b: bool
    r: int
    alpha: np.ndarray | None
    beta: np.ndarray | None
    condition_c: bool
    transversality_rank: int
    is_cointegrated: bool
    roots: np.ndarray
    unit_roots: matops.UnitRoots


def signed_rank_factors(M: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Rank-r SVD factorization ``M = alpha beta'`` with the singular values
    absorbed into alpha and each beta column's first nonzero entry positive.
    """
    return _signed_factors(*np.linalg.svd(M), r)


def _signed_factors(U: np.ndarray, s: np.ndarray, Vt: np.ndarray,
                    r: int) -> tuple[np.ndarray, np.ndarray]:
    """`signed_rank_factors` from the SVD ``U diag(s) Vt`` of the matrix."""
    alpha = U[:, :r] * s[:r]
    beta = Vt[:r].T.copy()
    tol = matops.SIGN_PIVOT_TOL * (1.0 + (s[0] if s.size else 0.0))
    for j in range(r):
        nz = np.nonzero(np.abs(beta[:, j]) > tol)[0]
        if nz.size and beta[nz[0], j] < 0:
            beta[:, j] = -beta[:, j]
            alpha[:, j] = -alpha[:, j]
    return alpha, beta


def check_cointegration(m: McarmaModel, rel_tol: float = matops.RANK_REL_TOL) -> CointReport:
    """Evaluate the three cointegration conditions on an MCARMA model.

    The zero roots of det P and their number c are `matops.unit_roots` of
    the companion matrix at ``rel_tol``; (a) needs every other root stable
    and (b) takes ``r = d - c``. The conditions are computed independently
    and reported even when an earlier one fails. Rank 0 (integrated only)
    and rank d (stationary) are flagged as not cointegrated. Three counts
    cannot be reported: fewer than c roots below the zero tolerance, and
    c > d, where the tolerance swamps the companion's identity blocks as
    under a huge P_p (`CointegrationRankError`); and more than c roots below
    it while (c) holds, which in exact arithmetic means exactly c zero roots
    (`MultiplicityError`).
    """
    d, p = m.d, m.p
    Pp = np.asarray(m.p_coeffs[-1])
    Pp1 = np.asarray(m.p_coeffs[-2]) if p >= 2 else np.eye(d)
    ur = matops.unit_roots(matops.companion_matrix(m.ar_poly()), rel_tol)
    if ur.c > d:
        raise CointegrationRankError(
            f"det P has c={ur.c} zero roots at rel_tol={rel_tol:g}, more than d={d}: "
            "the companion matrix is too badly scaled to decide c at this tolerance"
        )
    offending = ur.unstable
    cond_a = offending.size == 0

    r = d - ur.c
    cond_b = 0 < r < d
    U, s, Vt = np.linalg.svd(Pp)
    alpha = beta = None
    if cond_b:
        alpha, beta = _signed_factors(U, s, Vt, r)
    # alpha_perp and beta_perp are the trailing singular vectors of P_p: empty
    # at r = d, where (c) holds vacuously, and all of R^d at r = 0
    trans_rank = matops.numerical_rank(U[:, r:].T @ Pp1 @ Vt[r:].T, rel_tol).rank
    cond_c = trans_rank == d - r
    if cond_c:  # (c) holds iff det P has exactly d - r zero roots, none more
        ur.check_semisimple()

    return CointReport(
        condition_a=cond_a,
        offending_roots=offending,
        condition_b=cond_b,
        r=r,
        alpha=alpha,
        beta=beta,
        condition_c=cond_c,
        transversality_rank=trans_rank,
        is_cointegrated=bool(cond_a and cond_b and cond_c),
        roots=ur.eigenvalues,
        unit_roots=ur,
    )


def pstar_polynomial(m: McarmaModel) -> list[np.ndarray]:
    """Coefficients of ``P*(z) = (P(z) - P_p) / z`` for ``z^{p-1} .. z^0``."""
    return [np.eye(m.d)] + [np.array(Pi) for Pi in m.p_coeffs[:-1]]


def cointegration_space(cf: CointCanonicalForm) -> np.ndarray:
    """Orthonormal basis of the cointegration space, spanned by C1_perp: the
    trailing left singular vectors of C1, whose c columns are orthonormal."""
    if cf.c == 0 or cf.c >= cf.d:
        raise ValidationError(
            f"model with c={cf.c}, d={cf.d} is not cointegrated; no cointegration space"
        )
    return np.linalg.svd(np.asarray(cf.C1))[0][:, cf.c:].copy()


def integrate_by_integration(m: McarmaModel) -> McarmaModel:
    """Integrated process of a stationary MCARMA model: AR polynomial
    ``z P(z)`` (order p+1, new lowest coefficient zero), MA unchanged.
    The result is integrated but not cointegrated since its P_{p+1} = 0.
    """
    roots = matops.poly_det_roots(m.ar_poly())
    if roots.size and np.max(roots.real) >= -matops.HURWITZ_TOL:
        raise ValidationError(
            "input model is not stationary; all det P roots must have Re < 0"
        )
    d = m.d
    new_p = tuple(np.array(Pi) for Pi in m.p_coeffs) + (np.zeros((d, d)),)
    return McarmaModel(p_coeffs=new_p, q_coeffs=m.q_coeffs, levy=m.levy)


def integrate_by_ma_lift(m: McarmaModel) -> McarmaModel:
    """Lift the MA polynomial to ``z Q(z)`` (order q+1); requires p > q + 1
    so the differenced process stays a valid MCARMA model.
    """
    if m.p <= m.q + 1:
        raise ValidationError(
            f"need p > q + 1 for the MA lift, got p={m.p}, q={m.q}"
        )
    new_q = tuple(np.array(Qi) for Qi in m.q_coeffs) + (np.zeros((m.d, m.m)),)
    return McarmaModel(p_coeffs=m.p_coeffs, q_coeffs=new_q, levy=m.levy)
