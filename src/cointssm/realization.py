"""Realization structure theory: observability, controllability, minimality,
MCARMA <-> state-space conversion, and the unique decoupled canonical form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from . import matops
from .errors import (
    DimensionError,
    MinimalityError,
    MultiplicityError,
    RankError,
    StabilityError,
    ValidationError,
)
from .model import CointCanonicalForm, McarmaModel, StateSpaceModel


@dataclass(frozen=True)
class MinimalityReport:
    observability_rank: int
    controllability_rank: int
    is_observable: bool
    is_controllable: bool
    is_minimal: bool


def _staircase(C: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Stacked blocks ``C, CA, ..., CA^{N-1}`` (dN x N)."""
    N = A.shape[0]
    blocks = []
    block = C
    for _ in range(N):
        blocks.append(block)
        block = block @ A
    return np.vstack(blocks) if blocks else np.zeros((0, N))


def observability_matrix(m: StateSpaceModel) -> np.ndarray:
    """``O = (C', (CA)', ..., (CA^{N-1})')'``; full rank N iff observable."""
    return _staircase(np.asarray(m.C), np.asarray(m.A))


def controllability_matrix(m: StateSpaceModel) -> np.ndarray:
    """``(B, AB, ..., A^{N-1}B)``; full rank N iff controllable."""
    return _staircase(np.asarray(m.B).T, np.asarray(m.A).T).T


def matrix_minimality_report(A: np.ndarray, B: np.ndarray, C: np.ndarray,
                             rel_tol: float = matops.RANK_REL_TOL) -> MinimalityReport:
    """Controllability of (A, B) and observability of (A, C) from the ranks
    of their staircase matrices; minimal iff both hold."""
    N = A.shape[0]
    obs_rank = matops.numerical_rank(_staircase(C, A), rel_tol).rank
    ctr_rank = matops.numerical_rank(_staircase(B.T, A.T).T, rel_tol).rank
    observable = obs_rank == N
    controllable = ctr_rank == N
    return MinimalityReport(
        observability_rank=obs_rank,
        controllability_rank=ctr_rank,
        is_observable=observable,
        is_controllable=controllable,
        is_minimal=observable and controllable,
    )


def minimality_report(m: StateSpaceModel, rel_tol: float = matops.RANK_REL_TOL) -> MinimalityReport:
    """Minimal iff controllable and observable."""
    return matrix_minimality_report(np.asarray(m.A), np.asarray(m.B), np.asarray(m.C), rel_tol)


def decoupled_minimality_check(cf: CointCanonicalForm,
                               rel_tol: float = matops.RANK_REL_TOL) -> MinimalityReport:
    """Minimality via the decoupled criterion: rank B1 = rank C1 = c and the
    stationary subsystem (A2, B2, C2) minimal. Agrees with the full check on
    the assembled model, which tests exercise directly.
    """
    c = cf.c
    rank_c1 = matops.numerical_rank(np.asarray(cf.C1), rel_tol).rank
    rank_b1 = matops.numerical_rank(np.asarray(cf.B1), rel_tol).rank
    stat = matrix_minimality_report(np.asarray(cf.A2), np.asarray(cf.B2), np.asarray(cf.C2),
                                    rel_tol)
    observable = stat.is_observable and rank_c1 == c
    controllable = stat.is_controllable and rank_b1 == c
    return MinimalityReport(
        observability_rank=stat.observability_rank + rank_c1,
        controllability_rank=stat.controllability_rank + rank_b1,
        is_observable=observable,
        is_controllable=controllable,
        is_minimal=observable and controllable,
    )


def mcarma_beta_blocks(m: McarmaModel) -> list[np.ndarray]:
    """Input-matrix blocks beta_1 .. beta_p of the companion realization.

    beta_1 = ... = beta_{p-q-1} = 0 and
    beta_{p-j} = -sum_{i=1}^{p-j-1} P_i beta_{p-j-i} + Q_{q-j} for j = q..0.
    """
    p, q, d = m.p, m.q, m.d
    beta = [np.zeros((d, m.m)) for _ in range(p + 1)]  # 1-based
    for j in range(q, -1, -1):
        k = p - j
        acc = np.array(m.q_coeffs[q - j])
        for i in range(1, k):
            acc -= m.p_coeffs[i - 1] @ beta[k - i]
        beta[k] = acc
    return beta[1:]


def mcarma_to_ss(m: McarmaModel) -> StateSpaceModel:
    """Companion-form realization of an MCARMA model: superdiagonal identity
    blocks, last block row ``(-P_p ... -P_1)``, ``C = (I 0 ... 0)`` and the
    stacked beta recursion for ``B``.
    """
    A = matops.companion_matrix(m.ar_poly())
    p, d = m.p, m.d
    B = np.vstack(mcarma_beta_blocks(m))
    C = np.zeros((d, p * d))
    C[:, :d] = np.eye(d)
    return StateSpaceModel(A=A, B=B, C=C, levy=m.levy)


def ss_to_mcarma(m: StateSpaceModel, rel_tol: float = matops.RANK_REL_TOL) -> McarmaModel:
    """Recover MCARMA coefficients from an observable model with N = p d.

    Conjugates by the square observability block ``T = (C', (CA)', ...,
    (CA^{p-1})')'``, reads ``-P_p .. -P_1`` off the last block row of
    ``T A T^{-1}`` and inverts the beta recursion on ``T B``.
    """
    N, d = m.N, m.d
    if N % d != 0:
        raise DimensionError(f"state dimension N={N} is not a multiple of d={d}")
    p = N // d
    A, B, C = np.asarray(m.A), np.asarray(m.B), np.asarray(m.C)
    T = _staircase(C, A)[:N]  # the first p blocks C, CA, ..., CA^{p-1}
    if matops.numerical_rank(T, rel_tol).rank < N:
        raise RankError("square observability block is singular; model not convertible")
    Ac = T @ A @ np.linalg.inv(T)
    last = Ac[(p - 1) * d:, :]
    P = [-last[:, (p - 1 - i) * d:(p - i) * d] for i in range(p)]  # P_1 .. P_p
    beta = T @ B
    beta_blocks = [beta[k * d:(k + 1) * d, :] for k in range(p)]
    scale = 1.0 + np.linalg.norm(beta)
    lead = 0
    while lead < p and np.linalg.norm(beta_blocks[lead]) <= rel_tol * scale:
        lead += 1
    if lead == p:
        raise ValidationError("input matrix B is numerically zero; no MA polynomial")
    q = p - lead - 1
    Q = []
    for j in range(q, -1, -1):
        k = p - j
        acc = np.array(beta_blocks[k - 1])
        for i in range(1, k):
            acc += P[i - 1] @ beta_blocks[k - i - 1]
        Q.append(acc)  # Q_{q-j}, built up from Q_0
    return McarmaModel(p_coeffs=tuple(P), q_coeffs=tuple(Q), levy=m.levy)


def transfer_function(m: StateSpaceModel, z: complex) -> np.ndarray:
    """``C (zI - A)^{-1} B`` at a probe point away from the spectrum."""
    N = m.N
    return np.asarray(m.C) @ np.linalg.solve(
        z * np.eye(N) - np.asarray(m.A), np.asarray(m.B).astype(complex)
    )


def _echelon_transform(A2: np.ndarray, C2: np.ndarray,
                       rel_tol: float = matops.RANK_REL_TOL) -> np.ndarray:
    """Observer echelon transform for the stationary block: the first n2
    linearly independent rows of the observability matrix, scanned top down.
    Invariant under state-space conjugation, which makes the stationary
    canonical form deterministic.
    """
    n2 = A2.shape[0]
    if n2 == 0:
        return np.zeros((0, 0))
    O = _staircase(C2, A2)
    rows = matops.first_independent_rows(O, n2, rel_tol)
    return O[rows]


def canonicalize(m: StateSpaceModel,
                 rel_tol: float = matops.RANK_REL_TOL) -> tuple[CointCanonicalForm, np.ndarray]:
    """Unique observationally equivalent decoupled canonical form.

    Steps: the unit-root count ``c = N - rank(A)`` and the c unit roots
    (`matops.unit_roots` at ``rel_tol``), every other eigenvalue stable;
    ordered real Schur form placing the unit roots first; semisimplicity
    check of their block; Sylvester decoupling of the off-diagonal
    coupling; positive-lower-triangular normalization of C1; observer
    echelon form of the stationary block. Returns the form and the composite
    transform ``T`` with ``(T A T^{-1}, T B, C T^{-1})`` canonical.
    """
    A, B, C = np.asarray(m.A), np.asarray(m.B), np.asarray(m.C)
    N = m.N
    rep = minimality_report(m, rel_tol)
    if not rep.is_minimal:
        raise MinimalityError(
            f"model is not minimal (observability rank {rep.observability_rank}, "
            f"controllability rank {rep.controllability_rank}, N={N})"
        )
    ur = matops.unit_roots(A, rel_tol)
    ur.check_semisimple()
    if ur.unstable.size:
        raise StabilityError(
            f"A has eigenvalues that are neither among its c={ur.c} unit roots nor "
            f"stable: {ur.unstable}"
        )
    c = ur.c
    if c >= m.d and c > 0:
        raise ValidationError(
            f"unit-root multiplicity c={c} must be smaller than the observation dimension d={m.d}"
        )

    if c == 0:
        S, Z = A.copy(), np.eye(N)
    else:
        S, Z, sdim = sla.schur(A, output="real",
                               sort=lambda re, im: np.hypot(re, im) < ur.tolerance)
        if sdim != c:
            raise MultiplicityError(
                f"Schur reordering selected {sdim} near-zero eigenvalues, expected {c}"
            )
    S11, S12, S22 = S[:c, :c], S[:c, c:], S[c:, c:]
    bound = ur.tolerance * max(1.0, np.linalg.norm(A))
    if c > 0 and np.linalg.norm(S11) > bound:
        raise MultiplicityError(
            f"the c={c} unit roots of A are not a semisimple zero eigenvalue: "
            f"their Schur block has norm {np.linalg.norm(S11):.3e}, above {bound:.3e}"
        )
    # kill the coupling block with a similarity [[I, X], [0, I]]
    if c > 0 and c < N:
        X = sla.solve_sylvester(S11, -S22, S12)
    else:
        X = np.zeros((c, N - c))
    T_dec = np.eye(N)
    T_dec[:c, c:] = X
    T_dec = T_dec @ Z.T
    Tinv_dec = np.eye(N)
    Tinv_dec[:c, c:] = -X
    Tinv_dec = Z @ Tinv_dec

    A2p = S22
    Bp = T_dec @ B
    Cp = C @ Tinv_dec
    C1p, C2p = Cp[:, :c], Cp[:, c:]
    B1p, B2p = Bp[:c, :], Bp[c:, :]

    C1, T1 = matops.positive_lower_triangularize(C1p, rel_tol)
    B1 = T1 @ B1p
    T2 = _echelon_transform(A2p, C2p, rel_tol)
    if T2.shape[0]:
        lu = sla.lu_factor(T2.T)
        A2 = sla.lu_solve(lu, (T2 @ A2p).T).T
        B2 = T2 @ B2p
        C2 = sla.lu_solve(lu, C2p.T).T
    else:
        A2, B2, C2 = A2p, B2p, C2p

    T_total = np.vstack([T1 @ T_dec[:c], T2 @ T_dec[c:]])
    cf = CointCanonicalForm(c=c, A2=A2, B1=B1, B2=B2, C1=C1, C2=C2, levy=m.levy)
    return cf, T_total
