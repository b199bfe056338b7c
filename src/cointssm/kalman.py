"""Steady-state Kalman filtering of the sampled model.

The prediction covariance is the stabilizing solution of the discrete
algebraic Riccati equation with the exact one-step noise covariance as
constant term; the filter has no separate measurement noise because the
observation equation is noiseless. The equation is solved directly by the
extended-pencil method of Arnold & Laub (1984), which accepts the zero
measurement covariance, and every solution is verified before use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from . import matops
from .errors import (
    ConditioningError,
    ConvergenceError,
    DimensionError,
    StabilityError,
)
from .model import CointCanonicalForm
from .moments import SampledModel
from .realization import MinimalityReport, matrix_minimality_report


@dataclass(frozen=True)
class KalmanSolution:
    """Stabilizing Riccati solution and the derived steady-state quantities.

    ``omega`` is the one-step prediction covariance, ``gain`` the steady
    state Kalman gain, ``v = C omega C'`` the innovation covariance and
    ``closed_loop = e^{Ah} - gain C`` the filter transition, with spectral
    radius < 1. ``c_matrix`` retains the observation matrix the solution
    was computed for. ``iterations`` is always 0, as the solve is direct; it
    stays until the benchmark's work counter, which reads it, is updated.
    ``spectral_radius`` and ``settle = (I - closed_loop)^{-1} gain``, from
    which the long-run matrix ``k(1) = I - C settle`` and the
    error-correction filters are built, are computed on first read and kept.
    """

    omega: np.ndarray
    gain: np.ndarray
    v: np.ndarray
    closed_loop: np.ndarray
    iterations: int
    residual: float
    c_matrix: np.ndarray

    @cached_property
    def spectral_radius(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvals(self.closed_loop))))

    @cached_property
    def settle(self) -> np.ndarray:
        N = self.closed_loop.shape[0]
        return np.linalg.solve(np.eye(N) - self.closed_loop, self.gain)


def solve_steady_state(sm: SampledModel, cf: CointCanonicalForm,
                       rel_tol: float = matops.RANK_REL_TOL) -> KalmanSolution:
    """Stabilizing solution of ``omega = F omega F' - G S^{-1} G' + sigma_tilde``
    with ``F = e^{Ah}``, ``G = F omega C'`` and ``S = C omega C'``.

    Solved by ``scipy.linalg.solve_discrete_are`` with zero measurement
    covariance; an invalid operation in the solver raises `ConvergenceError`.
    The innovation covariance S is certified positive definite by its
    eigenvalues and then applied through the one LU solve that gives the
    gain ``G S^{-1}``; the solution is verified against the Riccati residual
    and closed-loop stability.
    """
    C = cf.full_C()
    eAh = np.asarray(sm.eAh)
    sigma = np.asarray(sm.sigma_tilde)
    if C.shape[1] != eAh.shape[0]:
        raise DimensionError(
            f"C has {C.shape[1]} columns but the sampled model has N={eAh.shape[0]}"
        )
    if matops.numerical_rank(C, rel_tol).rank < cf.d:
        raise ConditioningError("observation matrix C does not have full row rank")

    try:
        with np.errstate(invalid="raise"):
            omega = sla.solve_discrete_are(eAh.T, C.T, sigma, np.zeros((cf.d, cf.d)))
    except (np.linalg.LinAlgError, ValueError, FloatingPointError) as exc:
        raise ConvergenceError(f"discrete Riccati solver failed: {exc}") from exc
    omega = 0.5 * (omega + omega.T)
    G = eAh @ omega @ C.T
    S = C @ omega @ C.T
    S = 0.5 * (S + S.T)
    if np.min(np.linalg.eigvalsh(S)) <= 0:
        raise ConditioningError("innovation covariance V is not positive definite")
    gain = np.linalg.solve(S, G.T).T
    new = eAh @ omega @ eAh.T - gain @ G.T + sigma
    residual = float(np.linalg.norm(omega - 0.5 * (new + new.T)))
    scale = 1.0 + np.linalg.norm(omega)
    if not residual <= matops.RESIDUAL_TOL * scale:  # a NaN residual fails
        raise ConvergenceError(
            f"Riccati solution violates the residual bound: {residual:.3e}"
        )
    ks = KalmanSolution(
        omega=omega,
        gain=gain,
        v=S,
        closed_loop=eAh - gain @ C,
        iterations=0,
        residual=residual,
        c_matrix=C,
    )
    if ks.spectral_radius >= 1.0:
        raise StabilityError(
            f"closed loop is not Schur stable (spectral radius {ks.spectral_radius:.6f})"
        )
    return ks


def filter_innovations(
    ks: KalmanSolution,
    sm: SampledModel,
    y: np.ndarray,
    x_hat_0=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run the steady-state innovation recursion over an observation array.

    ``x_hat_n = closed_loop x_hat_{n-1} + gain y_{n-1}`` (one
    `matops.linear_recursion` scan) and ``eps_n = y_n - C x_hat_n``; the
    unobserved pre-sample value is taken as zero, consistent with the
    default zero state estimate (the transient decays geometrically at the
    closed-loop rate).
    """
    Y = matops.as_matrix(y, "observations")
    d = ks.c_matrix.shape[0]
    N = ks.closed_loop.shape[0]
    if Y.shape[1] != d:
        raise DimensionError(f"observations have {Y.shape[1]} columns, expected d={d}")
    if x_hat_0 is None:
        xh = np.zeros(N)
    else:
        xh = matops.as_vector(x_hat_0, "x_hat_0")
        if xh.size != N:
            raise DimensionError(f"x_hat_0 has length {xh.size}, expected N={N}")
    U = np.zeros((Y.shape[0], N))  # gain y_{n-1}, y_{-1} = 0
    np.matmul(Y[:-1], ks.gain.T, out=U[1:])
    x_hat = matops.linear_recursion(ks.closed_loop, U, xh)
    innovations = x_hat @ -ks.c_matrix.T
    innovations += Y
    return innovations, x_hat


def check_filtered_controllability(ks: KalmanSolution, sm: SampledModel,
                                   rel_tol: float = matops.RANK_REL_TOL) -> MinimalityReport:
    """Check that the innovation-form model ``(e^{Ah}, gain, C)`` is still
    minimal: controllability of (e^{Ah}, gain) plus observability of
    (e^{Ah}, C), which coincides with continuous-time observability.
    """
    return matrix_minimality_report(np.asarray(sm.eAh), ks.gain, ks.c_matrix, rel_tol)
