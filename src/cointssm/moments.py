"""Closed-form moments and the exact discretization of the canonical model.

The sampled process Y(nh) satisfies a discrete state recursion with i.i.d.
noise whose covariance splits into four blocks; the transition and all four
blocks come from one augmented matrix exponential, never quadrature
(quadrature exists only as a test oracle). The stationary covariance
gamma0 does not depend on h and belongs to the canonical form
(`CointCanonicalForm.gamma0`), not to the sampled model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matops
from .errors import NumericError, ValidationError
from .model import CointCanonicalForm


@dataclass(frozen=True)
class SampledModel:
    """The sampled recursion for step ``h``, and nothing else.

    ``eAh = diag(I_c, e^{A2 h})`` is the one-step transition and
    ``sigma_tilde`` the i.i.d. noise covariance with blocks indexed by the
    unit-root/stationary split.
    """

    h: float
    c: int
    eAh: np.ndarray
    sigma_tilde: np.ndarray

    @property
    def sigma11(self) -> np.ndarray:
        return self.sigma_tilde[: self.c, : self.c]

    @property
    def sigma12(self) -> np.ndarray:
        return self.sigma_tilde[: self.c, self.c:]

    @property
    def sigma21(self) -> np.ndarray:
        return self.sigma_tilde[self.c:, : self.c]

    @property
    def sigma22(self) -> np.ndarray:
        return self.sigma_tilde[self.c:, self.c:]

    @property
    def eA2h(self) -> np.ndarray:
        return self.eAh[self.c:, self.c:]


def van_loan(cf: CointCanonicalForm, h: float, S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(e^{Ah}, int_0^h e^{A u} B S B' e^{A' u} du)`` for a driver covariance ``S``.

    With ``A = diag(0_c, A2)`` and ``B = [B1; B2]``, one exponential
    ``F = expm([[-A, B S B'], [0, A']] t)`` (Van Loan 1978) gives
    ``e^{At} = F22'`` and the integral to ``t`` as ``F22' F12`` for
    ``t = h / 2^k``, and k doublings ``sigma(2t) = sigma(t) + e^{At} sigma(t) e^{A't}``
    carry both to h. The unit-root block of ``e^{Ah}`` is ``I_c`` exactly.
    Either one not finite (``expm`` or ``B S B' t`` overflows) raises `NumericError`.
    """
    c, N = cf.c, cf.N
    A2 = np.asarray(cf.A2)
    B = np.vstack([np.asarray(cf.B1), np.asarray(cf.B2)])
    # F11 = e^{-At} grows with ||A t|| and swamps the other blocks in
    # rounding, so k is the least with ||A t||_1 < 1; when h ||A||_1
    # overflows, the sum of the two exponents bounds it.
    norm = float(np.abs(A2).sum(axis=0).max(initial=0.0))
    ht = float(h) * norm
    k = max(0, math.frexp(ht)[1] if math.isfinite(ht) else math.frexp(h)[1] + math.frexp(norm)[1])
    t = math.ldexp(h, -k)
    blk = np.zeros((2 * N, 2 * N))
    blk[c:N, c:N] = -A2
    blk[:N, N:] = B @ S @ B.T
    blk[N + c:, N + c:] = A2.T
    blk *= t  # a non-finite B S B' t gives a NaN F, as expm's silent overflow does
    F = matops.expm(blk) if np.all(np.isfinite(blk)) else np.full_like(blk, np.nan)
    eAh = np.eye(N)
    eAh[c:, c:] = F[N + c:, N + c:].T
    sigma = eAh @ F[:N, N:]
    for _ in range(k):
        sigma = sigma + eAh @ sigma @ eAh.T
        eAh = eAh @ eAh
    sigma = 0.5 * (sigma + sigma.T)
    if not (np.all(np.isfinite(eAh)) and np.all(np.isfinite(sigma))):
        raise NumericError(f"e^(A h) or its noise integral overflows float64 at h = {h:g}")
    return eAh, sigma


def discretize(cf: CointCanonicalForm, h: float) -> SampledModel:
    """Exact sampled model on the grid {nh}.

    ``eAh`` and ``sigma_tilde`` come from one Van Loan exponential and its
    doublings with ``S = sigma_L`` (see `van_loan`). Blockwise,
    sigma11 = h B1 S B1', sigma21 = int_0^h e^{A2 u} B2 S B1' du and
    sigma22 = int_0^h e^{A2 u} B2 S B2' e^{A2' u} du. No Lyapunov equation
    is solved: gamma0 is `CointCanonicalForm.gamma0`.
    """
    if not (np.isfinite(h) and h > 0):
        raise ValidationError(f"sampling step h must be positive and finite, got {h}")
    eAh, sigma = van_loan(cf, h, cf.levy.sigma_L)
    return SampledModel(h=float(h), c=cf.c, eAh=eAh, sigma_tilde=sigma)


def mean(cf: CointCanonicalForm, x1_0) -> np.ndarray:
    """``E[Y(t)] = C1 x1_0``, constant in t."""
    x0 = matops.as_vector(x1_0, "x1_0")
    if x0.size != cf.c:
        raise ValidationError(f"x1_0 has length {x0.size}, expected c={cf.c}")
    return np.asarray(cf.C1) @ x0


def cov_continuous(cf: CointCanonicalForm, t: float, s: float) -> np.ndarray:
    """``Cov(Y(t), Y(t+s)) = E[Y(t) Y(t+s)'] = C P(t) e^{A' s} C'`` with
    ``X1(0) = 0`` and X2 started in its stationary law.

    ``P(t) = Cov(X(t))`` is the Van Loan covariance at t (`van_loan`) with its
    stationary block set to ``cf.gamma0`` (solved once per canonical form,
    whatever the number of (t, s) pairs), and ``e^{As} = diag(I_c, e^{A2 s})``
    carries X(t) to the later time, which sits on the transposed side
    (Monte-Carlo arbitration picks this orientation). No term is a difference
    of integrals, so every entry keeps its relative accuracy at any lag.
    """
    if t < 0 or s < 0:
        raise ValidationError(f"need t, s >= 0, got t={t}, s={s}")
    c = cf.c
    _, P = van_loan(cf, t, cf.levy.sigma_L)
    P[c:, c:] = cf.gamma0
    eAs = np.eye(cf.N)
    eAs[c:, c:] = matops.expm(cf.A2 * s)
    C = cf.full_C()
    return C @ P @ eAs.T @ C.T


def cov_sampled(sm: SampledModel, cf: CointCanonicalForm, n: int, s: int) -> np.ndarray:
    """``Cov(Y_n, Y_{n+s})`` of the sampled process: the continuous formula
    evaluated at ``t = n h``, lag ``s h``.
    """
    if n < 1 or s < 0:
        raise ValidationError(f"need n >= 1 and s >= 0, got n={n}, s={s}")
    return cov_continuous(cf, n * sm.h, s * sm.h)
