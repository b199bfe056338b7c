"""Closed-form moments and the exact discretization of the canonical model.

The sampled process Y(nh) satisfies a discrete state recursion with i.i.d.
noise whose covariance splits into four blocks; the transition and all four
blocks come from one augmented matrix exponential, never quadrature
(quadrature exists only as a test oracle).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matops
from .errors import ValidationError
from .model import CointCanonicalForm


@dataclass(frozen=True)
class SampledModel:
    """Exact discretization artifacts for step ``h``.

    ``eAh = diag(I_c, e^{A2 h})`` is the one-step transition,
    ``sigma_tilde`` the i.i.d. noise covariance with blocks indexed by the
    unit-root/stationary split, and ``gamma0`` the stationary covariance of
    the stable state block.
    """

    h: float
    c: int
    eAh: np.ndarray
    sigma_tilde: np.ndarray
    gamma0: np.ndarray

    @property
    def N(self) -> int:
        return self.eAh.shape[0]

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


def discretize(cf: CointCanonicalForm, h: float) -> SampledModel:
    """Exact sampled model on the grid {nh}.

    With ``A = diag(0_c, A2)``, ``B = [B1; B2]`` and ``S = sigma_L``,
    one exponential ``F = expm([[-A, B S B'], [0, A']] t)`` (Van Loan 1978)
    gives ``e^{At} = F22'`` and ``sigma(t) = F22' F12
    = int_0^t e^{A u} B S B' e^{A' u} du`` for ``t = h / 2^k``, and k
    doublings ``sigma(2t) = sigma(t) + e^{At} sigma(t) e^{A't}`` carry both
    to h. Blockwise, sigma11 = h B1 S B1', sigma21 = int_0^h e^{A2 u} B2 S B1' du
    and sigma22 = int_0^h e^{A2 u} B2 S B2' e^{A2' u} du. The unit-root block
    of ``eAh`` is ``I_c`` exactly; gamma0 solves A2 G + G A2' + B2 S B2' = 0.
    """
    if h <= 0:
        raise ValidationError(f"sampling step h must be positive, got {h}")
    c, N = cf.c, cf.N
    S = np.asarray(cf.levy.sigma_L)
    B2, A2 = np.asarray(cf.B2), np.asarray(cf.A2)
    B = np.vstack([np.asarray(cf.B1), B2])

    # F11 = e^{-At} grows with ||A t|| and swamps the other blocks in
    # rounding, so k is the least with ||A t||_1 < 1.
    k = max(0, int(np.frexp(h * np.abs(A2).sum(axis=0).max(initial=0.0))[1]))
    t = h / 2.0**k
    blk = np.zeros((2 * N, 2 * N))
    blk[c:N, c:N] = -A2
    blk[:N, N:] = B @ S @ B.T
    blk[N + c:, N + c:] = A2.T
    F = matops.expm(blk * t)
    eAh = np.eye(N)
    eAh[c:, c:] = F[N + c:, N + c:].T
    sigma = eAh @ F[:N, N:]
    for _ in range(k):
        sigma = sigma + eAh @ sigma @ eAh.T
        eAh = eAh @ eAh
    sigma = 0.5 * (sigma + sigma.T)
    gamma0 = matops.lyapunov_solve(A2, B2 @ S @ B2.T)
    return SampledModel(h=float(h), c=c, eAh=eAh, sigma_tilde=sigma, gamma0=gamma0)


def mean(cf: CointCanonicalForm, x1_0) -> np.ndarray:
    """``E[Y(t)] = C1 x1_0``, constant in t."""
    x0 = matops.as_vector(x1_0, "x1_0")
    if x0.size != cf.c:
        raise ValidationError(f"x1_0 has length {x0.size}, expected c={cf.c}")
    return np.asarray(cf.C1) @ x0


def cov_continuous(cf: CointCanonicalForm, t: float, s: float) -> np.ndarray:
    """``Cov(Y(t), Y(t+s)) = E[Y(t) Y(t+s)']`` under the convention ``X1(0) = 0``.

    Four closed-form terms: the stationary autocovariance
    ``C2 Gamma0 e^{A2' s} C2'`` (the later time sits on the transposed side;
    Monte-Carlo arbitration picks this orientation), two Levy/stationary
    cross integrals, and the random-walk term ``t C1 B1 S (C1 B1)'``.
    """
    if t < 0 or s < 0:
        raise ValidationError(f"need t, s >= 0, got t={t}, s={s}")
    C1, C2 = np.asarray(cf.C1), np.asarray(cf.C2)
    B1, B2, A2 = np.asarray(cf.B1), np.asarray(cf.B2), np.asarray(cf.A2)
    S = np.asarray(cf.levy.sigma_L)
    d = cf.d

    out = np.zeros((d, d))
    if cf.n2:
        gamma0 = matops.lyapunov_solve(A2, B2 @ S @ B2.T)
        out += C2 @ gamma0 @ matops.expm(A2.T * s) @ C2.T
        G = B2 @ S @ (C1 @ B1).T
        if t > 0:
            out += C2 @ matops.cross_integral(A2, G, t)
            tail = matops.cross_integral(A2, G, t + s) - matops.cross_integral(A2, G, s)
            out += (C2 @ tail).T
    out += t * (C1 @ B1) @ S @ (C1 @ B1).T
    return out


def cov_sampled(sm: SampledModel, cf: CointCanonicalForm, n: int, s: int) -> np.ndarray:
    """``Cov(Y_n, Y_{n+s})`` of the sampled process: the continuous formula
    evaluated at ``t = n h``, lag ``s h``.
    """
    if n < 1 or s < 0:
        raise ValidationError(f"need n >= 1 and s >= 0, got n={n}, s={s}")
    return cov_continuous(cf, n * sm.h, s * sm.h)
