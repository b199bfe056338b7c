"""Domain types: Levy driver specifications, raw state-space triples,
MCARMA coefficient sets and the decoupled canonical form.

All types are immutable after validated construction (arrays are copied and
marked read-only), so instances can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

from . import matops
from .errors import DimensionError, RankError, ValidationError

LEVY_KINDS = (
    "brownian",
    "compound_poisson_gaussian_jumps",
    "brownian_plus_compound_poisson",
)


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class LevySpec:
    """Square-integrable, mean-zero Levy driver with nonsingular covariance.

    ``sigma_L`` is the covariance of the unit-time increment. For the
    compound-Poisson kinds the jumps are mean-zero Gaussian with covariance
    ``jump_cov`` arriving at rate ``jump_rate``; the leftover
    ``sigma_L - jump_rate * jump_cov`` is the covariance of an independent
    Brownian component and must be PSD (zero for the pure-jump kind).

    Construction checks, with the tolerances of `matops`: ``sigma_L``
    symmetric with smallest eigenvalue above ``COV_TOL (1 + ||sigma_L||)``,
    ``jump_cov`` symmetric with smallest eigenvalue at least
    ``-COV_TOL (1 + ||jump_cov||)``, and the Brownian part finite and zero
    (pure jumps) or PSD to ``LEVY_SPLIT_TOL (1 + ||sigma_L||)``. One
    `ValidationError` names every clause that fails.

    ``diffusion_cov``, the Brownian part, is decided there once and kept:
    ``sigma_L``, exactly zero for pure jumps, or the difference with the
    negative eigenvalues that the tolerance lets through set to zero.
    """

    kind: str
    sigma_L: np.ndarray
    jump_rate: float = 0.0
    jump_cov: np.ndarray | None = None
    diffusion_cov: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in LEVY_KINDS:
            raise ValidationError(f"unknown Levy kind {self.kind!r}, expected one of {LEVY_KINDS}")
        sig = matops.as_square(self.sigma_L, "sigma_L")
        object.__setattr__(self, "sigma_L", _frozen(sig))
        if self.jump_rate < 0:
            raise ValidationError(f"jump_rate must be >= 0, got {self.jump_rate}")
        if self.jump_cov is not None:
            jc = matops.as_square(self.jump_cov, "jump_cov")
            if jc.shape != sig.shape:
                raise DimensionError(
                    f"jump_cov has shape {jc.shape}, expected {sig.shape}"
                )
            object.__setattr__(self, "jump_cov", _frozen(jc))
        if self.kind == "brownian" and (self.jump_rate != 0 or self.jump_cov is not None):
            raise ValidationError("brownian driver takes no jump parameters")
        if self.kind != "brownian" and self.jump_cov is None:
            raise ValidationError(f"{self.kind} driver requires jump_cov")

        # every clause is evaluated on sigma_L / 2^e (`matops.pow2_scaled`),
        # jump_cov on its own scale, so no norm overflows
        failures: list[str] = []
        sig, s = matops.pow2_scaled(self.sigma_L)
        scale = s + np.linalg.norm(sig)  # (1 + ||sigma_L||) / 2^e
        if not matops.is_symmetric(self.sigma_L):
            failures.append("sigma_L is not symmetric")
        else:
            min_eig = float(np.min(np.linalg.eigvalsh(0.5 * (sig + sig.T))))
            if min_eig <= matops.COV_TOL * scale:
                failures.append(f"sigma_L is singular or not positive definite "
                                f"(min eigenvalue {min_eig / s:.3e})")
        brownian = self.sigma_L
        if self.kind != "brownian":
            jc, t = matops.pow2_scaled(self.jump_cov)
            if not matops.is_symmetric(self.jump_cov):
                failures.append("jump_cov is not symmetric")
            elif np.min(np.linalg.eigvalsh(0.5 * (jc + jc.T))) < -matops.COV_TOL * (t + np.linalg.norm(jc)):
                failures.append("jump_cov is not positive semidefinite")
            with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails its clause
                diff = sig - self.jump_rate * (self.jump_cov * s)
                split = np.linalg.norm(diff)
            finite = np.all(np.isfinite(diff))
            if self.kind == "compound_poisson_gaussian_jumps":
                brownian = np.zeros_like(sig)
                if not (finite and split <= matops.LEVY_SPLIT_TOL * scale):
                    failures.append("sigma_L != jump_rate * jump_cov for the pure-jump driver")
            else:
                w, V = np.linalg.eigh(0.5 * (diff + diff.T)) if finite else ([-np.inf], None)
                if w[0] < -matops.LEVY_SPLIT_TOL * scale:
                    failures.append(
                        "sigma_L - jump_rate * jump_cov is not PSD, no Brownian component fits"
                    )
                else:  # its PSD part: the difference itself when no eigenvalue is negative
                    brownian = (diff if w[0] >= 0 else (V * np.maximum(w, 0.0)) @ V.T) / s
        if failures:
            raise ValidationError("invalid Levy driver: " + "; ".join(failures))
        object.__setattr__(self, "diffusion_cov", _frozen(brownian))

    @property
    def m(self) -> int:
        return self.sigma_L.shape[0]


@dataclass(frozen=True)
class StateSpaceModel:
    """Raw continuous-time linear state-space triple driven by a Levy process.

    State equation ``dX = A X dt + B dL`` with observation ``Y = C X``.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    levy: LevySpec

    def __post_init__(self):
        A = matops.as_square(self.A, "A")
        B = matops.as_matrix(self.B, "B")
        C = matops.as_matrix(self.C, "C")
        N = A.shape[0]
        if B.shape != (N, self.levy.m):
            raise DimensionError(
                f"B has shape {B.shape}, expected ({N}, {self.levy.m})"
            )
        if C.shape[1] != N:
            raise DimensionError(f"C has {C.shape[1]} columns, expected {N}")
        if C.shape[0] > N:
            raise DimensionError(
                f"observation dimension d={C.shape[0]} exceeds state dimension N={N}"
            )
        object.__setattr__(self, "A", _frozen(A))
        object.__setattr__(self, "B", _frozen(B))
        object.__setattr__(self, "C", _frozen(C))

    @property
    def N(self) -> int:
        return self.A.shape[0]

    @property
    def d(self) -> int:
        return self.C.shape[0]

    @property
    def m(self) -> int:
        return self.levy.m


@dataclass(frozen=True)
class McarmaModel:
    """MCARMA(p, q) coefficient set: monic AR polynomial
    ``P(z) = I z^p + P_1 z^{p-1} + ... + P_p`` and MA polynomial
    ``Q(z) = Q_0 z^q + ... + Q_q``, with ``p > q >= 0``.
    """

    p_coeffs: tuple[np.ndarray, ...]  # P_1 .. P_p
    q_coeffs: tuple[np.ndarray, ...]  # Q_0 .. Q_q
    levy: LevySpec

    def __post_init__(self):
        P = tuple(matops.as_square(Pi, f"P_{i+1}") for i, Pi in enumerate(self.p_coeffs))
        if not P:
            raise ValidationError("autoregressive order p must be at least 1")
        d = P[0].shape[0]
        for i, Pi in enumerate(P):
            if Pi.shape != (d, d):
                raise DimensionError(f"P_{i+1} has shape {Pi.shape}, expected ({d}, {d})")
        Q = tuple(matops.as_matrix(Qi, f"Q_{i}") for i, Qi in enumerate(self.q_coeffs))
        if not Q:
            raise ValidationError("need at least the moving-average coefficient Q_0")
        for i, Qi in enumerate(Q):
            if Qi.shape != (d, self.levy.m):
                raise DimensionError(
                    f"Q_{i} has shape {Qi.shape}, expected ({d}, {self.levy.m})"
                )
        if len(Q) - 1 >= len(P):
            raise ValidationError(
                f"orders must satisfy p > q, got p={len(P)}, q={len(Q) - 1}"
            )
        object.__setattr__(self, "p_coeffs", tuple(_frozen(Pi) for Pi in P))
        object.__setattr__(self, "q_coeffs", tuple(_frozen(Qi) for Qi in Q))

    @property
    def p(self) -> int:
        return len(self.p_coeffs)

    @property
    def q(self) -> int:
        return len(self.q_coeffs) - 1

    @property
    def d(self) -> int:
        return self.p_coeffs[0].shape[0]

    @property
    def m(self) -> int:
        return self.levy.m

    def ar_poly(self) -> list[np.ndarray]:
        """Coefficients of P(z) for z^p .. z^0, including the leading identity."""
        return [np.eye(self.d)] + [np.array(Pi) for Pi in self.p_coeffs]


@dataclass(frozen=True)
class CointCanonicalForm:
    """Decoupled canonical form: a c-dimensional pure unit-root block and a
    stable stationary block.

    ``dX1 = B1 dL`` and ``dX2 = A2 X2 dt + B2 dL`` with observation
    ``Y = C1 X1 + C2 X2``; ``C1`` has orthonormal columns in positive lower
    triangular form (to ``C1_ORTHO_TOL (1 + c)``, the basis that
    `matops.positive_lower_triangularize` makes of its column space), ``B1``
    has full row rank c, both decided at the caller's ``rel_tol``, and ``A2``
    is Hurwitz. ``c = 0`` is permitted as the stationary degenerate case.
    ``gamma0``, the stationary covariance of X2 (it does not depend on any
    sampling step), is solved on first read and kept.
    """

    c: int
    A2: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    C1: np.ndarray
    C2: np.ndarray
    levy: LevySpec
    rel_tol: InitVar[float] = matops.RANK_REL_TOL

    def __post_init__(self, rel_tol):
        A2 = matops.as_square(self.A2, "A2")
        B1 = matops.as_matrix(self.B1, "B1")
        B2 = matops.as_matrix(self.B2, "B2")
        C1 = matops.as_matrix(self.C1, "C1")
        C2 = matops.as_matrix(self.C2, "C2")
        c, m = self.c, self.levy.m
        n2 = A2.shape[0]
        if c < 0:
            raise ValidationError(f"unit-root block size c must be >= 0, got {c}")
        if B1.shape != (c, m):
            raise DimensionError(f"B1 has shape {B1.shape}, expected ({c}, {m})")
        if B2.shape != (n2, m):
            raise DimensionError(f"B2 has shape {B2.shape}, expected ({n2}, {m})")
        d = C1.shape[0]
        if C1.shape != (d, c):
            raise DimensionError(f"C1 has shape {C1.shape}, expected ({d}, {c})")
        if C2.shape != (d, n2):
            raise DimensionError(f"C2 has shape {C2.shape}, expected ({d}, {n2})")
        if c >= d and c > 0:
            raise ValidationError(
                f"a cointegrated model needs c < d, got c={c}, d={d}"
            )
        if d > c + n2:
            raise DimensionError(
                f"observation dimension d={d} exceeds state dimension N={c + n2}"
            )
        if c > 0:
            with np.errstate(over="ignore"):  # an overflowing gap fails the clause
                try:
                    gap = np.linalg.norm(C1 - matops.positive_lower_triangularize(C1, rel_tol)[0])
                except RankError:
                    gap = np.inf
            if not gap <= matops.C1_ORTHO_TOL * (1.0 + c):
                raise ValidationError("C1 is not the orthonormal positive lower triangular "
                                      "basis of its column space")
            if matops.numerical_rank(B1, rel_tol).rank != c:
                raise ValidationError(f"B1 must have full row rank {c}")
        if n2 > 0 and matops.spectral_abscissa(A2) >= -matops.HURWITZ_TOL:
            raise ValidationError(
                "A2 is not Hurwitz: eigenvalues must have strictly negative real part"
            )
        object.__setattr__(self, "A2", _frozen(A2))
        object.__setattr__(self, "B1", _frozen(B1))
        object.__setattr__(self, "B2", _frozen(B2))
        object.__setattr__(self, "C1", _frozen(C1))
        object.__setattr__(self, "C2", _frozen(C2))

    @classmethod
    def _made(cls, c: int, levy: LevySpec, **blocks) -> CointCanonicalForm:
        """The form `realization.canonicalize` made and decided, frozen unchecked."""
        cf = object.__new__(cls)
        cf.__dict__.update(c=c, levy=levy, **{k: _frozen(M) for k, M in blocks.items()})
        return cf

    @property
    def N(self) -> int:
        return self.c + self.A2.shape[0]

    @property
    def d(self) -> int:
        return self.C1.shape[0]

    @property
    def m(self) -> int:
        return self.levy.m

    @property
    def n2(self) -> int:
        return self.A2.shape[0]

    @cached_property
    def gamma0(self) -> np.ndarray:
        """Read-only solution of ``A2 G + G A2' + B2 sigma_L B2' = 0``."""
        S = self.levy.sigma_L
        g = matops.lyapunov_solve(self.A2, self.B2 @ S @ self.B2.T)
        g.flags.writeable = False
        return g

    def full_B(self) -> np.ndarray:
        return np.vstack([self.B1, self.B2])

    def full_C(self) -> np.ndarray:
        return np.hstack([self.C1, self.C2])


def assemble_from_canonical(cf: CointCanonicalForm) -> StateSpaceModel:
    """Stack the canonical blocks back into a raw (A, B, C) triple:
    ``A = diag(0_c, A2)``, ``B = (B1; B2)``, ``C = (C1 C2)``.
    """
    N = cf.N
    A = np.zeros((N, N))
    A[cf.c:, cf.c:] = cf.A2
    return StateSpaceModel(A=A, B=cf.full_B(), C=cf.full_C(), levy=cf.levy)
