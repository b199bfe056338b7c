"""Shared test utilities: independent oracles and measurement helpers. The
models live in `zoo`."""

from __future__ import annotations

import tracemalloc

import numpy as np
import scipy.linalg as sla

from cointssm import McarmaModel, matops
from cointssm.cointegration import signed_rank_factors


def max_principal_angle(U: np.ndarray, V: np.ndarray) -> float:
    return float(np.max(sla.subspace_angles(U, V)))


# complement oracles: the route `cointegration` took before it read the
# complements off the SVD of P_p

def orth_complement(M, rel_tol: float = matops.RANK_REL_TOL) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of ``colspace(M)`` for a
    ``d x s`` matrix of full column rank ``s < d``, from its own SVD."""
    A = np.asarray(M, dtype=float)
    d, s = A.shape
    assert s < d and matops.numerical_rank(A, rel_tol).rank == s
    return np.linalg.svd(A, full_matrices=True)[0][:, s:].copy()


def transversality_oracle(m: McarmaModel,
                          rel_tol: float = matops.RANK_REL_TOL) -> tuple[int, bool]:
    """``(rank, full)`` of ``alpha_perp' P_{p-1} beta_perp`` with the
    complements of the signed factors of P_p, one branch per rank case:
    vacuously full at r = d and the rank of P_{p-1} itself at r = 0."""
    d = m.d
    Pp = np.asarray(m.p_coeffs[-1])
    Pp1 = np.asarray(m.p_coeffs[-2]) if m.p >= 2 else np.eye(d)
    r = matops.numerical_rank(Pp, rel_tol).rank
    if r == d:
        return 0, True
    if r == 0:
        rank = matops.numerical_rank(Pp1, rel_tol).rank
        return rank, rank == d
    alpha, beta = signed_rank_factors(Pp, r)
    a_perp, b_perp = orth_complement(alpha, rel_tol), orth_complement(beta, rel_tol)
    rank = matops.numerical_rank(a_perp.T @ Pp1 @ b_perp, rel_tol).rank
    return rank, rank == d - r


# quadrature oracles (independent of the augmented-exponential production path)

def _simpson(f, h: float, panels: int) -> np.ndarray:
    grid = np.linspace(0.0, h, 2 * panels + 1)
    vals = np.stack([f(u) for u in grid])
    w = np.ones(len(grid))
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return (h / (6.0 * panels)) * np.tensordot(w, vals, axes=1)


def simpson_gramian(A2, Q, h: float, panels: int = 400) -> np.ndarray:
    A2, Q = np.asarray(A2, dtype=float), np.asarray(Q, dtype=float)
    return _simpson(lambda u: sla.expm(A2 * u) @ Q @ sla.expm(A2 * u).T, h, panels)


def simpson_cross(A2, G, h: float, panels: int = 400) -> np.ndarray:
    A2, G = np.asarray(A2, dtype=float), np.asarray(G, dtype=float)
    return _simpson(lambda u: sla.expm(A2 * u) @ G, h, panels)


def riccati_fixed_point(sm, cf, tol: float = 1e-12, max_iter: int = 10**6) -> np.ndarray:
    """Riccati oracle: the map ``omega -> F omega F' - G S^{-1} G' + sigma_tilde``
    (``F = e^{Ah}``, ``G = F omega C'``, ``S = C omega C'``) iterated from
    ``sigma_tilde`` until successive iterates differ by less than ``tol``
    relative to ``1 + ||omega||``. Needs roughly 1/h iterations."""
    C, F, sigma = cf.full_C(), np.asarray(sm.eAh), np.asarray(sm.sigma_tilde)
    omega = sigma.copy()
    for _ in range(max_iter):
        G = F @ omega @ C.T
        new = F @ omega @ F.T - G @ sla.solve(C @ omega @ C.T, G.T, assume_a="pos") + sigma
        new = 0.5 * (new + new.T)
        if np.linalg.norm(new - omega) < tol * (1.0 + np.linalg.norm(new)):
            return new
        omega = new
    raise RuntimeError(f"Riccati fixed point did not converge in {max_iter} steps")


def linear_recursion_loop(F, U, x0) -> np.ndarray:
    """Recursion oracle: ``X[n] = F X[n-1] + U[n]`` with ``X[-1] = x0``, one
    step at a time (time on axis 0, state on the last axis)."""
    F, U = np.asarray(F, dtype=float), np.asarray(U, dtype=float)
    X = np.empty_like(U)
    state = np.broadcast_to(np.asarray(x0, dtype=float), U.shape[1:])
    for n in range(U.shape[0]):
        state = state @ F.T + U[n]
        X[n] = state
    return X


def ecf_coeffs_loop(ks, J: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient oracle: ``L_j = -C cl^{j-1} K`` and
    ``Ktilde_j = -C cl^j (I - cl)^{-1} K`` for j = 0 .. J (``L_0 = I``,
    ``Ktilde_0 = 0``), one lag at a time. The columns ``V = cl^{j-1} [K, cl S]``
    advance as ``V <- cl V``: no power of cl is formed, since on non-normal
    closed loops the powers lose digits that the vectors keep."""
    cl, K, C = ks.closed_loop, ks.gain, ks.c_matrix
    N, d = cl.shape[0], C.shape[0]
    settle = np.linalg.solve(np.eye(N) - cl, K)
    L = np.empty((J + 1, d, d))
    Kt = np.empty((J + 1, d, d))
    L[0] = np.eye(d)
    Kt[0] = np.zeros((d, d))
    V = np.hstack([K, cl @ settle])  # entering lag j
    for j in range(1, J + 1):
        lag = -C @ V
        L[j], Kt[j] = lag[:, :d], lag[:, d:]
        V = cl @ V
    return L, Kt


def whiteness_acf_loop(eps, max_lag: int) -> np.ndarray:
    """Whiteness oracle: the sample autocorrelations ``c_k / (sd sd')`` of
    ``whiteness_diagnostic`` for k = 1 .. max_lag, with
    ``c_k = (1/n) sum_s e_{s+k} e_s'`` of the centered rows, one lag at a time."""
    E = np.asarray(eps, dtype=float)
    n = E.shape[0]
    centered = E - E.mean(axis=0)
    sd = np.sqrt(np.diag(centered.T @ centered / n))
    return np.stack([centered[k:].T @ centered[:-k] / n / np.outer(sd, sd)
                     for k in range(1, max_lag + 1)])


def gemm_rows_round_alike() -> bool:
    """Whether this BLAS gives a row of a matrix product the same bits
    wherever the row sits, as OpenBLAS's Haswell, Sandybridge and Zen
    kernels do; its Nehalem and Prescott kernels round the rows past their
    last full unroll apart."""
    rng = np.random.default_rng(0)
    D, F = rng.standard_normal((67, 8)), rng.standard_normal((8, 2))
    full = D @ F
    return all(np.array_equal(full[k:], D[k:] @ F) for k in range(1, 4))


def scratch_peak(fn, *args, **kwargs) -> tuple[int, object]:
    """Peak traced allocation of one call, and its result."""
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def retained(fn, *args, **kwargs) -> tuple[int, object]:
    """Traced allocation still held once one call has returned, with its
    result alive, and the result."""
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[0], out
    finally:
        tracemalloc.stop()


def cov_se(samples: np.ndarray, lagged: np.ndarray) -> np.ndarray:
    """Empirical standard error of each entry of (1/n) sum x_i y_j' for
    mean-zero samples (rows are observations)."""
    n = samples.shape[0]
    prods = samples[:, :, None] * lagged[:, None, :]
    return prods.std(axis=0, ddof=1) / np.sqrt(n)


def kappa4(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fourth cumulant ``m4 - 3 m2^2`` of each column of mean-zero samples
    and its standard error (from the influence function
    ``x^4 - 6 m2 x^2``)."""
    n = samples.shape[0]
    x2 = samples**2
    m2 = x2.mean(axis=0)
    x4 = x2**2
    se = (x4 - 6.0 * m2 * x2).std(axis=0, ddof=1) / np.sqrt(n)
    return x4.mean(axis=0) - 3.0 * m2**2, se


def step_noise(ps, eA2h: np.ndarray) -> np.ndarray:
    """The i.i.d. noise rows ``[r1; x2_n - e^{A2 h} x2_{n-1}]`` of steps 2..n of a path."""
    return np.hstack([ps.r1[1:], ps.x2[1:] - ps.x2[:-1] @ eA2h.T])



def add_jumps_expm(r1: np.ndarray, r2: np.ndarray, cf, h: float,
                   rng: np.random.Generator) -> None:
    """Jump oracle with the draws of `simulate._add_jumps`: one Pade
    exponential per jump, ``e^{A2 age} B2 Z`` from ``(2^14, n2, n2)`` stacks,
    and each jump added to its step's noise row on its own (``np.add.at``)."""
    levy = cf.levy
    counts = rng.poisson(levy.jump_rate * h, size=r1.shape[:-1])
    k = int(counts.sum())
    ages = h * rng.random(k)
    jump_factor = matops.psd_factor(np.asarray(levy.jump_cov), name="jump_cov")
    marks = rng.standard_normal((k, cf.m)) @ jump_factor.T
    where = tuple(np.repeat(np.indices(counts.shape).reshape(2, -1), counts.ravel(), axis=1))
    np.add.at(r1, where, marks @ np.asarray(cf.B1).T)
    kicks, A2 = marks @ np.asarray(cf.B2).T, np.asarray(cf.A2)
    batch = 1 << 14
    for lo in range(0, k, batch):
        part = slice(lo, lo + batch)
        kicks[part] = np.einsum("kij,kj->ki", sla.expm(ages[part, None, None] * A2), kicks[part])
    np.add.at(r2, where, kicks)


def matrix_key(M) -> tuple:
    """A matrix's shape and bytes, to tell which matrices a routine decomposed."""
    a = np.ascontiguousarray(M, dtype=float)
    return a.shape, a.tobytes()


def count_svds(monkeypatch) -> dict:
    """Count the calls of ``np.linalg.svd`` from now on, per `matrix_key`."""
    seen: dict = {}
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        key = matrix_key(a)
        seen[key] = seen.get(key, 0) + 1
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return seen
