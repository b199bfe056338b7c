"""Shared test utilities: random model generators, independent oracles."""

from __future__ import annotations

import tracemalloc

import numpy as np
import scipy.linalg as sla

from cointssm import (
    CointCanonicalForm,
    LevySpec,
    McarmaModel,
    StateSpaceModel,
    assemble_from_canonical,
    canonicalize,
    check_cointegration,
    matops,
    mcarma_to_ss,
    minimality_report,
)
from cointssm.cointegration import signed_rank_factors
from cointssm.realization import decoupled_minimality_check


def brownian(m: int, sigma=None) -> LevySpec:
    return LevySpec(kind="brownian", sigma_L=np.eye(m) if sigma is None else np.asarray(sigma))


def scalar_fixture() -> CointCanonicalForm:
    """The d=2, N=2, fully observed unit-root/OU pair used across the suite."""
    return CointCanonicalForm(
        c=1, A2=[[-1.0]], B1=[[1.0, 0.0]], B2=[[0.0, 1.0]],
        C1=[[1.0], [0.0]], C2=[[0.0], [1.0]], levy=brownian(2),
    )


def partial_fixture() -> CointCanonicalForm:
    """d=2, N=3 partially observed cointegrated model (nontrivial closed loop)."""
    return CointCanonicalForm(
        c=1, A2=[[-1.0, 0.4], [0.0, -2.0]], B1=[[1.0, 0.2]],
        B2=[[0.3, 1.0], [-0.4, 0.5]],
        C1=[[1.0], [0.0]], C2=[[0.5, -0.2], [1.0, 0.4]],
        levy=LevySpec(kind="brownian", sigma_L=[[1.0, 0.2], [0.2, 1.5]]),
    )


def slow_fixture() -> CointCanonicalForm:
    """A random (d, c, n2) = (4, 2, 6) model whose closed-loop spectral radius
    is about 0.988 at h = 0.1 and 0.9988 at h = 0.01: 200 lags of its
    error-correction filter leave a tail of order one."""
    return random_canonical(np.random.default_rng(3), d=4, c=2, n2=6, m=4)


#: A cointegrated MCARMA(3, 1) model with a non-normal sampled closed loop:
#: the seventh draw of ``perfbench.models.random_coint_mcarma`` from
#: ``np.random.default_rng(11)``, after six draws at (d, c, p) = (2, 1, 2).
MCARMA31_P = (
    [[3.3758727083942963, 0.10805785044989423], [3.02449226107339, 2.9453179640099223]],
    [[2.9863505907278802, 0.10841439340735695], [3.034471743462651, 2.5543752067391345]],
    [[0.19627253485827742, -0.05361244070767845], [-1.5005889099452117, 0.4098904312777548]],
)
MCARMA31_Q = (
    [[-0.07228295450292373, 0.22534578702721786], [1.084475594643844, 0.5778638956158266]],
    [[0.22743301996147597, 0.49161341546058857], [1.2828943558712116, 0.7995457481224375]],
)


def mcarma31_fixture() -> CointCanonicalForm:
    """The canonical form of the `MCARMA31_P`, `MCARMA31_Q` model with a
    standard Brownian driver; relative degree 3, so CB = CAB = 0, and its
    sampled closed loop has norm about 33, 360 and 3,650 at h = 0.1, 0.01
    and 0.001."""
    mc = McarmaModel(p_coeffs=MCARMA31_P, q_coeffs=MCARMA31_Q, levy=brownian(2))
    return canonicalize(mcarma_to_ss(mc))[0]


def random_spd(rng: np.random.Generator, n: int) -> np.ndarray:
    G = rng.normal(size=(n, n))
    return G @ G.T + n * np.eye(n)


def random_hurwitz(rng: np.random.Generator, n: int,
                   margin_lo: float = 0.3, margin_hi: float = 1.2) -> np.ndarray:
    if n == 0:
        return np.zeros((0, 0))
    M = rng.normal(size=(n, n))
    shift = float(np.max(np.linalg.eigvals(M).real)) + rng.uniform(margin_lo, margin_hi)
    return M - shift * np.eye(n)


def random_canonical(rng: np.random.Generator, d: int, c: int, n2: int,
                     m: int, max_tries: int = 50) -> CointCanonicalForm:
    """Random valid canonical-form model, minimal with full-row-rank C."""
    assert c < d <= c + n2 and m >= c
    for _ in range(max_tries):
        C1 = matops.positive_lower_triangularize(rng.normal(size=(d, c)))[0] if c else np.zeros((d, 0))
        cf = CointCanonicalForm(
            c=c,
            A2=random_hurwitz(rng, n2),
            B1=rng.normal(size=(c, m)),
            B2=rng.normal(size=(n2, m)),
            C1=C1,
            C2=rng.normal(size=(d, n2)),
            levy=brownian(m),
        )
        full_rank_c = matops.numerical_rank(cf.full_C()).rank == d
        if decoupled_minimality_check(cf).is_minimal and full_rank_c:
            return cf
    raise RuntimeError("could not draw a minimal random canonical model")


def conjugate(m: StateSpaceModel, T: np.ndarray) -> StateSpaceModel:
    Ti = np.linalg.inv(T)
    return StateSpaceModel(A=T @ m.A @ Ti, B=T @ m.B, C=m.C @ Ti, levy=m.levy)


def random_conjugated_model(rng: np.random.Generator, d: int, c: int, n2: int,
                            m: int) -> tuple[StateSpaceModel, CointCanonicalForm]:
    cf = random_canonical(rng, d, c, n2, m)
    base = assemble_from_canonical(cf)
    while True:
        T = rng.normal(size=(base.N, base.N))
        if np.linalg.cond(T) < 100.0:
            break
    return conjugate(base, T), cf


def random_mcarma(rng: np.random.Generator, d: int, p: int, q: int, m: int) -> McarmaModel:
    """Unstructured random coefficients; for algebra-only round trips."""
    P = tuple(rng.normal(size=(d, d)) for _ in range(p))
    Q = tuple(rng.normal(size=(d, m)) for _ in range(q + 1))
    return McarmaModel(p_coeffs=P, q_coeffs=Q, levy=brownian(m))


def _poly_from_roots(roots) -> np.ndarray:
    coeffs = np.array([1.0])
    for r in roots:
        coeffs = np.convolve(coeffs, np.array([1.0, -r]))
    return coeffs  # z^deg .. z^0


def random_coint_mcarma(rng: np.random.Generator, d: int, c: int, p: int, q: int,
                        m: int, max_tries: int = 80) -> McarmaModel:
    """Random cointegrated MCARMA model: P(z) = T diag(p_i(z)) T^{-1} where
    c scalar factors carry one zero root each and the rest are stable, so
    det P has exactly c zero roots and the zero eigenvalue of the companion
    matrix is automatically semisimple.
    """
    assert 0 < c < d and q < p and m >= c
    for _ in range(max_tries):
        polys = []
        for i in range(d):
            stable = list(rng.uniform(-2.4, -0.4, size=p - 1 if i < c else p))
            roots = ([0.0] + stable) if i < c else stable
            polys.append(_poly_from_roots(roots))
        while True:
            T = rng.normal(size=(d, d))
            if np.linalg.cond(T) < 50.0:
                break
        Ti = np.linalg.inv(T)
        P = []
        for k in range(1, p + 1):  # coefficient of z^{p-k} is P_k
            Dk = np.diag([polys[i][k] for i in range(d)])
            P.append(T @ Dk @ Ti)
        Q = tuple(rng.normal(size=(d, m)) for _ in range(q + 1))
        model = McarmaModel(p_coeffs=tuple(P), q_coeffs=Q, levy=brownian(m))
        if not check_cointegration(model).is_cointegrated:
            continue
        if minimality_report(mcarma_to_ss(model)).is_minimal:
            return model
    raise RuntimeError("could not draw a minimal cointegrated MCARMA model")


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
