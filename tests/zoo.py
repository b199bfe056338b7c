"""The suite's models, each defined once.

Named models are typed models, and `doc` is the one writer of their JSON
documents. Random models come from `random_canonical`,
`random_conjugated_model` and `random_coint_mcarma`, certified minimal by
the Popov-Belevitch-Hautus (PBH) test (Hautus 1969) rather than by the
library's Krylov rank tests, which lose about one digit per power (Paige
1981, IEEE TAC 26(1)): a generator that keeps only what the library accepts
cannot draw a model the library wrongly refuses. The rule and its threshold
are those of the benchmark's generator, ``perfbench/models.py``.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

import helpers
from cointssm import (
    CointCanonicalForm,
    LevySpec,
    McarmaModel,
    StateSpaceModel,
    assemble_from_canonical,
    canonicalize,
    matops,
    mcarma_to_ss,
)
from cointssm.modeldoc import canonical_to_doc, levy_to_doc, mat_to_list

# drivers


def brownian(m: int, sigma=None) -> LevySpec:
    return LevySpec(kind="brownian", sigma_L=np.eye(m) if sigma is None else np.asarray(sigma))


def pure_jump() -> LevySpec:
    """Compound-Poisson Gaussian jumps at rate 2 with covariance I/2 and no
    Brownian part (d = 2)."""
    return LevySpec(kind="compound_poisson_gaussian_jumps", sigma_L=np.eye(2),
                    jump_rate=2.0, jump_cov=0.5 * np.eye(2))


def mixed() -> LevySpec:
    """The jumps of `pure_jump` plus a unit Brownian component."""
    return LevySpec(kind="brownian_plus_compound_poisson", sigma_L=2.0 * np.eye(2),
                    jump_rate=2.0, jump_cov=0.5 * np.eye(2))


# named models


def scalar(levy: LevySpec | None = None) -> CointCanonicalForm:
    """d = 2, N = 2, fully observed: a unit root and an OU state."""
    return CointCanonicalForm(c=1, A2=[[-1.0]], B1=[[1.0, 0.0]], B2=[[0.0, 1.0]],
                              C1=[[1.0], [0.0]], C2=[[0.0], [1.0]], levy=levy or brownian(2))


def partial(levy: LevySpec | None = None) -> CointCanonicalForm:
    """d = 2, N = 3, partially observed, with a nontrivial closed loop."""
    return CointCanonicalForm(
        c=1, A2=[[-1.0, 0.4], [0.0, -2.0]], B1=[[1.0, 0.2]], B2=[[0.3, 1.0], [-0.4, 0.5]],
        C1=[[1.0], [0.0]], C2=[[0.5, -0.2], [1.0, 0.4]],
        levy=levy or brownian(2, [[1.0, 0.2], [0.2, 1.5]]),
    )


def slow() -> CointCanonicalForm:
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


def mcarma31() -> CointCanonicalForm:
    """The canonical form of the `MCARMA31_P`, `MCARMA31_Q` model with a
    standard Brownian driver; relative degree 3, so CB = CAB = 0, and its
    sampled closed loop has norm about 33, 360 and 3,650 at h = 0.1, 0.01
    and 0.001."""
    mc = McarmaModel(p_coeffs=MCARMA31_P, q_coeffs=MCARMA31_Q, levy=brownian(2))
    return canonicalize(mcarma_to_ss(mc))[0]


def mcar1(P1=((1.0, 0.0), (0.0, 0.0)), m: int = 2) -> McarmaModel:
    """MCAR(1), d = 2, with Q_0 the first m columns of I (the identity by
    default); cointegrated with r = 1 at its default P_1 = diag(1, 0)."""
    return McarmaModel(p_coeffs=(np.asarray(P1, dtype=float),), q_coeffs=(np.eye(2, m),),
                       levy=brownian(m))


def band(family: str, eps: float) -> McarmaModel:
    """MCARMA(2, 1) with P_1 = 3I, P_2 = diag(1, eps) and Q = (I, I) (family
    "mcarma21"), or MCAR(1) with P_1 = diag(1, eps) ("mcar1"). The
    companion's smallest singular value crosses the default rank tolerance
    for eps near 1e-8, where the unit-root count c flips from 1 to 0."""
    I, Pp = np.eye(2), np.diag([1.0, eps])
    if family == "mcarma21":
        return McarmaModel(p_coeffs=(3.0 * I, Pp), q_coeffs=(I, I), levy=brownian(2))
    return mcar1(Pp)


def band_conjugated(family: str, eps: float) -> StateSpaceModel:
    """The companion realization of `band` under the similarity
    T = I + 0.3 G, with G standard normal from ``default_rng(5)``."""
    ss = mcarma_to_ss(band(family, eps))
    G = np.random.default_rng(5).standard_normal((ss.N, ss.N))
    return conjugate(ss, np.eye(ss.N) + 0.3 * G)


def weak_input() -> StateSpaceModel:
    """Minimal at the default rank tolerance, not minimal at 1e-3: the
    stationary state is driven with weight 1e-5."""
    return StateSpaceModel(A=np.diag([0.0, -1.0]), B=np.diag([1.0, 1e-5]), C=np.eye(2),
                           levy=brownian(2))


def weak_b1() -> StateSpaceModel:
    """A = diag(0, 0, -1) with a unit-root input of weight 1e-10 in its
    second direction: minimal, with c = 2, only at rank tolerances below
    about 3.6e-11."""
    return StateSpaceModel(A=np.diag([0.0, 0.0, -1.0]), 
                           B=[[1.0, 0.0], [0.0, 1e-10], [1.0, 1.0]], C=np.eye(3), levy=brownian(2))


def jordan() -> StateSpaceModel:
    """A zero eigenvalue of multiplicity 2 in one Jordan block, and -1."""
    return StateSpaceModel(A=[[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -1.0]],
                           B=np.eye(3), C=np.eye(3), levy=brownian(3))


def stationary() -> CointCanonicalForm:
    """c = 0: one observed OU state."""
    return CointCanonicalForm(c=0, A2=[[-1.0]], B1=np.zeros((0, 1)), B2=[[1.0]],
                              C1=np.zeros((1, 0)), C2=[[1.0]], levy=brownian(1))


# documents


def doc(model, sampling: dict | None = None) -> dict:
    """The JSON document of a typed model, with ``sampling`` as its sampling block."""
    if isinstance(model, CointCanonicalForm):
        out = canonical_to_doc(model)
    elif isinstance(model, StateSpaceModel):
        out = {"schema_version": "1", "model_kind": "state_space", "A": mat_to_list(model.A),
               "B": mat_to_list(model.B), "C": mat_to_list(model.C),
               "levy": levy_to_doc(model.levy)}
    else:
        out = {"schema_version": "1", "model_kind": "mcarma",
               "p_coeffs": [mat_to_list(P) for P in model.p_coeffs],
               "q_coeffs": [mat_to_list(Q) for Q in model.q_coeffs],
               "levy": levy_to_doc(model.levy)}
    if sampling is not None:
        out["sampling"] = dict(sampling)
    return out


def scalar_doc(**sampling) -> dict:
    return doc(scalar(), {"h": 1.0, "n_steps": 400, "seed": 11, **sampling})


def partial_doc() -> dict:
    return doc(partial(), {"h": 0.5, "n_steps": 3000, "seed": 40})


def mcar1_doc(eps: float = 0.0) -> dict:
    """`band` ("mcar1", eps) with a sampling block: c = 1 at rank tolerances above eps."""
    return doc(band("mcar1", eps), {"h": 1.0, "n_steps": 200, "seed": 3})


def weak_input_doc() -> dict:
    return doc(weak_input())


def weak_b1_doc() -> dict:
    return doc(weak_b1())


# the PBH certificate

#: Smallest PBH singular value accepted, relative to 1 + max(||A||, ||B||, ||C||).
PBH_MIN = 1e-3


def pbh_margin(A: np.ndarray, B: np.ndarray, C: np.ndarray) -> float:
    """min over eigenvalues lambda of A of sigma_min([A - lambda I, B]) and
    sigma_min([A - lambda I; C]), relative to the model's scale."""
    N = A.shape[0]
    scale = 1.0 + max(np.linalg.norm(A), np.linalg.norm(B), np.linalg.norm(C))
    worst = np.inf
    for lam in np.linalg.eigvals(A):
        M = A - lam * np.eye(N)
        worst = min(worst,
                    sla.svdvals(np.hstack([M, B.astype(complex)]))[-1],
                    sla.svdvals(np.vstack([M, C.astype(complex)]))[-1])
    return float(worst / scale)


def is_pbh_minimal(m: StateSpaceModel) -> bool:
    """PBH-minimal, with C of full row rank to the same relative margin."""
    A, B, C = np.asarray(m.A), np.asarray(m.B), np.asarray(m.C)
    s = np.linalg.svd(C, compute_uv=False)
    return pbh_margin(A, B, C) >= PBH_MIN and s[-1] >= PBH_MIN * s[0]


# random models


def random_hurwitz(rng: np.random.Generator, n: int,
                   margin_lo: float = 0.3, margin_hi: float = 1.2) -> np.ndarray:
    if n == 0:
        return np.zeros((0, 0))
    M = rng.normal(size=(n, n))
    shift = float(np.max(np.linalg.eigvals(M).real)) + rng.uniform(margin_lo, margin_hi)
    return M - shift * np.eye(n)


def random_spd(rng: np.random.Generator, n: int) -> np.ndarray:
    G = rng.normal(size=(n, n))
    return G @ G.T + n * np.eye(n)


def random_canonical(rng: np.random.Generator, d: int, c: int, n2: int,
                     m: int, max_tries: int = 50) -> CointCanonicalForm:
    """Random canonical-form model, PBH-minimal with full-row-rank C."""
    assert c < d <= c + n2 and m >= c
    for _ in range(max_tries):
        C1 = (matops.positive_lower_triangularize(rng.normal(size=(d, c)))[0] if c
              else np.zeros((d, 0)))
        cf = CointCanonicalForm(
            c=c,
            A2=random_hurwitz(rng, n2),
            B1=rng.normal(size=(c, m)),
            B2=rng.normal(size=(n2, m)),
            C1=C1,
            C2=rng.normal(size=(d, n2)),
            levy=brownian(m),
        )
        if is_pbh_minimal(assemble_from_canonical(cf)):
            return cf
    raise RuntimeError("could not draw a PBH-minimal random canonical model")


def conjugate(m: StateSpaceModel, T: np.ndarray) -> StateSpaceModel:
    Ti = np.linalg.inv(T)
    return StateSpaceModel(A=T @ m.A @ Ti, B=T @ m.B, C=m.C @ Ti, levy=m.levy)


def random_conjugated_model(rng: np.random.Generator, d: int, c: int, n2: int,
                            m: int) -> tuple[StateSpaceModel, CointCanonicalForm]:
    """`random_canonical`'s model under a random similarity T with cond(T) < 100."""
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


def random_coint_mcarma(rng: np.random.Generator, d: int, c: int, p: int, q: int,
                        m: int, max_tries: int = 80) -> McarmaModel:
    """Random cointegrated MCARMA model with a PBH-minimal companion
    realization: P(z) = T diag(p_i(z)) T^{-1}, where c scalar factors carry
    one zero root each and the rest are stable. So det P has exactly c zero
    roots, all others stable (condition (a)), and P_p has rank r = d - c
    (condition (b)); `helpers.transversality_oracle` certifies condition (c).
    """
    assert 0 < c < d and q < p and m >= c
    for _ in range(max_tries):
        polys = []
        for i in range(d):
            stable = list(rng.uniform(-2.4, -0.4, size=p - 1 if i < c else p))
            roots = ([0.0] + stable) if i < c else stable
            polys.append(np.poly(roots))  # z^p .. z^0
        while True:
            T = rng.normal(size=(d, d))
            if np.linalg.cond(T) < 50.0:
                break
        Ti = np.linalg.inv(T)
        # the coefficient of z^{p-k} is P_k
        P = tuple(T @ np.diag([poly[k] for poly in polys]) @ Ti for k in range(1, p + 1))
        Q = tuple(rng.normal(size=(d, m)) for _ in range(q + 1))
        model = McarmaModel(p_coeffs=P, q_coeffs=Q, levy=brownian(m))
        if helpers.transversality_oracle(model) == (c, True) and \
                is_pbh_minimal(mcarma_to_ss(model)):
            return model
    raise RuntimeError("could not draw a PBH-minimal cointegrated MCARMA model")

