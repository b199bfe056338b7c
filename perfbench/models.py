"""The benchmark's own model generator.

Every model is certified minimal with the Popov-Belevitch-Hautus (PBH)
test, not with the library's Krylov rank test: for each eigenvalue lambda
of A, the smallest singular value of [A - lambda I, B] and of
[A - lambda I; C] must stay above PBH_MIN (relative to the model's scale).
The Krylov matrices (B, AB, ..., A^{N-1} B) lose about one digit of
conditioning per power, so from N = 12 on they fall below the library's
relative rank tolerance on models that PBH certifies with a wide margin.
`false_reject_probe` measures that.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from cointssm import (
    CointCanonicalForm,
    LevySpec,
    McarmaModel,
    StateSpaceModel,
    assemble_from_canonical,
    check_cointegration,
    matops,
    mcarma_to_ss,
    realization,
)

#: Smallest PBH singular value accepted, relative to 1 + ||[A B; C 0]||.
PBH_MIN = 1e-3
#: Largest condition number of a random similarity transform.
CONJ_COND_MAX = 100.0
MAX_DRAWS = 200


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
    A, B, C = np.asarray(m.A), np.asarray(m.B), np.asarray(m.C)
    s = np.linalg.svd(C, compute_uv=False)
    return pbh_margin(A, B, C) >= PBH_MIN and s[-1] >= PBH_MIN * s[0]


def _hurwitz(rng: np.random.Generator, n: int) -> np.ndarray:
    M = rng.normal(size=(n, n))
    shift = float(np.max(np.linalg.eigvals(M).real)) + rng.uniform(0.3, 1.2)
    return M - shift * np.eye(n)


def random_canonical(rng: np.random.Generator, d: int, c: int, n2: int,
                     levy: LevySpec | None = None) -> CointCanonicalForm:
    """PBH-minimal canonical model with m = d and full-row-rank C."""
    levy = levy or LevySpec(kind="brownian", sigma_L=np.eye(d))
    for _ in range(MAX_DRAWS):
        C1 = matops.positive_lower_triangularize(rng.normal(size=(d, c)))[0]
        cf = CointCanonicalForm(
            c=c, A2=_hurwitz(rng, n2), B1=rng.normal(size=(c, d)),
            B2=rng.normal(size=(n2, d)), C1=C1, C2=rng.normal(size=(d, n2)),
            levy=levy,
        )
        if is_pbh_minimal(assemble_from_canonical(cf)):
            return cf
    raise RuntimeError(f"no PBH-minimal canonical model at (d,c,n2)=({d},{c},{n2})")


def conjugate(rng: np.random.Generator, cf: CointCanonicalForm) -> StateSpaceModel:
    """The assembled canonical model under a random similarity T, cond(T) < 100."""
    base = assemble_from_canonical(cf)
    while True:
        T = rng.normal(size=(base.N, base.N))
        if np.linalg.cond(T) < CONJ_COND_MAX:
            break
    Ti = np.linalg.inv(T)
    return StateSpaceModel(A=T @ base.A @ Ti, B=T @ base.B, C=base.C @ Ti, levy=base.levy)


def random_coint_mcarma(rng: np.random.Generator, d: int, c: int, p: int) -> McarmaModel:
    """Cointegrated MCARMA(p, 1) with m = d and a PBH-minimal companion
    realization: P(z) = T diag(p_i(z)) T^{-1}, where c scalar factors carry
    one zero root each and all other roots are real and stable. Q(z) is
    Q_0 (z I - Z) with the eigenvalues of Z real and stable too, so the
    model is minimum phase and no transmission zero sits near the unit
    root, where the Riccati iteration would crawl."""
    levy = LevySpec(kind="brownian", sigma_L=np.eye(d))
    for _ in range(MAX_DRAWS):
        polys = []
        for i in range(d):
            roots = list(rng.uniform(-2.4, -0.4, size=p - 1 if i < c else p))
            polys.append(np.poly(([0.0] if i < c else []) + roots))
        T, Q0, U = (rng.normal(size=(d, d)) for _ in range(3))
        if max(np.linalg.cond(T), np.linalg.cond(Q0), np.linalg.cond(U)) >= 50.0:
            continue
        Ti = np.linalg.inv(T)
        P = tuple(T @ np.diag([poly[k] for poly in polys]) @ Ti for k in range(1, p + 1))
        Z = U @ np.diag(rng.uniform(-2.4, -0.4, size=d)) @ np.linalg.inv(U)
        model = McarmaModel(p_coeffs=P, q_coeffs=(Q0, -Q0 @ Z), levy=levy)
        if check_cointegration(model).is_cointegrated and is_pbh_minimal(mcarma_to_ss(model)):
            return model
    raise RuntimeError(f"no cointegrated PBH-minimal MCARMA model at d={d}, p={p}")


#: (d, c, n2) of the minimality probes: N = 12, and the ROADMAP corner N = 19.
PROBE_SHAPES = ((6, 2, 10), (8, 3, 16))
PROBE_MODELS = 10
PROBE_SEED = 20161124


def false_reject_probe() -> dict:
    """Share of PBH-minimal random conjugations that `canonicalize` rejects.

    Fixed seed and shapes, so the share repeats exactly on one commit.
    """
    rng = np.random.default_rng(PROBE_SEED)
    rejected, by_shape = 0, {}
    for d, c, n2 in PROBE_SHAPES:
        errors = []
        for _ in range(PROBE_MODELS):
            model = conjugate(rng, random_canonical(rng, d, c, n2))
            try:
                realization.canonicalize(model)
            except Exception as exc:  # any rejection of a minimal model is false
                errors.append(type(exc).__name__)
        rejected += len(errors)
        by_shape[f"{d},{c},{n2}"] = {"rejected": len(errors), "of": PROBE_MODELS,
                                     "errors": sorted(set(errors))}
    return {"false_reject_frac": rejected / (PROBE_MODELS * len(PROBE_SHAPES)),
            "by_shape": by_shape}
