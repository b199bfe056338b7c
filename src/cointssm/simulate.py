"""Path generation for the sampled canonical model.

Two routes: exact Gaussian sampling of the discrete recursion (Brownian
drivers only, noise drawn straight from the exact covariance), and a
refined-grid Euler scheme that handles compound-Poisson jumps. Both are
fully reproducible from (seed, path_index) via independent derived streams
and step the stationary block with `matops.linear_recursion`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matops
from .errors import ValidationError
from .model import CointCanonicalForm
from .moments import SampledModel


@dataclass(frozen=True)
class PathSet:
    """One simulated path of the sampled model.

    Row ``n`` (0-based) holds time ``(n+1) h``; ``r1`` retains the unit-root
    noise ``B1 (L(nh) - L((n-1)h))`` and ``y2 = C2 x2`` the stationary part,
    both needed by the innovation-representation cross-checks. ``c1`` keeps
    the observation block of the generating model so the decompositions can
    be reproduced from the path alone.
    """

    h: float
    times: np.ndarray
    y: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    r1: np.ndarray
    y2: np.ndarray
    c1: np.ndarray
    seed: int
    driver_kind: str

    @property
    def n_steps(self) -> int:
        return self.y.shape[0]


def _stream(seed: int, path_index: int) -> np.random.Generator:
    """Independent reproducible stream derived from (seed, path_index)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(path_index,)))


def _check_x1_0(cf: CointCanonicalForm, x1_0) -> np.ndarray:
    if x1_0 is None:
        return np.zeros(cf.c)
    x0 = matops.as_vector(x1_0, "x1_0")
    if x0.size != cf.c:
        raise ValidationError(f"x1_0 has length {x0.size}, expected c={cf.c}")
    return x0


def _assemble_paths(cf: CointCanonicalForm, h: float, x1_0: np.ndarray,
                    r1: np.ndarray, x2: np.ndarray, seed: int) -> PathSet:
    n_steps = r1.shape[0]
    x1 = x1_0 + np.cumsum(r1, axis=0)
    y2 = x2 @ np.asarray(cf.C2).T
    y = x1 @ np.asarray(cf.C1).T + y2
    times = h * np.arange(1, n_steps + 1)
    return PathSet(h=h, times=times, y=y, x1=x1, x2=x2, r1=r1, y2=y2,
                   c1=np.array(cf.C1), seed=seed, driver_kind=cf.levy.kind)


def _gaussian_paths(sm: SampledModel, cf: CointCanonicalForm, n_steps: int, n_paths: int,
                    x1_0, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact Gaussian sampler behind both public APIs.

    Draws the noise ``R`` of shape (n_paths, n_steps, N) first, then the
    stationary starts, so one path of an ensemble reproduces the single-path
    sampler on the same stream. Returns ``(x1_0, r1, x2)`` with the path
    axis first.
    """
    if cf.levy.kind != "brownian":
        raise ValidationError(
            f"exact Gaussian sampling needs a Brownian driver, got {cf.levy.kind!r}"
        )
    if n_steps < 1:
        raise ValidationError(f"n_steps must be >= 1, got {n_steps}")
    if n_paths < 1:
        raise ValidationError(f"n_paths must be >= 1, got {n_paths}")
    x0 = _check_x1_0(cf, x1_0)
    noise_factor = matops.psd_factor(np.asarray(sm.sigma_tilde), name="sigma_tilde")
    R = rng.standard_normal((n_paths, n_steps, sm.N)) @ noise_factor.T
    g_factor = matops.psd_factor(np.asarray(sm.gamma0), name="gamma0")
    start = rng.standard_normal((n_paths, cf.n2)) @ g_factor.T
    x2 = matops.linear_recursion(sm.eA2h, R[:, :, cf.c:].transpose(1, 0, 2), start)
    return x0, R[:, :, :cf.c], x2.transpose(1, 0, 2)


def simulate_exact_gaussian(
    sm: SampledModel,
    cf: CointCanonicalForm,
    n_steps: int,
    x1_0=None,
    seed: int = 0,
    path_index: int = 0,
) -> PathSet:
    """Exact path of the sampled recursion for a Brownian driver.

    Noise vectors are i.i.d. N(0, sigma_tilde); the stationary block starts
    from its stationary law N(0, gamma0) and the unit-root block from x1_0.
    """
    x0, r1, x2 = _gaussian_paths(sm, cf, n_steps, 1, x1_0, _stream(seed, path_index))
    return _assemble_paths(cf, sm.h, x0, r1[0], x2[0], seed)


def simulate_gaussian_ensemble(
    sm: SampledModel,
    cf: CointCanonicalForm,
    n_steps: int,
    n_paths: int,
    x1_0=None,
    seed: int = 0,
) -> np.ndarray:
    """Monte-Carlo sampler: ``n_paths`` independent exact Gaussian paths at
    once, returning observations of shape (n_paths, n_steps, d). Path 0
    equals ``simulate_exact_gaussian(..., seed=seed).y``.
    """
    x0, r1, x2 = _gaussian_paths(sm, cf, n_steps, n_paths, x1_0, _stream(seed, 0))
    return (x0 + np.cumsum(r1, axis=1)) @ np.asarray(cf.C1).T + x2 @ np.asarray(cf.C2).T


def default_burn_in(cf: CointCanonicalForm, h: float) -> int:
    """Steps needed for the stationary block to forget its start: ten time
    constants of the slowest stable mode, expressed in sampling steps.
    """
    decay = -matops.spectral_abscissa(np.asarray(cf.A2))  # inf when n2 = 0
    return int(math.ceil(10.0 / (decay * h)))


def simulate_levy_euler(
    cf: CointCanonicalForm,
    h: float,
    n_steps: int,
    refinement: int = 64,
    x1_0=None,
    burn_in: int | None = None,
    seed: int = 0,
    path_index: int = 0,
) -> PathSet:
    """Euler path on a refined grid for any supported driver.

    Each coarse step splits into ``refinement`` substeps; the Brownian part
    is exact per substep and jumps arrive as Poisson counts with mean-zero
    Gaussian sizes, placed at the substep start (left-point rule, bias
    O(h/refinement)). The stationary block is advanced by its exact substep
    transition; the unit-root block accumulates increments exactly. The
    first ``burn_in`` coarse steps only warm the stationary state.
    """
    if refinement < 1:
        raise ValidationError(f"refinement must be >= 1, got {refinement}")
    if n_steps < 1:
        raise ValidationError(f"n_steps must be >= 1, got {n_steps}")
    if h <= 0:
        raise ValidationError(f"step h must be positive, got {h}")
    if burn_in is None:
        burn_in = default_burn_in(cf, h)
    if burn_in < 0:
        raise ValidationError(f"burn_in must be >= 0, got {burn_in}")
    x0 = _check_x1_0(cf, x1_0)
    levy = cf.levy
    n2, m = cf.n2, cf.m

    delta = h / refinement
    diff_factor = matops.psd_factor(levy.diffusion_cov, name="diffusion covariance")
    has_jumps = levy.kind != "brownian" and levy.jump_rate > 0
    jump_factor = (
        matops.psd_factor(np.asarray(levy.jump_cov), name="jump_cov") if has_jumps else None
    )

    B1, B2 = np.asarray(cf.B1), np.asarray(cf.B2)
    eA2d = matops.expm(np.asarray(cf.A2) * delta)
    # left-point weights: the increment at substep k propagates through
    # e^{A2 (h - k delta)}, so weights[k] = (e^{A2 (refinement - k) delta} B2)'
    weights = matops.linear_recursion(eA2d, np.zeros((refinement, m, n2)), B2.T)[::-1]
    eA2h = np.linalg.matrix_power(eA2d, refinement)

    rng = _stream(seed, path_index)
    state2 = np.zeros(n2)
    x2, incr = [], []
    total = burn_in + n_steps
    chunk = max(1, min(total, 1 << 14))
    for done in range(0, total, chunk):
        size = min(chunk, total - done)
        dL = math.sqrt(delta) * (rng.standard_normal((size, refinement, m)) @ diff_factor.T)
        if has_jumps:
            counts = rng.poisson(levy.jump_rate * delta, size=(size, refinement))
            dL += np.sqrt(counts)[:, :, None] * (
                rng.standard_normal((size, refinement, m)) @ jump_factor.T
            )
        x2.append(matops.linear_recursion(eA2h, np.einsum("skm,kmn->sn", dL, weights), state2))
        state2 = x2[-1][-1]
        incr.append(dL.sum(axis=1))
    # the first burn_in steps only warm the stationary state
    r1 = np.concatenate(incr)[burn_in:] @ B1.T
    x2 = np.concatenate(x2)[burn_in:]
    return _assemble_paths(cf, h, x0, r1, x2, seed)


@dataclass(frozen=True)
class FirstDifference:
    """Increments of a path split into the unit-root and stationary summands:
    ``dy = C1 r1 + (y2_n - y2_{n-1})`` row by row.
    """

    dy: np.ndarray
    unit_root_part: np.ndarray
    stationary_part: np.ndarray


def first_difference(ps: PathSet) -> FirstDifference:
    """First difference of the path with its two-summand decomposition.

    Rows correspond to steps 2..n_steps of the path; the summands add up to
    the difference at machine precision.
    """
    if ps.n_steps < 2:
        raise ValidationError(f"need at least 2 steps to difference, got {ps.n_steps}")
    dy = np.diff(ps.y, axis=0)
    unit = ps.r1[1:] @ ps.c1.T
    stat = np.diff(ps.y2, axis=0)
    return FirstDifference(dy=dy, unit_root_part=unit, stationary_part=stat)
