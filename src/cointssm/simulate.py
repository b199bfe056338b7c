"""Path generation for the sampled canonical model.

One exact sampler of the discrete recursion for every supported driver:
the i.i.d. step noise is a Gaussian draw from the exact covariance of the
driver's Brownian component plus compound-Poisson jumps, each placed at its
exact time within the step and carried to the step's end by
`matops.expm_action` (no exponential per jump). Paths are fully
reproducible from (seed, path_index) via independent derived streams, and
the stationary block is stepped with `matops.linear_recursion`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matops, moments
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


def _observe(cf: CointCanonicalForm, x1_0: np.ndarray, r1: np.ndarray,
             x2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(x1, y2, y)`` with ``x1 = x1_0 + cumsum(r1)``, ``y2 = C2 x2`` and
    ``y = C1 x1 + y2``, time on axis -2; no array beyond those three."""
    x1 = np.cumsum(r1, axis=-2)
    x1 += x1_0
    y2 = x2 @ np.asarray(cf.C2).T
    y = x1 @ np.asarray(cf.C1).T
    y += y2
    return x1, y2, y


def _assemble_paths(cf: CointCanonicalForm, h: float, x1_0: np.ndarray,
                    r1: np.ndarray, x2: np.ndarray, seed: int) -> PathSet:
    n_steps = r1.shape[0]
    x1, y2, y = _observe(cf, x1_0, r1, x2)
    times = h * np.arange(1, n_steps + 1)
    return PathSet(h=h, times=times, y=y, x1=x1, x2=x2, r1=r1, y2=y2,
                   c1=np.array(cf.C1), seed=seed, driver_kind=cf.levy.kind)


def _add_jumps(r1: np.ndarray, r2: np.ndarray, cf: CointCanonicalForm, h: float,
               rng: np.random.Generator) -> None:
    """Add every step's compound-Poisson jumps to its rows of the unit-root
    noise ``r1`` and the stationary noise ``r2`` in place.

    Each step of each path gets Poisson(lambda h) jumps at ages ``h U(0,1)``
    before the step's end; a mark ``Z ~ N(0, jump_cov)`` enters the noise as
    ``[B1 Z; e^{A2 age} B2 Z]``, the second part from `matops.expm_action`
    (no exponential per jump). Draws the counts, then the ages, then the
    marks. The jumps come in (path, step) order, so one reduction sums each
    step's jumps before they are added to its noise row.
    """
    levy = cf.levy
    counts = rng.poisson(levy.jump_rate * h, size=r1.shape[:-1])
    ages = h * rng.random(int(counts.sum()))
    jump_factor = matops.psd_factor(np.asarray(levy.jump_cov), name="jump_cov")
    marks = rng.standard_normal((ages.size, cf.m)) @ jump_factor.T
    kicks = np.hstack([marks @ np.asarray(cf.B1).T, marks @ np.asarray(cf.B2).T])
    del marks
    kicks[:, cf.c:] = matops.expm_action(cf.A2, h, ages, kicks[:, cf.c:])
    steps = np.nonzero(counts)
    n_jumps = counts[steps]
    sums = np.add.reduceat(kicks, np.cumsum(n_jumps) - n_jumps, axis=0)
    r1[steps] += sums[:, :cf.c]
    r2[steps] += sums[:, cf.c:]


def _exact_paths(sm: SampledModel, cf: CointCanonicalForm, n_steps: int, n_paths: int,
                 x1_0, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact sampler behind both public APIs, for every supported driver.

    The noise of one step, ``R_n = int e^{A(nh-u)} B dL(u)``, is a Gaussian
    part N(0, sigma_W), with sigma_W the Van Loan integral of the Brownian
    component's covariance (``sm.sigma_tilde`` itself for a driver without
    jumps), plus the step's jumps (``_add_jumps``). Draws
    the Gaussian part of shape (n_paths, n_steps, N) first, then the
    stationary starts N(0, gamma0), then the jumps, so one path of an
    ensemble reproduces the single-path sampler on the same stream and the
    Gaussian draws do not depend on the jumps. The stationary noise is kept
    path-major and scanned in place. Returns ``(x1_0, r1, x2)`` with the
    path axis first.
    """
    if n_steps < 1:
        raise ValidationError(f"n_steps must be >= 1, got {n_steps}")
    if n_paths < 1:
        raise ValidationError(f"n_paths must be >= 1, got {n_paths}")
    x0 = _check_x1_0(cf, x1_0)
    if cf.levy.jump_rate > 0:
        _, sigma_w = moments.van_loan(cf, sm.h, cf.levy.diffusion_cov)
    else:
        sigma_w = sm.sigma_tilde
    noise_factor = matops.psd_factor(sigma_w, name="Brownian noise covariance")
    draws = rng.standard_normal((n_paths, n_steps, sm.N))
    r1, x2 = draws @ noise_factor[:cf.c].T, draws @ noise_factor[cf.c:].T
    del draws
    g_factor = matops.psd_factor(np.asarray(sm.gamma0), name="gamma0")
    start = rng.standard_normal((n_paths, cf.n2)) @ g_factor.T
    if cf.levy.jump_rate > 0:
        _add_jumps(r1, x2, cf, sm.h, rng)
    steps = x2.transpose(1, 0, 2)
    matops.linear_recursion(sm.eA2h, steps, start)
    return x0, r1, x2


def simulate_exact_gaussian(
    sm: SampledModel,
    cf: CointCanonicalForm,
    n_steps: int,
    x1_0=None,
    seed: int = 0,
    path_index: int = 0,
) -> PathSet:
    """Exact path of the sampled recursion, for every supported driver.

    The noise vectors are i.i.d. with covariance sigma_tilde: Gaussian for a
    Brownian driver, Gaussian plus exactly placed compound-Poisson jumps
    otherwise. The stationary block starts from N(0, gamma0), which has the
    stationary mean and covariance (for a jump driver not its higher
    cumulants); the unit-root block starts from x1_0.
    """
    x0, r1, x2 = _exact_paths(sm, cf, n_steps, 1, x1_0, _stream(seed, path_index))
    return _assemble_paths(cf, sm.h, x0, r1[0], x2[0], seed)


def simulate_gaussian_ensemble(
    sm: SampledModel,
    cf: CointCanonicalForm,
    n_steps: int,
    n_paths: int,
    x1_0=None,
    seed: int = 0,
) -> np.ndarray:
    """Monte-Carlo sampler: ``n_paths`` independent exact paths at once, for
    every supported driver, returning observations of shape
    (n_paths, n_steps, d). Path 0 equals
    ``simulate_exact_gaussian(..., seed=seed).y``.
    """
    x0, r1, x2 = _exact_paths(sm, cf, n_steps, n_paths, x1_0, _stream(seed, 0))
    return _observe(cf, x0, r1, x2)[2]


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
