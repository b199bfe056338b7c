"""Path generation for the sampled canonical model.

One exact sampler of the discrete recursion for every supported driver:
the i.i.d. step noise is a Gaussian draw from the exact covariance of the
driver's Brownian component plus compound-Poisson jumps, each placed at its
exact time within the step and carried to the step's end by
`matops.expm_action` (no exponential per jump). Paths are fully
reproducible from (seed, path_index) via independent derived streams, and
the stationary block is stepped with `matops.linear_recursion`.

A path is ``y = C1 (x1_0 + cumsum(r1)) + C2 x2``. `PathSet` stores
``y``, the sampled model, the canonical form, the stream
``(seed, path_index)`` and ``x1_0``. Only `simulate_exact_full` keeps the
states ``(r1, x1, x2)``, from the run that made ``y``: a rerun would give
them back bit for bit only on the BLAS kernel that made ``y``, so nothing
reruns a sampler after it has returned. The Gaussian noise is drawn
``DRAW_ROWS`` rows at a time into one block and multiplied from there
into ``r1`` and ``x2``, and ``C2 x2`` is added to ``y`` in blocks of rows,
so no path-sized draws or ``C2 x2`` array is formed. The stream is that
of one draw of the whole array. So are the values, bitwise, on a GEMM
kernel that rounds a row alike wherever it sits (OpenBLAS's Haswell or
Zen), except in one-step ensembles (an ulp at most: numpy multiplied each
one-row path by gemv, and the blocks use gemm); a kernel that rounds its
tail rows apart (Nehalem's) moves some rows by an ulp or so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import matops, moments
from .errors import ValidationError
from .model import CointCanonicalForm
from .moments import SampledModel

#: Rows per block of the Gaussian noise draws and of the ``C2 x2`` sums.
DRAW_ROWS = 4096

#: Most jumps one sampler run may expect: numpy's largest Poisson mean, ten
#: standard deviations below the int64 limit of the counts and their total.
MAX_JUMPS = float(np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max))


@dataclass(frozen=True)
class PathSet:
    """One simulated path of the sampled model.

    Row ``n`` (0-based) holds time ``(n+1) h``. Stored: the observations
    ``y``, the sampled model ``sm``, the canonical form ``cf``, the stream
    ``(seed, path_index)``, the unit-root start ``x1_0`` and ``states``,
    the ``(r1, x1, x2)`` of the sampler run that made ``y`` (None for a
    path of `simulate_exact_gaussian`, which keeps only ``y``); ``h``,
    ``driver_kind`` and the observation blocks ``c1`` and ``c2`` are read
    off ``sm`` and ``cf``. ``x2`` is the stationary state,
    ``r1 = B1 (L(nh) - L((n-1)h))`` the unit-root noise,
    ``x1 = x1_0 + cumsum(r1)``, ``y2 = C2 x2`` the stationary part and
    ``times = h (1..n)``, with ``y = C1 x1 + y2``. Reading ``r1``, ``x1``,
    ``x2`` or ``y2`` of a path without states raises `ValidationError`.
    """

    y: np.ndarray
    x1_0: np.ndarray
    seed: int
    path_index: int
    sm: SampledModel
    cf: CointCanonicalForm
    states: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @property
    def h(self) -> float:
        return self.sm.h

    @property
    def driver_kind(self) -> str:
        return self.cf.levy.kind

    @property
    def c1(self) -> np.ndarray:
        return self.cf.C1

    @property
    def c2(self) -> np.ndarray:
        return self.cf.C2

    @property
    def n_steps(self) -> int:
        return self.y.shape[0]

    @cached_property
    def times(self) -> np.ndarray:
        return self.h * np.arange(1, self.n_steps + 1)

    def _state(self, i: int) -> np.ndarray:
        if self.states is None:
            raise ValidationError("this path keeps only y; simulate it with "
                                  "simulate_exact_full to read its states")
        return self.states[i]

    @property
    def r1(self) -> np.ndarray:
        return self._state(0)

    @property
    def x1(self) -> np.ndarray:
        return self._state(1)

    @property
    def x2(self) -> np.ndarray:
        return self._state(2)

    @cached_property
    def y2(self) -> np.ndarray:
        return self.x2 @ self.c2.T


def _check_index(value, name: str) -> int:
    """A seed or stream index: a non-negative integer that is not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise ValidationError(f"{name} must be a non-negative integer, got {value!r}")
    return int(value)


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


def _row_blocks(n_rows: int) -> list[slice]:
    """Consecutive slices of at most ``DRAW_ROWS`` rows covering
    ``range(n_rows)``, none of one row unless ``n_rows`` is 1: numpy
    multiplies one row by gemv, which rounds differently from gemm."""
    stops = list(range(DRAW_ROWS, n_rows, DRAW_ROWS)) + [n_rows]
    if len(stops) > 1 and n_rows % DRAW_ROWS == 1:
        stops[-2] -= 1
    return [slice(lo, hi) for lo, hi in zip([0] + stops[:-1], stops)]


def _levels(x1_0: np.ndarray, r1: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``x1 = x1_0 + cumsum(r1)`` along the time axis -2, into ``out`` if given."""
    x1 = np.cumsum(r1, axis=-2, out=out)
    x1 += x1_0
    return x1


def _observe(cf: CointCanonicalForm, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """``y = C1 x1 + C2 x2``, time on axis -2; ``C2 x2`` is added in row
    blocks, so the only path-sized array formed is ``y``."""
    y = x1 @ np.asarray(cf.C1).T
    c2t = np.asarray(cf.C2).T
    n_rows = math.prod(y.shape[:-1])
    flat_y, flat_x2 = y.reshape(n_rows, cf.d), x2.reshape(n_rows, cf.n2)
    for rows in _row_blocks(n_rows):
        flat_y[rows] += flat_x2[rows] @ c2t
    return y


def _gaussian_noise(rng: np.random.Generator, factor: np.ndarray, c: int, n_paths: int,
                    n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """``(r1, x2)``: the rows ``Z @ factor[:c].T`` and ``Z @ factor[c:].T`` of
    ``Z = rng.standard_normal((n_paths, n_steps, N))``, drawn ``DRAW_ROWS``
    rows at a time into one block; the stream is that of the one-shot draw
    (the products too, up to the GEMM kernel's rounding of tail rows)."""
    n_rows, N = n_paths * n_steps, factor.shape[0]
    r1, x2 = np.empty((n_rows, c)), np.empty((n_rows, N - c))
    block = np.empty((min(DRAW_ROWS, n_rows), N))
    for rows in _row_blocks(n_rows):
        draws = block[:rows.stop - rows.start]
        rng.standard_normal(out=draws)
        np.matmul(draws, factor[:c].T, out=r1[rows])
        np.matmul(draws, factor[c:].T, out=x2[rows])
    return r1.reshape(n_paths, n_steps, c), x2.reshape(n_paths, n_steps, N - c)


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
    the Gaussian part of shape (n_paths, n_steps, N) first (in blocks,
    ``_gaussian_noise``), then the stationary starts N(0, gamma0), then the
    jumps, so a one-path ensemble reproduces the single-path sampler on the
    same stream and the Gaussian draws do not depend on the jumps. gamma0 is
    the canonical form's (`CointCanonicalForm.gamma0`), solved once per
    model. The stationary noise is kept path-major and scanned in place.
    Returns ``(x1_0, r1, x2)`` with the path axis first.
    """
    if n_steps < 1:
        raise ValidationError(f"n_steps must be >= 1, got {n_steps}")
    if n_paths < 1:
        raise ValidationError(f"n_paths must be >= 1, got {n_paths}")
    if n_paths * n_steps * cf.N * 8 > np.iinfo(np.intp).max:
        raise ValidationError(f"{n_paths * n_steps} steps of {cf.N} doubles are more than "
                              f"the largest array holds")
    if cf.levy.jump_rate * sm.h * n_steps * n_paths > MAX_JUMPS:
        raise ValidationError(
            f"jump_rate * h = {cf.levy.jump_rate * sm.h:.6g} jumps per step over "
            f"{n_paths * n_steps} steps exceeds the {MAX_JUMPS:.4g} jumps a run can count")
    x0 = _check_x1_0(cf, x1_0)
    if cf.levy.jump_rate > 0:
        _, sigma_w = moments.van_loan(cf, sm.h, cf.levy.diffusion_cov)
    else:
        sigma_w = sm.sigma_tilde
    noise_factor = matops.psd_factor(sigma_w, name="Brownian noise covariance")
    r1, x2 = _gaussian_noise(rng, noise_factor, cf.c, n_paths, n_steps)
    g_factor = matops.psd_factor(cf.gamma0, name="gamma0")
    start = rng.standard_normal((n_paths, cf.n2)) @ g_factor.T
    if cf.levy.jump_rate > 0:
        _add_jumps(r1, x2, cf, sm.h, rng)
    steps = x2.transpose(1, 0, 2)
    matops.linear_recursion(sm.eA2h, steps, start)
    return x0, r1, x2


def simulate_exact_gaussian(sm: SampledModel, cf: CointCanonicalForm, n_steps: int,
                            x1_0=None, seed: int = 0, path_index: int = 0) -> PathSet:
    """Exact path of the sampled recursion, for every supported driver.

    The noise vectors are i.i.d. with covariance sigma_tilde: Gaussian for a
    Brownian driver, Gaussian plus exactly placed compound-Poisson jumps
    otherwise. The stationary block starts from N(0, gamma0), which has the
    stationary mean and covariance (for a jump driver not its higher
    cumulants); the unit-root block starts from x1_0. The result keeps
    only ``y``: reading its states raises `ValidationError`, and a caller
    that needs them calls `simulate_exact_full`.
    """
    ps = simulate_exact_full(sm, cf, n_steps, x1_0, seed, path_index)
    return replace(ps, states=None)


def simulate_exact_full(sm: SampledModel, cf: CointCanonicalForm, n_steps: int, x1_0=None,
                        seed: int = 0, path_index: int = 0) -> PathSet:
    """The path of `simulate_exact_gaussian` on the stream
    ``(seed, path_index)``, with the states ``(r1, x1, x2)`` of its sampler
    run kept in `PathSet.states`. The path holds about ``(2 c + n2) / d``
    times the memory of ``y`` more."""
    seed, path_index = _check_index(seed, "seed"), _check_index(path_index, "path_index")
    x0, r1, x2 = _exact_paths(sm, cf, n_steps, 1, x1_0, _stream(seed, path_index))
    r1, x2 = r1[0], x2[0]
    x1 = _levels(x0, r1)
    return PathSet(y=_observe(cf, x1, x2), x1_0=x0, seed=seed, path_index=path_index, sm=sm,
                   cf=cf, states=(r1, x1, x2))


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
    (n_paths, n_steps, d). With ``n_paths = 1`` the path equals
    ``simulate_exact_gaussian(..., seed=seed).y``; with more, path 0 does
    not, since every path's Gaussian noise is drawn before the stationary
    starts. The unit-root levels are summed over ``r1`` in place.
    """
    rng = _stream(_check_index(seed, "seed"), 0)
    x0, r1, x2 = _exact_paths(sm, cf, n_steps, n_paths, x1_0, rng)
    return _observe(cf, _levels(x0, r1, out=r1), x2)


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
    the difference at machine precision. Needs the path's states, so a path
    of `simulate_exact_gaussian` raises `ValidationError`.
    """
    if ps.n_steps < 2:
        raise ValidationError(f"need at least 2 steps to difference, got {ps.n_steps}")
    dy = np.diff(ps.y, axis=0)
    unit = ps.r1[1:] @ ps.c1.T
    stat = np.diff(ps.y2, axis=0)
    return FirstDifference(dy=dy, unit_root_part=unit, stationary_part=stat)
