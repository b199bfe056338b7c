import numpy as np
import pytest

import helpers
from cointssm import (
    CointCanonicalForm,
    LevySpec,
    cointegration_space,
    discretize,
    first_difference,
    simulate_exact_gaussian,
    simulate_gaussian_ensemble,
)
from cointssm import matops, simulate
from cointssm.errors import NumericError, ValidationError


def jump_fixture(kind: str = "compound_poisson_gaussian_jumps") -> CointCanonicalForm:
    """The scalar fixture driven by jumps at rate 2 with covariance I/2
    (plus a unit Brownian component for the mixed kind)."""
    sigma = np.eye(2) if kind == "compound_poisson_gaussian_jumps" else 2.0 * np.eye(2)
    levy = LevySpec(kind=kind, sigma_L=sigma, jump_rate=2.0, jump_cov=0.5 * np.eye(2))
    return CointCanonicalForm(c=1, A2=[[-1.0]], B1=[[1.0, 0.0]], B2=[[0.0, 1.0]],
                              C1=[[1.0], [0.0]], C2=[[0.0], [1.0]], levy=levy)


def jump_partial_fixture() -> CointCanonicalForm:
    """The partially observed fixture (non-normal A2, B2 mixing both driver
    coordinates) with a Brownian-plus-jump driver of the same sigma_L."""
    cf = helpers.partial_fixture()
    jump_cov = np.array([[0.3, 0.1], [0.1, 0.5]])
    levy = LevySpec(kind="brownian_plus_compound_poisson", sigma_L=cf.levy.sigma_L,
                    jump_rate=1.5, jump_cov=jump_cov)
    return CointCanonicalForm(c=1, A2=cf.A2, B1=cf.B1, B2=cf.B2, C1=cf.C1, C2=cf.C2,
                              levy=levy)


def jump_random_fixture() -> CointCanonicalForm:
    """The random (4, 2, 6) model of ``helpers.slow_fixture`` with a
    Brownian-plus-jump driver, about one jump per unit of time."""
    cf = helpers.slow_fixture()
    levy = LevySpec(kind="brownian_plus_compound_poisson", sigma_L=np.eye(4),
                    jump_rate=1.0, jump_cov=0.5 * np.eye(4))
    return CointCanonicalForm(c=cf.c, A2=cf.A2, B1=cf.B1, B2=cf.B2, C1=cf.C1, C2=cf.C2,
                              levy=levy)


def jump_stiff_fixture() -> CointCanonicalForm:
    """`jump_partial_fixture` with a stiff triangular A2, ``||A2||_1 = 10^6``,
    so ``||A2||_1 h >= 10^4`` from h = 0.01. The expm oracle is exact to
    rounding on triangular input, where scipy recomputes the diagonal."""
    cf = jump_partial_fixture()
    return CointCanonicalForm(c=1, A2=[[-1e6, 30.0], [0.0, -2.0]], B1=cf.B1, B2=cf.B2,
                              C1=cf.C1, C2=cf.C2, levy=cf.levy)


class TestExactGaussian:
    def test_internal_identities(self, scalar_sm, scalar_cf):
        ps = simulate_exact_gaussian(scalar_sm, scalar_cf, 500, seed=1)
        C1, C2 = np.asarray(scalar_cf.C1), np.asarray(scalar_cf.C2)
        assert np.array_equal(ps.y, ps.x1 @ C1.T + ps.x2 @ C2.T)
        assert np.array_equal(ps.y2, ps.x2 @ C2.T)
        assert np.allclose(np.diff(ps.x1, axis=0), ps.r1[1:], atol=1e-12)
        assert np.allclose(ps.times, np.arange(1, 501) * scalar_sm.h)

    def test_seed_determinism(self, scalar_sm, scalar_cf):
        a = simulate_exact_gaussian(scalar_sm, scalar_cf, 100, seed=7)
        b = simulate_exact_gaussian(scalar_sm, scalar_cf, 100, seed=7)
        for field in ("y", "x1", "x2", "r1", "y2", "times"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        c = simulate_exact_gaussian(scalar_sm, scalar_cf, 100, seed=8)
        assert not np.array_equal(a.y, c.y)

    def test_path_index_gives_independent_stream(self, scalar_sm, scalar_cf):
        a = simulate_exact_gaussian(scalar_sm, scalar_cf, 100, seed=7, path_index=0)
        b = simulate_exact_gaussian(scalar_sm, scalar_cf, 100, seed=7, path_index=1)
        assert not np.array_equal(a.y, b.y)

    def test_noise_covariance(self, partial_sm, partial_cf):
        ps = simulate_exact_gaussian(partial_sm, partial_cf, 100_000, seed=31)
        r2 = ps.x2[1:] - ps.x2[:-1] @ partial_sm.eA2h.T
        R = np.hstack([ps.r1[1:], r2])
        emp = R.T @ R / R.shape[0]
        se = helpers.cov_se(R, R)
        assert np.all(np.abs(emp - partial_sm.sigma_tilde) <= 3.0 * se)

    def test_brownian_sampler_computes_no_exponential(self, partial_sm, partial_cf,
                                                       monkeypatch):
        # the Brownian step covariance is sm.sigma_tilde, already computed
        monkeypatch.setattr(matops, "expm", lambda M: pytest.fail("expm called"))
        simulate_exact_gaussian(partial_sm, partial_cf, 100, seed=31)
        simulate_gaussian_ensemble(partial_sm, partial_cf, 100, 4, seed=31)

    def test_x1_start(self, scalar_sm, scalar_cf):
        ps = simulate_exact_gaussian(scalar_sm, scalar_cf, 10, x1_0=[4.0], seed=2)
        assert np.allclose(ps.x1[0], 4.0 + ps.r1[0], atol=1e-12)

    def test_ensemble_matches_single_path_law(self, scalar_sm, scalar_cf):
        y = simulate_gaussian_ensemble(scalar_sm, scalar_cf, n_steps=2, n_paths=50_000, seed=3)
        emp = y[:, 0, :].T @ y[:, 0, :] / y.shape[0]
        from cointssm import cov_continuous
        want = cov_continuous(scalar_cf, scalar_sm.h, 0.0)
        se = helpers.cov_se(y[:, 0, :], y[:, 0, :])
        assert np.all(np.abs(emp - want) <= 3.0 * se)

    def test_ensemble_path_reproduces_single_path(self, partial_sm, partial_cf):
        single = simulate_exact_gaussian(partial_sm, partial_cf, 3_000, x1_0=[2.0], seed=19)
        ens = simulate_gaussian_ensemble(partial_sm, partial_cf, 3_000, 1, x1_0=[2.0], seed=19)
        assert ens.shape == (1, 3_000, 2)
        assert np.max(np.abs(ens[0] - single.y)) <= 1e-12 * np.max(np.abs(single.y))

    @pytest.mark.parametrize("n_steps,n_paths", [(0, 4), (10, 0), (10, -1)])
    def test_ensemble_rejects_bad_sizes(self, scalar_sm, scalar_cf, n_steps, n_paths):
        with pytest.raises(ValidationError):
            simulate_gaussian_ensemble(scalar_sm, scalar_cf, n_steps, n_paths, seed=0)

    @pytest.mark.parametrize("name,value", [("seed", -1), ("seed", 1.5), ("seed", True),
                                            ("seed", np.bool_(False)), ("seed", "7"),
                                            ("path_index", -1), ("path_index", 2.0),
                                            ("path_index", True)])
    def test_rejects_bad_seed_and_path_index(self, scalar_sm, scalar_cf, name, value):
        # numpy raised a bare ValueError or TypeError, or took a bool as 0 or 1
        with pytest.raises(ValidationError, match=name):
            simulate_exact_gaussian(scalar_sm, scalar_cf, 10, **{name: value})

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "7"])
    def test_ensemble_rejects_bad_seed(self, scalar_sm, scalar_cf, seed):
        with pytest.raises(ValidationError):
            simulate_gaussian_ensemble(scalar_sm, scalar_cf, 10, 2, seed=seed)

    def test_numpy_integer_seed_is_stored_as_int(self, scalar_sm, scalar_cf):
        ps = simulate_exact_gaussian(scalar_sm, scalar_cf, 10, seed=np.int64(7),
                                     path_index=np.uint8(1))
        assert type(ps.seed) is int and type(ps.path_index) is int
        ref = simulate_exact_gaussian(scalar_sm, scalar_cf, 10, seed=7, path_index=1)
        assert np.array_equal(ps.y, ref.y) and np.array_equal(ps.x2, ref.x2)


class TestStorage:
    """A path stores y and regenerates x2, r1, x1 and y2 when first read; the
    noise is drawn, and C2 x2 summed, in blocks of DRAW_ROWS rows."""

    @pytest.mark.parametrize("n_paths", [1, 2])
    @pytest.mark.parametrize("n_steps", [simulate.DRAW_ROWS - 1, simulate.DRAW_ROWS,
                                         simulate.DRAW_ROWS + 1, 2 * simulate.DRAW_ROWS + 1])
    def test_blocked_draws_equal_one_shot_draws(self, n_paths, n_steps):
        # a one-row block (gemv) would miss the one-shot product by an ulp
        cf = helpers.slow_fixture()
        factor = matops.psd_factor(discretize(cf, 1.0).sigma_tilde)
        rng, ref = np.random.default_rng(7), np.random.default_rng(7)
        r1, x2 = simulate._gaussian_noise(rng, factor, cf.c, n_paths, n_steps)
        draws = ref.standard_normal((n_paths, n_steps, cf.N))
        assert np.array_equal(r1, draws @ factor[:cf.c].T)
        assert np.array_equal(x2, draws @ factor[cf.c:].T)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_derived_fields_equal_the_eager_formulas(self, partial_sm, partial_cf):
        T = 2 * simulate.DRAW_ROWS + 1
        ps = simulate_exact_gaussian(partial_sm, partial_cf, T, x1_0=[2.0], seed=19)
        x1 = np.cumsum(ps.r1, axis=0)
        x1 += np.array([2.0])
        y2 = ps.x2 @ np.asarray(partial_cf.C2).T
        y = x1 @ np.asarray(partial_cf.C1).T
        y += y2
        assert np.array_equal(ps.x1, x1) and ps.x1 is ps.x1
        assert np.array_equal(ps.y2, y2)
        assert np.array_equal(ps.y, y)
        assert np.array_equal(ps.times, partial_sm.h * np.arange(1, T + 1))
        assert ps.n_steps == T

    def test_single_path_scratch_is_bounded(self):
        # beyond y, x2 and r1 only the levels x1 (T c = 0.25 T N doubles here)
        # and row blocks; eager draws, x1, y2 and times took 1.0 T N
        cf = helpers.slow_fixture()
        sm = discretize(cf, 1.0)
        T = 100_000
        peak, ps = helpers.scratch_peak(simulate_exact_gaussian, sm, cf, T, seed=3)
        kept = ps.y.nbytes + ps.x2.nbytes + ps.r1.nbytes
        assert peak - kept <= 0.3 * T * cf.N * 8

    @pytest.mark.parametrize("make,T", [(helpers.slow_fixture, 100_000),
                                        (jump_random_fixture, 20_000)])
    def test_single_path_retains_only_y(self, make, T):
        # x2 and r1 (0.75 T N doubles here) were kept until the path was freed
        cf = make()
        sm = discretize(cf, 1.0)
        cf.gamma0  # the model's own one-time solve, and scipy's first-call caches
        held, ps = helpers.retained(simulate_exact_gaussian, sm, cf, T, seed=3)
        assert held - ps.y.nbytes <= 8 * cf.N**2 * 8

    def test_ensemble_scratch_is_bounded(self):
        # r1 and x2 (P T N doubles, the levels summed over r1 in place) and
        # row blocks; eager draws, x1 and y2 took 1.75 P T N
        cf = helpers.slow_fixture()
        sm = discretize(cf, 1.0)
        P, T = 8, 20_000
        peak, y = helpers.scratch_peak(simulate_gaussian_ensemble, sm, cf, T, P, seed=3)
        assert peak - y.nbytes <= 1.1 * P * T * cf.N * 8


class TestRegeneration:
    """The first read of x2, r1, x1 or y2 reruns the sampler once on the
    path's stream and checks the states against the stored y."""

    @staticmethod
    def _eager(sm, cf, T, x1_0, seed, path_index):
        # what simulate_exact_gaussian stored and derived when it kept x2 and r1
        x0, r1, x2 = simulate._exact_paths(sm, cf, T, 1, x1_0,
                                           simulate._stream(seed, path_index))
        r1, x2 = r1[0], x2[0]
        x1 = np.cumsum(r1, axis=0)
        x1 += x0
        return {"r1": r1, "x2": x2, "x1": x1, "y2": x2 @ np.asarray(cf.C2).T}

    @pytest.mark.parametrize("make,h,x1_0,path_index", [
        (helpers.partial_fixture, 0.5, None, 0),
        (jump_random_fixture, 1.0, None, 0),
        (jump_partial_fixture, 0.5, [2.0], 3),
    ])
    def test_states_equal_the_eagerly_stored_ones(self, make, h, x1_0, path_index):
        cf = make()
        sm = discretize(cf, h)
        T = 2 * simulate.DRAW_ROWS + 1
        ps = simulate_exact_gaussian(sm, cf, T, x1_0=x1_0, seed=19, path_index=path_index)
        want = self._eager(sm, cf, T, x1_0, 19, path_index)
        for field, value in want.items():
            assert np.array_equal(getattr(ps, field), value), field
        assert np.array_equal(ps.x1_0, np.zeros(cf.c) if x1_0 is None else x1_0)
        assert (ps.seed, ps.path_index, ps.h) == (19, path_index, h)
        assert ps.c1 is cf.C1 and ps.c2 is cf.C2 and ps.driver_kind == cf.levy.kind

    def test_one_sampler_run_serves_every_state(self, partial_sm, partial_cf, monkeypatch):
        ps = simulate_exact_gaussian(partial_sm, partial_cf, 500, seed=3)
        calls = []
        exact_paths = simulate._exact_paths
        monkeypatch.setattr(simulate, "_exact_paths",
                            lambda *a: calls.append(1) or exact_paths(*a))
        for field in ("y", "times", "n_steps", "h", "c1", "c2", "driver_kind"):
            getattr(ps, field)
        assert not calls
        for field in ("x2", "r1", "x1", "y2", "x2", "r1", "x1", "y2"):
            getattr(ps, field)
        assert len(calls) == 1
        assert ps.x2 is ps.x2 and ps.r1 is ps.r1 and ps.x1 is ps.x1 and ps.y2 is ps.y2

    def test_full_path_keeps_the_states_of_its_run(self, partial_sm, partial_cf, monkeypatch):
        calls = []
        exact_paths = simulate._exact_paths
        monkeypatch.setattr(simulate, "_exact_paths",
                            lambda *a: calls.append(1) or exact_paths(*a))
        full = simulate.simulate_exact_full(partial_sm, partial_cf, 500, x1_0=[2.0], seed=3,
                                            path_index=1)
        for field in ("x2", "r1", "x1", "y2"):
            getattr(full, field)
        assert len(calls) == 1
        lazy = simulate_exact_gaussian(partial_sm, partial_cf, 500, x1_0=[2.0], seed=3,
                                       path_index=1)
        for field in ("y", "x2", "r1", "x1", "y2", "x1_0"):
            assert np.array_equal(getattr(full, field), getattr(lazy, field)), field
        assert (full.seed, full.path_index) == (3, 1)

    def test_states_that_miss_y_raise(self, partial_sm, partial_cf, monkeypatch):
        ps = simulate_exact_gaussian(partial_sm, partial_cf, 500, seed=3)
        exact_paths = simulate._exact_paths

        def perturbed(*args):
            x0, r1, x2 = exact_paths(*args)
            x2[0, 7] += 1e-9
            return x0, r1, x2

        monkeypatch.setattr(simulate, "_exact_paths", perturbed)
        with pytest.raises(NumericError, match="stored path y"):
            ps.x2


class TestLevyEuler:
    """Exact paths for the compound-Poisson drivers (the class keeps its name
    so its test ids stay stable)."""

    def test_zero_jump_rate_reproduces_brownian_path(self, scalar_cf, scalar_sm):
        levy = LevySpec(kind="brownian_plus_compound_poisson", sigma_L=np.eye(2),
                        jump_rate=0.0, jump_cov=np.eye(2))
        cf = CointCanonicalForm(c=1, A2=[[-1.0]], B1=[[1.0, 0.0]], B2=[[0.0, 1.0]],
                                C1=[[1.0], [0.0]], C2=[[0.0], [1.0]], levy=levy)
        ps = simulate_exact_gaussian(discretize(cf, 1.0), cf, 3_000, x1_0=[1.5], seed=9)
        ref = simulate_exact_gaussian(scalar_sm, scalar_cf, 3_000, x1_0=[1.5], seed=9)
        for field in ("y", "x1", "x2", "r1"):
            assert np.array_equal(getattr(ps, field), getattr(ref, field))

    @staticmethod
    def _check_noise_covariance(cf: CointCanonicalForm, h: float) -> None:
        sm = discretize(cf, h)
        R = helpers.step_noise(simulate_exact_gaussian(sm, cf, 60_000, seed=13), sm.eA2h)
        emp = R.T @ R / R.shape[0]
        assert np.all(np.abs(emp - sm.sigma_tilde) <= 4.0 * helpers.cov_se(R, R))

    def test_jump_driver_covariance(self):
        self._check_noise_covariance(jump_fixture(), 1.0)

    def test_mixed_driver_covariance_non_normal_a2(self):
        self._check_noise_covariance(jump_partial_fixture(), 0.5)

    @pytest.mark.parametrize("kind", ["compound_poisson_gaussian_jumps",
                                      "brownian_plus_compound_poisson"])
    def test_fourth_cumulants_match_closed_form(self, kind):
        # r1 = b'L(h) and r2 = int_0^h e^{a u} B2 dL: only the jumps have a
        # fourth cumulant, 3 lambda h (b'Jb)^2 and 3 lambda j^2 (1 - e^{4ah}) / (-4a)
        cf = jump_fixture(kind)
        h, lam, a = 0.5, cf.levy.jump_rate, -1.0
        J = np.asarray(cf.levy.jump_cov)
        b = (np.asarray(cf.B1) @ J @ np.asarray(cf.B1).T)[0, 0]
        j = (np.asarray(cf.B2) @ J @ np.asarray(cf.B2).T)[0, 0]
        want = 3.0 * lam * np.array([h * b**2, j**2 * (1 - np.exp(4 * a * h)) / (-4 * a)])
        sm = discretize(cf, h)
        R = helpers.step_noise(simulate_exact_gaussian(sm, cf, 200_000, seed=29), sm.eA2h)
        k4, se = helpers.kappa4(R)
        assert np.all(np.abs(k4 - want) <= 4.0 * se)

    @pytest.mark.parametrize("h", [0.01, 0.5, 1.0, 5.0])
    @pytest.mark.parametrize("make", [jump_partial_fixture, jump_random_fixture,
                                      jump_stiff_fixture])
    def test_jumps_match_the_expm_oracle(self, make, h, monkeypatch):
        # about 800 jumps per path set; the oracle takes one Pade exponential per jump
        cf = make()
        sm = discretize(cf, h)
        n_steps = min(20_000, round(800 / (cf.levy.jump_rate * h)))
        # the states are read before the patch: their regeneration reruns _add_jumps
        x2 = simulate_exact_gaussian(sm, cf, n_steps, seed=5).x2
        ens = simulate_gaussian_ensemble(sm, cf, n_steps // 4, 4, seed=6)
        monkeypatch.setattr(simulate, "_add_jumps", helpers.add_jumps_expm)
        ref = simulate_exact_gaussian(sm, cf, n_steps, seed=5)
        ens_ref = simulate_gaussian_ensemble(sm, cf, n_steps // 4, 4, seed=6)
        assert np.max(np.abs(x2 - ref.x2)) <= 1e-13 * np.max(np.abs(ref.x2))
        assert np.max(np.abs(ens - ens_ref)) <= 1e-13 * np.max(np.abs(ens_ref))

    def test_r1_changes_only_in_steps_with_two_jumps(self, monkeypatch):
        # the oracle adds a step's jumps to r1 one at a time, the sampler adds
        # their sum: only the summation order within a step differs
        cf = jump_random_fixture()
        sm = discretize(cf, 1.0)
        counts = []

        def oracle(r1, r2, cf, h, rng):
            state = rng.bit_generator.state
            counts.append(rng.poisson(cf.levy.jump_rate * h, size=r1.shape[:-1])[0])
            rng.bit_generator.state = state
            helpers.add_jumps_expm(r1, r2, cf, h, rng)

        r1 = simulate_exact_gaussian(sm, cf, 5_000, seed=2).r1  # regenerated before the patch
        monkeypatch.setattr(simulate, "_add_jumps", oracle)
        ref = simulate_exact_gaussian(sm, cf, 5_000, seed=2)
        single = counts[0] <= 1
        assert not single.all()
        assert np.array_equal(r1[single], ref.r1[single])
        eps = np.finfo(float).eps
        assert np.max(np.abs(r1 - ref.r1)) <= 4 * eps * np.max(np.abs(ref.r1))

    def test_one_exponential_per_call(self, monkeypatch):
        # the Brownian component's Van Loan exponential; none per jump
        cf = jump_random_fixture()
        sm = discretize(cf, 1.0)
        calls = []
        expm = matops.expm
        monkeypatch.setattr(matops, "expm", lambda M: calls.append(1) or expm(M))
        simulate_exact_gaussian(sm, cf, 40_000, seed=1)
        assert len(calls) == 1

    def test_jump_sampler_scratch_is_bounded(self):
        # about one jump per step, the rate of the benchmark's CLI document;
        # a (2^14, n2, n2) exponential stack per batch of jumps exceeds the bound
        cf = jump_random_fixture()
        sm = discretize(cf, 1.0)
        T = 20_000
        peak, ps = helpers.scratch_peak(simulate_exact_gaussian, sm, cf, T, seed=3)
        # y and the states the sampler forms: x1 and y2 would loosen the bound
        kept = sum(getattr(ps, f).nbytes for f in ("y", "x2", "r1", "x1_0", "c1", "c2"))
        assert peak - kept < 3.0 * T * cf.N * 8

    @pytest.mark.parametrize("c,n2", [(0, 1), (0, 0)])
    def test_boundary_shapes(self, c, n2):
        levy = LevySpec(kind="compound_poisson_gaussian_jumps", sigma_L=np.eye(1),
                        jump_rate=2.0, jump_cov=0.5 * np.eye(1))
        cf = CointCanonicalForm(c=c, A2=-np.eye(n2), B1=np.zeros((c, 1)), B2=np.ones((n2, 1)),
                                C1=np.zeros((n2, c)), C2=np.eye(n2), levy=levy)
        sm = discretize(cf, 1.0)
        ps = simulate_exact_gaussian(sm, cf, 40_000, seed=8)
        assert ps.y.shape == (40_000, n2) and ps.x2.shape == (40_000, n2)
        assert ps.r1.shape == (40_000, 0)
        R = helpers.step_noise(ps, sm.eA2h)
        assert np.all(np.abs(R.T @ R / R.shape[0] - sm.sigma_tilde) <= 4.0 * helpers.cov_se(R, R))
        ens = simulate_gaussian_ensemble(sm, cf, 40_000, 1, seed=8)
        assert np.array_equal(ens[0], ps.y)

    def test_ensemble(self):
        cf = jump_partial_fixture()
        sm = discretize(cf, 0.5)
        single = simulate_exact_gaussian(sm, cf, 500, x1_0=[1.0], seed=3)
        one = simulate_gaussian_ensemble(sm, cf, 500, 1, x1_0=[1.0], seed=3)
        assert np.max(np.abs(one[0] - single.y)) <= 1e-12 * np.max(np.abs(single.y))
        y = simulate_gaussian_ensemble(sm, cf, n_steps=2, n_paths=20_000, seed=4)[:, 0, :]
        from cointssm import cov_continuous
        want = cov_continuous(cf, sm.h, 0.0)
        assert np.all(np.abs(y.T @ y / y.shape[0] - want) <= 4.0 * helpers.cov_se(y, y))

    def test_determinism(self):
        cf = jump_fixture()
        sm = discretize(cf, 0.5)
        a = simulate_exact_gaussian(sm, cf, 200, seed=4)
        b = simulate_exact_gaussian(sm, cf, 200, seed=4)
        assert np.array_equal(a.y, b.y) and np.array_equal(a.r1, b.r1)
        assert not np.array_equal(a.y, simulate_exact_gaussian(sm, cf, 200, seed=5).y)

    def test_driver_validation_flows_through(self):
        with pytest.raises(ValidationError):
            levy = LevySpec(kind="brownian", sigma_L=np.diag([1.0, 0.0]))
            CointCanonicalForm(c=1, A2=[[-1.0]], B1=[[1.0, 0.0]], B2=[[0.0, 1.0]],
                               C1=[[1.0], [0.0]], C2=[[0.0], [1.0]], levy=levy)


class TestFirstDifference:
    def test_decomposition_sums_to_difference(self, partial_sm, partial_cf):
        ps = simulate_exact_gaussian(partial_sm, partial_cf, 2000, seed=21)
        fd = first_difference(ps)
        assert fd.dy.shape == (1999, 2)
        assert np.allclose(fd.unit_root_part + fd.stationary_part, fd.dy, atol=1e-10)

    def test_degenerate_stationary_block(self):
        cf = CointCanonicalForm(c=1, A2=[[-1.0]], B1=[[1.0, 0.0]], B2=[[0.0, 0.0]],
                                C1=[[1.0], [0.0]], C2=[[0.0], [1.0]],
                                levy=helpers.brownian(2))
        sm = discretize(cf, 1.0)
        ps = simulate_exact_gaussian(sm, cf, 50, seed=3)
        fd = first_difference(ps)
        assert np.allclose(fd.dy, fd.unit_root_part, atol=1e-14)
        assert np.allclose(fd.stationary_part, 0.0, atol=1e-14)

    def test_too_short_path_rejected(self, scalar_sm, scalar_cf):
        ps = simulate_exact_gaussian(scalar_sm, scalar_cf, 1, seed=0)
        with pytest.raises(ValidationError):
            first_difference(ps)

    def test_cointegrating_increment_variance_stationary(self, partial_sm, partial_cf):
        ps = simulate_exact_gaussian(partial_sm, partial_cf, 100_000, seed=44)
        beta = cointegration_space(partial_cf)
        proj = ps.y @ beta
        half = proj.shape[0] // 2
        v1, v2 = proj[:half].var(), proj[half:].var()
        assert 0.8 <= v1 / v2 <= 1.25
        dproj = first_difference(ps).dy @ beta
        half = dproj.shape[0] // 2
        v1, v2 = dproj[:half].var(), dproj[half:].var()
        assert 0.8 <= v1 / v2 <= 1.25


class TestStructuralMoments:
    def test_unit_root_variance_growth(self, scalar_cf, scalar_sm):
        y = simulate_gaussian_ensemble(scalar_sm, scalar_cf, n_steps=100,
                                       n_paths=10_000, seed=17)
        C1 = np.asarray(scalar_cf.C1)
        proj = y @ C1  # C1' Y projected per path/step
        v50 = proj[:, 49, 0].var(ddof=1)
        v100 = proj[:, 99, 0].var(ddof=1)
        slope = (v100 - v50) / (50 * scalar_sm.h)
        B1 = np.asarray(scalar_cf.B1)
        want = (B1 @ np.asarray(scalar_cf.levy.sigma_L) @ B1.T)[0, 0]
        assert abs(slope - want) <= 0.05 * want

    def test_sample_mean_reverts_to_offset(self, scalar_cf, scalar_sm):
        x1_0 = np.array([3.0])
        y = simulate_gaussian_ensemble(scalar_sm, scalar_cf, n_steps=10,
                                       n_paths=10_000, x1_0=x1_0, seed=23)
        final = y[:, -1, :]
        se = final.std(axis=0, ddof=1) / np.sqrt(final.shape[0])
        from cointssm import mean
        assert np.all(np.abs(final.mean(axis=0) - mean(scalar_cf, x1_0)) <= 3.0 * se)
