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
    simulate_levy_euler,
)
from cointssm.errors import ValidationError
from cointssm.simulate import default_burn_in


def jump_fixture() -> CointCanonicalForm:
    levy = LevySpec(kind="compound_poisson_gaussian_jumps", sigma_L=np.eye(2),
                    jump_rate=2.0, jump_cov=0.5 * np.eye(2))
    return CointCanonicalForm(c=1, A2=[[-1.0]], B1=[[1.0, 0.0]], B2=[[0.0, 1.0]],
                              C1=[[1.0], [0.0]], C2=[[0.0], [1.0]], levy=levy)


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

    def test_x1_start(self, scalar_sm, scalar_cf):
        ps = simulate_exact_gaussian(scalar_sm, scalar_cf, 10, x1_0=[4.0], seed=2)
        assert np.allclose(ps.x1[0], 4.0 + ps.r1[0], atol=1e-12)

    def test_rejects_jump_driver(self):
        cf = jump_fixture()
        with pytest.raises(ValidationError):
            simulate_exact_gaussian(discretize(cf, 1.0), cf, 10, seed=0)

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


class TestLevyEuler:
    def test_brownian_refinement_converges_to_exact_covariance(self, scalar_cf, scalar_sm):
        ps = simulate_levy_euler(scalar_cf, 1.0, 60_000, refinement=64, seed=12)
        r2 = ps.x2[1:] - ps.x2[:-1] @ scalar_sm.eA2h.T
        R = np.hstack([ps.r1[1:], r2])
        emp = R.T @ R / R.shape[0]
        rel = np.linalg.norm(emp - scalar_sm.sigma_tilde) / np.linalg.norm(scalar_sm.sigma_tilde)
        assert rel < 0.02

    def test_zero_jump_rate_matches_brownian_moments(self, scalar_cf, scalar_sm):
        levy = LevySpec(kind="brownian_plus_compound_poisson", sigma_L=np.eye(2),
                        jump_rate=0.0, jump_cov=np.eye(2))
        cf = CointCanonicalForm(c=1, A2=[[-1.0]], B1=[[1.0, 0.0]], B2=[[0.0, 1.0]],
                                C1=[[1.0], [0.0]], C2=[[0.0], [1.0]], levy=levy)
        ps = simulate_levy_euler(cf, 1.0, 30_000, refinement=16, seed=9)
        dy = np.diff(ps.y, axis=0)
        emp = dy.T @ dy / dy.shape[0]
        # increments of Y have covariance determined by the Brownian fixture
        ref = simulate_exact_gaussian(scalar_sm, scalar_cf, 30_000, seed=10)
        dy_ref = np.diff(ref.y, axis=0)
        want = dy_ref.T @ dy_ref / dy_ref.shape[0]
        se = helpers.cov_se(dy, dy) + helpers.cov_se(dy_ref, dy_ref)
        assert np.all(np.abs(emp - want) <= 4.0 * se)

    def test_jump_driver_covariance(self):
        cf = jump_fixture()
        ps = simulate_levy_euler(cf, 1.0, 60_000, refinement=64, seed=13)
        sm = discretize(cf, 1.0)
        r2 = ps.x2[1:] - ps.x2[:-1] @ sm.eA2h.T
        R = np.hstack([ps.r1[1:], r2])
        emp = R.T @ R / R.shape[0]
        rel = np.linalg.norm(emp - sm.sigma_tilde) / np.linalg.norm(sm.sigma_tilde)
        assert rel < 0.03

    def test_determinism(self):
        cf = jump_fixture()
        a = simulate_levy_euler(cf, 0.5, 200, refinement=8, seed=4)
        b = simulate_levy_euler(cf, 0.5, 200, refinement=8, seed=4)
        assert np.array_equal(a.y, b.y) and np.array_equal(a.r1, b.r1)

    def test_burn_in_across_chunks(self):
        # 20_000 warm-up steps end inside the second 2^14-step chunk; with the
        # same total length the draws coincide, so the kept rows are the tail
        # of a path without burn-in
        cf = jump_fixture()
        warm = simulate_levy_euler(cf, 0.5, 3_000, refinement=2, burn_in=20_000, seed=6)
        cold = simulate_levy_euler(cf, 0.5, 23_000, refinement=2, burn_in=0, seed=6)
        assert np.array_equal(warm.x2, cold.x2[20_000:])
        assert np.array_equal(warm.r1, cold.r1[20_000:])

    def test_rejects_zero_refinement(self, scalar_cf):
        with pytest.raises(ValidationError):
            simulate_levy_euler(scalar_cf, 1.0, 10, refinement=0, seed=0)

    def test_default_burn_in_scales_with_slowest_mode(self, scalar_cf, partial_cf):
        assert default_burn_in(scalar_cf, 1.0) == 10
        assert default_burn_in(partial_cf, 0.5) == 20

    def test_driver_validation_flows_through(self):
        levy = LevySpec(kind="brownian", sigma_L=np.diag([1.0, 0.0]))
        with pytest.raises(ValidationError):
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
