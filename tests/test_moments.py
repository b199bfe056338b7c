import dataclasses

import numpy as np
import pytest

import helpers
from cointssm import (
    CointCanonicalForm,
    cointegration_space,
    cov_continuous,
    cov_sampled,
    discretize,
    matops,
    mean,
    simulate_exact_full,
    simulate_gaussian_ensemble,
)
from cointssm.errors import NumericError, ValidationError
from cointssm.moments import van_loan


class TestDiscretize:
    def test_scalar_fixture_blocks(self, scalar_cf, scalar_sm):
        assert np.allclose(scalar_sm.sigma11, [[1.0]])
        assert np.allclose(scalar_sm.sigma22, [[(1.0 - np.exp(-2.0)) / 2.0]])
        assert np.allclose(scalar_sm.sigma12, [[0.0]], atol=1e-14)
        assert np.allclose(scalar_cf.gamma0, [[0.5]])
        assert np.allclose(scalar_sm.eAh, np.diag([1.0, np.exp(-1.0)]))

    def test_blocks_against_quadrature(self, partial_cf):
        S = np.asarray(partial_cf.levy.sigma_L)
        B1, B2, A2 = map(np.asarray, (partial_cf.B1, partial_cf.B2, partial_cf.A2))
        for h in (0.7, 1.0, 0.01, 1e-3):
            sm = discretize(partial_cf, h)
            for got, want in ((sm.sigma11, h * B1 @ S @ B1.T),
                              (sm.sigma21, helpers.simpson_cross(A2, B2 @ S @ B1.T, h)),
                              (sm.sigma22, helpers.simpson_gramian(A2, B2 @ S @ B2.T, h))):
                assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want), h
            assert np.array_equal(sm.sigma12, sm.sigma21.T)

    def test_large_step_blocks_match_closed_form(self, rng):
        # at ||A2 h|| >> 1 the Van Loan block e^{-A h} dwarfs the integral;
        # the Lyapunov identity sigma22 = G - E G E' is exact for Hurwitz A2
        cf = helpers.random_canonical(rng, d=4, c=2, n2=6, m=4)
        S = np.asarray(cf.levy.sigma_L)
        B1, B2, A2 = map(np.asarray, (cf.B1, cf.B2, cf.A2))
        for h in (5.0, 20.0):
            sm = discretize(cf, h)
            E = matops.expm(A2 * h)
            G = matops.lyapunov_solve(A2, B2 @ S @ B2.T)
            s21 = np.linalg.solve(A2, (E - np.eye(6)) @ B2 @ S @ B1.T)
            for got, want in ((sm.eA2h, E), (sm.sigma22, G - E @ G @ E.T), (sm.sigma21, s21)):
                assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_unit_root_block_is_exact_identity(self, partial_cf):
        sm = discretize(partial_cf, 2.5)
        assert np.array_equal(sm.eAh[:1, :1], np.eye(1))
        assert np.max(np.abs(np.linalg.eigvals(sm.eA2h))) < 1.0

    def test_sigma11_linear_in_h(self, partial_cf):
        s1 = discretize(partial_cf, 0.4).sigma11
        s2 = discretize(partial_cf, 0.8).sigma11
        assert np.allclose(2.0 * s1, s2, atol=1e-13)

    def test_vanishing_step_limit(self, scalar_cf):
        sm = discretize(scalar_cf, 1e-6)
        assert np.linalg.norm(sm.sigma_tilde) <= 1e-5 * 10.0

    def test_gamma0_lyapunov_residual(self, partial_cf):
        A2 = np.asarray(partial_cf.A2)
        Q = np.asarray(partial_cf.B2) @ np.asarray(partial_cf.levy.sigma_L) @ np.asarray(partial_cf.B2).T
        res = A2 @ partial_cf.gamma0 + partial_cf.gamma0 @ A2.T + Q
        assert np.linalg.norm(res) <= 1e-10

    def test_sampled_model_is_the_recursion_only(self, partial_sm, monkeypatch):
        def refuse(*args):
            raise AssertionError("discretize solved a Lyapunov equation")
        monkeypatch.setattr(matops, "lyapunov_solve", refuse)
        sm = discretize(helpers.partial_fixture(), partial_sm.h)
        assert [f.name for f in dataclasses.fields(sm)] == ["h", "c", "eAh", "sigma_tilde"]
        assert not hasattr(sm, "gamma0")
        assert np.array_equal(sm.eAh, partial_sm.eAh)
        assert np.array_equal(sm.sigma_tilde, partial_sm.sigma_tilde)

    def test_rejects_nonpositive_step(self, scalar_cf):
        with pytest.raises(ValidationError):
            discretize(scalar_cf, 0.0)

    @pytest.mark.parametrize("h", [np.nan, np.inf])
    def test_rejects_non_finite_step(self, scalar_cf, h):
        with pytest.raises(ValidationError, match="sampling step h"):
            discretize(scalar_cf, h)

    def test_noise_covariance_monte_carlo(self, scalar_cf, scalar_sm):
        n = 200_000
        ps = simulate_exact_full(scalar_sm, scalar_cf, n, seed=902)
        r2 = ps.x2[1:] - ps.x2[:-1] @ scalar_sm.eA2h.T
        R = np.hstack([ps.r1[1:], r2])
        emp = R.T @ R / R.shape[0]
        se = helpers.cov_se(R, R)
        assert np.all(np.abs(emp - scalar_sm.sigma_tilde) <= 3.0 * se)


class TestVanLoan:
    @pytest.mark.parametrize("h", [1e-9, 1e-12])
    def test_small_step_matches_series(self, partial_cf, h):
        # the cross block int_0^h e^{A2 u} G du against its two-term series
        S = np.asarray(partial_cf.levy.sigma_L)
        B1, B2, A2 = map(np.asarray, (partial_cf.B1, partial_cf.B2, partial_cf.A2))
        G = B2 @ S @ B1.T
        want = h * G + 0.5 * h**2 * A2 @ G
        out = van_loan(partial_cf, h, S)[1][1:, :1]
        assert np.max(np.abs(out - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("field,value", [("B2", [[0.0, 1e154]]), ("B1", [[1e200, 0.0]])])
    def test_overflow_raises_numeric_error(self, scalar_cf, field, value):
        # B S B' near 1e308: the compiled exponential returns NaN without a
        # floating-point warning, which the sampler refused as an input
        # ("contains non-finite entries", exit 2); past 1e308 it reached the
        # exponential's input check as infinity (the same refusal)
        cf = dataclasses.replace(scalar_cf, **{field: value})
        with np.errstate(all="ignore"), pytest.raises(NumericError, match="overflows float64"):
            van_loan(cf, 1.0, cf.levy.sigma_L)


class TestCovContinuous:
    def test_zero_time_reduces_to_stationary_term(self, partial_cf):
        C2 = np.asarray(partial_cf.C2)
        A2 = np.asarray(partial_cf.A2)
        B2 = np.asarray(partial_cf.B2)
        S = np.asarray(partial_cf.levy.sigma_L)
        gamma0 = matops.lyapunov_solve(A2, B2 @ S @ B2.T)
        for s in (0.0, 0.5, 2.0):
            expected = C2 @ gamma0 @ matops.expm(A2.T * s) @ C2.T
            assert np.allclose(cov_continuous(partial_cf, 0.0, s), expected, atol=1e-12)

    def test_lag_zero_matches_ou_stationary_law(self, partial_cf):
        # independent derivation of the s = 0, large-t variance: the
        # stationary block contributes C2 Gamma0 C2' and the unit root t * slope
        got = cov_continuous(partial_cf, 3.0, 0.0)
        assert np.allclose(got, got.T, atol=1e-12)

    def test_scalar_random_walk_variance(self, scalar_cf):
        for t in (0.5, 1.0, 4.0):
            cov = cov_continuous(scalar_cf, t, 0.0)
            assert np.isclose(cov[0, 0], t, atol=1e-12)
            assert np.isclose(cov[1, 1], 0.5, atol=1e-12)
            assert np.isclose(cov[0, 1], 0.0, atol=1e-12)

    def test_gamma0_solved_once_over_a_grid(self, monkeypatch):
        # the default grid of `analyze --moments`: t in {0, 1, 2}, s in {0, 1}
        calls = []
        solve = matops.lyapunov_solve
        monkeypatch.setattr(matops, "lyapunov_solve", lambda *a: calls.append(1) or solve(*a))
        cf = helpers.partial_fixture()
        for t in (0.0, 1.0, 2.0):
            for s in (0.0, 1.0):
                cov_continuous(cf, t, s)
        assert len(calls) == 1

    def test_rejects_negative_times(self, scalar_cf):
        with pytest.raises(ValidationError):
            cov_continuous(scalar_cf, -1.0, 0.0)
        with pytest.raises(ValidationError):
            cov_continuous(scalar_cf, 0.0, -0.5)

    def test_cointegrating_projection_constant_in_t(self, partial_cf):
        beta = cointegration_space(partial_cf)
        vals = [beta.T @ cov_continuous(partial_cf, t, 0.0) @ beta for t in (1.0, 5.0, 9.0)]
        assert np.allclose(vals[0], vals[1], atol=1e-8)
        assert np.allclose(vals[1], vals[2], atol=1e-8)

    def test_affine_growth_slope(self, scalar_cf, partial_cf):
        # the scalar fixture has no Levy/stationary cross term, so the finite
        # difference at t in {10, 20} is already exact
        C1B1 = np.asarray(scalar_cf.C1) @ np.asarray(scalar_cf.B1)
        slope = C1B1 @ np.asarray(scalar_cf.levy.sigma_L) @ C1B1.T
        c10, c20 = cov_continuous(scalar_cf, 10.0, 0.0), cov_continuous(scalar_cf, 20.0, 0.0)
        assert np.allclose((c20 - c10) / 10.0, slope, atol=1e-8)
        # with cross terms present the slope settles once e^{A2 t} has decayed
        C1B1 = np.asarray(partial_cf.C1) @ np.asarray(partial_cf.B1)
        slope = C1B1 @ np.asarray(partial_cf.levy.sigma_L) @ C1B1.T
        c35, c45 = cov_continuous(partial_cf, 35.0, 0.0), cov_continuous(partial_cf, 45.0, 0.0)
        assert np.allclose((c45 - c35) / 10.0, slope, atol=1e-8)

    @pytest.mark.parametrize("s", [20.0, 30.0, 36.0])
    def test_large_lag_keeps_relative_accuracy(self, s):
        # Cov(Y1(1), Y2(1 + s)) = e^{-s} (1 - e^{-1}) decays with the lag; a
        # difference of two cross integrals loses it to cancellation
        cf = CointCanonicalForm(
            c=1, A2=[[-1.0]], B1=[[1.0, 0.0]], B2=[[1.0, 1.0]],
            C1=[[1.0], [0.0]], C2=[[0.0], [1.0]], levy=helpers.brownian(2),
        )
        want = np.exp(-s) * (1.0 - np.exp(-1.0))
        assert abs(cov_continuous(cf, 1.0, s)[0, 1] - want) <= 1e-12 * want

    def test_monte_carlo_cross_covariance(self, partial_cf):
        sm = discretize(partial_cf, 1.0)
        y = simulate_gaussian_ensemble(sm, partial_cf, n_steps=3, n_paths=60_000, seed=71)
        emp = y[:, 1, :].T @ y[:, 2, :] / y.shape[0]
        se = helpers.cov_se(y[:, 1, :], y[:, 2, :])
        assert np.all(np.abs(emp - cov_continuous(partial_cf, 2.0, 1.0)) <= 3.0 * se)


class TestCovSampled:
    def test_scalar_stationary_entry(self, scalar_sm, scalar_cf):
        cov = cov_sampled(scalar_sm, scalar_cf, n=1, s=0)
        assert np.isclose(cov[1, 1], 0.5, atol=1e-12)

    def test_substitution_consistency(self, partial_sm, partial_cf):
        got = cov_sampled(partial_sm, partial_cf, n=3, s=2)
        want = cov_continuous(partial_cf, 3 * partial_sm.h, 2 * partial_sm.h)
        assert np.array_equal(got, want)

    def test_rejects_bad_indices(self, scalar_sm, scalar_cf):
        with pytest.raises(ValidationError):
            cov_sampled(scalar_sm, scalar_cf, n=0, s=0)


class TestMean:
    def test_zero_start(self, scalar_cf):
        assert np.array_equal(mean(scalar_cf, [0.0]), np.zeros(2))

    def test_offset_start(self, scalar_cf):
        assert np.allclose(mean(scalar_cf, [5.0]), [5.0, 0.0])

    def test_monte_carlo_mean(self, scalar_cf, scalar_sm):
        x1_0 = np.array([2.0])
        y = simulate_gaussian_ensemble(scalar_sm, scalar_cf, n_steps=3,
                                       n_paths=40_000, x1_0=x1_0, seed=5)
        final = y[:, 2, :]
        se = final.std(axis=0, ddof=1) / np.sqrt(final.shape[0])
        assert np.all(np.abs(final.mean(axis=0) - mean(scalar_cf, x1_0)) <= 3.0 * se)

    def test_rejects_wrong_length(self, scalar_cf):
        with pytest.raises(ValidationError):
            mean(scalar_cf, [1.0, 2.0])
