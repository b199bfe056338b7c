from types import SimpleNamespace

import numpy as np
import pytest

import helpers
from cointssm import (
    cointegration_space,
    discretize,
    ecf_residuals,
    factor_alpha_beta,
    filter_innovations,
    innovations_alt_rep,
    k_at_one,
    ma_and_ktilde_coeffs,
    simulate_exact_gaussian,
    solve_steady_state,
    structural_check,
    transfer_eval,
    whiteness_diagnostic,
)
from cointssm.errors import CointegrationRankError, DimensionError, ValidationError
from cointssm import matops


@pytest.fixture(scope="module", params=[0.1, 0.01])
def slow_case(request):
    """(path, Kalman innovations, decomposition with J = 200) of
    ``helpers.slow_fixture`` at step h, where 200 lags leave a large tail
    (the truncated filter missed the innovations by up to 8e-2 of
    max|eps| on this path)."""
    cf = helpers.slow_fixture()
    sm = discretize(cf, request.param)
    ks = solve_steady_state(sm, cf)
    ps = simulate_exact_gaussian(sm, cf, 3000, seed=61)
    eps, _ = filter_innovations(ks, sm, ps.y)
    return ps, eps, ma_and_ktilde_coeffs(ks, sm, J=200)


class TestTransferFunction:
    def test_value_at_zero_is_identity(self, partial_ks, partial_sm):
        assert np.allclose(transfer_eval(partial_ks, 0.0), np.eye(2), atol=1e-14)

    def test_value_at_one_matches_k1(self, partial_ks, partial_sm):
        assert np.allclose(transfer_eval(partial_ks, 1.0),
                           k_at_one(partial_ks), atol=1e-12)

    def test_power_series_partial_sum(self, partial_ks, partial_sm):
        z = 0.5
        cl, K, C = partial_ks.closed_loop, partial_ks.gain, partial_ks.c_matrix
        acc = np.eye(2, dtype=complex)
        power = np.eye(3)
        for i in range(1, 201):
            acc -= (C @ power @ K) * z**i
            power = cl @ power
        assert np.allclose(transfer_eval(partial_ks, z), acc, atol=1e-10)

    def test_complex_probe(self, partial_ks, partial_sm):
        out = transfer_eval(partial_ks, 0.3 + 0.4j)
        assert out.shape == (2, 2) and np.iscomplexobj(out)


class TestKAtOne:
    def test_full_observation_closed_form(self, scalar_ks, scalar_sm):
        k1 = k_at_one(scalar_ks)
        assert np.allclose(k1, np.eye(2) - scalar_sm.eAh, atol=1e-12)
        assert matops.numerical_rank(k1).rank == 1

    def test_rank_law_and_annihilation(self, partial_ks, partial_sm, partial_cf):
        k1 = k_at_one(partial_ks)
        assert matops.numerical_rank(k1).rank == partial_cf.d - partial_cf.c
        assert np.linalg.norm(k1 @ np.asarray(partial_cf.C1)) <= 1e-8


class TestFactorAlphaBeta:
    def test_rank_one_by_inspection(self, scalar_sm):
        v = 1.0 - np.exp(-1.0)
        alpha, beta = factor_alpha_beta(np.diag([0.0, v]), c=1)
        assert np.allclose(beta, [[0.0], [1.0]], atol=1e-12)
        assert np.allclose(alpha, [[0.0], [-v]], atol=1e-12)
        assert np.allclose(-alpha @ beta.T, np.diag([0.0, v]), atol=1e-12)

    def test_beta_spans_cointegration_space(self, partial_ks, partial_sm, partial_cf):
        k1 = k_at_one(partial_ks)
        _, beta = factor_alpha_beta(k1, c=partial_cf.c)
        space = cointegration_space(partial_cf)
        assert helpers.max_principal_angle(beta, space) < 1e-6

    def test_zero_matrix_rejected(self):
        with pytest.raises(CointegrationRankError):
            factor_alpha_beta(np.zeros((2, 2)), c=1)

    def test_stationary_case_rejected(self, scalar_ks, scalar_sm):
        k1 = k_at_one(scalar_ks)
        with pytest.raises(CointegrationRankError):
            factor_alpha_beta(k1, c=0)


class TestCoefficients:
    def test_full_observation_collapses(self, scalar_ks, scalar_sm):
        dec = ma_and_ktilde_coeffs(scalar_ks, scalar_sm, J=20)
        assert np.allclose(dec.L_coeffs[1], -scalar_ks.c_matrix @ scalar_ks.gain, atol=1e-12)
        assert np.allclose(dec.L_coeffs[2:], 0.0, atol=1e-12)
        assert np.allclose(dec.Ktilde_coeffs, 0.0, atol=1e-12)
        assert dec.tail_bound == 0.0

    def test_k1_equals_coefficient_sum(self, partial_ks, partial_sm):
        dec = ma_and_ktilde_coeffs(partial_ks, partial_sm, J=200)
        total = dec.L_coeffs.sum(axis=0)
        assert np.max(np.abs(total - dec.k1)) <= dec.tail_bound + 1e-12

    def test_coefficient_recursion(self, partial_ks, partial_sm):
        dec = ma_and_ktilde_coeffs(partial_ks, partial_sm, J=200)
        for j in range(2, 201):
            step = dec.Ktilde_coeffs[j] - dec.Ktilde_coeffs[j - 1]
            assert np.max(np.abs(step + dec.L_coeffs[j])) <= 1e-12

    def test_ktilde_starts_at_zero(self, partial_ks, partial_sm):
        dec = ma_and_ktilde_coeffs(partial_ks, partial_sm, J=5)
        assert np.array_equal(dec.Ktilde_coeffs[0], np.zeros((2, 2)))

    def test_decomposition_identity_at_probes(self, partial_ks, partial_sm):
        dec = ma_and_ktilde_coeffs(partial_ks, partial_sm, J=200)
        d = dec.d
        for z in (0.3, 0.7, -0.5):
            kt = sum(dec.Ktilde_coeffs[j] * z**j for j in range(1, dec.truncation + 1))
            lhs = transfer_eval(partial_ks, z)
            rhs = dec.k1 * z + (1.0 - z) * (np.eye(d) - kt)
            assert np.max(np.abs(lhs - rhs)) <= max(dec.tail_bound, 1e-12)

    @pytest.mark.parametrize("J", [1, 2, 50, 200])
    @pytest.mark.parametrize("model", ["partial", "slow"])
    def test_matches_loop_oracle(self, partial_ks, partial_sm, J, model):
        if model == "partial":
            ks, sm = partial_ks, partial_sm
        else:
            cf = helpers.slow_fixture()
            sm = discretize(cf, 1.0)
            ks = solve_steady_state(sm, cf)
        dec = ma_and_ktilde_coeffs(ks, sm, J=J)
        L, Kt = helpers.ecf_coeffs_loop(ks, J)
        for got, want in ((dec.L_coeffs, L), (dec.Ktilde_coeffs, Kt)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("h,bound", [(0.1, 1e-13), (0.01, 2e-12), (0.001, 1e-10)])
    def test_matches_loop_oracle_on_non_normal_loop(self, h, bound):
        # MCARMA(3, 1), so CB = 0: at h = 0.001 the closed loop has norm
        # about 3,650, and matrix powers of it lose 2.5e-8 of the table
        cf = helpers.mcarma31_fixture()
        sm = discretize(cf, h)
        ks = solve_steady_state(sm, cf)
        dec = ma_and_ktilde_coeffs(ks, sm, J=50)
        L, Kt = helpers.ecf_coeffs_loop(ks, 50)
        for got, want in ((dec.L_coeffs, L), (dec.Ktilde_coeffs, Kt)):
            assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))

    def test_tail_bound_decays_geometrically(self, partial_ks, partial_sm):
        d10 = ma_and_ktilde_coeffs(partial_ks, partial_sm, J=10)
        d20 = ma_and_ktilde_coeffs(partial_ks, partial_sm, J=20)
        rho = partial_ks.spectral_radius
        assert np.isclose(d20.tail_bound / d10.tail_bound, rho**10, rtol=1e-10)


class TestEcfResiduals:
    def test_zero_path(self, partial_ks, partial_sm):
        dec = ma_and_ktilde_coeffs(partial_ks, partial_sm, J=10)
        out = ecf_residuals(dec, np.zeros((50, 2)), J=10)
        assert np.array_equal(out, np.zeros((39, 2)))

    def test_matches_kalman_innovations(self, partial_ks, partial_sm, partial_cf):
        ps = simulate_exact_gaussian(partial_sm, partial_cf, 3000, seed=88)
        eps, _ = filter_innovations(partial_ks, partial_sm, ps.y)
        dec = ma_and_ktilde_coeffs(partial_ks, partial_sm, J=200)
        out = ecf_residuals(dec, ps.y, J=200)
        assert out.shape == (3000 - 201, 2)
        assert np.max(np.abs(out - eps[201:])) <= 1e-10

    def test_exact_at_small_step(self, slow_case):
        ps, eps, dec = slow_case
        out = ecf_residuals(dec, ps.y)
        assert out.shape == (3000 - 201, 4)
        assert np.max(np.abs(out - eps[201:])) <= 1e-10 * np.max(np.abs(eps))

    def test_long_path(self, rng):
        cf = helpers.random_canonical(rng, d=6, c=2, n2=8, m=6)
        sm = discretize(cf, 1.0)
        ks = solve_steady_state(sm, cf)
        ps = simulate_exact_gaussian(sm, cf, 50_000, seed=96)
        eps, _ = filter_innovations(ks, sm, ps.y)
        out = ecf_residuals(ma_and_ktilde_coeffs(ks, sm), ps.y)
        assert np.max(np.abs(out - eps[201:])) <= 1e-10 * np.max(np.abs(eps))

    def test_residuals_do_not_depend_on_j(self, partial_ks, partial_sm, partial_cf):
        # J picks the first row returned, whatever the decomposition stores
        ps = simulate_exact_gaussian(partial_sm, partial_cf, 2000, seed=89)
        full = ecf_residuals(ma_and_ktilde_coeffs(partial_ks, partial_sm, J=4), ps.y, J=0)
        for stored in (4, 8):
            dec = ma_and_ktilde_coeffs(partial_ks, partial_sm, J=stored)
            for J in (None, 0, 3, 50):
                out = ecf_residuals(dec, ps.y, J=J)
                start = stored if J is None else J
                assert out.shape == (2000 - start - 1, 2)
                assert np.max(np.abs(out - full[start:])) <= 1e-14 * np.max(np.abs(full))

    def test_zero_offset_is_exact_from_row_one(self, partial_ks, partial_sm, partial_cf):
        ps = simulate_exact_gaussian(partial_sm, partial_cf, 100, seed=95)
        eps, _ = filter_innovations(partial_ks, partial_sm, ps.y)
        dec = ma_and_ktilde_coeffs(partial_ks, partial_sm, J=10)
        out = ecf_residuals(dec, ps.y, J=0)
        assert np.max(np.abs(out - eps[1:])) <= 1e-10 * np.max(np.abs(eps))

    def test_scratch_memory_is_bounded(self, rng):
        # beyond the result, S dY is the only path-sized array (scanned in
        # place); the extra quarter of T N covers the scan's O(T / SCAN_BLOCK)
        # rows
        cf = helpers.slow_fixture()
        sm = discretize(cf, 1.0)
        ks = solve_steady_state(sm, cf)
        dec = ma_and_ktilde_coeffs(ks, sm)
        y = rng.normal(size=(200_000, cf.d))
        peak, out = helpers.scratch_peak(ecf_residuals, dec, y)
        assert peak < 1.25 * y.shape[0] * cf.N * 8 + out.nbytes

    def test_short_path_rejected(self, partial_ks, partial_sm):
        dec = ma_and_ktilde_coeffs(partial_ks, partial_sm, J=30)
        with pytest.raises(ValidationError):
            ecf_residuals(dec, np.zeros((31, 2)), J=30)

    def test_negative_truncation_rejected(self, partial_ks, partial_sm, partial_cf):
        # J = -1 used to die in a numpy broadcasting ValueError
        ps = simulate_exact_gaussian(partial_sm, partial_cf, 100, seed=95)
        dec = ma_and_ktilde_coeffs(partial_ks, partial_sm, J=10)
        with pytest.raises(ValidationError):
            ecf_residuals(dec, ps.y, J=-1)


class TestStructuralCheck:
    def test_full_observation_by_hand(self, scalar_ks, scalar_sm, scalar_cf):
        report = structural_check(scalar_ks, scalar_sm, scalar_cf)
        assert np.allclose(report.projector, np.diag([0.0, 1.0]), atol=1e-12)
        assert report.projector_rank == 1
        assert report.ok

    def test_random_models(self, rng):
        for _ in range(5):
            cf = helpers.random_canonical(rng, d=3, c=1, n2=2, m=3)
            sm = discretize(cf, 0.5)
            ks = solve_steady_state(sm, cf)
            report = structural_check(ks, sm, cf)
            P = report.projector
            assert report.idempotency_defect <= 1e-10
            assert np.max(np.abs(P @ P - P)) < 1e-10
            assert report.projector_rank == cf.d - cf.c
            assert report.k1_reconstruction_error <= 1e-8
            assert report.ok


class TestAlternativeRepresentation:
    def test_matches_recursion_on_scalar_fixture(self, scalar_ks, scalar_sm, scalar_cf):
        ps = simulate_exact_gaussian(scalar_sm, scalar_cf, 1500, seed=91)
        eps, _ = filter_innovations(scalar_ks, scalar_sm, ps.y)
        dec = ma_and_ktilde_coeffs(scalar_ks, scalar_sm, J=200)
        alt = innovations_alt_rep(dec, ps, J=200)
        assert np.max(np.abs(alt - eps[200:])) <= 1e-6

    def test_matches_recursion_on_partial_fixture(self, partial_ks, partial_sm, partial_cf):
        ps = simulate_exact_gaussian(partial_sm, partial_cf, 2000, seed=92)
        eps, _ = filter_innovations(partial_ks, partial_sm, ps.y)
        dec = ma_and_ktilde_coeffs(partial_ks, partial_sm, J=200)
        alt = innovations_alt_rep(dec, ps, J=200)
        assert np.max(np.abs(alt - eps[200:])) <= 1e-8

    def test_degenerate_decaying_stationary_path(self, partial_ks, partial_sm, partial_cf, rng):
        # path whose stationary part is a pure deterministic decay (a B2 = 0
        # test double); the representation equivalence is pathwise algebra,
        # so it must hold for this input too
        n = 800
        C1, C2 = np.asarray(partial_cf.C1), np.asarray(partial_cf.C2)
        r1 = np.asarray(partial_cf.B1) @ rng.normal(size=(n, 2)).T
        r1 = r1.T
        x1 = np.cumsum(r1, axis=0)
        x2 = np.empty((n, 2))
        state = rng.normal(size=2)
        for i in range(n):
            state = partial_sm.eA2h @ state
            x2[i] = state
        y = x1 @ C1.T + x2 @ C2.T
        ps = SimpleNamespace(y=y, y2=x2 @ C2.T, r1=r1, c1=C1)
        eps, _ = filter_innovations(partial_ks, partial_sm, ps.y)
        dec = ma_and_ktilde_coeffs(partial_ks, partial_sm, J=60)
        alt = innovations_alt_rep(dec, ps, J=60)
        assert np.max(np.abs(alt - eps[60:])) <= 1e-8

    def test_zero_components_give_zero(self, partial_ks, partial_sm, partial_cf):
        ps = simulate_exact_gaussian(partial_sm, partial_cf, 100, seed=94)
        zeroed = SimpleNamespace(y2=np.zeros_like(ps.y2), r1=np.zeros_like(ps.r1), c1=ps.c1)
        dec = ma_and_ktilde_coeffs(partial_ks, partial_sm, J=10)
        alt = innovations_alt_rep(dec, zeroed, J=10)
        assert np.array_equal(alt, np.zeros_like(alt))

    def test_negative_truncation_rejected(self, partial_ks, partial_sm, partial_cf):
        # J = -1 used to return 101 rows for a 100-step path
        ps = simulate_exact_gaussian(partial_sm, partial_cf, 100, seed=95)
        dec = ma_and_ktilde_coeffs(partial_ks, partial_sm, J=10)
        with pytest.raises(ValidationError):
            innovations_alt_rep(dec, ps, J=-1)

    def test_mismatched_components_rejected(self, partial_ks, partial_sm, partial_cf):
        # a short r1 used to end in numpy's broadcasting ValueError
        ps = simulate_exact_gaussian(partial_sm, partial_cf, 100, seed=95)
        short = SimpleNamespace(y2=ps.y2, r1=ps.r1[:-1], c1=ps.c1)
        dec = ma_and_ktilde_coeffs(partial_ks, partial_sm, J=10)
        with pytest.raises(DimensionError):
            innovations_alt_rep(dec, short, J=10)

    def test_exact_at_small_step(self, slow_case):
        ps, eps, dec = slow_case
        alt = innovations_alt_rep(dec, ps)
        assert alt.shape == (3000 - 200, 4)
        assert np.max(np.abs(alt - eps[200:])) <= 1e-10 * np.max(np.abs(eps))

    def test_zero_offset_is_exact_from_row_zero(self, partial_ks, partial_sm, partial_cf):
        ps = simulate_exact_gaussian(partial_sm, partial_cf, 100, seed=95)
        eps, _ = filter_innovations(partial_ks, partial_sm, ps.y)
        dec = ma_and_ktilde_coeffs(partial_ks, partial_sm, J=10)
        alt = innovations_alt_rep(dec, ps, J=0)
        assert np.max(np.abs(alt - eps)) <= 1e-10 * np.max(np.abs(eps))

    def test_scratch_memory_is_bounded(self, rng):
        cf = helpers.slow_fixture()
        sm = discretize(cf, 1.0)
        ks = solve_steady_state(sm, cf)
        dec = ma_and_ktilde_coeffs(ks, sm)
        T = 200_000
        ps = SimpleNamespace(y2=rng.normal(size=(T, cf.d)), r1=rng.normal(size=(T, cf.c)),
                             c1=np.asarray(cf.C1))
        # path-sized: the scan's input (scanned in place) and the lagged
        # (y2, r1) it is built from, plus O(T / SCAN_BLOCK) rows of the scan
        peak, _ = helpers.scratch_peak(innovations_alt_rep, dec, ps)
        assert peak < 1.25 * T * cf.N * 8 + T * (cf.d + cf.c) * 8


class TestWhitenessDiagnostic:
    def test_iid_gaussian_passes(self):
        rng = np.random.default_rng(2024)
        eps = rng.standard_normal((100_000, 2))
        report = whiteness_diagnostic(eps, max_lag=10)
        assert report.passed and not report.degenerate
        assert report.band == 3.0 / np.sqrt(100_000)

    def test_strong_ar1_fails_at_lag_one(self):
        rng = np.random.default_rng(5)
        n = 20_000
        x = np.zeros(n)
        noise = rng.standard_normal(n)
        for i in range(1, n):
            x[i] = 0.9 * x[i - 1] + noise[i]
        report = whiteness_diagnostic(x[:, None], max_lag=3)
        assert not report.passed
        assert report.autocorrelations[0, 0, 0] > 0.8

    def test_constant_input_degenerate(self):
        report = whiteness_diagnostic(np.zeros((2000, 2)), max_lag=5)
        assert report.degenerate and not report.passed

    @pytest.mark.parametrize("d", [1, 2, 6, 9])
    @pytest.mark.parametrize("max_lag", [1, 3, 10, 25])
    def test_matches_per_lag_oracle(self, d, max_lag):
        # a moving average with a nonzero mean, n not a multiple of max_lag + 1
        n = 100 * max_lag + 37
        assert n % (max_lag + 1)
        rng = np.random.default_rng(10 * d + max_lag)
        z = rng.standard_normal((n + 2, d))
        eps = z[2:] + 0.6 * z[1:-1] - 0.3 * z[:-2] + rng.normal(size=d)
        report = whiteness_diagnostic(eps, max_lag=max_lag)
        want = helpers.whiteness_acf_loop(eps, max_lag)
        assert report.autocorrelations.shape == (max_lag, d, d)
        assert np.max(np.abs(report.autocorrelations - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("scale", [1.0, 1e-10, 1e-15, 1e-20])
    def test_scaled_white_noise_passes(self, scale):
        # the old rule sd <= 1e-14 (1 + max sd) called the last two degenerate
        eps = np.random.default_rng(7).standard_normal((5000, 2)) * scale
        report = whiteness_diagnostic(eps, max_lag=5)
        assert report.passed and not report.degenerate

    @pytest.mark.parametrize("value", [0.0, 1e9, 1234567000.1])
    def test_constant_column_degenerate(self, value):
        # the last constant's mean is off by more than 1e-14 of it, so its
        # centered column is a small nonzero constant
        eps = np.random.default_rng(8).standard_normal((2000, 2))
        eps[:, 1] = value
        report = whiteness_diagnostic(eps, max_lag=5)
        assert report.degenerate and not report.passed

    def test_short_input_rejected(self):
        with pytest.raises(ValidationError):
            whiteness_diagnostic(np.zeros((99, 1)), max_lag=1)
