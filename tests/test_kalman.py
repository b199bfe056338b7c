import dataclasses
import types

import numpy as np
import pytest
import scipy.linalg as sla

import helpers
from cointssm import (
    CointCanonicalForm,
    KalmanSolution,
    check_filtered_controllability,
    discretize,
    filter_innovations,
    kalman,
    simulate_exact_gaussian,
    solve_steady_state,
)
from cointssm.errors import (
    ComputationError,
    ConditioningError,
    ConvergenceError,
    DimensionError,
)


def stationary_scalar(a: float = np.exp(-1.0)):
    """c = 0 toy with e^{Ah} = a, C = 1."""
    cf = CointCanonicalForm(c=0, A2=[[np.log(a)]], B1=np.zeros((0, 1)), B2=[[1.0]],
                            C1=np.zeros((1, 0)), C2=[[1.0]], levy=helpers.brownian(1))
    return cf, discretize(cf, 1.0)


class TestSolveSteadyState:
    def test_fully_observed_scalar_fixed_point(self):
        cf, sm = stationary_scalar()
        ks = solve_steady_state(sm, cf)
        assert np.allclose(ks.omega, sm.sigma_tilde, atol=1e-12)
        assert np.allclose(ks.gain, [[np.exp(-1.0)]], atol=1e-12)
        assert np.allclose(ks.closed_loop, 0.0, atol=1e-12)

    def test_fully_observed_matrix_fixed_point(self, scalar_ks, scalar_sm):
        assert np.allclose(scalar_ks.omega, scalar_sm.sigma_tilde, atol=1e-12)
        assert np.allclose(scalar_ks.gain, scalar_sm.eAh, atol=1e-12)
        assert np.allclose(scalar_ks.closed_loop, 0.0, atol=1e-12)
        assert np.allclose(scalar_ks.v, scalar_sm.sigma_tilde, atol=1e-12)

    def test_invariants_on_random_models(self, rng):
        for _ in range(6):
            cf = helpers.random_canonical(rng, d=2, c=1, n2=2, m=2)
            sm = discretize(cf, 0.5)
            ks = solve_steady_state(sm, cf)
            scale = 1.0 + np.linalg.norm(ks.omega)
            assert ks.residual <= 1e-10 * scale
            assert ks.spectral_radius < 1.0
            # gain is definitionally e^{Ah} Omega C' (C Omega C')^{-1}
            S = ks.c_matrix @ ks.omega @ ks.c_matrix.T
            G = sm.eAh @ ks.omega @ ks.c_matrix.T
            assert np.allclose(ks.gain, G @ np.linalg.inv(S), atol=1e-12 * scale)
            assert np.min(np.linalg.eigvalsh(ks.v)) > 0
            assert np.min(np.linalg.eigvalsh(ks.omega)) > 0

    @pytest.mark.parametrize("h", [1.0, 0.1, 0.01])
    def test_agrees_with_fixed_point_oracle(self, partial_cf, h):
        # the oracle stops about tol / (1 - contraction) ~ 1e-12 / h short
        cf = helpers.random_canonical(np.random.default_rng(2024), d=4, c=2, n2=6, m=4)
        for model in (partial_cf, cf):
            sm = discretize(model, h)
            omega = helpers.riccati_fixed_point(sm, model)
            ks = solve_steady_state(sm, model)
            assert np.linalg.norm(ks.omega - omega) <= 1e-9 / h * np.linalg.norm(omega)

    def test_small_step_residual(self):
        cf = helpers.random_canonical(np.random.default_rng(2025), d=4, c=2, n2=6, m=4)
        ks = solve_steady_state(discretize(cf, 1e-3), cf)
        assert ks.residual <= 1e-13 * np.linalg.norm(ks.omega)
        assert ks.spectral_radius < 1.0

    def test_degenerate_unit_root_noise_raises(self, partial_cf):
        # with no noise on the unit roots no stabilizing solution exists; the
        # two models fail in the closed-loop check and in the scipy solver
        big = helpers.random_canonical(np.random.default_rng(3), d=4, c=2, n2=6, m=4)
        for cf in (partial_cf, big):
            sm = discretize(cf, 0.5)
            sigma = sm.sigma_tilde.copy()
            sigma[:sm.c, :] = 0.0
            sigma[:, :sm.c] = 0.0
            with pytest.raises(ComputationError):
                solve_steady_state(dataclasses.replace(sm, sigma_tilde=sigma), cf)

    @pytest.mark.parametrize("fixture, h", [
        (helpers.scalar_fixture, 1.0),
        (helpers.partial_fixture, 0.5),
        (helpers.slow_fixture, 0.1),
        (helpers.mcarma31_fixture, 0.1),
    ])
    def test_residual_matches_cholesky_route(self, fixture, h):
        # the residual applies S^{-1} through the gain's LU solve; the same
        # residual with S^{-1} from a Cholesky factorization
        cf = fixture()
        sm = discretize(cf, h)
        ks = solve_steady_state(sm, cf)
        F, C, omega = sm.eAh, ks.c_matrix, ks.omega
        G = F @ omega @ C.T
        S = C @ omega @ C.T
        new = F @ omega @ F.T - G @ sla.cho_solve(sla.cho_factor(0.5 * (S + S.T)), G.T)
        new += sm.sigma_tilde
        want = np.linalg.norm(omega - 0.5 * (new + new.T))
        assert abs(ks.residual - want) <= 1e-14 * (1.0 + np.linalg.norm(omega))

    def test_singular_innovation_covariance_raises(self, scalar_cf, scalar_sm, monkeypatch):
        # C = I on this fixture, so this Riccati "solution" gives V = diag(1, 0)
        dare = types.SimpleNamespace(solve_discrete_are=lambda *args: np.diag([1.0, 0.0]))
        monkeypatch.setattr(kalman, "sla", dare)
        with pytest.raises(ConditioningError, match="positive definite"):
            solve_steady_state(scalar_sm, scalar_cf)

    def test_invalid_operation_in_the_solver_raises(self, scalar_cf):
        # at ||A2|| = 1e308 scipy's balancing casts NaN to int, a RuntimeWarning
        # (the CLI's exit 3), and returns an answer with a NaN residual, which
        # passed the check `residual > bound`
        cf = dataclasses.replace(scalar_cf, A2=[[-1e308]])
        with pytest.warns(RuntimeWarning, match="invalid value"), \
                pytest.raises(ConvergenceError, match="residual bound: nan"):
            solve_steady_state(discretize(cf, 1.0), cf)

    def test_closed_loop_quantities_computed_once(self, partial_cf, partial_sm):
        ks = solve_steady_state(partial_sm, partial_cf)
        assert ks.settle is ks.settle
        N = ks.closed_loop.shape[0]
        assert np.array_equal(ks.settle, np.linalg.solve(np.eye(N) - ks.closed_loop, ks.gain))
        assert "spectral_radius" in vars(ks)  # read by the stability check
        assert ks.spectral_radius == float(np.max(np.abs(np.linalg.eigvals(ks.closed_loop))))


class TestFilterInnovations:
    def test_zero_observations(self, scalar_ks, scalar_sm):
        eps, x_hat = filter_innovations(scalar_ks, scalar_sm, np.zeros((20, 2)))
        assert np.array_equal(eps, np.zeros((20, 2)))
        assert np.array_equal(x_hat, np.zeros((20, 2)))

    def test_matches_loop_oracle(self, partial_ks, partial_sm, partial_cf, rng):
        y = simulate_exact_gaussian(partial_sm, partial_cf, 5_000, seed=79).y
        x_hat_0 = rng.normal(size=3)
        eps, x_hat = filter_innovations(partial_ks, partial_sm, y, x_hat_0=x_hat_0)
        U = np.vstack([np.zeros((1, 2)), y[:-1]]) @ partial_ks.gain.T
        want = helpers.linear_recursion_loop(partial_ks.closed_loop, U, x_hat_0)
        assert np.max(np.abs(x_hat - want)) <= 1e-12 * np.max(np.abs(want))
        eps_want = y - want @ partial_ks.c_matrix.T
        assert np.max(np.abs(eps - eps_want)) <= 1e-12 * np.max(np.abs(y))

    @pytest.mark.parametrize("h", [
        0.1,
        pytest.param(0.01, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 1")),
    ])
    def test_matches_loop_oracle_on_non_normal_loop(self, h):
        # ||cl||_2 is 33 at h = 0.1 and 360 at h = 0.01, where the scan's
        # products of closed-loop powers miss the loop by 1.4e-7
        cf = helpers.mcarma31_fixture()
        sm = discretize(cf, h)
        ks = solve_steady_state(sm, cf)
        y = simulate_exact_gaussian(sm, cf, 5_000, seed=1).y
        eps, _ = filter_innovations(ks, sm, y)
        U = np.vstack([np.zeros((1, 2)), y[:-1]]) @ ks.gain.T
        X = helpers.linear_recursion_loop(ks.closed_loop, U, np.zeros(cf.N))
        want = (y - X @ ks.c_matrix.T)[200:]
        assert np.max(np.abs(eps[200:] - want)) <= 1e-8 * np.max(np.abs(want))

    def test_full_observation_reduces_to_one_step_predictor(self, scalar_ks, scalar_sm, rng):
        y = rng.normal(size=(50, 2))
        eps, _ = filter_innovations(scalar_ks, scalar_sm, y)
        expected = y.copy()
        expected[1:] -= y[:-1] @ scalar_sm.eAh.T
        assert np.allclose(eps, expected, atol=1e-12)

    def test_innovation_covariance_matches_v(self, partial_ks, partial_sm, partial_cf):
        ps = simulate_exact_gaussian(partial_sm, partial_cf, 101_000, seed=512)
        eps, _ = filter_innovations(partial_ks, partial_sm, ps.y)
        eps = eps[1000:]
        emp = eps.T @ eps / eps.shape[0]
        se = helpers.cov_se(eps, eps)
        assert np.all(np.abs(emp - partial_ks.v) <= 3.0 * se)

    def test_split_half_covariance_stationarity(self, partial_ks, partial_sm, partial_cf):
        ps = simulate_exact_gaussian(partial_sm, partial_cf, 81_000, seed=513)
        eps, _ = filter_innovations(partial_ks, partial_sm, ps.y)
        eps = eps[1000:]
        half = eps.shape[0] // 2
        a, b = eps[:half], eps[half:]
        cov_a = a.T @ a / half
        cov_b = b.T @ b / half
        se = helpers.cov_se(a, a) + helpers.cov_se(b, b)
        assert np.all(np.abs(cov_a - cov_b) <= 3.0 * se)

    def test_initialization_forgetting(self, partial_ks, partial_sm, partial_cf, rng):
        ps = simulate_exact_gaussian(partial_sm, partial_cf, 600, seed=77)
        eps0, _ = filter_innovations(partial_ks, partial_sm, ps.y)
        eps1, _ = filter_innovations(partial_ks, partial_sm, ps.y,
                                     x_hat_0=rng.normal(size=3))
        assert np.max(np.abs(eps0[500:] - eps1[500:])) < 1e-8

    def test_moving_average_formula_cross_check(self, partial_ks, partial_sm, partial_cf):
        ps = simulate_exact_gaussian(partial_sm, partial_cf, 400, seed=78)
        eps, _ = filter_innovations(partial_ks, partial_sm, ps.y)
        cl, K, C = partial_ks.closed_loop, partial_ks.gain, partial_ks.c_matrix
        weights = []
        power = np.eye(3)
        for _ in range(200):
            weights.append(C @ power @ K)
            power = cl @ power
        n = 350
        acc = ps.y[n].copy()
        for i, W in enumerate(weights, start=1):
            acc -= W @ ps.y[n - i]
        assert np.max(np.abs(acc - eps[n])) < 1e-6

    def test_scratch_memory_is_bounded(self, rng):
        # beyond the states and the innovations (both returned), only the
        # scan's O(T / SCAN_BLOCK) rows, freed before the innovations exist
        cf = helpers.slow_fixture()
        sm = discretize(cf, 1.0)
        ks = solve_steady_state(sm, cf)
        T = 200_000
        y = rng.normal(size=(T, cf.d))
        peak, (eps, x_hat) = helpers.scratch_peak(filter_innovations, ks, sm, y)
        assert peak < 0.05 * T * cf.N * 8 + eps.nbytes + x_hat.nbytes

    def test_shape_validation(self, scalar_ks, scalar_sm):
        with pytest.raises(DimensionError):
            filter_innovations(scalar_ks, scalar_sm, np.zeros((10, 3)))
        with pytest.raises(DimensionError):
            filter_innovations(scalar_ks, scalar_sm, np.zeros((10, 2)), x_hat_0=np.zeros(5))


class TestFilteredControllability:
    def test_full_observation_controllable(self, scalar_ks, scalar_sm):
        rep = check_filtered_controllability(scalar_ks, scalar_sm)
        assert rep.is_controllable and rep.is_observable and rep.is_minimal

    def test_partial_fixture_controllable(self, partial_ks, partial_sm):
        rep = check_filtered_controllability(partial_ks, partial_sm)
        assert rep.is_controllable and rep.is_observable

    def test_degenerate_zero_gain(self, scalar_ks, scalar_sm):
        broken = KalmanSolution(
            omega=scalar_ks.omega, gain=np.zeros_like(scalar_ks.gain),
            v=scalar_ks.v, closed_loop=scalar_ks.closed_loop,
            iterations=1, residual=0.0, c_matrix=scalar_ks.c_matrix,
        )
        rep = check_filtered_controllability(broken, scalar_sm)
        assert not rep.is_controllable

    def test_rank_decision_stable_under_tiny_noise(self, partial_cf, partial_sm, rng):
        base = solve_steady_state(partial_sm, partial_cf)
        rep0 = check_filtered_controllability(base, partial_sm)
        from cointssm.moments import SampledModel
        for _ in range(3):
            bump = rng.normal(size=partial_sm.sigma_tilde.shape)
            bump = 1e-12 * (bump + bump.T)
            sm2 = SampledModel(h=partial_sm.h, c=partial_sm.c, eAh=partial_sm.eAh,
                               sigma_tilde=partial_sm.sigma_tilde + bump)
            ks2 = solve_steady_state(sm2, partial_cf)
            rep2 = check_filtered_controllability(ks2, sm2)
            assert rep2.is_controllable == rep0.is_controllable
