import numpy as np
import pytest

import helpers
from cointssm import CointCanonicalForm, LevySpec, discretize, matops
from cointssm.errors import (
    DimensionError,
    NumericError,
    RankError,
    StabilityError,
    ValidationError,
)


class TestExpm:
    def test_zero_matrix(self):
        assert np.array_equal(matops.expm(np.zeros((2, 2))), np.eye(2))

    def test_diagonal(self):
        out = matops.expm(np.diag([-1.0, -2.0]))
        assert np.allclose(out, np.diag([np.exp(-1.0), np.exp(-2.0)]), atol=1e-15)

    def test_nilpotent_exact(self):
        out = matops.expm([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(out, [[1.0, 1.0], [0.0, 1.0]], atol=1e-15)

    def test_inverse_property(self, rng):
        for _ in range(10):
            n = rng.integers(1, 6)
            M = rng.normal(size=(n, n))
            M *= rng.uniform(0.1, 10.0) / max(np.linalg.norm(M), 1e-12)
            prod = matops.expm(M) @ matops.expm(-M)
            assert np.allclose(prod, np.eye(n), atol=1e-10)

    def test_rejects_non_square(self):
        for shape in ((2, 3), (4, 2, 3), (3,)):
            with pytest.raises(DimensionError):
                matops.expm(np.zeros(shape))

    def test_stack_matches_each_matrix(self, rng):
        # the jump sampler exponentiates (k, n2, n2) stacks, empty ones included
        M = rng.normal(size=(2, 5, 3, 3)) * rng.uniform(0.1, 8.0, size=(2, 5, 1, 1))
        out = matops.expm(M)
        for idx in np.ndindex(2, 5):
            want = matops.expm(M[idx])
            assert np.max(np.abs(out[idx] - want)) <= 1e-14 * np.max(np.abs(want))
        assert matops.expm(np.zeros((0, 3, 3))).shape == (0, 3, 3)
        assert matops.expm(np.zeros((4, 0, 0))).shape == (4, 0, 0)

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            matops.expm([[np.nan, 0.0], [0.0, 0.0]])


class TestGramianIntegral:
    """The finite-horizon Gramian ``int_0^h e^{Au} B S B' e^{A'u} du`` is the
    ``sigma_tilde`` of ``discretize``, computed inside its Van Loan
    exponential; these cases drive it through model inputs."""

    @staticmethod
    def _model(b1, levy=None):
        return CointCanonicalForm(
            c=1, A2=[[-1.0]], B1=[[b1, 0.0]], B2=[[0.0, 1.0]],
            C1=[[1.0], [0.0]], C2=[[0.0], [1.0]], levy=levy or helpers.brownian(2),
        )

    def test_constant_integrand(self):
        # the unit-root block integrates a constant: h B1 S B1'
        sm = discretize(self._model(np.sqrt(2.0)), 3.0)
        assert np.allclose(sm.sigma11, [[6.0]], rtol=0.0, atol=1e-13)

    def test_scalar_decay(self):
        for h in (0.25, 1.0, 4.0):
            expected = (1.0 - np.exp(-2.0 * h)) / 2.0
            sm = discretize(self._model(1.0), h)
            assert np.allclose(sm.sigma22, [[expected]], atol=1e-13)

    def test_matches_quadrature(self, rng):
        for _ in range(4):
            n2 = int(rng.integers(1, 4))
            cf = helpers.random_canonical(rng, d=2, c=1, n2=n2, m=2)
            h = rng.uniform(0.2, 2.0)
            B2 = np.asarray(cf.B2)
            Q = B2 @ np.asarray(cf.levy.sigma_L) @ B2.T
            out = discretize(cf, h).sigma22
            assert np.allclose(out, helpers.simpson_gramian(cf.A2, Q, h), atol=1e-8)

    def test_symmetric_psd(self, rng):
        cf = helpers.random_canonical(rng, d=2, c=1, n2=3, m=3)
        out = discretize(cf, 1.5).sigma_tilde
        assert np.array_equal(out, out.T)
        assert np.min(np.linalg.eigvalsh(out)) >= -1e-10

    def test_rejects_asymmetric_q(self):
        with pytest.raises(ValidationError):
            self._model(1.0, LevySpec(kind="brownian", sigma_L=[[1.0, 5.0], [0.0, 1.0]]))

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(DimensionError):
            self._model(1.0, helpers.brownian(3))


class TestCrossIntegral:
    def test_zero_generator(self):
        assert np.allclose(matops.cross_integral(np.zeros((1, 1)), [[1.0]], 2.0), [[2.0]])

    def test_scalar_decay(self):
        for h in (0.5, 1.0, 3.0):
            out = matops.cross_integral([[-1.0]], [[1.0]], h)
            assert np.allclose(out, [[1.0 - np.exp(-h)]], atol=1e-13)

    def test_matches_quadrature(self, rng):
        for _ in range(4):
            n, k = rng.integers(1, 4), rng.integers(1, 4)
            A = helpers.random_hurwitz(rng, n)
            G = rng.normal(size=(n, k))
            h = rng.uniform(0.2, 2.0)
            out = matops.cross_integral(A, G, h)
            assert np.allclose(out, helpers.simpson_cross(A, G, h), atol=1e-8)

    def test_singular_generator_falls_back_to_augmented(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        G = np.eye(2)
        out = matops.cross_integral(A, G, 2.0)
        assert np.allclose(out, helpers.simpson_cross(A, G, 2.0), atol=1e-8)

    def test_rejects_mismatched_rows(self):
        with pytest.raises(DimensionError):
            matops.cross_integral(np.eye(2), np.eye(3), 1.0)

    @pytest.mark.parametrize("h", [1e-9, 1e-12])
    def test_small_step_matches_series(self, h):
        # A2^{-1}(e^{A2 h} - I) G cancels here: 3e-8 and 2.5e-5 off (relative)
        A = np.array([[-1.0, 0.4], [0.0, -2.0]])
        G = np.array([[0.3, 1.0], [-0.4, 0.5]])
        want = h * G + 0.5 * h**2 * A @ G
        out = matops.cross_integral(A, G, h)
        assert np.max(np.abs(out - want)) <= 1e-12 * np.max(np.abs(want))


class TestLyapunov:
    def test_scalar(self):
        assert np.allclose(matops.lyapunov_solve([[-1.0]], [[2.0]]), [[1.0]])

    def test_decoupled_diagonal(self):
        out = matops.lyapunov_solve(np.diag([-1.0, -2.0]), np.eye(2))
        assert np.allclose(out, np.diag([0.5, 0.25]))

    def test_residual_on_random_hurwitz(self, rng):
        for _ in range(6):
            n = rng.integers(1, 6)
            A = helpers.random_hurwitz(rng, n)
            Q = helpers.random_spd(rng, n)
            G = matops.lyapunov_solve(A, Q)
            assert np.linalg.norm(A @ G + G @ A.T + Q) <= 1e-10 * np.linalg.norm(Q)
            assert np.linalg.norm(G - G.T) < 1e-12

    def test_rejects_non_hurwitz(self):
        with pytest.raises(StabilityError):
            matops.lyapunov_solve([[0.0]], [[1.0]])
        with pytest.raises(StabilityError):
            matops.lyapunov_solve([[1.0]], [[1.0]])


class TestLinearRecursion:
    """The blocked scan against the step-by-step loop, to 1e-12 relative."""

    @staticmethod
    def _check(F, U, x0):
        got = matops.linear_recursion(F, U, x0)
        want = helpers.linear_recursion_loop(F, U, x0)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * np.max(np.abs(want), initial=0.0)

    @staticmethod
    def _stable(rng, n, rho=0.9):
        F = rng.normal(size=(n, n))
        return F * (rho / np.max(np.abs(np.linalg.eigvals(F)))) if n else F

    @pytest.mark.parametrize("T", [0, 1, 2, 49, 50, 50_001])
    @pytest.mark.parametrize("batch", [(), (3,), (2, 3)])
    def test_matches_loop(self, rng, T, batch):
        F = self._stable(rng, 4)
        self._check(F, rng.normal(size=(T, *batch, 4)), rng.normal(size=(*batch, 4)))

    def test_empty_state(self):
        self._check(np.zeros((0, 0)), np.zeros((50, 2, 0)), np.zeros(0))

    def test_non_normal_near_unit_root(self, rng):
        # rho = 0.999 with a strong upper-triangular coupling: powers of F grow
        # by orders of magnitude before they decay
        F = 0.999 * np.eye(5) + np.triu(rng.normal(size=(5, 5)), 1)
        self._check(F, rng.normal(size=(5_000, 5)), 10.0 * rng.normal(size=5))

    def test_start_broadcasts_over_batch(self, rng):
        F = self._stable(rng, 3)
        self._check(F, rng.normal(size=(101, 4, 3)), np.array([1.0, -2.0, 3.0]))

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(DimensionError):
            matops.linear_recursion(np.eye(2), np.zeros((5, 3)), np.zeros(3))
        with pytest.raises(DimensionError):
            matops.linear_recursion(np.eye(2), np.zeros((5, 4, 2)), np.zeros((3, 2)))


class TestNumericalRank:
    def test_zero_matrix(self):
        rr = matops.numerical_rank(np.zeros((2, 2)))
        assert rr.rank == 0 and rr.tolerance_used == 0.0

    def test_identity(self):
        assert matops.numerical_rank(np.eye(3)).rank == 3

    def test_rank_one(self):
        rr = matops.numerical_rank([[1.0, 0.0], [0.0, 0.0]])
        assert rr.rank == 1
        assert np.all(np.diff(rr.singular_values) <= 0)
        assert rr.rank == int(np.sum(rr.singular_values > rr.tolerance_used))

    def test_rejects_bad_tol(self):
        # NaN used to pass the sign check and give rank 0
        for rel_tol in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValidationError):
                matops.numerical_rank(np.eye(2), rel_tol=rel_tol)


class TestOrthComplement:
    def test_unit_vector(self):
        out = matops.orth_complement([[1.0], [0.0]])
        assert np.allclose(np.abs(out), [[0.0], [1.0]])

    def test_identity_columns(self):
        out = matops.orth_complement(np.eye(3)[:, :2])
        assert np.allclose(np.abs(out), [[0.0], [0.0], [1.0]])

    def test_random_property(self, rng):
        for _ in range(6):
            d = rng.integers(2, 7)
            s = rng.integers(1, d)
            M = rng.normal(size=(d, s))
            P = matops.orth_complement(M)
            assert np.linalg.norm(M.T @ P) <= 1e-12
            assert np.allclose(P.T @ P, np.eye(d - s), atol=1e-12)
            # together with an orthonormal basis of M this is a square orthogonal matrix
            U = np.linalg.svd(M, full_matrices=False)[0]
            W = np.hstack([U, P])
            assert np.allclose(W.T @ W, np.eye(d), atol=1e-10)

    def test_rejects_rank_deficient(self):
        with pytest.raises(RankError):
            matops.orth_complement(np.zeros((3, 1)))
        with pytest.raises(RankError):
            matops.orth_complement(np.eye(2))


def _det_poly_roots_oracle(coeffs):
    """Roots of det P(z) for d<=2 via explicit polynomial arithmetic."""
    d = coeffs[0].shape[0]
    if d == 1:
        det = np.array([c[0, 0] for c in coeffs])
    else:
        a = np.array([c[0, 0] for c in coeffs])
        b = np.array([c[0, 1] for c in coeffs])
        cc = np.array([c[1, 0] for c in coeffs])
        e = np.array([c[1, 1] for c in coeffs])
        det = np.convolve(a, e) - np.convolve(b, cc)
    return np.sort_complex(np.roots(det))


class TestPolyDetRoots:
    def test_two_by_two(self):
        roots = matops.poly_det_roots([np.eye(2), np.array([[1.0, 0.0], [0.0, 0.0]])])
        assert np.allclose(roots, [-1.0, 0.0], atol=1e-12)

    def test_scalar(self):
        roots = matops.poly_det_roots([np.eye(1), np.array([[2.0]])])
        assert np.allclose(roots, [-2.0])

    def test_against_determinant_oracle(self, rng):
        for _ in range(6):
            d = rng.integers(1, 3)
            p = rng.integers(1, 4)
            coeffs = [np.eye(d)] + [rng.normal(size=(d, d)) for _ in range(p)]
            ours = np.sort_complex(matops.poly_det_roots(coeffs))
            oracle = _det_poly_roots_oracle(coeffs)
            assert np.allclose(ours, oracle, atol=1e-8)

    def test_rejects_non_monic(self):
        with pytest.raises(ValidationError):
            matops.poly_det_roots([2.0 * np.eye(2), np.eye(2)])

    def test_sorted_by_real_then_imag(self, rng):
        coeffs = [np.eye(2)] + [rng.normal(size=(2, 2)) for _ in range(2)]
        roots = matops.poly_det_roots(coeffs)
        key = np.lexsort((roots.imag, roots.real))
        assert np.array_equal(key, np.arange(len(roots)))


class TestPositiveLowerTriangularize:
    def test_scaled_unit_column(self):
        C1, T1 = matops.positive_lower_triangularize([[0.0], [5.0]])
        assert np.allclose(C1, [[0.0], [1.0]])
        assert np.allclose(T1, [[5.0]])

    def test_fixed_point(self, rng):
        C = rng.normal(size=(4, 2))
        C1, _ = matops.positive_lower_triangularize(C)
        C1b, T1b = matops.positive_lower_triangularize(C1)
        assert np.allclose(C1b, C1, atol=1e-12)
        assert np.allclose(T1b, np.eye(2), atol=1e-12)

    def test_invariant_under_column_operations(self, rng):
        for _ in range(8):
            d = rng.integers(2, 7)
            c = rng.integers(1, min(d, 4))
            C = rng.normal(size=(d, c))
            S = rng.normal(size=(c, c))
            while np.linalg.cond(S) > 50:
                S = rng.normal(size=(c, c))
            out1, _ = matops.positive_lower_triangularize(C)
            out2, _ = matops.positive_lower_triangularize(C @ S)
            assert np.allclose(out1, out2, atol=1e-10)

    def test_reconstruction_and_orthonormality(self, rng):
        C = rng.normal(size=(5, 3))
        C1, T1 = matops.positive_lower_triangularize(C)
        assert np.allclose(C1.T @ C1, np.eye(3), atol=1e-12)
        assert np.allclose(C1 @ T1, C, atol=1e-12)

    def test_rejects_rank_deficient(self):
        with pytest.raises(RankError):
            matops.positive_lower_triangularize(np.ones((3, 2)))


class TestPsdFactor:
    def test_factorization(self, rng):
        S = helpers.random_spd(rng, 4)
        F = matops.psd_factor(S)
        assert np.allclose(F @ F.T, S, atol=1e-10)

    def test_singular_psd_ok(self):
        F = matops.psd_factor(np.diag([1.0, 0.0]))
        assert np.allclose(F @ F.T, np.diag([1.0, 0.0]), atol=1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(NumericError):
            matops.psd_factor(np.diag([1.0, -1.0]))


class TestFirstIndependentRows:
    def test_prefers_lowest_indices(self):
        M = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
        assert matops.first_independent_rows(M, 2) == [1, 3]

    def test_raises_when_rank_deficient(self):
        with pytest.raises(RankError):
            matops.first_independent_rows(np.ones((3, 2)), 2)
