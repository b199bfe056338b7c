import ast
import pathlib

import numpy as np
import pytest
import scipy.linalg as sla

import helpers
from cointssm import CointCanonicalForm, LevySpec, discretize, matops
from cointssm.errors import (
    CointegrationRankError,
    DimensionError,
    MultiplicityError,
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

    def test_rejects_stack(self):
        for shape in ((2, 3, 3), (0, 3, 3)):
            with pytest.raises(DimensionError):
                matops.expm(np.zeros(shape))

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            matops.expm([[np.nan, 0.0], [0.0, 0.0]])


class TestExpmAction:
    @staticmethod
    def _rows(A, times, V):
        return np.stack([sla.expm(A * t) @ v for t, v in zip(times, V)])

    def _check_rows(self, A, horizon, times, V):
        want = self._rows(A, times, V)
        out = matops.expm_action(A, horizon, times, V)
        assert np.max(np.abs(out - want)) <= 1e-13 * np.max(np.abs(want))

    def test_matches_expm_per_row(self, rng):
        for n in (1, 2, 3, 6):
            for horizon in (0.01, 1.0, 20.0):
                A = helpers.random_hurwitz(rng, n)
                times = horizon * rng.random(300)
                self._check_rows(A, horizon, times, rng.normal(size=(300, n)))
        # grid-aligned times: ||A||_1 = 48 on [0, 1] gives s = 7 and delta = 2^-7, so t = j delta
        # for every 7-bit j, plus t = horizon, whose index 2^7 the clamp takes back to 2^7 - 1
        A = helpers.random_hurwitz(rng, 3)
        A *= 48.0 / np.abs(A).sum(axis=0).max()
        times = np.arange(2**7 + 1) / 2**7
        self._check_rows(A, 1.0, times, rng.normal(size=(times.size, 3)))

    def test_endpoints(self, rng):
        A = helpers.random_hurwitz(rng, 3)
        V = rng.normal(size=(2, 3))
        out = matops.expm_action(A, 2.0, [0.0, 2.0], V)
        assert np.array_equal(out[0], V[0])
        want = sla.expm(2.0 * A) @ V[1]
        assert np.max(np.abs(out[1] - want)) <= 1e-14 * np.max(np.abs(want))

    def test_stiff_triangular_closed_form(self):
        # ||A||_1 h = 10^6: s = 21 halvings, and the slow mode keeps full accuracy
        a, b, d, h = -2e6, 30.0, -2.0, 0.5
        A = np.array([[a, b], [0.0, d]])
        rng = np.random.default_rng(0)
        times = h * rng.random(2_000)
        V = rng.normal(size=(2_000, 2))
        out = matops.expm_action(A, h, times, V)
        ea, ed = np.exp(a * times), np.exp(d * times)
        want = np.stack([ea * V[:, 0] + b * (ea - ed) / (a - d) * V[:, 1], ed * V[:, 1]], axis=1)
        assert np.max(np.abs(out - want)) <= 1e-14 * np.max(np.abs(want))

    def test_empty_shapes(self):
        assert matops.expm_action(-np.eye(2), 1.0, np.zeros(0), np.zeros((0, 2))).shape == (0, 2)
        assert matops.expm_action(np.zeros((0, 0)), 1.0, [0.5], np.zeros((1, 0))).shape == (1, 0)

    def test_validation(self):
        A, V = -np.eye(2), np.ones((2, 2))
        with pytest.raises(DimensionError):
            matops.expm_action(A, 1.0, [0.1, 0.2], np.ones((2, 3)))
        with pytest.raises(ValidationError):
            matops.expm_action(A, 1.0, [0.1, 1.5], V)
        with pytest.raises(ValidationError):
            matops.expm_action(A, 1.0, [-0.1, 0.5], V)
        for horizon in (0.0, np.inf):
            with pytest.raises(ValidationError):
                matops.expm_action(A, horizon, [0.0, 0.0], V)
        with pytest.raises(NumericError):  # 2^68 steps overflow the time index
            matops.expm_action(-1e20 * np.eye(2), 1.0, [0.1, 0.2], V)


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

    def test_right_hand_side_near_the_float64_limit(self):
        # the symmetrization and the solve overflowed (scipy's ValueError)
        Q = np.diag([1e308, 1.0])
        G = matops.lyapunov_solve(np.diag([-1.0, -2.0]), Q)
        assert np.array_equal(G, np.diag([5e307, 0.25]))
        with pytest.raises(NumericError, match="overflows"):
            matops.lyapunov_solve(np.diag([-0.25, -2.0]), Q)

    def test_rejects_non_hurwitz(self):
        with pytest.raises(StabilityError):
            matops.lyapunov_solve([[0.0]], [[1.0]])
        with pytest.raises(StabilityError):
            matops.lyapunov_solve([[1.0]], [[1.0]])


B = matops.SCAN_BLOCK


class TestLinearRecursion:
    """The ends-first scan against the step-by-step loop, to 1e-12 relative."""

    @staticmethod
    def _check(F, U, x0):
        want = helpers.linear_recursion_loop(F, U, x0)
        got = matops.linear_recursion(F, U, x0)
        assert got is U
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * np.max(np.abs(want), initial=0.0)

    @staticmethod
    def _stable(rng, n, rho=0.9):
        F = rng.normal(size=(n, n))
        return F * (rho / np.max(np.abs(np.linalg.eigvals(F)))) if n else F

    # block edges and the recursion depths 1 .. 4 of the scan over block ends
    @pytest.mark.parametrize("T", [0, 1, 2, B - 1, B, B + 1, 2 * B, 49, 50, B**2, B**2 + 1,
                                   B**3 + 1, 50_001])
    @pytest.mark.parametrize("batch", [(), (3,), (2, 3), (1,)])
    def test_matches_loop(self, rng, T, batch):
        F = self._stable(rng, 4)
        self._check(F, rng.normal(size=(T, *batch, 4)), rng.normal(size=(*batch, 4)))

    def test_empty_state(self):
        self._check(np.zeros((0, 0)), np.zeros((50, 2, 0)), np.zeros(0))

    def test_non_normal_near_unit_root(self, rng):
        # rho = 0.999 with a strong upper-triangular coupling: powers of F grow
        # by orders of magnitude before they decay
        F = 0.999 * np.eye(5) + np.triu(rng.normal(size=(5, 5)), 1)
        self._check(F, rng.normal(size=(50_000, 5)), 10.0 * rng.normal(size=5))

    def test_start_broadcasts_over_batch(self, rng):
        F = self._stable(rng, 3)
        self._check(F, rng.normal(size=(101, 4, 3)), np.array([1.0, -2.0, 3.0]))

    # time-major arrays, and time-major views of path-major storage: the
    # layout the ECF coefficient table scans, and the sampler's stationary
    # columns of (paths, T, N), whose other columns stay as they were
    @pytest.mark.parametrize("shape, axes, cols", [
        ((1000, 4), (0, 1), 0), ((300, 1, 4), (0, 1, 2), 0), ((300, 3, 4), (0, 1, 2), 0),
        ((3, 1000, 4), (1, 0, 2), 0), ((5, 1000, 7), (1, 0, 2), 3)])
    def test_in_place(self, rng, shape, axes, cols):
        R = rng.normal(size=shape)
        kept = R[..., :cols].copy()
        U = R[..., cols:].transpose(axes)
        self._check(self._stable(rng, 4), U, rng.normal(size=4))
        assert np.array_equal(R[..., :cols], kept)

    def test_scratch_is_a_fraction_of_the_path(self, rng):
        F = self._stable(rng, 6)
        U = rng.normal(size=(100_000, 6))
        peak, _ = helpers.scratch_peak(matops.linear_recursion, F, U, 0.0)
        assert peak < 4 / B * U.nbytes

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(DimensionError):
            matops.linear_recursion(np.eye(2), np.zeros((5, 3)), np.zeros(3))
        with pytest.raises(DimensionError):
            matops.linear_recursion(np.eye(2), np.zeros((5, 4, 2)), np.zeros((3, 2)))

    @pytest.mark.parametrize("U", [
        [[0.0, 0.0]] * 5,
        np.zeros((5, 2), dtype=np.float32),
        # (T, 2, 3, n) over (3, 2, T, n) storage: the batch axes do not
        # flatten without a copy, so a scan could not reach U
        np.zeros((3, 2, 5, 2)).transpose(2, 1, 0, 3),
    ])
    def test_rejects_what_it_cannot_scan_in_place(self, U):
        with pytest.raises(DimensionError):
            matops.linear_recursion(np.eye(2), U, 0.0)


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


class TestUnitRoots:
    def test_nullity_with_its_margins(self):
        # singular values 2, 1e-12 and 0 against the tolerance 2e-9
        ur = matops.unit_roots(np.diag([0.0, -1e-12, -2.0]))
        assert ur.c == 2
        assert ur.margin_kept == pytest.approx(1e9)
        assert ur.margin_dropped == pytest.approx(2e3)

    def test_full_rank_and_zero_matrix(self):
        full = matops.unit_roots(-np.eye(2))
        assert (full.c, full.margin_dropped) == (0, np.inf)
        assert full.margin_kept == pytest.approx(1e9)
        zero = matops.unit_roots(np.zeros((2, 2)))
        assert (zero.c, zero.margin_kept, zero.margin_dropped) == (2, np.inf, np.inf)

    def test_reads_rel_tol(self):
        A = np.diag([-1.0, -1e-8])
        assert matops.unit_roots(A).c == 0
        assert matops.unit_roots(A, 1e-6).c == 1

    def test_zero_tolerance_follows_rel_tol(self):
        # the root -5e-8 was counted at 1e-6 and then refused: the zero
        # tolerance stayed at 1e-8 (1 + ||A||) = 2e-8
        A = np.diag([-1.0, -5e-8])
        ur = matops.unit_roots(A, 1e-6)
        assert ur.c == 1 and ur.tolerance == pytest.approx(1e-5 * (1.0 + np.linalg.norm(A)))
        assert ur.is_unit.tolist() == [False, True]
        assert matops.unit_roots(A).tolerance == 1e-8 * (1.0 + np.linalg.norm(A))

    def test_splits_the_eigenvalues(self):
        ur = matops.unit_roots(np.diag([-3.0, 0.0, 2.0, -1e-12]))
        assert ur.c == 2 and ur.tolerance == pytest.approx(1e-8 * (1 + np.sqrt(13)))
        assert np.array_equal(ur.eigenvalues, [-3.0, -1e-12, 0.0, 2.0])
        assert ur.is_unit.tolist() == [False, True, True, False]
        assert np.array_equal(ur.unstable, [2.0])
        ur.check_semisimple()

    def test_jordan_block_is_not_semisimple(self):
        ur = matops.unit_roots(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -1.0]]))
        assert ur.c == 1 and int(np.sum(ur.is_unit)) == 2
        with pytest.raises(MultiplicityError, match="not a semisimple zero eigenvalue"):
            ur.check_semisimple()

    def test_rank_deficiency_that_is_not_a_unit_root(self):
        # eigenvalues -0.05 and -1, smallest singular value 5e-6 < 1e-9 * 1e4
        A = np.array([[-0.05, 1e4], [0.0, -1.0]])
        with pytest.raises(CointegrationRankError, match="rank deficiency c=1"):
            matops.unit_roots(A)
        assert matops.unit_roots(A, 1e-10).c == 0


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

    def test_one_svd_of_c(self, rng, monkeypatch):
        # the rank check and U come from one decomposition
        C = rng.normal(size=(5, 3))
        want = matops.positive_lower_triangularize(C)
        seen = helpers.count_svds(monkeypatch)
        got = matops.positive_lower_triangularize(C)
        assert seen == {helpers.matrix_key(C): 1}
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


class TestIsSymmetric:
    @pytest.mark.parametrize("scale", [1e160, 1e200])
    def test_huge_entries_decided_without_overflow(self, scale):
        # both norms overflowed to inf, and inf <= tol * inf accepted any matrix
        assert not matops.is_symmetric(scale * np.array([[1.0, 0.0], [3.0, 1.0]]))
        assert matops.is_symmetric(scale * np.array([[1.0, 3.0], [3.0, 1.0]]))

    def test_subnormal_entries_decided_without_overflow(self):
        # the scale 2^-e overflowed (OverflowError) below max|A| of about
        # 2.8e-309; the rule's absolute floor COV_TOL accepts both matrices
        for A in ([[1.0, 0.0], [3.0, 1.0]], [[1.0, 3.0], [3.0, 1.0]]):
            A = 1e-310 * np.array(A)
            assert matops.is_symmetric(A)
            assert np.linalg.norm(A - A.T) <= matops.COV_TOL * (1.0 + np.linalg.norm(A))

    def test_same_decision_as_the_unscaled_rule(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 5))
            A = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-12, 12)
            A = A + A.T + 10.0 ** rng.uniform(-14, -6) * rng.normal(size=(n, n)) * np.abs(A).max()
            unscaled = np.linalg.norm(A - A.T) <= matops.COV_TOL * (1.0 + np.linalg.norm(A))
            assert matops.is_symmetric(A) == unscaled

    def test_empty_and_zero(self):
        assert matops.is_symmetric(np.zeros((0, 0)))
        assert matops.is_symmetric(np.zeros((3, 3)))


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


class TestToleranceTable:
    SOURCES = sorted(pathlib.Path(matops.__file__).parent.glob("*.py"))

    @staticmethod
    def _table_values(tree):
        """Id of every value node of a module-level ``*_TOL = <literal>``."""
        return {id(node.value) for node in tree.body
                if isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name) and node.targets[0].id.endswith("_TOL")}

    def test_thresholds_only_in_the_matops_table(self):
        stray = []
        for path in self.SOURCES:
            tree = ast.parse(path.read_text())
            table = self._table_values(tree) if path.name == "matops.py" else set()
            stray += [f"{path.name}:{node.lineno} {node.value!r}" for node in ast.walk(tree)
                      if isinstance(node, ast.Constant) and type(node.value) is float
                      and 0.0 < node.value <= 1e-6 and id(node) not in table]
        assert not stray, f"thresholds outside the matops tolerance table: {stray}"

    def test_rel_tol_is_the_only_tolerance_argument(self):
        knobs = [f"{path.name}:{node.lineno} {arg.arg}" for path in self.SOURCES
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.FunctionDef)
                 for arg in node.args.args + node.args.kwonlyargs
                 if "tol" in arg.arg and arg.arg != "rel_tol"]
        assert not knobs, knobs


class TestUnreadParameters:
    SOURCES = TestToleranceTable.SOURCES
    #: (function, parameter) pairs allowed to go unread, with the reason.
    ALLOWED = {
        # the benchmark's tracer passes it positionally; it goes with the next
        # change to the benchmark
        ("kalman.filter_innovations", "sm"),
    }

    def test_every_parameter_is_read(self):
        unread = set()
        for path in self.SOURCES:
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                read = {n.id for n in ast.walk(node)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                unread |= {(f"{path.stem}.{node.name}", p.arg) for p in params
                           if p is not None and p.arg not in read}
        assert unread == self.ALLOWED


class TestScipySurface:
    """The scipy functions the package calls: the list a numpy-only
    replacement has to cover (ROADMAP item 10)."""
    SOURCES = TestToleranceTable.SOURCES
    ALLOWED = {"expm", "solve_continuous_lyapunov", "solve_discrete_are", "schur",
               "solve_sylvester", "lu_factor", "lu_solve"}
    IMPORTERS = {"matops", "kalman", "realization"}

    def test_only_the_listed_scipy_linalg_functions(self):
        used = {node.attr for path in self.SOURCES for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "sla"}
        assert used <= self.ALLOWED, sorted(used - self.ALLOWED)

    def test_scipy_imported_only_as_sla_in_three_modules(self):
        imports = set()
        for path in self.SOURCES:
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    imports |= {(path.stem, a.name, a.asname) for a in node.names}
                elif isinstance(node, ast.ImportFrom):
                    imports |= {(path.stem, f"{node.module}.{a.name}", a.asname)
                                for a in node.names}
        scipy = {i for i in imports if i[1].split(".")[0] == "scipy"}
        assert scipy == {(stem, "scipy.linalg", "sla") for stem in self.IMPORTERS}


class TestDeadPrivateCode:
    SOURCES = TestToleranceTable.SOURCES

    @staticmethod
    def _defined(stmt):
        """Private names a module-level statement defines (dunders excluded)."""
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            names = []
        return {n for n in names if n.startswith("_") and not n.endswith("__")}

    def test_every_private_module_name_is_read(self):
        # a name read only inside its own definition (a recursive helper) is unread
        defined, read = {}, []
        for path in self.SOURCES:
            for stmt in ast.parse(path.read_text()).body:
                names = self._defined(stmt)
                defined.update({n: f"{path.name}:{stmt.lineno}" for n in names})
                loads = {n.id for n in ast.walk(stmt)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                loads |= {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}
                read.append(loads - names)
        unread = {f"{where} {n}" for n, where in defined.items()
                  if not any(n in loads for loads in read)}
        assert not unread, f"private names nothing in the package reads: {sorted(unread)}"
