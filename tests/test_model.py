import numpy as np
import pytest

import helpers
from cointssm import (
    CointCanonicalForm,
    LevySpec,
    McarmaModel,
    StateSpaceModel,
    assemble_from_canonical,
    canonicalize,
    matops,
)
from cointssm.errors import DimensionError, ValidationError


class TestLevySpec:
    def test_brownian_identity_valid(self):
        spec = LevySpec(kind="brownian", sigma_L=np.eye(2))
        assert np.array_equal(spec.diffusion_cov, np.eye(2))

    def test_singular_covariance_flagged(self):
        with pytest.raises(ValidationError, match="positive definite"):
            LevySpec(kind="brownian", sigma_L=[[1.0, 0.0], [0.0, 0.0]])

    @pytest.mark.parametrize("scale", [1e160, 1e200])
    def test_huge_asymmetric_covariance_named(self, scale):
        # its norms overflowed, so it passed as symmetric and was refused
        # only as "not positive definite"
        with pytest.raises(ValidationError, match="sigma_L is not symmetric"):
            LevySpec(kind="brownian", sigma_L=scale * np.array([[1.0, 0.0], [3.0, 1.0]]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_covariance_decided_without_overflow(self):
        # ||sigma_L|| overflowed: 1e200 I warned and was refused as singular
        # with the tolerance COV_TOL (1 + ||sigma_L||) = inf
        spec = LevySpec(kind="brownian", sigma_L=1e200 * np.eye(2))
        assert spec.sigma_L[0, 0] == 1e200
        with pytest.raises(ValidationError, match="positive definite"):
            LevySpec(kind="brownian", sigma_L=1e200 * np.diag([1.0, 0.0]))
        LevySpec(kind="brownian_plus_compound_poisson", sigma_L=2e200 * np.eye(2),
                 jump_rate=1.0, jump_cov=1e200 * np.eye(2))
        with pytest.raises(ValidationError, match="pure-jump driver"):
            LevySpec(kind="compound_poisson_gaussian_jumps", sigma_L=3e200 * np.eye(2),
                     jump_rate=2.0, jump_cov=1e200 * np.eye(2))

    def test_subnormal_jump_covariance_accepted(self):
        # the symmetry check's scale overflowed on entries below about 2.8e-309
        spec = LevySpec(kind="brownian_plus_compound_poisson", sigma_L=[[1.0]],
                        jump_rate=1.0, jump_cov=[[1e-310]])
        assert spec.jump_cov[0, 0] == 1e-310

    def test_pure_jump_decomposition(self):
        spec = LevySpec(
            kind="compound_poisson_gaussian_jumps",
            sigma_L=2.0 * np.eye(2), jump_rate=2.0, jump_cov=np.eye(2),
        )
        assert np.allclose(spec.diffusion_cov, 0.0)

    def test_pure_jump_brownian_part_is_exactly_zero(self):
        # it was the rounding remainder sigma_L - jump_rate * jump_cov, here
        # -2e-9 I, whose Van Loan integral the sampler refused at h = 10
        spec = LevySpec(kind="compound_poisson_gaussian_jumps", sigma_L=np.eye(2),
                        jump_rate=3.0, jump_cov=0.333333334 * np.eye(2))
        assert np.array_equal(spec.diffusion_cov, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            spec.diffusion_cov[0, 0] = 1.0

    def test_mixed_brownian_part_is_the_difference_or_its_psd_part(self):
        sigma, jump_cov = np.array([[2.0, 0.3], [0.3, 1.5]]), np.array([[0.4, 0.1], [0.1, 0.2]])
        spec = LevySpec(kind="brownian_plus_compound_poisson", sigma_L=sigma,
                        jump_rate=1.7, jump_cov=jump_cov)
        want = sigma - 1.7 * jump_cov
        assert np.array_equal(spec.diffusion_cov.view(np.uint64), want.view(np.uint64))
        # the difference is -5e-7 I, inside the tolerance: its PSD part is 0
        spec = LevySpec(kind="brownian_plus_compound_poisson", sigma_L=100.0 * np.eye(2),
                        jump_rate=1.0, jump_cov=(100.0 + 5e-7) * np.eye(2))
        assert np.array_equal(spec.diffusion_cov, np.zeros((2, 2)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind,message", [
        ("brownian_plus_compound_poisson", "no Brownian component fits"),
        ("compound_poisson_gaussian_jumps", "pure-jump driver"),
    ])
    def test_overflowing_jump_term_refused_without_warning(self, kind, message):
        # jump_rate * jump_cov overflowed: a RuntimeWarning, and the mixed
        # driver constructed with a -inf Brownian part
        with pytest.raises(ValidationError, match=message):
            LevySpec(kind=kind, sigma_L=np.eye(2), jump_rate=1e300, jump_cov=1e10 * np.eye(2))

    def test_pure_jump_mismatch_flagged(self):
        with pytest.raises(ValidationError,
                           match=r"sigma_L != jump_rate \* jump_cov for the pure-jump driver"):
            LevySpec(
                kind="compound_poisson_gaussian_jumps",
                sigma_L=3.0 * np.eye(2), jump_rate=2.0, jump_cov=np.eye(2),
            )

    def test_mixed_driver_needs_psd_diffusion(self):
        with pytest.raises(ValidationError, match="is not PSD, no Brownian component fits"):
            LevySpec(
                kind="brownian_plus_compound_poisson",
                sigma_L=np.eye(2), jump_rate=4.0, jump_cov=np.eye(2),
            )
        good = LevySpec(
            kind="brownian_plus_compound_poisson",
            sigma_L=2.0 * np.eye(2), jump_rate=1.0, jump_cov=np.eye(2),
        )
        assert np.allclose(good.diffusion_cov, np.eye(2))

    @pytest.mark.parametrize("kind,sigma,jump_cov,message", [
        ("brownian", [[1.0, 0.5], [0.0, 1.0]], None, "sigma_L is not symmetric"),
        ("brownian_plus_compound_poisson", 2.0 * np.eye(2), [[1.0, 0.5], [0.0, 1.0]],
         "jump_cov is not symmetric"),
        ("brownian_plus_compound_poisson", 2.0 * np.eye(2), [[1.0, 0.0], [0.0, -1.0]],
         "jump_cov is not positive semidefinite"),
    ])
    def test_each_clause_rejected_at_construction(self, kind, sigma, jump_cov, message):
        rate = 0.0 if jump_cov is None else 1.0
        with pytest.raises(ValidationError, match="^invalid Levy driver: .*" + message):
            LevySpec(kind=kind, sigma_L=sigma, jump_rate=rate, jump_cov=jump_cov)

    def test_every_failed_clause_listed(self):
        with pytest.raises(ValidationError) as info:
            LevySpec(kind="brownian_plus_compound_poisson", sigma_L=[[1.0, 0.5], [0.0, 1.0]],
                     jump_rate=4.0, jump_cov=[[1.0, 0.0], [0.0, -1.0]])
        assert str(info.value) == (
            "invalid Levy driver: sigma_L is not symmetric; jump_cov is not positive "
            "semidefinite; sigma_L - jump_rate * jump_cov is not PSD, no Brownian "
            "component fits")

    def test_brownian_rejects_jump_parameters(self):
        with pytest.raises(ValidationError):
            LevySpec(kind="brownian", sigma_L=np.eye(2), jump_rate=1.0, jump_cov=np.eye(2))

    def test_jump_kind_requires_jump_cov(self):
        with pytest.raises(ValidationError):
            LevySpec(kind="compound_poisson_gaussian_jumps", sigma_L=np.eye(2), jump_rate=1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            LevySpec(kind="gamma", sigma_L=np.eye(2))

    def test_arrays_frozen(self):
        spec = LevySpec(kind="brownian", sigma_L=np.eye(2))
        with pytest.raises(ValueError):
            spec.sigma_L[0, 0] = 5.0


class TestStateSpaceModel:
    def test_dimension_coherence(self):
        levy = helpers.brownian(2)
        with pytest.raises(DimensionError):
            StateSpaceModel(A=np.zeros((2, 2)), B=np.zeros((3, 2)), C=np.eye(2), levy=levy)
        with pytest.raises(DimensionError):
            StateSpaceModel(A=np.zeros((2, 2)), B=np.zeros((2, 2)), C=np.eye(3), levy=levy)

    def test_observation_cannot_exceed_state(self):
        levy = helpers.brownian(1)
        with pytest.raises(DimensionError):
            StateSpaceModel(A=np.zeros((1, 1)), B=np.ones((1, 1)),
                            C=np.ones((2, 1)), levy=levy)

    def test_singular_driver_rejected(self):
        with pytest.raises(ValidationError):
            levy = LevySpec(kind="brownian", sigma_L=np.diag([1.0, 0.0]))
            StateSpaceModel(A=np.zeros((2, 2)), B=np.eye(2), C=np.eye(2), levy=levy)

    def test_properties(self):
        m = assemble_from_canonical(helpers.partial_fixture())
        assert (m.N, m.d, m.m) == (3, 2, 2)


class TestMcarmaModel:
    def test_requires_p_greater_q(self):
        levy = helpers.brownian(1)
        with pytest.raises(ValidationError):
            McarmaModel(p_coeffs=(np.eye(1),), q_coeffs=(np.eye(1), np.eye(1)), levy=levy)

    def test_coefficient_shapes(self):
        levy = helpers.brownian(2)
        with pytest.raises(DimensionError):
            McarmaModel(p_coeffs=(np.eye(2), np.eye(3)), q_coeffs=(np.ones((2, 2)),), levy=levy)
        with pytest.raises(DimensionError):
            McarmaModel(p_coeffs=(np.eye(2),), q_coeffs=(np.ones((2, 3)),), levy=levy)

    def test_ar_poly_is_monic(self, rng):
        m = helpers.random_mcarma(rng, d=2, p=2, q=1, m=2)
        poly = m.ar_poly()
        assert np.array_equal(poly[0], np.eye(2))
        assert len(poly) == 3


class TestCointCanonicalForm:
    def test_c1_must_be_orthonormal(self):
        with pytest.raises(ValidationError):
            CointCanonicalForm(c=1, A2=[[-1.0]], B1=[[1.0]], B2=[[1.0]],
                               C1=[[2.0], [0.0]], C2=[[0.0], [1.0]],
                               levy=helpers.brownian(1))

    def test_c1_positive_leading_entry(self):
        with pytest.raises(ValidationError):
            CointCanonicalForm(c=1, A2=[[-1.0]], B1=[[1.0]], B2=[[1.0]],
                               C1=[[-1.0], [0.0]], C2=[[0.0], [1.0]],
                               levy=helpers.brownian(1))

    def test_c1_pivots_must_increase(self):
        C1 = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValidationError):
            CointCanonicalForm(c=2, A2=[[-1.0]], B1=np.eye(2), B2=[[1.0, 0.0]],
                               C1=C1, C2=[[0.0], [0.0], [1.0]],
                               levy=helpers.brownian(2))

    def test_c1_is_refused_unless_the_normalizer_makes_it(self):
        # the pivot rule read 5e-9 as zero and accepted this C1, though
        # positive_lower_triangularize of it gives (5e-9, -1)
        c1 = np.array([[-5e-9], [1.0]]) / np.hypot(5e-9, 1.0)
        with pytest.raises(ValidationError, match="C1"):
            CointCanonicalForm(c=1, A2=[[-1.0]], B1=[[1.0]], B2=[[1.0]],
                               C1=c1, C2=[[0.0], [1.0]], levy=helpers.brownian(1))

    def test_rank_deficient_c1_refused(self):
        with pytest.raises(ValidationError, match="C1"):
            CointCanonicalForm(c=2, A2=[[-1.0]], B1=np.eye(2), B2=[[1.0, 0.0]],
                               C1=[[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]],
                               C2=[[0.0], [0.0], [1.0]], levy=helpers.brownian(2))

    @pytest.mark.parametrize("eps", [1.5e-9, 2e-9, 5e-9])
    def test_canonical_c1_with_a_small_pivot_is_accepted(self, eps):
        # the pivot rule's absolute 1e-8 skipped the entry eps that the
        # normalizer's relative 1e-9 takes as the pivot, and refused the C1
        # that canonicalize had just made
        m = StateSpaceModel(A=np.diag([0.0, -1.0]), B=np.eye(2), C=[[eps, 1.0], [-1.0, 0.0]],
                            levy=helpers.brownian(2))
        cf, _ = canonicalize(m)
        assert cf.C1[0, 0] > 0
        again, _ = canonicalize(assemble_from_canonical(cf))
        assert np.allclose(again.C1, cf.C1, rtol=0.0, atol=1e-15)

    def test_a2_must_be_hurwitz(self):
        with pytest.raises(ValidationError):
            CointCanonicalForm(c=1, A2=[[0.5]], B1=[[1.0]], B2=[[1.0]],
                               C1=[[1.0], [0.0]], C2=[[0.0], [1.0]],
                               levy=helpers.brownian(1))

    def test_b1_full_row_rank(self):
        with pytest.raises(ValidationError):
            CointCanonicalForm(c=1, A2=[[-1.0]], B1=[[0.0]], B2=[[1.0]],
                               C1=[[1.0], [0.0]], C2=[[0.0], [1.0]],
                               levy=helpers.brownian(1))

    def test_b1_rank_reads_rel_tol(self):
        # B1's second row at 1e-10: full rank at 1e-12, not at the default
        weak_b1 = dict(c=2, A2=[[-1.0]], B1=[[1.0, 0.0], [0.0, 1e-10]], B2=[[1.0, 1.0]],
                       C1=np.eye(3, 2), C2=[[0.0], [0.0], [1.0]], levy=helpers.brownian(2))
        with pytest.raises(ValidationError, match="B1"):
            CointCanonicalForm(**weak_b1)
        assert CointCanonicalForm(**weak_b1, rel_tol=1e-12).c == 2

    def test_c_must_be_below_d(self):
        with pytest.raises(ValidationError):
            CointCanonicalForm(c=1, A2=np.zeros((0, 0)), B1=[[1.0]],
                               B2=np.zeros((0, 1)), C1=[[1.0]],
                               C2=np.zeros((1, 0)), levy=helpers.brownian(1))

    @pytest.mark.parametrize("fixture", [helpers.scalar_fixture, helpers.partial_fixture,
                                         helpers.slow_fixture])
    def test_gamma0_solved_once_and_read_only(self, fixture):
        cf = fixture()
        want = matops.lyapunov_solve(cf.A2, cf.B2 @ cf.levy.sigma_L @ cf.B2.T)
        assert cf.gamma0 is cf.gamma0
        assert np.array_equal(cf.gamma0.view(np.uint64), want.view(np.uint64))
        with pytest.raises(ValueError):
            cf.gamma0[0, 0] = 1.0

    def test_stationary_degenerate_allowed(self):
        cf = CointCanonicalForm(c=0, A2=[[-1.0]], B1=np.zeros((0, 1)), B2=[[1.0]],
                                C1=np.zeros((1, 0)), C2=[[1.0]],
                                levy=helpers.brownian(1))
        assert cf.N == 1 and cf.c == 0


class TestAssemble:
    def test_block_assembly(self, scalar_cf):
        m = assemble_from_canonical(scalar_cf)
        assert np.array_equal(m.A, [[0.0, 0.0], [0.0, -1.0]])
        assert np.array_equal(m.B, np.eye(2))
        assert np.array_equal(m.C, np.eye(2))

    def test_degenerate_stationary(self):
        cf = CointCanonicalForm(c=0, A2=[[-2.0]], B1=np.zeros((0, 1)), B2=[[1.0]],
                                C1=np.zeros((1, 0)), C2=[[3.0]],
                                levy=helpers.brownian(1))
        m = assemble_from_canonical(cf)
        assert np.array_equal(m.A, [[-2.0]])
        assert np.array_equal(m.B, [[1.0]])
        assert np.array_equal(m.C, [[3.0]])

    def test_round_trip_through_canonicalize(self, rng):
        for _ in range(5):
            cf = helpers.random_canonical(rng, d=2, c=1, n2=2, m=2)
            canon, _ = canonicalize(assemble_from_canonical(cf))
            again, _ = canonicalize(assemble_from_canonical(canon))
            for name in ("A2", "B1", "B2", "C1", "C2"):
                assert np.allclose(getattr(again, name), getattr(canon, name), atol=1e-8)

    def test_levy_passes_for_accepted_models(self, rng):
        cf = helpers.random_canonical(rng, d=2, c=1, n2=2, m=2)
        levy = assemble_from_canonical(cf).levy
        LevySpec(kind=levy.kind, sigma_L=levy.sigma_L, jump_rate=levy.jump_rate,
                 jump_cov=levy.jump_cov)
