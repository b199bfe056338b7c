import numpy as np
import pytest

import helpers
import zoo
from cointssm import (
    McarmaModel,
    StateSpaceModel,
    assemble_from_canonical,
    canonicalize,
    controllability_matrix,
    matops,
    mcarma_to_ss,
    minimality_report,
    observability_matrix,
    ss_to_mcarma,
    transfer_function,
)
from cointssm.errors import (
    CointegrationRankError,
    DimensionError,
    MinimalityError,
    MultiplicityError,
    RankError,
    StabilityError,
)
from cointssm.realization import decoupled_minimality_check

PROBES = (2.0, 1.0 + 1.0j, -3.0)


class TestStructureMatrices:
    def test_observability_identity_c(self, rng):
        A = rng.normal(size=(3, 3))
        m = StateSpaceModel(A=A, B=np.eye(3), C=np.eye(3), levy=zoo.brownian(3))
        O = observability_matrix(m)
        assert np.array_equal(O[:3], np.eye(3))
        assert matops.numerical_rank(O).rank == 3

    def test_observability_zero_c(self):
        m = StateSpaceModel(A=np.diag([-1.0, -2.0]), B=np.eye(2),
                            C=np.zeros((2, 2)), levy=zoo.brownian(2))
        assert matops.numerical_rank(observability_matrix(m)).rank == 0

    def test_companion_always_observable(self, rng):
        for _ in range(5):
            mc = zoo.random_mcarma(rng, d=2, p=3, q=1, m=2)
            m = mcarma_to_ss(mc)
            assert matops.numerical_rank(observability_matrix(m)).rank == m.N

    def test_poly_roots_match_companion_spectrum(self, rng):
        mc = zoo.random_mcarma(rng, d=3, p=2, q=0, m=3)
        roots = matops.poly_det_roots(mc.ar_poly())
        eigs = matops.sort_complex(np.linalg.eigvals(mcarma_to_ss(mc).A))
        assert np.allclose(roots, eigs, atol=1e-8)

    def test_controllability_identity_b(self, rng):
        A = rng.normal(size=(3, 3))
        m = StateSpaceModel(A=A, B=np.eye(3), C=np.eye(3), levy=zoo.brownian(3))
        assert matops.numerical_rank(controllability_matrix(m)).rank == 3

    def test_controllability_zero_b(self):
        m = StateSpaceModel(A=np.diag([-1.0, -2.0]), B=np.zeros((2, 2)),
                            C=np.eye(2), levy=zoo.brownian(2))
        assert matops.numerical_rank(controllability_matrix(m)).rank == 0

    def test_explicit_two_by_four(self):
        m = StateSpaceModel(A=[[0.0, 0.0], [0.0, -1.0]], B=np.eye(2),
                            C=np.eye(2), levy=zoo.brownian(2))
        ctr = controllability_matrix(m)
        assert ctr.shape == (2, 4)
        assert np.array_equal(ctr, [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, -1.0]])
        assert matops.numerical_rank(ctr).rank == 2


class TestMinimality:
    def test_scalar_fixture_minimal(self, scalar_cf):
        rep = minimality_report(assemble_from_canonical(scalar_cf))
        assert rep.is_minimal and rep.is_observable and rep.is_controllable

    def test_duplicated_observation_row_not_observable(self):
        m = StateSpaceModel(A=np.zeros((2, 2)), B=np.eye(2),
                            C=[[1.0, 0.0], [1.0, 0.0]], levy=zoo.brownian(2))
        rep = minimality_report(m)
        assert not rep.is_observable and not rep.is_minimal

    def test_similarity_invariance(self, rng):
        for _ in range(10):
            cf = zoo.random_canonical(rng, d=2, c=1, n2=2, m=2)
            base = assemble_from_canonical(cf)
            T = rng.normal(size=(base.N, base.N))
            if np.linalg.cond(T) > 100:
                continue
            rep1 = minimality_report(base)
            rep2 = minimality_report(zoo.conjugate(base, T))
            assert (rep1.is_observable, rep1.is_controllable) == \
                   (rep2.is_observable, rep2.is_controllable)

    def test_decoupled_check_matches_full(self, rng):
        for _ in range(30):
            d = int(rng.integers(2, 4))
            c = int(rng.integers(1, d))
            n2 = int(rng.integers(max(1, d - c), 4))
            m = int(rng.integers(c, 4))
            try:
                cf = zoo.random_canonical(rng, d, c, n2, m)
            except RuntimeError:
                continue
            dec = decoupled_minimality_check(cf)
            full = minimality_report(assemble_from_canonical(cf))
            assert dec.is_minimal == full.is_minimal
            assert dec.is_observable == full.is_observable
            assert dec.is_controllable == full.is_controllable


class TestPbhMinimalModels:
    """Models that the PBH test certifies minimal and `canonicalize` refuses:
    its Krylov rank tests lose about one digit per power (ROADMAP item 3)."""

    @pytest.mark.xfail(strict=True, raises=MinimalityError, reason="ROADMAP item 3")
    def test_canonicalize_accepts_the_forms_it_makes(self):
        # the 20th of 40 (6, 2, 8) draws that follow 40 (4, 2, 6) draws:
        # canonicalize makes a form from it and refuses the form's model
        rng = np.random.default_rng(5)
        for _ in range(40):
            zoo.random_conjugated_model(rng, d=4, c=2, n2=6, m=4)
        for _ in range(20):
            model, _ = zoo.random_conjugated_model(rng, d=6, c=2, n2=8, m=6)
        cf, _ = canonicalize(model)
        canonicalize(assemble_from_canonical(cf))

    @pytest.mark.xfail(strict=True, raises=MinimalityError, reason="ROADMAP item 3")
    def test_canonicalize_accepts_a_pbh_minimal_model_at_n19(self):
        # the first PBH-minimal (8, 3, 16) conjugation
        rng = np.random.default_rng(0)
        while True:
            model, _ = zoo.random_conjugated_model(rng, d=8, c=3, n2=16, m=8)
            if zoo.is_pbh_minimal(model):
                break
        canonicalize(model)


class TestMcarmaToSS:
    def test_scalar_car1(self):
        m = McarmaModel(p_coeffs=([[2.0]],), q_coeffs=([[3.0]],), levy=zoo.brownian(1))
        ss = mcarma_to_ss(m)
        assert np.array_equal(ss.A, [[-2.0]])
        assert np.array_equal(ss.B, [[3.0]])
        assert np.array_equal(ss.C, [[1.0]])

    def test_beta_recursion_p2_q1(self):
        a, q0, q1 = 0.7, 1.3, -0.4
        m = McarmaModel(p_coeffs=([[a]], [[0.5]]), q_coeffs=([[q0]], [[q1]]),
                        levy=zoo.brownian(1))
        ss = mcarma_to_ss(m)
        assert np.allclose(ss.B, [[q0], [q1 - a * q0]])

    def test_companion_p1_d2(self):
        ss = mcarma_to_ss(zoo.mcar1())
        assert np.array_equal(ss.A, [[-1.0, 0.0], [0.0, 0.0]])
        assert np.array_equal(ss.B, np.eye(2))
        assert np.array_equal(ss.C, np.eye(2))


class TestSSToMcarma:
    def test_scalar_inverse(self):
        ss = StateSpaceModel(A=[[-2.0]], B=[[3.0]], C=[[1.0]], levy=zoo.brownian(1))
        m = ss_to_mcarma(ss)
        assert m.p == 1 and m.q == 0
        assert np.allclose(m.p_coeffs[0], [[2.0]])
        assert np.allclose(m.q_coeffs[0], [[3.0]])

    def test_companion_fixed_point(self, rng):
        mc = zoo.random_mcarma(rng, d=2, p=2, q=1, m=2)
        ss = mcarma_to_ss(mc)
        back = ss_to_mcarma(ss)
        for Pi, Pj in zip(mc.p_coeffs, back.p_coeffs):
            assert np.allclose(Pi, Pj, atol=1e-10)
        for Qi, Qj in zip(mc.q_coeffs, back.q_coeffs):
            assert np.allclose(Qi, Qj, atol=1e-10)

    def test_round_trip_random(self, rng):
        for _ in range(20):
            d = int(rng.integers(1, 4))
            p = int(rng.integers(1, 4))
            q = int(rng.integers(0, p))
            mm = int(rng.integers(1, 4))
            mc = zoo.random_mcarma(rng, d=d, p=p, q=q, m=mm)
            back = ss_to_mcarma(mcarma_to_ss(mc))
            assert back.p == p and back.q == q
            for Pi, Pj in zip(mc.p_coeffs, back.p_coeffs):
                assert np.allclose(Pi, Pj, atol=1e-8)
            for Qi, Qj in zip(mc.q_coeffs, back.q_coeffs):
                assert np.allclose(Qi, Qj, atol=1e-8)

    def test_rejects_incompatible_state_dimension(self):
        m = StateSpaceModel(A=np.diag([-1.0, -2.0, -3.0]), B=np.ones((3, 1)),
                            C=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], levy=zoo.brownian(1))
        with pytest.raises(DimensionError):
            ss_to_mcarma(m)

    def test_rejects_singular_observability_block(self):
        m = StateSpaceModel(A=np.diag([-1.0, -2.0]), B=np.ones((2, 1)),
                            C=[[1.0, 0.0]], levy=zoo.brownian(1))
        with pytest.raises(RankError):
            ss_to_mcarma(m)


class TestCanonicalize:
    def test_fixed_point_with_identity_transform(self, partial_cf):
        m = assemble_from_canonical(partial_cf)
        canon, _ = canonicalize(m)
        again, T = canonicalize(assemble_from_canonical(canon))
        assert np.allclose(T, np.eye(m.N), atol=1e-10)
        for name in ("A2", "B1", "B2", "C1", "C2"):
            assert np.allclose(getattr(again, name), getattr(canon, name), atol=1e-10)

    def test_uniqueness_under_conjugation(self, rng):
        for _ in range(10):
            model, _ = zoo.random_conjugated_model(rng, d=3, c=1, n2=3, m=3)
            cf1, _ = canonicalize(assemble_from_canonical(canonicalize(model)[0]))
            cf2, _ = canonicalize(model)
            for name in ("A2", "B1", "B2", "C1", "C2"):
                assert np.allclose(getattr(cf1, name), getattr(cf2, name), atol=1e-8)

    def test_mcar1_example(self):
        cf, _ = canonicalize(mcarma_to_ss(zoo.mcar1()))
        assert cf.c == 1
        assert np.allclose(cf.A2, [[-1.0]], atol=1e-10)
        # the unit root lives in the second observation coordinate
        assert np.allclose(cf.C1, [[0.0], [1.0]], atol=1e-10)

    def test_transfer_function_invariance(self, rng):
        for _ in range(5):
            model, _ = zoo.random_conjugated_model(rng, d=2, c=1, n2=2, m=2)
            cf, _ = canonicalize(model)
            canon = assemble_from_canonical(cf)
            for z in PROBES:
                assert np.allclose(transfer_function(model, z),
                                   transfer_function(canon, z), atol=1e-8)

    def test_transform_conjugates_model(self, rng):
        model, _ = zoo.random_conjugated_model(rng, d=2, c=1, n2=2, m=2)
        cf, T = canonicalize(model)
        Ti = np.linalg.inv(T)
        canon = assemble_from_canonical(cf)
        assert np.allclose(T @ model.A @ Ti, canon.A, atol=1e-9)
        assert np.allclose(T @ model.B, canon.B, atol=1e-9)
        assert np.allclose(model.C @ Ti, canon.C, atol=1e-9)

    def test_rejects_unstable(self):
        m = StateSpaceModel(A=[[0.3]], B=[[1.0]], C=[[1.0]], levy=zoo.brownian(1))
        with pytest.raises(StabilityError):
            canonicalize(m)

    def test_rejects_eigenvalues_neither_unit_root_nor_stable(self):
        # one unit root and the pair +-i, which is neither a unit root nor stable
        A = np.zeros((3, 3))
        A[1:, 1:] = [[0.0, 1.0], [-1.0, 0.0]]
        m = StateSpaceModel(A=A, B=np.eye(3), C=np.eye(2, 3), levy=zoo.brownian(3))
        with pytest.raises(StabilityError, match="c=1"):
            canonicalize(m)

    def test_unit_root_count_reads_rel_tol(self):
        # the second state decays at rate 1e-8: below the zero tolerance 2.4e-8
        # of its modulus, but full rank at the default rank tolerance, which
        # cannot tell it from zero; a unit root at 1e-6
        m = StateSpaceModel(A=np.diag([-1.0, -1e-8]), B=np.eye(2), C=np.eye(2),
                            levy=zoo.brownian(2))
        with pytest.raises(MultiplicityError, match="rank deficiency c=0"):
            canonicalize(m)
        cf, _ = canonicalize(m, rel_tol=1e-6)
        assert cf.c == 1 and np.allclose(cf.A2, [[-1.0]])

    def test_b1_rank_is_decided_by_the_minimality_test(self):
        # B1's second direction has weight 1e-10: minimal at 1e-12, and the
        # form's own check of B1 at the fixed 1e-9 refused what the
        # minimality test had just accepted
        m = zoo.weak_b1()
        cf, _ = canonicalize(m, rel_tol=1e-12)
        assert cf.c == 2 and np.allclose(cf.A2, [[-1.0]])
        with pytest.raises(MinimalityError):
            canonicalize(m)

    @pytest.mark.parametrize("c,n2", [(0, 3), (2, 2)])
    def test_each_property_is_decided_once(self, rng, monkeypatch, c, n2):
        # the form is built without deciding C1's basis, B1's rank or A2's
        # stability again
        model, _ = zoo.random_conjugated_model(rng, d=3, c=c, n2=n2, m=3)
        calls: dict = {"positive_lower_triangularize": [], "numerical_rank": [],
                       "spectral_abscissa": []}
        for name, seen in calls.items():
            def recording(M, *args, _fn=getattr(matops, name), _seen=seen, **kwargs):
                _seen.append(helpers.matrix_key(M))
                return _fn(M, *args, **kwargs)
            monkeypatch.setattr(matops, name, recording)
        cf, _ = canonicalize(model)
        assert len(calls["positive_lower_triangularize"]) == 1
        assert helpers.matrix_key(cf.B1) not in calls["numerical_rank"]
        assert helpers.matrix_key(cf.A2) not in calls["spectral_abscissa"]

    def test_rejects_rank_deficiency_that_is_not_a_unit_root(self):
        # minimal and stable with eigenvalues -0.05 and -1, but its smallest
        # singular value 5e-6 is under 1e-9 sigma_max = 1e-5: a rank count
        # alone would take the decaying mode for a random walk
        A = np.array([[-0.05, 1e4], [0.0, -1.0]])
        m = StateSpaceModel(A=A, B=np.eye(2), C=np.eye(2), levy=zoo.brownian(2))
        with pytest.raises(CointegrationRankError, match="not a unit root"):
            canonicalize(m)
        assert canonicalize(m, rel_tol=1e-10)[0].c == 0

    def test_rejects_jordan_block_at_zero(self):
        with pytest.raises(MultiplicityError, match="not a semisimple zero eigenvalue"):
            canonicalize(zoo.jordan())

    def test_rejects_non_minimal(self):
        m = StateSpaceModel(A=np.diag([0.0, -1.0]), B=[[1.0], [0.0]],
                            C=[[1.0, 0.0], [0.0, 0.0]], levy=zoo.brownian(1))
        with pytest.raises(MinimalityError):
            canonicalize(m)
