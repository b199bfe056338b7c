import contextlib
import io
import json

import numpy as np
import pytest

import helpers
from cointssm import (
    McarmaModel,
    canonicalize,
    check_cointegration,
    cointegration_space,
    integrate_by_integration,
    integrate_by_ma_lift,
    matops,
    mcarma_to_ss,
    pstar_polynomial,
)
from cointssm.cli import main
from cointssm.errors import CointegrationRankError, MultiplicityError, ValidationError


def _mcar1(P1, m=2):
    return McarmaModel(p_coeffs=(np.asarray(P1, dtype=float),),
                       q_coeffs=(np.eye(2, m),), levy=helpers.brownian(m))


class TestCheckCointegration:
    def test_worked_example(self):
        report = check_cointegration(_mcar1([[1.0, 0.0], [0.0, 0.0]]))
        assert report.condition_a and report.condition_b and report.condition_c
        assert report.is_cointegrated
        assert report.r == 1
        assert np.allclose(np.sort(report.roots.real), [-1.0, 0.0], atol=1e-10)
        assert np.allclose(report.alpha @ report.beta.T, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)

    def test_rank_zero_is_integrated_not_cointegrated(self):
        report = check_cointegration(_mcar1(np.zeros((2, 2))))
        assert report.r == 0
        assert not report.condition_b
        assert not report.is_cointegrated
        assert report.alpha is None and report.beta is None

    def test_full_rank_is_stationary(self):
        report = check_cointegration(_mcar1(np.eye(2)))
        assert report.r == 2
        assert report.condition_a  # both roots at -1
        assert not report.condition_b
        assert report.condition_c  # vacuous at full rank
        assert not report.is_cointegrated

    @pytest.mark.parametrize("p_coeffs", [
        (np.diag([1e12, 0.0]), np.zeros((2, 2))),
        (np.zeros((2, 2)), np.zeros((2, 2)), 1e12 * np.eye(2)),
    ])
    def test_unit_roots_beyond_d_raise(self, p_coeffs):
        # the companion's identity blocks fall under the tolerance of a huge P_p
        # or P_1: c = 3 or 4 zero roots of det P, more than d = 2 can have
        m = McarmaModel(p_coeffs=p_coeffs, q_coeffs=(np.eye(2),), levy=helpers.brownian(2))
        with pytest.raises(CointegrationRankError, match="more than d=2"):
            check_cointegration(m)

    def test_unstable_root_flagged(self):
        report = check_cointegration(_mcar1([[-1.0, 0.0], [0.0, 0.0]]))
        assert not report.condition_a
        assert len(report.offending_roots) == 1
        assert report.offending_roots[0].real > 0

    def test_condition_c_failure(self):
        # second-order zero structure: P(z) = z(z+1) in coordinate 1 is fine,
        # but P_{p-1} vanishing on the complement breaks (c)
        P1 = np.array([[0.0, 0.0], [0.0, 1.0]])
        P2 = np.zeros((2, 2))
        m = McarmaModel(p_coeffs=(P1, P2), q_coeffs=(np.eye(2),), levy=helpers.brownian(2))
        report = check_cointegration(m)
        assert report.r == 0 or not report.condition_c
        assert not report.is_cointegrated

    def test_alpha_beta_reconstruction_bound(self, rng):
        for _ in range(8):
            m = helpers.random_coint_mcarma(rng, d=3, c=1, p=2, q=1, m=3)
            report = check_cointegration(m)
            Pp = np.asarray(m.p_coeffs[-1])
            assert np.linalg.norm(report.alpha @ report.beta.T - Pp) <= \
                1e-8 * (1.0 + np.linalg.norm(Pp))
            assert report.r == matops.numerical_rank(Pp).rank

    def test_one_svd_per_matrix(self, rng, monkeypatch):
        # P_p gives alpha, beta and both complements from one decomposition
        m = helpers.random_coint_mcarma(rng, d=3, c=1, p=2, q=1, m=3)
        want = check_cointegration(m)
        seen = helpers.count_svds(monkeypatch)
        got = check_cointegration(m)
        assert want.condition_b and seen[helpers.matrix_key(m.p_coeffs[-1])] == 1
        assert set(seen.values()) == {1}
        assert np.array_equal(got.alpha, want.alpha) and np.array_equal(got.beta, want.beta)

    def test_deterministic_reports(self, rng):
        m = helpers.random_coint_mcarma(rng, d=2, c=1, p=2, q=0, m=2)
        r1 = check_cointegration(m)
        r2 = check_cointegration(m)
        assert np.array_equal(r1.alpha, r2.alpha)
        assert np.array_equal(r1.beta, r2.beta)
        assert np.array_equal(r1.roots, r2.roots)

    def test_beta_first_nonzero_entry_positive(self, rng):
        for _ in range(5):
            m = helpers.random_coint_mcarma(rng, d=3, c=2, p=2, q=1, m=3)
            report = check_cointegration(m)
            for j in range(report.beta.shape[1]):
                col = report.beta[:, j]
                nz = np.nonzero(np.abs(col) > 1e-12)[0]
                assert col[nz[0]] > 0


class TestTransversalityOracle:
    """`check_cointegration` reads alpha_perp and beta_perp off the SVD of P_p
    for every rank; `helpers.transversality_oracle` forms them from the
    signed factors, with its own branches for r = 0 and r = d."""

    @staticmethod
    def _check(m):
        report = check_cointegration(m)
        rank, full = helpers.transversality_oracle(m)
        assert (report.transversality_rank, report.condition_c) == (rank, full)
        return report

    def test_rank_zero(self):
        # P(z) = z I: both complements are all of R^2 and P_{p-1} = I
        report = self._check(_mcar1(np.zeros((2, 2))))
        assert report.r == 0 and report.transversality_rank == 2 and report.condition_c

    def test_full_rank(self):
        report = self._check(_mcar1(np.eye(2)))
        assert report.r == 2 and report.transversality_rank == 0 and report.condition_c

    def test_condition_c_failure_model(self):
        # the model of TestCheckCointegration::test_condition_c_failure (r = 0)
        P1 = np.array([[0.0, 0.0], [0.0, 1.0]])
        m = McarmaModel(p_coeffs=(P1, np.zeros((2, 2))), q_coeffs=(np.eye(2),),
                        levy=helpers.brownian(2))
        report = self._check(m)
        assert report.r == 0 and report.transversality_rank == 1 and not report.condition_c

    def test_reduced_rank_failure(self):
        # P(z) = diag(z^2 + z + 1, z^2): r = 1, and P_1 vanishes on both complements
        P = np.diag([1.0, 0.0])
        m = McarmaModel(p_coeffs=(P, P), q_coeffs=(np.eye(2),), levy=helpers.brownian(2))
        report = self._check(m)
        assert report.r == 1 and report.transversality_rank == 0 and not report.condition_c

    def test_random_cointegrated(self, rng):
        for d, c in ((2, 1), (3, 1), (3, 2), (4, 2)):
            for _ in range(2):
                m = helpers.random_coint_mcarma(rng, d=d, c=c, p=2, q=1, m=d)
                report = self._check(m)
                assert report.condition_c and report.transversality_rank == c


class TestPstar:
    def test_coefficient_shift(self, rng):
        m = helpers.random_mcarma(rng, d=2, p=2, q=0, m=2)
        star = pstar_polynomial(m)
        assert np.array_equal(star[0], np.eye(2))
        assert np.array_equal(star[1], m.p_coeffs[0])

    def test_first_order_reduces_to_identity(self):
        star = pstar_polynomial(_mcar1(np.eye(2)))
        assert len(star) == 1 and np.array_equal(star[0], np.eye(2))

    def test_reconstruction_identity(self, rng):
        m = helpers.random_mcarma(rng, d=2, p=3, q=1, m=2)
        star = pstar_polynomial(m)
        rebuilt = star + [np.asarray(m.p_coeffs[-1])]  # z * P*(z) + P_p
        for got, want in zip(rebuilt, m.ar_poly()):
            assert np.allclose(got, want)


class TestCointegrationSpace:
    def test_unit_column(self, scalar_cf):
        space = cointegration_space(scalar_cf)
        assert np.allclose(np.abs(space), [[0.0], [1.0]])

    def test_two_columns_of_identity(self):
        from cointssm import CointCanonicalForm
        cf = CointCanonicalForm(
            c=2, A2=[[-1.0]], B1=np.eye(2, 3), B2=[[0.0, 0.0, 1.0]],
            C1=np.eye(3)[:, :2], C2=[[0.0], [0.0], [1.0]],
            levy=helpers.brownian(3),
        )
        space = cointegration_space(cf)
        assert np.allclose(np.abs(space), [[0.0], [0.0], [1.0]])

    def test_rejects_degenerate(self):
        from cointssm import CointCanonicalForm
        cf = CointCanonicalForm(c=0, A2=[[-1.0]], B1=np.zeros((0, 1)), B2=[[1.0]],
                                C1=np.zeros((1, 0)), C2=[[1.0]], levy=helpers.brownian(1))
        with pytest.raises(ValidationError):
            cointegration_space(cf)

    def test_random_canonical_forms(self, rng):
        for _ in range(6):
            d = int(rng.integers(2, 7))
            c = int(rng.integers(1, d))
            cf = helpers.random_canonical(rng, d=d, c=c, n2=d - c + int(rng.integers(0, 3)), m=d)
            C1 = np.asarray(cf.C1)
            space = cointegration_space(cf)
            assert np.linalg.norm(C1.T @ space) <= 1e-12
            assert np.allclose(space.T @ space, np.eye(d - c), atol=1e-12)
            # with C1 it makes a square orthogonal matrix
            W = np.hstack([C1, space])
            assert np.allclose(W.T @ W, np.eye(d), atol=1e-10)
            assert np.array_equal(space, helpers.orth_complement(C1))

    def test_beta_matches_canonical_complement(self, rng):
        for _ in range(5):
            m = helpers.random_coint_mcarma(rng, d=2, c=1, p=2, q=1, m=2)
            report = check_cointegration(m)
            cf, _ = canonicalize(mcarma_to_ss(m))
            space = cointegration_space(cf)
            assert helpers.max_principal_angle(report.beta, space) < 1e-6
            assert np.linalg.norm(report.beta.T @ np.asarray(cf.C1)) <= 1e-6


class TestIntegratedConstructions:
    def _stationary_scalar(self):
        return McarmaModel(p_coeffs=([[2.0]],), q_coeffs=([[3.0]],),
                           levy=helpers.brownian(1))

    def test_integration_lift_coefficients(self):
        out = integrate_by_integration(self._stationary_scalar())
        assert out.p == 2
        assert np.allclose(out.p_coeffs[0], [[2.0]])
        assert np.allclose(out.p_coeffs[1], [[0.0]])

    def test_integration_lift_not_cointegrated(self):
        out = integrate_by_integration(self._stationary_scalar())
        report = check_cointegration(out)
        assert report.r == 0 and not report.is_cointegrated

    def test_integration_lift_roots(self, rng):
        d = 2
        P = tuple(rng.normal(scale=0.3, size=(d, d)) + 1.5 * np.eye(d) for _ in range(1))
        m = McarmaModel(p_coeffs=P, q_coeffs=(np.eye(d),), levy=helpers.brownian(d))
        base_roots = matops.poly_det_roots(m.ar_poly())
        assert np.max(base_roots.real) < 0
        out = integrate_by_integration(m)
        roots = matops.poly_det_roots(out.ar_poly())
        expected = matops.sort_complex(np.concatenate([base_roots, np.zeros(d)]))
        assert np.allclose(matops.sort_complex(roots), expected, atol=1e-8)

    def test_integration_rejects_nonstationary(self):
        with pytest.raises(ValidationError):
            integrate_by_integration(_mcar1([[1.0, 0.0], [0.0, 0.0]]))

    def test_ma_lift(self):
        m = McarmaModel(p_coeffs=([[2.0]], [[1.0]]), q_coeffs=([[3.0]],),
                        levy=helpers.brownian(1))
        out = integrate_by_ma_lift(m)
        assert out.q == 1
        assert np.allclose(out.q_coeffs[0], [[3.0]])
        assert np.allclose(out.q_coeffs[1], [[0.0]])
        for Pi, Pj in zip(m.p_coeffs, out.p_coeffs):
            assert np.array_equal(Pi, Pj)

    def test_ma_lift_order_boundary(self):
        with pytest.raises(ValidationError):
            integrate_by_ma_lift(self._stationary_scalar())


class TestCrossModuleRankConsistency:
    def test_r_equals_d_minus_c(self, rng):
        for _ in range(8):
            d = int(rng.integers(2, 4))
            c = int(rng.integers(1, d))
            m = helpers.random_coint_mcarma(rng, d=d, c=c, p=2, q=1, m=d)
            report = check_cointegration(m)
            cf, _ = canonicalize(mcarma_to_ss(m))
            assert cf.c == c
            assert report.r == d - cf.c


#: The last entry of P_p in the two families below. The companion matrix's
#: smallest singular value crosses the default rank tolerance inside this
#: range, where the unit-root count c used to be decided three ways.
BAND = (1e-10, 2e-9, 5e-9, 1.5e-8, 5e-8, 1.5e-7, 1e-6)


def _band_model(family: str, eps: float) -> McarmaModel:
    """MCARMA(2, 1) with P_1 = 3I, P_2 = diag(1, eps), or MCAR(1) with
    P_1 = diag(1, eps); d = 2, Q = (I, I) or Q_0 = I, Brownian driver."""
    I, Pp = np.eye(2), np.diag([1.0, eps])
    if family == "mcarma21":
        return McarmaModel(p_coeffs=(3.0 * I, Pp), q_coeffs=(I, I), levy=helpers.brownian(2))
    return McarmaModel(p_coeffs=(Pp,), q_coeffs=(I,), levy=helpers.brownian(2))


def _band_docs(family: str, eps: float) -> dict:
    """The model as an MCARMA document and as a conjugated state-space one."""
    mc = _band_model(family, eps)
    levy = {"kind": "brownian", "sigma_L": np.eye(2).tolist()}
    ss = mcarma_to_ss(mc)
    T = np.eye(ss.N) + 0.3 * np.random.default_rng(5).standard_normal((ss.N, ss.N))
    ss = helpers.conjugate(ss, T)
    return {
        "mcarma": {"schema_version": "1", "model_kind": "mcarma", "levy": levy,
                   "p_coeffs": [P.tolist() for P in mc.p_coeffs],
                   "q_coeffs": [Q.tolist() for Q in mc.q_coeffs]},
        "state_space": {"schema_version": "1", "model_kind": "state_space", "levy": levy,
                        "A": ss.A.tolist(), "B": ss.B.tolist(), "C": ss.C.tolist()},
    }


def _run(argv) -> tuple[int, dict | None]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, json.loads(out.getvalue()) if code == 0 else None


class TestOneUnitRootCount:
    """The zero roots and their number c = N - rank(A) are one decision
    (`matops.unit_roots`) that condition (b)'s r, condition (a)'s zero roots
    and `canonicalize` read, with one stability threshold for the rest."""

    @pytest.mark.parametrize("rank_tol", [[], ["--rank-tol", "1e-6"]])
    @pytest.mark.parametrize("family", ["mcarma21", "mcar1"])
    def test_commands_agree_on_c(self, tmp_path, family, rank_tol):
        path = str(tmp_path / "model.json")
        for eps in BAND:
            for kind, doc in _band_docs(family, eps).items():
                with open(path, "w") as fh:
                    json.dump(doc, fh)
                implied = set()
                an_code, an = _run(["analyze", path, *rank_tol])
                if an_code == 0:
                    if "cointegration" in an:
                        implied.add(2 - an["cointegration"]["r"])
                    if "c" in an:
                        implied.add(an["c"])
                can_code, can = _run(["canonicalize", path, *rank_tol])
                if can_code == 0:
                    implied.add(can["c"])
                ecf_code, ecf = _run(["ecf", path, *rank_tol])
                if ecf_code == 0:
                    implied.add(2 - ecf["r"])
                assert len(implied) <= 1, (eps, kind, implied)
                if kind == "mcarma":
                    reported = an_code == 0 and an["cointegration"]["is_cointegrated"]
                    assert reported == (ecf_code == 0), (eps, an_code, ecf_code)
                    # the companion realization has no Jordan block at zero, so
                    # canonicalize accepts exactly the models whose roots pass (a)
                    stable = an_code == 0 and an["cointegration"]["condition_a"]
                    assert stable == (can_code == 0), (eps, an_code, can_code)

    @pytest.mark.parametrize("family", ["mcarma21", "mcar1"])
    def test_margin_crosses_one_where_c_flips(self, family):
        cs, last, refused = [], [], []
        for eps in np.geomspace(1e-11, 1e-5, 61):
            m = _band_model(family, eps)
            uc = matops.unit_roots(matops.companion_matrix(m.ar_poly()))
            assert uc.margin_kept > 1.0 and uc.margin_dropped >= 1.0
            cs.append(uc.c)
            # the companion's smallest singular value over the tolerance
            last.append(1.0 / uc.margin_dropped if uc.c else uc.margin_kept)
            try:
                report = check_cointegration(m)
            except MultiplicityError:
                # a root below the zero tolerance that the rank test keeps
                refused.append(eps)
                continue
            assert report.unit_roots.margin_kept == uc.margin_kept and report.r == 2 - uc.c
        flip = cs.index(0)
        assert flip > 0 and cs == [1] * flip + [0] * (len(cs) - flip)
        assert last[flip - 1] <= 1.0 < last[flip]
        assert np.all(np.diff(last) > 0)
        # only right above the flip, up to where the root leaves the zero tolerance
        assert refused and refused[0] > 1e-9 and refused[-1] < 2e-7

    def test_rank_tol_moves_the_zero_roots(self):
        # the root -1e-8 of det P: below the zero tolerance 2e-8 but kept by
        # the default rank test, so no count; a zero root at rank_tol 1e-6
        m = _band_model("mcar1", 1e-8)
        with pytest.raises(MultiplicityError, match="rank deficiency c=0"):
            check_cointegration(m)
        loose = check_cointegration(m, 1e-6)
        assert (loose.r, loose.condition_a, loose.is_cointegrated) == (1, True, True)
        # the root -1e-7: stable at the default, and a zero root at 1e-6, whose
        # zero tolerance 1e-5 (1 + ||A||) follows the rank tolerance
        m = _band_model("mcar1", 1e-7)
        default = check_cointegration(m)
        assert (default.r, default.condition_a, default.is_cointegrated) == (2, True, False)
        loose = check_cointegration(m, 1e-6)
        assert (loose.r, loose.condition_a, loose.is_cointegrated) == (1, True, True)
