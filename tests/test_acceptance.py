"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite is deterministic (fixed seeds throughout).
"""

import json

import numpy as np
import pytest

import helpers
import zoo
from cointssm import (
    assemble_from_canonical,
    canonicalize,
    check_cointegration,
    cointegration_space,
    discretize,
    ecf_residuals,
    filter_innovations,
    innovations_alt_rep,
    k_at_one,
    ma_and_ktilde_coeffs,
    matops,
    mcarma_to_ss,
    simulate_exact_full,
    simulate_exact_gaussian,
    simulate_gaussian_ensemble,
    solve_steady_state,
    ss_to_mcarma,
    structural_check,
    transfer_eval,
    transfer_function,
    whiteness_diagnostic,
)
from cointssm.cli import main

PROBES = (2.0, 1.0 + 1.0j, -3.0)

# floating-point floor for bounds whose theoretical value decays below
# machine noise (oriented 100x under the 1e-6 headline tolerance)
FLOAT_FLOOR = 1e-8


def report(num: int, text: str) -> None:
    print(f"\nACCEPTANCE {num:02d} PASS - {text}")


@pytest.fixture(scope="module")
def coint_mcarma_batch():
    """50 random cointegrated MCARMA models with their canonicalizations."""
    rng = np.random.default_rng(31415)
    batch = []
    while len(batch) < 50:
        d = int(rng.integers(2, 4))
        c = int(rng.integers(1, d))
        p = int(rng.integers(1, 3))
        q = int(rng.integers(0, p))
        try:
            m = zoo.random_coint_mcarma(rng, d=d, c=c, p=p, q=q, m=d)
        except RuntimeError:
            continue
        cf, _ = canonicalize(mcarma_to_ss(m))
        batch.append((m, cf))
    return batch


def test_criterion_01_canonical_form_uniqueness():
    rng = np.random.default_rng(101)
    count = 0
    while count < 100:
        d = int(rng.integers(2, 5))
        c = int(rng.integers(1, d))
        n2 = int(rng.integers(max(1, d - c), 8 - c + 1))
        m = int(rng.integers(c, 5))
        try:
            model, _ = zoo.random_conjugated_model(rng, d, c, n2, m)
        except RuntimeError:
            continue
        cf_direct, _ = canonicalize(model)
        while True:
            T = rng.normal(size=(model.N, model.N))
            if np.linalg.cond(T) < 100.0:
                break
        cf_conj, _ = canonicalize(zoo.conjugate(model, T))
        for name in ("A2", "B1", "B2", "C1", "C2"):
            assert np.allclose(getattr(cf_direct, name), getattr(cf_conj, name),
                               atol=1e-8), f"{name} differs on model {count}"
        canon = assemble_from_canonical(cf_direct)
        for z in PROBES:
            assert np.allclose(transfer_function(model, z),
                               transfer_function(canon, z), atol=1e-8)
        count += 1
    report(1, "canonical form unique under conjugation, transfer functions match "
              "(100 models, d<=4, N<=8, 1e-8)")


def test_criterion_02_mcarma_round_trip():
    rng = np.random.default_rng(202)
    for count in range(100):
        d = int(rng.integers(1, 4))
        p = int(rng.integers(1, 4))
        q = int(rng.integers(0, p))
        m = int(rng.integers(1, 4))
        mc = zoo.random_mcarma(rng, d=d, p=p, q=q, m=m)
        back = ss_to_mcarma(mcarma_to_ss(mc))
        assert back.p == p and back.q == q
        for Pi, Pj in zip(mc.p_coeffs, back.p_coeffs):
            assert np.allclose(Pi, Pj, atol=1e-8)
        for Qi, Qj in zip(mc.q_coeffs, back.q_coeffs):
            assert np.allclose(Qi, Qj, atol=1e-8)
    report(2, "ss_to_mcarma o mcarma_to_ss = identity on coefficients "
              "(100 models, p<=3, q<p, d<=3, 1e-8)")


def test_criterion_03_cointegration_characterization(coint_mcarma_batch):
    for m, cf in coint_mcarma_batch:
        rep = check_cointegration(m)
        assert rep.is_cointegrated
        assert rep.r == m.d - cf.c
        space = cointegration_space(cf)
        assert helpers.max_principal_angle(rep.beta, space) < 1e-6
    report(3, "rank r = d - c and beta-space == C1-complement "
              "(50 cointegrated MCARMA models, angle < 1e-6)")


def test_criterion_04_exact_discretization(scalar_cf, scalar_sm, partial_cf):
    for cf, h in ((partial_cf, 0.5), (scalar_cf, 1.0)):
        sm = discretize(cf, h)
        S = np.asarray(cf.levy.sigma_L)
        B1, B2, A2 = map(np.asarray, (cf.B1, cf.B2, cf.A2))
        assert np.allclose(sm.sigma11, h * B1 @ S @ B1.T, atol=1e-8)
        assert np.allclose(sm.sigma21, helpers.simpson_cross(A2, B2 @ S @ B1.T, h),
                           atol=1e-8)
        assert np.allclose(sm.sigma22, helpers.simpson_gramian(A2, B2 @ S @ B2.T, h),
                           atol=1e-8)
    n = 1_000_000
    ps = simulate_exact_full(scalar_sm, scalar_cf, n, seed=4004)
    r2 = ps.x2[1:] - ps.x2[:-1] @ scalar_sm.eA2h.T
    R = np.hstack([ps.r1[1:], r2])
    emp = R.T @ R / R.shape[0]
    se = helpers.cov_se(R, R)
    assert np.all(np.abs(emp - scalar_sm.sigma_tilde) <= 3.0 * se)
    report(4, "sigma_tilde matches Simpson quadrature (1e-8) and the sample "
              "covariance of 1e6 noise draws (3 SE per entry)")


def test_criterion_05_covariance_formula(partial_cf, scalar_cf, scalar_sm):
    from cointssm import cov_continuous
    sm1 = discretize(partial_cf, 1.0)
    n_paths = 100_000
    y = simulate_gaussian_ensemble(sm1, partial_cf, n_steps=3, n_paths=n_paths, seed=5005)
    # (t, s) = (1, 0)
    emp = y[:, 0, :].T @ y[:, 0, :] / n_paths
    se = helpers.cov_se(y[:, 0, :], y[:, 0, :])
    assert np.all(np.abs(emp - cov_continuous(partial_cf, 1.0, 0.0)) <= 3.0 * se)
    # (t, s) = (2, 1)
    emp = y[:, 1, :].T @ y[:, 2, :] / n_paths
    se = helpers.cov_se(y[:, 1, :], y[:, 2, :])
    assert np.all(np.abs(emp - cov_continuous(partial_cf, 2.0, 1.0)) <= 3.0 * se)

    # unit-root variance slope across paths within 5%
    y = simulate_gaussian_ensemble(scalar_sm, scalar_cf, n_steps=100,
                                   n_paths=10_000, seed=5006)
    proj = y @ np.asarray(scalar_cf.C1)
    slope = (proj[:, 99, 0].var(ddof=1) - proj[:, 49, 0].var(ddof=1)) / (50 * scalar_sm.h)
    B1 = np.asarray(scalar_cf.B1)
    want = (B1 @ np.asarray(scalar_cf.levy.sigma_L) @ B1.T)[0, 0]
    assert abs(slope - want) <= 0.05 * want

    # cointegrating projection of the closed form constant in t
    beta = cointegration_space(partial_cf)
    vals = [beta.T @ cov_continuous(partial_cf, t, 0.0) @ beta for t in (1.0, 4.0, 9.0)]
    assert np.allclose(vals[0], vals[1], atol=1e-8)
    assert np.allclose(vals[0], vals[2], atol=1e-8)
    report(5, "closed-form covariance matches Monte Carlo at (1,0) and (2,1) "
              "(3 SE), unit-root slope within 5%, beta-projection constant to 1e-8")


def test_criterion_06_riccati_kalman(partial_ks, partial_sm, partial_cf):
    assert partial_ks.residual <= 1e-10 * (1.0 + np.linalg.norm(partial_ks.omega))
    assert partial_ks.spectral_radius < 1.0
    n = 101_000
    ps = simulate_exact_gaussian(partial_sm, partial_cf, n, seed=6006)
    eps, _ = filter_innovations(partial_ks, partial_sm, ps.y)
    eps = eps[1000:]
    emp = eps.T @ eps / eps.shape[0]
    se = helpers.cov_se(eps, eps)
    assert np.all(np.abs(emp - partial_ks.v) <= 3.0 * se)
    white = whiteness_diagnostic(eps, max_lag=10)
    assert white.passed, f"max autocorrelation {white.max_abs} vs band {white.band}"
    report(6, "Riccati residual <= 1e-10, closed loop Schur stable, innovation "
              "covariance within 3 SE of V, lag 1..10 autocorrelations in band")


def test_criterion_07_k1_rank_law(coint_mcarma_batch):
    for m, cf in coint_mcarma_batch:
        sm = discretize(cf, 0.5)
        ks = solve_steady_state(sm, cf)
        k1 = k_at_one(ks)
        assert matops.numerical_rank(k1).rank == m.d - cf.c
        assert np.linalg.norm(k1 @ np.asarray(cf.C1)) <= 1e-8
        chk = structural_check(ks, sm, cf)
        assert chk.idempotency_defect <= 1e-8
        assert chk.projector_rank == m.d - cf.c
        assert chk.k1_reconstruction_error <= 1e-8
    report(7, "rank k(1) = d - c, k(1) C1 = 0, P idempotent and "
              "k(1) = P(I + PRP)^-1 on all 50 models (1e-8)")


def test_criterion_08_ecf_equivalence(scalar_cf, scalar_sm, scalar_ks):
    ps = simulate_exact_full(scalar_sm, scalar_cf, 3000, seed=8008)
    eps, _ = filter_innovations(scalar_ks, scalar_sm, ps.y)
    dec = ma_and_ktilde_coeffs(scalar_ks, scalar_sm, J=200)
    out = ecf_residuals(dec, ps.y, J=200)
    assert np.max(np.abs(out - eps[201:])) <= 1e-6
    alt = innovations_alt_rep(dec, ps, J=200)
    assert np.max(np.abs(alt - eps[200:])) <= 1e-6

    rng = np.random.default_rng(808)
    for trial in range(5):
        cf = zoo.random_canonical(rng, d=2, c=1, n2=2, m=2)
        sm = discretize(cf, 0.5)
        ks = solve_steady_state(sm, cf)
        ps = simulate_exact_full(sm, cf, 3000, seed=trial)
        eps, _ = filter_innovations(ks, sm, ps.y)
        amp = float(np.max(np.linalg.norm(np.diff(ps.y, axis=0), axis=1)))
        for J in (10, 25, 200):
            dec = ma_and_ktilde_coeffs(ks, sm, J=J)
            tol = max(dec.tail_bound * amp, FLOAT_FLOOR)
            out = ecf_residuals(dec, ps.y, J=J)
            assert np.max(np.abs(out - eps[J + 1:])) <= tol
            alt = innovations_alt_rep(dec, ps, J=J)
            assert np.max(np.abs(alt - eps[J:])) <= tol
    report(8, "ECF residuals == Kalman innovations (scalar fixture <= 1e-6 at "
              "J=200; random fixtures within tail_bound x amplitude) and the "
              "alternative representation matches to the same tolerance")


def test_criterion_09_coefficient_identities(partial_ks, partial_sm):
    dec = ma_and_ktilde_coeffs(partial_ks, partial_sm, J=200)
    # recursion in its derivation-consistent form: Ktilde_j - Ktilde_{j-1} = -L_j
    # with L_j = -C closed_loop^{j-1} K
    for j in range(2, 201):
        step = dec.Ktilde_coeffs[j] - dec.Ktilde_coeffs[j - 1]
        assert np.max(np.abs(step + dec.L_coeffs[j])) <= 1e-12
    assert np.array_equal(dec.Ktilde_coeffs[0], np.zeros((2, 2)))
    assert np.allclose(transfer_eval(partial_ks, 0.0), np.eye(2), atol=1e-14)
    for z in (0.3, 0.7, -0.5):
        kt = sum(dec.Ktilde_coeffs[j] * z**j for j in range(1, 201))
        lhs = transfer_eval(partial_ks, z)
        rhs = dec.k1 * z + (1.0 - z) * (np.eye(2) - kt)
        assert np.max(np.abs(lhs - rhs)) <= max(dec.tail_bound, 1e-12)
    report(9, "Ktilde recursion to 1e-12 for j=2..200, ktilde(0)=0, k(0)=I, "
              "k(z) identity at three probe points")


def test_criterion_10_compound_poisson_driver():
    cf = zoo.scalar(zoo.pure_jump())
    sm = discretize(cf, 1.0)
    ps = simulate_exact_full(sm, cf, 1_000_001, seed=1010)
    R = helpers.step_noise(ps, sm.eA2h)
    emp = R.T @ R / R.shape[0]
    rel = np.linalg.norm(emp - sm.sigma_tilde) / np.linalg.norm(sm.sigma_tilde)
    assert rel < 0.01, f"relative error {rel:.4f}"
    # only the jumps have a fourth cumulant: 3 lambda h (b'Jb)^2 for r1 and
    # 3 lambda j^2 (1 - e^{4ah}) / (-4a) for r2 (a = -1, b'Jb = j = 1/2)
    want = np.array([1.5, 1.5 * (1.0 - np.exp(-4.0)) / 4.0])
    k4, se = helpers.kappa4(R)
    assert np.all(np.abs(k4 - want) <= 4.0 * se), f"fourth cumulants {k4}, want {want}"
    report(10, f"exact compound-Poisson sampling reproduces sigma_tilde within 1% "
               f"over 1e6 increments (got {100 * rel:.2f}%) and the fourth cumulants "
               f"within 4 standard errors (got {np.round(k4, 3)}, want {np.round(want, 3)})")


def test_criterion_11_cli_determinism(tmp_path, capsys):
    doc = zoo.doc(zoo.partial(), {"h": 0.5, "n_steps": 1500, "seed": 64})
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps(doc))
    outputs = {}
    for run in ("a", "b"):
        base = tmp_path / run
        base.mkdir()
        files = []
        assert main(["simulate", str(cfg), "-o", str(base / "path.csv"),
                     "--columns", "full"]) == 0
        files += [base / "path.csv", base / "path.json"]
        assert main(["analyze", str(cfg), "--moments", "--t-grid", "1,2",
                     "--s-grid", "0,1", "--output", str(base / "mom.csv")]) == 0
        analyze_out = capsys.readouterr().out
        files.append(base / "mom.csv")
        assert main(["canonicalize", str(cfg)]) == 0
        canon_out = capsys.readouterr().out
        assert main(["filter", str(cfg), str(base / "path.csv"),
                     "-o", str(base / "flt")]) == 0
        files += [base / "flt_innovations.csv", base / "flt_solution.json"]
        assert main(["ecf", str(cfg), "--path", str(base / "path.csv"),
                     "--J", "100", "--residuals-out", str(base / "res.csv")]) == 0
        ecf_out = capsys.readouterr().out
        files.append(base / "res.csv")
        outputs[run] = ([f.read_bytes() for f in files], analyze_out, canon_out, ecf_out)
    assert outputs["a"] == outputs["b"]
    report(11, "simulate/analyze/canonicalize/filter/ecf outputs byte-identical "
               "across reruns with a fixed seed")
