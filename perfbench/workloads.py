"""The three workloads. Each builds its inputs in `__init__` (the set-up)
and runs one closed-loop op per `op(i)` call; an op raises `CheckFailed`
when an output is wrong.

Library functions are always called through their module attribute
(`simulate.simulate_exact_gaussian`, not a bound name), so the tracer's
wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from time import perf_counter

import numpy as np
import scipy.linalg as sla

from cointssm import (
    LevySpec,
    McarmaModel,
    assemble_from_canonical,
    cli,
    cointegration,
    ecf,
    kalman,
    modeldoc,
    moments,
    realization,
    simulate,
)

import models

#: The models are drawn from this fixed seed, so an op costs the same on
#: every workload seed; the workload seed varies the data (path noise,
#: similarity transforms, the document's sampling seed).
MODEL_SEED = 1611


class CheckFailed(Exception):
    pass


def check(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


def dare_oracle(sm, cf) -> np.ndarray:
    """Prediction covariance from scipy's direct DARE solver (noiseless R = 0)."""
    return sla.solve_discrete_are(sm.eAh.T, cf.full_C().T, sm.sigma_tilde,
                                  np.zeros((cf.d, cf.d)))


def cli_env() -> dict:
    """This process's environment with ./src first on PYTHONPATH."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def rel_err(omega: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(omega - ref) / np.linalg.norm(ref))


class LongPath:
    """Per-step Python loops on long paths at h = 1: exact and ensemble
    sampling, the innovation filter and the ECF residual lag sum."""

    name = "long_path"
    T = 50_000
    SHAPES = ((2, 1, 2), (4, 2, 6), (6, 2, 8))
    H = 1.0
    J = 200
    n_models = len(SHAPES)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        rng = np.random.default_rng(MODEL_SEED)
        self.models = []
        for shape in self.SHAPES:
            cf = models.random_canonical(rng, *shape)
            sm = moments.discretize(cf, self.H)
            self.models.append((cf, sm, dare_oracle(sm, cf)))

    def op(self, i: int) -> dict:
        cf, sm, omega_ref = self.models[i % self.n_models]
        ps = simulate.simulate_exact_gaussian(sm, cf, self.T, seed=self.seed + i)
        ens = simulate.simulate_gaussian_ensemble(sm, cf, 1000, 32, seed=self.seed + i)
        ks = kalman.solve_steady_state(sm, cf)
        eps, _ = kalman.filter_innovations(ks, sm, ps.y)
        dec = ecf.ma_and_ktilde_coeffs(ks, sm, J=self.J)
        resid = ecf.ecf_residuals(dec, ps.y)
        white = ecf.whiteness_diagnostic(resid)
        check(bool(np.all(np.isfinite(ens))), "ensemble paths are not finite")
        gap = float(np.max(np.abs(resid - eps[self.J + 1:])))
        check(gap <= 1e-8 * (1.0 + float(np.max(np.abs(eps)))),
              f"ECF residuals differ from the innovations by {gap:.3e}")
        return {"rel_err": rel_err(ks.omega, omega_ref), "white": white.passed}


class FineGrid:
    """Solver-bound likelihood sweep at h = 0.01 over four random
    conjugations of canonical models and one cointegrated MCARMA model; the
    Riccati fixed point needs about 1/h iterations."""

    name = "fine_grid"
    T = 2_000
    SHAPES = ((2, 1, 2), (3, 1, 4), (4, 2, 6), (6, 2, 8))
    H = 0.01
    J = 50
    n_models = len(SHAPES) + 1
    BLOCKS = ("A2", "B1", "B2", "C1", "C2")

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(MODEL_SEED)
        data_rng = np.random.default_rng(seed)
        self.models = []
        for shape in self.SHAPES:
            cf = models.random_canonical(rng, *shape)
            ref, _ = realization.canonicalize(assemble_from_canonical(cf))
            self.models.append(self._fixture(models.conjugate(data_rng, cf), ref, seed))
        mc = models.random_coint_mcarma(rng, d=2, c=1, p=2)
        ref, _ = realization.canonicalize(realization.mcarma_to_ss(mc))
        self.models.append(self._fixture(mc, ref, seed))

    def _fixture(self, model, ref, seed):
        sm = moments.discretize(ref, self.H)
        y = simulate.simulate_exact_gaussian(sm, ref, self.T, seed=seed).y
        return model, ref, dare_oracle(sm, ref), y

    def op(self, i: int) -> dict:
        model, ref, omega_ref, y = self.models[i % self.n_models]
        if isinstance(model, McarmaModel):
            check(cointegration.check_cointegration(model).is_cointegrated,
                  "MCARMA model reported as not cointegrated")
            model = realization.mcarma_to_ss(model)
        cf, _ = realization.canonicalize(model)
        for b in self.BLOCKS:
            got, want = getattr(cf, b), getattr(ref, b)
            check(got.shape == want.shape and
                  float(np.max(np.abs(got - want), initial=0.0))
                  <= 1e-8 * (1.0 + float(np.max(np.abs(want), initial=0.0))),
                  f"canonical block {b} differs from the set-up canonical form")
        sm = moments.discretize(cf, self.H)
        ks = kalman.solve_steady_state(sm, cf)
        ecf.ma_and_ktilde_coeffs(ks, sm, J=self.J)
        check(ecf.structural_check(ks, sm, cf).ok, "structural check failed")
        eps, _ = kalman.filter_innovations(ks, sm, y)
        _, logdet = np.linalg.slogdet(ks.v)
        quad = float(np.sum(eps * np.linalg.solve(ks.v, eps.T).T))
        loglik = -0.5 * (eps.shape[0] * (cf.d * np.log(2 * np.pi) + logdet) + quad)
        check(bool(np.isfinite(loglik)), "log-likelihood is not finite")
        err = rel_err(ks.omega, omega_ref)
        check(err <= 1e-6, f"Riccati solution is {err:.3e} from the DARE oracle")
        return {"rel_err": err}


class CliRoundtrip:
    """Three CLI commands as subprocesses: `simulate --columns full` with a
    compound-Poisson driver (Euler scheme), `filter`, and `ecf` with
    residuals. Pays interpreter start, import and CSV formatting/parsing."""

    name = "cli_roundtrip"
    T = 20_000
    H = 1.0
    n_models = 1
    COMMANDS = ("simulate", "filter", "ecf")

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(MODEL_SEED)
        d = 4
        levy = LevySpec(kind="brownian_plus_compound_poisson", sigma_L=np.eye(d),
                        jump_rate=1.0, jump_cov=0.5 * np.eye(d))
        cf = models.random_canonical(rng, d, 2, 6, levy=levy)
        doc = modeldoc.canonical_to_doc(cf)
        doc["sampling"] = {"h": self.H, "n_steps": self.T, "seed": seed, "refinement": 64}

        def p(name):
            return os.path.join(workdir, name)

        # `simulate -o X.csv` writes its sidecar to X.json, so no path CSV
        # may share a stem with the model document.
        self.doc = p("model_doc.json")
        with open(self.doc, "w", encoding="utf-8") as fh:
            fh.write(modeldoc.dump_json(doc))
        self.written = [p("path.csv"), p("path.json"), p("filt_innovations.csv"),
                        p("filt_solution.json"), p("resid.csv")]
        self.argvs = [
            ["simulate", self.doc, "-o", p("path.csv"), "--columns", "full"],
            ["filter", self.doc, p("path.csv"), "-o", p("filt")],
            ["ecf", self.doc, "--path", p("path.csv"), "--residuals-out", p("resid.csv")],
        ]
        self.env = cli_env()
        self.omega_ref = dare_oracle(moments.discretize(cf, self.H), cf)
        self.digest = None

    def _check(self, codes: list[int], ecf_out: str) -> dict:
        check(codes == [0, 0, 0], f"exit codes {codes}")
        h = hashlib.sha256(ecf_out.encode())
        for path in self.written:
            with open(path, "rb") as fh:
                h.update(fh.read())
        if self.digest is None:
            self.digest = h.hexdigest()
        check(h.hexdigest() == self.digest, "outputs differ from the first op's bytes")
        report = json.loads(ecf_out)
        check(report["max_residual_gap"] <= 1e-8,
              f"max_residual_gap {report['max_residual_gap']:.3e}")
        with open(self.written[3], encoding="utf-8") as fh:
            omega = np.asarray(json.load(fh)["omega"])
        return {"rel_err": rel_err(omega, self.omega_ref), "white": report["whiteness"]["passed"]}

    def op(self, i: int) -> dict:
        codes, out, parts = [], "", {}
        for name, argv in zip(self.COMMANDS, self.argvs):
            t0 = perf_counter()
            proc = subprocess.run([sys.executable, "-m", "cointssm", *argv], env=self.env,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            parts[name] = perf_counter() - t0
            codes.append(proc.returncode)
            out = proc.stdout
            if proc.returncode:
                sys.stderr.write(proc.stderr)
        return {**self._check(codes, out), "parts": parts}

    def op_in_process(self, i: int) -> dict:
        """The same three commands through `cointssm.cli.main` in this process."""
        codes = []
        for argv in self.argvs:
            buf = io.StringIO()  # keeps the last command's (ecf's) report
            with contextlib.redirect_stdout(buf):
                codes.append(cli.main(argv))
        return self._check(codes, buf.getvalue())


WORKLOADS = {w.name: w for w in (LongPath, FineGrid, CliRoundtrip)}
