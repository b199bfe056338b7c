"""Command-line surface: simulate, analyze, canonicalize, filter, ecf.

Every command is deterministic given its inputs; `simulate`, the one command
that reads a seed, takes it from the config (or the COINTSSM_SEED environment
variable), never the wall clock. Each command formats its JSON before it
writes anything, so a number that JSON cannot hold leaves no partial output.
Exit codes: 0 success, 2 an input at fault, 3 a computed value that fails a check, a
floating-point warning, a singular solve or out of memory; each failure one ``error:`` line.
"""

from __future__ import annotations

import argparse
import functools
import io
import os
import sys
import warnings

import numpy as np

from . import ecf as ecf_mod
from . import kalman, matops, moments, simulate
from .cointegration import check_cointegration, cointegration_space
from .errors import ComputationError, ModelInputError, ValidationError
from .model import McarmaModel
from .modeldoc import (
    canonical_to_doc,
    complex_pairs,
    dump_json,
    load_document,
    mat_to_list,
    parse_document,
    parse_sampling,
    sampling_step,
    to_canonical,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

#: Autocorrelation lags of the ``ecf --path`` whiteness report.
WHITENESS_MAX_LAG = 10


def _csv(fh, header: list[str], rows) -> None:
    np.savetxt(fh, rows, fmt="%.17g", delimiter=",", header=",".join(header), comments="")


def _write_csv(path: str, header: list[str], rows: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        _csv(fh, header, rows)


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _read_path_csv(path: str, d: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Read a path CSV with d observation columns; returns (times,
    observations, h), h the step of its uniform time grid. One `np.loadtxt`
    call parses every column (skipping comment and blank lines), so a ragged
    row or a non-numeric entry anywhere is rejected; both arrays are copies,
    so the parsed table is freed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            if header[0] == "t":
                with warnings.catch_warnings():  # a body without rows is refused below
                    warnings.simplefilter("ignore", UserWarning)
                    data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except OSError as exc:
        raise ValidationError(f"cannot read path CSV {path}: {exc}") from exc
    except ValueError as exc:
        raise ValidationError(f"malformed path CSV {path}: {exc}") from exc
    if header[0] != "t":
        raise ValidationError(f"path CSV {path} must start with a 't' column")
    if data.shape[0] < 2:
        raise ValidationError(f"path CSV {path} needs at least two rows")
    if data.shape[1] != len(header):
        raise ValidationError(f"path CSV {path} has {data.shape[1]} columns per row, "
                              f"its header names {len(header)}")
    y_cols = [i for i, name in enumerate(header) if name.startswith("y_")]
    if len(y_cols) != d:
        raise ValidationError(f"path has {len(y_cols)} observation columns, model has d={d}")
    times = data[:, 0].copy()
    steps, h = np.diff(times), float(times[1] - times[0])
    if not np.all(steps > 0):
        raise ValidationError("path CSV times must be strictly increasing")
    if np.max(np.abs(steps - h)) > matops.GRID_TOL * max(1.0, h):
        raise ValidationError("path CSV must be sampled on a uniform grid")
    return times, data[:, y_cols], h


def _refuse_overwrite(inputs, outputs) -> None:
    """Raise `ValidationError` (exit 2) when an output path resolves to an
    input file; commands call it before they write anything. ``None``
    entries (options not given) are skipped."""
    taken = {os.path.realpath(p): p for p in inputs if p}
    for out in filter(None, outputs):
        src = taken.get(os.path.realpath(out))
        if src is not None:
            raise ValidationError(f"writing {out} would overwrite the input file {src}")


def _sampled(args):
    """``(cf, sm, times, y)`` of ``args.model`` and ``args.path``: the model
    sampled at the path's grid step, or without a path at the document's
    ``sampling.h`` (``times`` and ``y`` are then None)."""
    doc = load_document(args.model)
    cf = to_canonical(parse_document(doc, args.rank_tol), args.rank_tol)[0]
    if args.path is None:
        return cf, moments.discretize(cf, sampling_step(doc)), None, None
    times, y, h = _read_path_csv(args.path, cf.d)
    return cf, moments.discretize(cf, h), times, y


def cmd_simulate(args) -> int:
    sidecar_path = args.output.removesuffix(".csv") + ".json"
    _refuse_overwrite([args.config], [args.output, sidecar_path])
    doc = load_document(args.config)
    cf = to_canonical(parse_document(doc, args.rank_tol), args.rank_tol)[0]
    opts = parse_sampling(doc)
    sm = moments.discretize(cf, opts.h)
    sampler = (simulate.simulate_exact_full if args.columns == "full"
               else simulate.simulate_exact_gaussian)
    ps = sampler(sm, cf, opts.n_steps, x1_0=opts.x1_0, seed=opts.seed)
    cols = {"y": ps.y}
    if args.columns == "full":
        cols.update(x1=ps.x1, x2=ps.x2, r1=ps.r1)
    header = ["t"] + [f"{name}_{i+1}" for name, col in cols.items() for i in range(col.shape[1])]
    sidecar = dump_json({
        "seed": ps.seed,
        "driver_kind": ps.driver_kind,
        "h": sm.h,
        "c": sm.c,
        "eAh": mat_to_list(sm.eAh),
        "sigma_tilde": mat_to_list(sm.sigma_tilde),
        "gamma0": mat_to_list(cf.gamma0),
    })
    _write_csv(args.output, header, np.hstack([ps.times[:, None], *cols.values()]))
    _write_text(sidecar_path, sidecar)
    return EXIT_OK


def _coint_report_doc(report) -> dict:
    return {
        "is_cointegrated": report.is_cointegrated,
        "condition_a": report.condition_a,
        "offending_roots": complex_pairs(report.offending_roots),
        "condition_b": report.condition_b,
        "r": report.r,
        "alpha": None if report.alpha is None else mat_to_list(report.alpha),
        "beta": None if report.beta is None else mat_to_list(report.beta),
        "condition_c": report.condition_c,
        "transversality_rank": report.transversality_rank,
        "roots": complex_pairs(report.roots),
    }


def cmd_analyze(args) -> int:
    _refuse_overwrite([args.config], [args.output])
    doc = load_document(args.config)
    mod = parse_document(doc, args.rank_tol)
    out: dict = {"model_kind": doc["model_kind"]}
    cf = None
    if isinstance(mod, McarmaModel):
        out["cointegration"] = _coint_report_doc(check_cointegration(mod, args.rank_tol))
        if out["cointegration"]["is_cointegrated"]:
            cf, _ = to_canonical(mod, args.rank_tol)
    else:
        cf, _ = to_canonical(mod, args.rank_tol)
    if cf is not None:
        out["canonical_form"] = canonical_to_doc(cf)
        out["c"] = cf.c
        if 0 < cf.c < cf.d:
            out["cointegration_space"] = mat_to_list(cointegration_space(cf))
    if args.moments:
        if cf is None:
            raise ValidationError("--moments needs a model with a canonical form")
        header = ["t", "s"] + [f"cov_{i+1}_{j+1}" for i in range(cf.d) for j in range(cf.d)]
        t_grid, s_grid = args.t_grid or [0.0, 1.0, 2.0], args.s_grid or [0.0, 1.0]
        rows = [[t, s, *moments.cov_continuous(cf, t, s).ravel()] for t in t_grid for s in s_grid]
        buf = io.StringIO()
        _csv(buf, header, rows)
        out["moments_csv"] = buf.getvalue()
    text = dump_json(out)
    if args.output:
        _write_text(args.output, out["moments_csv"])
    sys.stdout.write(text)
    return EXIT_OK


def cmd_canonicalize(args) -> int:
    cf, T = to_canonical(parse_document(load_document(args.config), args.rank_tol), args.rank_tol)
    out = {
        "canonical_form": canonical_to_doc(cf),
        "transform": mat_to_list(T),
        "c": cf.c,
    }
    sys.stdout.write(dump_json(out))
    return EXIT_OK


def cmd_filter(args) -> int:
    innovations_path = args.output_prefix + "_innovations.csv"
    solution_path = args.output_prefix + "_solution.json"
    _refuse_overwrite([args.model, args.path], [innovations_path, solution_path])
    cf, sm, times, y = _sampled(args)
    ks = kalman.solve_steady_state(sm, cf, args.rank_tol)
    eps, _ = kalman.filter_innovations(ks, sm, y)
    solution = dump_json({
        "h": sm.h,
        "omega": mat_to_list(ks.omega),
        "gain": mat_to_list(ks.gain),
        "v": mat_to_list(ks.v),
        "residual": ks.residual,
        "rho_closed_loop": ks.spectral_radius,
    })
    header = ["t"] + [f"eps_{i+1}" for i in range(cf.d)]
    _write_csv(innovations_path, header, np.hstack([times[:, None], eps]))
    _write_text(solution_path, solution)
    return EXIT_OK


def cmd_ecf(args) -> int:
    _refuse_overwrite([args.model, args.path], [args.residuals_out])
    cf, sm, times, y = _sampled(args)
    ks = kalman.solve_steady_state(sm, cf, args.rank_tol)
    dec = ecf_mod.ma_and_ktilde_coeffs(ks, sm, args.J, rel_tol=args.rank_tol)
    check = ecf_mod.structural_check(ks, sm, cf, args.rank_tol)
    out = {
        "h": sm.h,
        "truncation": dec.truncation,
        "tail_bound": dec.tail_bound,
        "k1": mat_to_list(dec.k1),
        "alpha": mat_to_list(dec.alpha),
        "beta": mat_to_list(dec.beta),
        "r": dec.r,
        "L_norms": [float(np.linalg.norm(L)) for L in dec.L_coeffs],
        "Ktilde_norms": [float(np.linalg.norm(K)) for K in dec.Ktilde_coeffs],
        "structural_check": {
            "idempotency_defect": check.idempotency_defect,
            "projector_rank": check.projector_rank,
            "k1_reconstruction_error": check.k1_reconstruction_error,
            "ok": check.ok,
        },
    }
    if y is not None:
        eps_kalman, _ = kalman.filter_innovations(ks, sm, y)
        eps_ecf = ecf_mod.ecf_residuals(dec, y, args.J)
        gap = float(np.max(np.abs(eps_ecf - eps_kalman[args.J + 1:])))
        out["max_residual_gap"] = gap
        out["whiteness"] = None
        if len(eps_ecf) >= ecf_mod.WHITENESS_ROWS_PER_LAG * WHITENESS_MAX_LAG:
            white = ecf_mod.whiteness_diagnostic(eps_ecf, WHITENESS_MAX_LAG)
            out["whiteness"] = {
                "passed": white.passed,
                "degenerate": white.degenerate,
                "band": white.band,
                "max_abs": None if white.degenerate else white.max_abs,
            }
    text = dump_json(out)
    if args.residuals_out:
        header = ["t"] + [f"eps_{i+1}" for i in range(cf.d)]
        _write_csv(args.residuals_out, header, np.hstack([times[args.J + 1:, None], eps_ecf]))
    sys.stdout.write(text)
    return EXIT_OK


def _finite_floats(text: str) -> list[float]:
    """Comma-separated finite numbers (an argparse ``type``)."""
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a list of numbers: {text!r}") from exc
    if not np.all(np.isfinite(values)):
        raise argparse.ArgumentTypeError(f"values must be finite, got {text!r}")
    return values


def _rank_tol(text: str) -> float:
    """A finite relative tolerance in (0, 1) (an argparse ``type``)."""
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not 0.0 < value < 1.0:  # also rejects NaN and infinities
        raise argparse.ArgumentTypeError(f"must be a finite number in (0, 1), got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cointssm",
        description="Cointegrated continuous-time state-space models: "
                    "simulation, analysis, Kalman filtering and error correction forms.",
    )
    # Options must be spelled out: an abbreviation would let a removed flag
    # resolve to another one (``--h`` to ``--help``, exit 0).
    sub = parser.add_subparsers(dest="command", required=True, parser_class=functools.partial(
        argparse.ArgumentParser, allow_abbrev=False))

    def add_rank_tol(p):
        p.add_argument("--rank-tol", type=_rank_tol, default=matops.RANK_REL_TOL,
                       help="relative tolerance of every rank decision, the checks of a "
                            "canonical model document among them")

    p_sim = sub.add_parser("simulate", help="simulate a path of the sampled model")
    p_sim.add_argument("config", help="model document (JSON)")
    p_sim.add_argument("-o", "--output", required=True, help="output CSV path")
    p_sim.add_argument("--columns", choices=("y", "full"), default="y",
                       help="emit observations only or also states and unit-root noise")
    add_rank_tol(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_an = sub.add_parser("analyze", help="cointegration report / canonical structure")
    p_an.add_argument("config", help="model document (JSON)")
    p_an.add_argument("--moments", action="store_true",
                      help="also evaluate the closed-form covariance on a (t, s) grid")
    p_an.add_argument("--t-grid", type=_finite_floats, default=None,
                      help="comma separated t values (default 0,1,2; needs --moments)")
    p_an.add_argument("--s-grid", type=_finite_floats, default=None,
                      help="comma separated s values (default 0,1; needs --moments)")
    p_an.add_argument("--output", default=None, help="write the moments CSV here (needs --moments)")
    add_rank_tol(p_an)
    p_an.set_defaults(func=cmd_analyze)

    p_can = sub.add_parser("canonicalize", help="unique decoupled canonical form")
    p_can.add_argument("config", help="model document (JSON)")
    add_rank_tol(p_can)
    p_can.set_defaults(func=cmd_canonicalize)

    p_fil = sub.add_parser("filter", help="steady state Kalman filter over a path CSV")
    p_fil.add_argument("model", help="model document (JSON)")
    p_fil.add_argument("path", help="path CSV with t and y_* columns on a uniform grid; "
                                    "its step is the sampling step h")
    p_fil.add_argument("-o", "--output-prefix", required=True,
                       help="prefix for _innovations.csv and _solution.json")
    add_rank_tol(p_fil)
    p_fil.set_defaults(func=cmd_filter)

    p_ecf = sub.add_parser("ecf", help="error correction decomposition report")
    p_ecf.add_argument("model", help="model document (JSON)")
    p_ecf.add_argument("--path", default=None,
                       help="optional path CSV for residual checks; its grid step is the "
                            "sampling step h (default: the document's sampling block)")
    p_ecf.add_argument("--J", type=int, default=ecf_mod.DEFAULT_TRUNCATION,
                       help="highest lag of the reported filter coefficients (tail_bound "
                            "bounds the rest); residual rows start after the first J + 1. "
                            "The residuals always apply the whole infinite filter")
    p_ecf.add_argument("--residuals-out", default=None,
                       help="write ECF residual CSV here (needs --path)")
    add_rank_tol(p_ecf)
    p_ecf.set_defaults(func=cmd_ecf)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "analyze" and not args.moments:
        for flag in ("--t-grid", "--s-grid", "--output"):
            if getattr(args, flag[2:].replace("-", "_")) is not None:
                parser.error(f"analyze: {flag} needs --moments")
    if args.command == "ecf" and args.residuals_out is not None and args.path is None:
        parser.error("ecf: --residuals-out needs --path")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return args.func(args)
    except ModelInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ComputationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (RuntimeWarning, np.linalg.LinAlgError) as exc:
        print(f"error: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
