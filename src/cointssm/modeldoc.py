"""JSON model documents: the on-disk schema the CLI reads and writes.

A document carries one model (state_space, mcarma or canonical kind), the
Levy driver and an optional sampling block. Matrices are nested row-major
lists of numbers; serialization uses shortest round-trip floats so rerunning
a command is byte-identical.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any

import numpy as np

from . import matops
from .errors import NumericError, ValidationError
from .model import CointCanonicalForm, LevySpec, McarmaModel, StateSpaceModel
from .realization import canonicalize, mcarma_to_ss

SCHEMA_VERSIONS = ("1",)
MODEL_KINDS = ("state_space", "mcarma", "canonical")

SEED_ENV_VAR = "COINTSSM_SEED"


@dataclass(frozen=True)
class SamplingOptions:
    h: float = 1.0
    n_steps: int = 1000
    seed: int = 0
    x1_0: tuple[float, ...] | None = None


def default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    if not raw.strip().isdecimal():
        raise ValidationError(f"{SEED_ENV_VAR} must be a non-negative integer, got {raw!r}")
    return int(raw)


def _need(doc: dict, key: str, where: str) -> Any:
    if key not in doc:
        raise ValidationError(f"missing field {key!r} in {where}")
    return doc[key]


def _integer(value: Any, what: str) -> int:
    """An integer field: a JSON integer, or a number with an integral value."""
    if not isinstance(value, bool) and (
            isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        return int(value)
    raise ValidationError(f"{what} must be an integer, got {value!r}")


def _is_number(value: Any) -> bool:
    """A JSON number: an int or float that is not a bool (numpy would read
    ``true`` as 1 and ``"7"`` as 7)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _numeric(raw: Any, what: str, ndim: int) -> np.ndarray:
    """``raw`` as a float array: a number (``ndim`` 0), a list of numbers
    (1) or a list of equally long lists of numbers (2)."""
    arr = np.array(raw, dtype=object)
    if arr.ndim != ndim or not all(map(_is_number, arr.flat)):
        shape = ("a number", "a list of numbers", "a list of equally long lists of numbers")
        raise ValidationError(f"{what} must be {shape[ndim]}")
    try:
        return arr.astype(float)
    except OverflowError as exc:
        raise ValidationError(f"{what} holds a number too large for a float") from exc


def _matrix(doc: dict, key: str, where: str) -> np.ndarray:
    return _numeric(_need(doc, key, where), f"field {key!r} in {where}", 2)


def parse_levy(obj: Any) -> LevySpec:
    if not isinstance(obj, dict):
        raise ValidationError("field 'levy' in document must be an object")
    kind = _need(obj, "kind", "levy block")
    sigma = _matrix(obj, "sigma_L", "levy block")
    rate = float(_numeric(obj.get("jump_rate", 0.0), "field 'jump_rate' in levy block", 0))
    if not np.isfinite(rate):
        raise ValidationError(
            f"field 'jump_rate' in levy block must be a finite number, got {rate!r}"
        )
    jump_cov = None
    if obj.get("jump_cov") is not None:
        jump_cov = _matrix(obj, "jump_cov", "levy block")
    return LevySpec(kind=kind, sigma_L=sigma, jump_rate=rate, jump_cov=jump_cov)


def sampling_step(doc: dict) -> float:
    """``sampling.h`` (default 1.0), the one sampling field `ecf` reads. A
    missing or null ``sampling`` block is an empty one."""
    raw = {} if doc.get("sampling") is None else doc["sampling"]
    if not isinstance(raw, dict):
        raise ValidationError("field 'sampling' in document must be an object")
    h = float(_numeric(raw.get("h", 1.0), "field 'h' in sampling block", 0))
    if not np.isfinite(h):
        raise ValidationError(f"sampling block has a non-finite sampling.h: {h}")
    return h


def parse_sampling(doc: dict) -> SamplingOptions:
    """The whole sampling block, which only `simulate` reads."""
    h, raw = sampling_step(doc), doc.get("sampling") or {}
    seed = raw["seed"] if "seed" in raw else default_seed()
    x1_0 = raw.get("x1_0")
    opts = SamplingOptions(
        h=h,
        n_steps=_integer(raw.get("n_steps", 1000), "field 'n_steps' in sampling block"),
        seed=_integer(seed, "field 'seed' in sampling block"),
        x1_0=None if x1_0 is None else tuple(
            _numeric(x1_0, "field 'x1_0' in sampling block", 1).tolist()),
    )
    if opts.seed < 0:
        raise ValidationError(f"sampling block has a negative seed: {opts.seed}")
    return opts


def parse_document(doc: dict, rel_tol: float = matops.RANK_REL_TOL):
    """Build the typed model a document describes, checking a canonical one at ``rel_tol``."""
    if not isinstance(doc, dict):
        raise ValidationError("model document must be a JSON object")
    version = str(_need(doc, "schema_version", "document"))
    if version not in SCHEMA_VERSIONS:
        raise ValidationError(
            f"unrecognized schema_version {version!r}, supported: {SCHEMA_VERSIONS}"
        )
    kind = _need(doc, "model_kind", "document")
    if kind not in MODEL_KINDS:
        raise ValidationError(f"unknown model_kind {kind!r}, expected one of {MODEL_KINDS}")
    levy = parse_levy(_need(doc, "levy", "document"))
    if kind == "state_space":
        return StateSpaceModel(
            A=_matrix(doc, "A", "state_space document"),
            B=_matrix(doc, "B", "state_space document"),
            C=_matrix(doc, "C", "state_space document"),
            levy=levy,
        )
    if kind == "mcarma":
        coeffs = {}
        for key in ("p_coeffs", "q_coeffs"):
            raw, what = _need(doc, key, "mcarma document"), f"field {key!r} in mcarma document"
            if not isinstance(raw, list):
                raise ValidationError(f"{what} must be a list of matrices")
            coeffs[key] = tuple(_numeric(M, what, 2) for M in raw)
        return McarmaModel(**coeffs, levy=levy)
    c = _integer(_need(doc, "c", "canonical document"), "field 'c' in canonical document")
    C2 = _matrix(doc, "C2", "canonical document")
    d = C2.shape[0]
    return CointCanonicalForm(
        c=c,
        A2=_matrix(doc, "A2", "canonical document"),
        B1=_matrix(doc, "B1", "canonical document") if c else np.zeros((0, levy.m)),
        B2=_matrix(doc, "B2", "canonical document"),
        C1=_matrix(doc, "C1", "canonical document") if c else np.zeros((d, 0)),
        C2=C2,
        levy=levy, rel_tol=rel_tol,
    )


def load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read model document {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"model document {path} is not valid JSON: {exc}") from exc


def to_canonical(mod,
                 rel_tol: float = matops.RANK_REL_TOL) -> tuple[CointCanonicalForm, np.ndarray]:
    """Bring any supported model to canonical form; returns ``(cf, T)`` as
    `canonicalize` does, with the identity ``T`` for a canonical input.
    ``rel_tol`` is the rank tolerance of the canonicalization."""
    if isinstance(mod, CointCanonicalForm):
        return mod, np.eye(mod.N)
    if isinstance(mod, McarmaModel):
        mod = mcarma_to_ss(mod)
    return canonicalize(mod, rel_tol=rel_tol)


def mat_to_list(M: np.ndarray) -> list[list[float]]:
    return [[float(v) for v in row] for row in np.atleast_2d(np.asarray(M, dtype=float))]


def complex_pairs(z: np.ndarray) -> list[list[float]]:
    return [[float(v.real), float(v.imag)] for v in np.asarray(z, dtype=complex)]


def dump_json(obj: Any) -> str:
    """Canonical JSON rendering: sorted keys, stable float repr, newline end.
    Strict JSON has no NaN or infinity, so a non-finite number raises
    `NumericError`."""
    try:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericError(f"cannot write a non-finite number as JSON: {exc}") from exc


def levy_to_doc(levy: LevySpec) -> dict:
    out: dict[str, Any] = {"kind": levy.kind, "sigma_L": mat_to_list(levy.sigma_L)}
    if levy.kind != "brownian":
        out["jump_rate"] = float(levy.jump_rate)
        out["jump_cov"] = mat_to_list(levy.jump_cov)
    return out


def canonical_to_doc(cf: CointCanonicalForm) -> dict:
    return {
        "schema_version": "1",
        "model_kind": "canonical",
        "c": cf.c,
        "A2": mat_to_list(cf.A2),
        "B1": mat_to_list(cf.B1),
        "B2": mat_to_list(cf.B2),
        "C1": mat_to_list(cf.C1),
        "C2": mat_to_list(cf.C2),
        "levy": levy_to_doc(cf.levy),
    }
