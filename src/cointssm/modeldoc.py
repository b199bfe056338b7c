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
from .errors import ValidationError
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
    refinement: int = 64
    burn_in: int | None = None
    x1_0: tuple[float, ...] | None = None


def default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError as exc:
        raise ValidationError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from exc


def _need(doc: dict, key: str, where: str) -> Any:
    if key not in doc:
        raise ValidationError(f"missing field {key!r} in {where}")
    return doc[key]


def _matrix(doc: dict, key: str, where: str) -> np.ndarray:
    raw = _need(doc, key, where)
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"field {key!r} in {where} is not a numeric matrix") from exc
    if arr.ndim != 2:
        raise ValidationError(f"field {key!r} in {where} must be a nested (2-D) list")
    return arr


def parse_levy(obj: Any) -> LevySpec:
    if not isinstance(obj, dict):
        raise ValidationError("levy block must be an object")
    kind = _need(obj, "kind", "levy block")
    sigma = _matrix(obj, "sigma_L", "levy block")
    rate = float(obj.get("jump_rate", 0.0))
    jump_cov = None
    if obj.get("jump_cov") is not None:
        jump_cov = _matrix(obj, "jump_cov", "levy block")
    return LevySpec(kind=kind, sigma_L=sigma, jump_rate=rate, jump_cov=jump_cov)


def parse_sampling(doc: dict) -> SamplingOptions:
    raw = doc.get("sampling") or {}
    if not isinstance(raw, dict):
        raise ValidationError("sampling block must be an object")
    x1_0 = raw.get("x1_0")
    return SamplingOptions(
        h=float(raw.get("h", 1.0)),
        n_steps=int(raw.get("n_steps", 1000)),
        seed=int(raw.get("seed", default_seed())),
        refinement=int(raw.get("refinement", 64)),
        burn_in=None if raw.get("burn_in") is None else int(raw["burn_in"]),
        x1_0=None if x1_0 is None else tuple(float(v) for v in x1_0),
    )


def parse_document(doc: dict):
    """Build the typed model a document describes."""
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
        p_raw = _need(doc, "p_coeffs", "mcarma document")
        q_raw = _need(doc, "q_coeffs", "mcarma document")
        try:
            P = tuple(np.asarray(Pi, dtype=float) for Pi in p_raw)
            Q = tuple(np.asarray(Qi, dtype=float) for Qi in q_raw)
        except (TypeError, ValueError) as exc:
            raise ValidationError("mcarma coefficients must be numeric matrices") from exc
        return McarmaModel(p_coeffs=P, q_coeffs=Q, levy=levy)
    c = int(_need(doc, "c", "canonical document"))
    C2 = _matrix(doc, "C2", "canonical document")
    d = C2.shape[0]
    return CointCanonicalForm(
        c=c,
        A2=_matrix(doc, "A2", "canonical document"),
        B1=_matrix(doc, "B1", "canonical document") if c else np.zeros((0, levy.m)),
        B2=_matrix(doc, "B2", "canonical document"),
        C1=_matrix(doc, "C1", "canonical document") if c else np.zeros((d, 0)),
        C2=C2,
        levy=levy,
    )


def load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read model document {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"model document {path} is not valid JSON: {exc}") from exc


def to_canonical(mod, rel_tol: float = matops.RANK_REL_TOL) -> CointCanonicalForm:
    """Bring any supported model to canonical form (identity on canonical input);
    ``rel_tol`` is the rank tolerance of the canonicalization."""
    if isinstance(mod, CointCanonicalForm):
        return mod
    if isinstance(mod, McarmaModel):
        mod = mcarma_to_ss(mod)
    cf, _ = canonicalize(mod, rel_tol=rel_tol)
    return cf


def mat_to_list(M: np.ndarray) -> list[list[float]]:
    return [[float(v) for v in row] for row in np.atleast_2d(np.asarray(M, dtype=float))]


def complex_pairs(z: np.ndarray) -> list[list[float]]:
    return [[float(v.real), float(v.imag)] for v in np.asarray(z, dtype=complex)]


def dump_json(obj: Any) -> str:
    """Canonical JSON rendering: sorted keys, stable float repr, newline end."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


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
