import contextlib
import functools
import io
import json
import operator
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zoo
from cointssm import canonicalize, cli, discretize, matops, simulate, simulate_exact_full
from cointssm.cli import _read_path_csv, _write_csv, build_parser, main
from cointssm.errors import MinimalityError, NumericError
from cointssm.modeldoc import dump_json, levy_to_doc, parse_document
from zoo import mcar1_doc, partial_doc, scalar_doc, weak_b1_doc, weak_input_doc


def write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


def strict_json(text):
    """Parse JSON that must hold no NaN or infinity."""
    def refuse(name):
        raise ValueError(f"{name} is not strict JSON")
    return json.loads(text, parse_constant=refuse)


def mixed_levy() -> dict:
    return levy_to_doc(zoo.mixed())


def pure_jump_levy() -> dict:
    return levy_to_doc(zoo.pure_jump())


def edited(doc, block, field, value):
    """``doc`` with ``doc[block][field]`` (``doc[field]`` for block None) set to ``value``."""
    (doc[block] if block else doc)[field] = value
    return doc


def run_cli(argv, workdir, code=None, message=""):
    """Run one command and assert the CLI contract for it: exit 0 with
    nothing on stderr and strict JSON on stdout and in every JSON file
    written, or exit 2 or 3 with nothing on stdout, one ``error:`` line
    holding ``message`` and ``workdir``'s files as they were: none new, none
    changed. ``code`` None allows any of the three. Returns ``(code, stdout)``."""
    workdir = Path(workdir)
    files_now = lambda: {p: p.is_file() and p.read_bytes() for p in workdir.iterdir()}
    before = files_now()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        got = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert got == code if code is not None else got in (0, 2, 3), (argv, got, err)
    if got == 0:
        assert err == "", (argv, err)
        written = [p.read_text() for p in workdir.glob("*.json") if p not in before]
        for text in [out] * bool(out) + written:
            strict_json(text)
    else:
        assert out == "" and err.startswith("error: ") and len(err.splitlines()) == 1, (argv, err)
        assert message in err, (argv, err)
        assert files_now() == before, argv
    return got, out


def files(doc, path=None, name="model.json", path_name="path.csv"):
    """A contract row's set-up: ``doc`` written as ``name`` (JSON, or a
    string as it is) and ``path`` as ``path_name``: text, a document whose
    simulated full-column path it is, or a function that edits the lines of
    the model's own."""
    def setup(d):
        model, csv = d / name, d / path_name
        model.write_text(doc) if isinstance(doc, str) else write_json(model, doc)
        if isinstance(path, str):
            csv.write_text(path)
        elif path is not None:
            source = write_json(d / "source.json", path) if isinstance(path, dict) else str(model)
            assert main(["simulate", source, "-o", str(csv), "--columns", "full"]) == 0
            if callable(path):
                csv.write_text("\n".join(path(csv.read_text().splitlines())) + "\n")
    return setup


def unreadable_model(d):
    (d / "model.json").mkdir()
    (d / "path.csv").write_text(TWO_ROWS)


M, P = "{d}/model.json", "{d}/path.csv"
SIMULATE = ["simulate", M, "-o", "{d}/x.csv"]
#: Each command with every output it can write, on a row's model document and path CSV.
WRITING = {
    "simulate": SIMULATE,
    "analyze": ["analyze", M, "--moments", "--output", "{d}/m.csv"],
    "canonicalize": ["canonicalize", M],
    "filter": ["filter", M, P, "-o", "{d}/flt"],
    "ecf": ["ecf", M, "--path", P, "--residuals-out", "{d}/r.csv"],
}
READING_PATH = {"filter": WRITING["filter"], "ecf": ["ecf", M, "--path", P]}
TWO_ROWS = "t,y_1,y_2\n1,0,0\n2,0,0\n"
P50 = partial_doc() | {"sampling": {"h": 0.5, "n_steps": 50, "seed": 40}}
P600 = partial_doc() | {"sampling": {"h": 0.5, "n_steps": 600, "seed": 40}}

BAD_DOCUMENTS = {
    "not_json": ("{not json", "is not valid JSON"),
    "not_an_object": ([partial_doc()], "must be a JSON object"),
    "schema_version": (partial_doc() | {"schema_version": "2"}, "unrecognized schema_version '2'"),
    "model_kind": (partial_doc() | {"model_kind": "arma"}, "unknown model_kind 'arma'"),
}


def at(i, edit):
    """A path CSV edit: line ``i`` replaced by ``edit(line)``."""
    return lambda lines: lines[:i] + [edit(lines[i])] + lines[i + 1:]


def time_field(edit):
    """A line edit: the time field replaced by ``edit(time)``."""
    return lambda line: edit(float(line.split(",", 1)[0])) + line[line.index(","):]


#: Edits of a full-column path, ``t,y_1,y_2,x1_1,x2_1,x2_2,r1_1``, and their refusals.
PATH_EDITS = {
    "ragged": (at(3, lambda line: line.rsplit(",", 1)[0]), "number of columns changed"),
    "x2_not_a_number": (at(3, lambda line: ",".join(
        "abc" if i == 4 else v for i, v in enumerate(line.split(",")))), "'abc'"),
    "time_header": (at(0, lambda line: "time" + line[1:]), "must start with a 't' column"),
    "time_order": (lambda lines: lines[:3] + [lines[4], lines[3]] + lines[5:],
                   "times must be strictly increasing"),
    # used to pass, exit 0
    "time_nan": (at(3, time_field(lambda t: "nan")), "times must be strictly increasing"),
    "off_grid": (at(3, time_field(lambda t: repr(t + 0.1))), "must be sampled on a uniform grid"),
    "y_count": (at(0, lambda line: line.replace("y_2", "z_2")),
                "path has 1 observation columns, model has d=2"),
    "wide_header": (at(0, lambda line: line + ",y_3"),
                    "has 7 columns per row, its header names 8"),
    "wide_rows": (lambda lines: lines[:1] + [line + ",0" for line in lines[1:]],
                  "has 8 columns per row, its header names 7"),
}
EMPTY_PATHS = {"header_only": ("t,y_1,y_2\n", "needs at least two rows"),
               "comments_only": ("t,y_1,y_2\n# no rows\n\n#\n", "needs at least two rows"),
               "zero_bytes": ("", "must start with a 't' column")}
# these ended in a ValueError traceback (exit 1), truncated c = 1.7 to 1,
# or read a string or a bool as a number ("7" as 7, true as 1); a falsy
# sampling block was read as a missing one
MALFORMED_VALUES = [
    ("levy", "jump_rate", "abc"), (None, "c", "x"), (None, "c", 1.7),
    ("sampling", "h", "0.5"), ("sampling", "h", True), ("sampling", "x1_0", "7"),
    ("sampling", "x1_0", [True]), (None, "A2", [["-1"]]), (None, "B1", [[True, False]]),
    ("levy", "sigma_L", [["2", "0"], ["0", "2"]]), (None, "sampling", []),
    (None, "sampling", 0), (None, "sampling", False), (None, "sampling", ""),
    (None, "levy", [1.0]), (None, "A2", [[10**400]]), ("levy", "jump_rate", int("9" * 400)),
]
# each ended in a traceback (exit 1): rng.poisson's "lam value too large",
# numpy's "array is too big" for the 8e18 jump ages, _ArrayMemoryError and
# "Maximum allowed dimension exceeded"
HUGE_SAMPLING = {
    "poisson_mean": ({"h": 1e300}, 2, "jump_rate * h = 2e+300"),
    "ages_array": ({"h": 1e16}, 2, "jumps a run can hold"),
    "memory": ({"n_steps": 10**15}, 3, "out of memory"),
    "array_size": ({"n_steps": 10**19}, 2, "more than the largest array holds"),
    "float_overflow": ({"n_steps": 10**400}, 2, "more than the largest array holds"),
}
# h / 2.0**k overflowed for k = 1024 (OverflowError, exit 1), or h ||A2||
# did at h = 10; then the Riccati solver warned and let a NaN residual
# through. `moments.van_loan`'s exponent rule makes e^{A h} at h = 10.
HUGE_A2 = {"simulate": (SIMULATE, 0), "analyze": (["analyze", M, "--moments"], 0),
           "filter": (WRITING["filter"], 3), "ecf": (["ecf", M], 3),
           "ecf_path": (READING_PATH["ecf"], 3)}
# a Van Loan exponential that overflows to NaN (no floating-point warning)
# exited 2 ("Brownian noise covariance contains non-finite entries", "F
# contains non-finite entries") or printed NaN covariances with exit 0
VAN_LOAN_OVERFLOW = {
    "simulate-huge_b2": (scalar_doc() | {"B2": [[0.0, 1e154]]}, SIMULATE),
    "analyze-huge_b2": (scalar_doc() | {"B2": [[0.0, 1e154]]}, ["analyze", M, "--moments"]),
    "simulate-pure_jump_huge_b1": (scalar_doc() | {"B1": [[1e154, 0.0]], "levy": pure_jump_levy()},
                                   SIMULATE),
    "analyze-pure_jump_huge_b1": (scalar_doc() | {"B1": [[1e154, 0.0]], "levy": pure_jump_levy()},
                                  ["analyze", M, "--moments"]),
}


def row(setup, argv, code, message, id):
    return pytest.param(setup, argv, code, message, id=id)


#: Every refusal of a document, a path CSV or an output argument, and the
#: extreme inputs that once ended in a traceback, a RuntimeWarning or a
#: non-finite output: (set-up, argv, exit code, text of the ``error:`` line).
CONTRACT_ROWS = [
    *(row(files(doc, TWO_ROWS), argv, 2, message, f"{command}-{name}")
      for name, (doc, message) in BAD_DOCUMENTS.items() for command, argv in WRITING.items()),
    *(row(unreadable_model, argv, 2, "cannot read model document", f"{command}-unreadable")
      for command, argv in WRITING.items()),
    *(row(files(P50, edit), argv, 2, message, f"{command}-{name}")
      for name, (edit, message) in PATH_EDITS.items() for command, argv in READING_PATH.items()),
    *(row(files(partial_doc(), text), argv, 2, message, f"{command}-{name}")
      for name, (text, message) in EMPTY_PATHS.items() for command, argv in READING_PATH.items()),
    *(row(files(partial_doc()), [a.replace(P, "{d}/missing.csv") for a in WRITING[command]], 2,
          "error: cannot read path CSV", f"{command}-missing_path")
      for command in ("filter", "ecf")),
    *(row(files(edited(scalar_doc() | {"levy": mixed_levy()}, block, field, value)), SIMULATE, 2,
          f"field {field!r}", f"simulate-{block}.{field}={value!r:.12}")
      for block, field, value in MALFORMED_VALUES),
    *(row(files(scalar_doc(**{field: value})), SIMULATE, 2, "sampling block",
          f"simulate-sampling.{field}={value!r}")
      for field, value in [("n_steps", "abc"), ("x1_0", 3), ("h", None), ("seed", -1)]),
    *(row(files(scalar_doc(h=h)), SIMULATE, 2, "sampling.h", f"simulate-h={h}")
      for h in (float("nan"), float("inf"))),
    *(row(files(scalar_doc(**sampling) | {"levy": mixed_levy()}), SIMULATE, code, message,
          f"simulate-{name}")
      for name, (sampling, code, message) in HUGE_SAMPLING.items()),
    *(row(files(scalar_doc(h=h) | {"A2": [[-1e308]]}, scalar_doc(h=h)), argv, code, "",
          f"{name}-huge_a2-h={h:g}")
      for h in (1.0, 10.0) for name, (argv, code) in HUGE_A2.items()),
    *(row(files(doc), argv, 3, "", name) for name, (doc, argv) in VAN_LOAN_OVERFLOW.items()),
    row(files(partial_doc() | {"A2": [[-1.7e308, -1.7e308], [0.0, -2.0]]}), ["ecf", M], 3, "",
        "ecf-singular_solve"),  # a LinAlgError traceback
    # `test_extreme_documents`' shrunk counterexamples before the warnings
    # policy: B S B' overflowed in `moments.van_loan`, a RuntimeWarning
    *(row(files(scalar_doc() | {"B1": b1}), SIMULATE, 3, "overflow encountered",
          f"simulate-b1={b1}")
      for b1 in ([[1.0, 1e154]], [[1e200, 0.0]])),
    # decided without an overflow: a huge C1 entry or jump covariance is an
    # input refused (exit 2), and a unit-root margin beyond float64 is inf
    row(files(edited(partial_doc(), "C1", 1, [1e300])), SIMULATE, 2,
        "C1 is not the orthonormal positive lower triangular basis", "simulate-huge_c1"),
    row(files(edited(scalar_doc() | {"levy": pure_jump_levy()}, "levy", "jump_cov",
                     [[1e300, 0.0], [0.0, 0.5]])), SIMULATE, 2,
        "sigma_L != jump_rate * jump_cov for the pure-jump driver", "simulate-huge_jump_cov"),
    row(files(weak_input_doc() | {"A": [[5e-324, 0.0], [0.0, -1.0]],
                                  "B": [[1.0, 0.0], [1e-154, 1e-5]]}), ["canonicalize", M], 0, "",
        "canonicalize-subnormal_unit_root"),
    # the symmetry check of sigma_tilde (entries near 1e300) overflowed its
    # norms, and entries near 1e-310 made its scale 2^-e overflow
    row(files(partial_doc() | {"sampling": {"h": 1e300, "n_steps": 3000, "seed": 40}}), SIMULATE,
        0, "", "simulate-huge_step"),
    row(files(partial_doc() | {"sampling": {"h": 1e-310, "n_steps": 300, "seed": 40}}), SIMULATE,
        0, "", "simulate-subnormal_step"),
    row(files(edited(scalar_doc(), "levy", "sigma_L", [[1.0, 0.0], [0.0, 0.0]])), SIMULATE, 2,
        "positive definite", "simulate-singular_sigma"),
    row(files({k: v for k, v in scalar_doc().items() if k != "A2"}), SIMULATE, 2,
        "missing field 'A2'", "simulate-missing_field"),
    row(files(scalar_doc(x1_0=[1.0, 2.0])), SIMULATE, 2,
        "error: x1_0 has length 2, expected c=1", "simulate-x1_0_length"),
    *(row(files(doc() | {"levy": dict(mixed_levy(), jump_rate=8.0)}), ["canonicalize", M], 2,
          "invalid Levy driver: sigma_L - jump_rate * jump_cov is not PSD, "
          "no Brownian component fits", f"canonicalize-{doc.__name__}-invalid_driver")
      for doc in (scalar_doc, weak_input_doc, mcar1_doc)),
    # a string or a bool entry was read as a number
    *(row(files(mcar1_doc() | {field: value}), ["analyze", M], 2, f"field {field!r}",
          f"analyze-{field}={value!r:.12}")
      for field, value in [("p_coeffs", [[["1", 0.0], [0.0, 0.0]]]),
                           ("q_coeffs", [[[True, 0.0], [0.0, 1.0]]]), ("p_coeffs", 1.0)]),
    row(files(zoo.doc(zoo.jordan())), ["analyze", M], 3, "not a semisimple zero eigenvalue",
        "analyze-jordan_block"),
    row(files(edited(mcar1_doc(), None, "p_coeffs", [[[1.0, 0.0], [0.0, 2.0]]])),
        WRITING["analyze"], 2, "error: --moments needs a model with a canonical form",
        "analyze-moments_of_stationary_mcarma"),
    # a falsy sampling block was read as a missing one: h = 1, exit 0
    *(row(files(partial_doc() | {"sampling": sampling}), ["ecf", M], 2, "field 'sampling'",
          f"ecf-sampling={sampling!r}")
      for sampling in ([], 0, False, "")),
    row(files(zoo.doc(zoo.stationary(), {"h": 1.0})), ["ecf", M], 3,
        "factorization needs a cointegrated model", "ecf-stationary_model"),
    row(files(partial_doc() | {"C1": [[1.0], [0.0], [0.0]],
                               "C2": [[0.5, -0.2], [1.0, 0.4], [0.0, 1.0]]}, P50),
        WRITING["filter"], 2, "path has 2 observation columns, model has d=3",
        "filter-dimension_mismatch"),
    # an output over an input file
    *(row(files(scalar_doc()), ["simulate", M, "-o", f"{{d}}/{out}"], 2,
          "would overwrite the input file", f"simulate-output_over_{out}")
      for out in ("model.csv", "model.json")),
    row(files(scalar_doc()), ["analyze", M, "--moments", "--output", M], 2,
        "would overwrite the input file", "analyze-output_over_model"),
    # the prefix "run" names run_innovations.csv and run_solution.json
    *(row(files(P50, P50, name, "run_innovations.csv"), ["filter", f"{{d}}/{name}",
          "{d}/run_innovations.csv", "-o", "{d}/run"], 2, "would overwrite the input file",
          f"filter-outputs_over_{name}")
      for name in ("run_solution.json", "model.json")),
    *(row(files(P600, P600), ["ecf", M, "--path", P, "--residuals-out", out], 2,
          "would overwrite the input file", f"ecf-residuals_over_{out[4:]}")
      for out in (M, P)),
]


#: The values a fuzzed document's numeric leaves take: zero, subnormals,
#: the square-root limits, overflowing and 64-bit-overflowing magnitudes.
EXTREMES = [0, 5e-324, 1e-310, 1e-154, 1e154, 1e200, 1e300, -1e300, 1.7e308, -1.7e308,
            2**63, 2**64, int("9" * 400)]


def numeric_leaves(obj, path=()):
    """Paths to the numbers of a document, but for the seed, n_steps and c."""
    for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
        if isinstance(value, (dict, list)):
            yield from numeric_leaves(value, path + (key,))
        elif isinstance(value, (int, float)) and not isinstance(value, bool) and key not in (
                "seed", "n_steps", "c"):
            yield path + (key,)


@st.composite
def extreme_documents(draw):
    """A fixture document, with 50 steps, whose one or two numeric leaves take `EXTREMES`."""
    doc = draw(st.sampled_from([
        scalar_doc, partial_doc, weak_input_doc, mcar1_doc,
        lambda: scalar_doc() | {"levy": pure_jump_levy()},
        lambda: partial_doc() | {"levy": mixed_levy()}]))()
    doc["sampling"] = dict(doc.get("sampling") or {}, n_steps=50)
    for *keys, last in draw(st.lists(st.sampled_from(list(numeric_leaves(doc))),
                                     min_size=1, max_size=2, unique=True)):
        functools.reduce(operator.getitem, keys, doc)[last] = draw(st.sampled_from(EXTREMES))
    return doc


class TestContract:
    """The CLI contract: every command exits 0 with strict JSON output, or 2
    (an input: a document field, an option or a path CSV) or 3 (a computed
    value, a floating-point failure, a singular solve or running out of
    memory) with one ``error:`` line and no file written."""

    @pytest.mark.parametrize("setup,argv,code,message", CONTRACT_ROWS)
    def test_row(self, tmp_path, setup, argv, code, message):
        setup(tmp_path)
        run_cli([a.format(d=tmp_path) for a in argv], tmp_path, code, message)

    # 80 documents, 428 runs: about 1.6 s under pytest on one x86-64 core, one BLAS thread
    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(doc=extreme_documents())
    def test_extreme_documents(self, doc):
        with tempfile.TemporaryDirectory() as d:
            model, path = write_json(Path(d) / "model.json", doc), P.format(d=d)
            for argv in (["simulate", model, "-o", f"{d}/y.csv"],
                         ["simulate", model, "-o", path, "--columns", "full"],
                         ["analyze", model, "--moments"], ["canonicalize", model], ["ecf", model]):
                run_cli(argv, d)
            if os.path.exists(path):
                run_cli(["filter", model, path, "-o", f"{d}/flt"], d)
                run_cli(["ecf", model, "--path", path], d)


class TestSimulateCommand:
    def test_writes_csv_and_sidecar(self, tmp_path):
        cfg = write_json(tmp_path / "model.json", scalar_doc())
        out = tmp_path / "path.csv"
        assert main(["simulate", cfg, "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,y_1,y_2"
        assert len(lines) == 401
        sidecar = json.loads((tmp_path / "path.json").read_text())
        assert sidecar["seed"] == 11 and sidecar["c"] == 1
        assert np.isclose(sidecar["sigma_tilde"][0][0], 1.0)

    def test_full_columns(self, tmp_path):
        cfg = write_json(tmp_path / "model.json", scalar_doc(n_steps=5))
        out = tmp_path / "path.csv"
        assert main(["simulate", cfg, "-o", str(out), "--columns", "full"]) == 0
        header = out.read_text().splitlines()[0]
        assert header == "t,y_1,y_2,x1_1,x2_1,r1_1"

    def test_one_sampler_run_per_command(self, tmp_path, monkeypatch):
        cfg = write_json(tmp_path / "model.json", partial_doc())
        calls = []
        exact_paths = simulate._exact_paths
        monkeypatch.setattr(simulate, "_exact_paths",
                            lambda *a: calls.append(1) or exact_paths(*a))
        for columns in ("y", "full"):
            calls.clear()
            assert main(["simulate", cfg, "-o", str(tmp_path / "p.csv"),
                         "--columns", columns]) == 0
            assert len(calls) == 1, columns

    @pytest.mark.parametrize("levy", [None, mixed_levy()])
    def test_full_columns_are_the_states_of_the_run(self, tmp_path, levy):
        # the bytes of the states that the library's full path keeps
        doc = partial_doc()
        doc["sampling"]["n_steps"] = 500
        doc["levy"] = levy or doc["levy"]
        cfg = write_json(tmp_path / "model.json", doc)
        out, ref = tmp_path / "path.csv", tmp_path / "ref.csv"
        assert main(["simulate", cfg, "-o", str(out), "--columns", "full"]) == 0
        cf = parse_document(doc)
        ps = simulate_exact_full(discretize(cf, 0.5), cf, 500, seed=40)
        _write_csv(str(ref), out.read_text().splitlines()[0].split(","),
                   np.hstack([ps.times[:, None], ps.y, ps.x1, ps.x2, ps.r1]))
        assert out.read_bytes() == ref.read_bytes()

    def test_deterministic_reruns(self, tmp_path):
        cfg = write_json(tmp_path / "model.json", scalar_doc())
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", cfg, "-o", str(out1)])
        main(["simulate", cfg, "-o", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_round_trip_precision(self, tmp_path):
        # the .17g rendering must reproduce the in-process float64 values bit-exactly
        from cointssm import discretize, simulate_exact_gaussian
        from cointssm.modeldoc import parse_document
        doc = scalar_doc(n_steps=50)
        cfg = write_json(tmp_path / "model.json", doc)
        out = tmp_path / "path.csv"
        main(["simulate", cfg, "-o", str(out)])
        with open(out) as fh:
            fh.readline()
            data = np.loadtxt(fh, delimiter=",")
        cf = parse_document(doc)
        ps = simulate_exact_gaussian(discretize(cf, 1.0), cf, 50, seed=11)
        assert np.array_equal(data[:, 0], ps.times)
        assert np.array_equal(data[:, 1:], ps.y)

    def test_mcarma_document_pipeline(self, tmp_path):
        cfg = write_json(tmp_path / "model.json", mcar1_doc())
        out = tmp_path / "path.csv"
        assert main(["simulate", cfg, "-o", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 201

    def test_jump_driver_pipeline(self, tmp_path):
        # the CLI path is the library's exact path at the document's seed, and
        # the retired Euler keys are accepted and ignored
        doc = scalar_doc(n_steps=300)
        doc["levy"] = mixed_levy()
        plain = write_json(tmp_path / "plain.json", doc)
        doc["sampling"].update(refinement=8, burn_in=5)
        euler = write_json(tmp_path / "euler.json", doc)
        assert main(["simulate", plain, "-o", str(tmp_path / "a.csv"), "--columns", "full"]) == 0
        assert main(["simulate", euler, "-o", str(tmp_path / "b.csv"), "--columns", "full"]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        with open(tmp_path / "a.csv") as fh:
            fh.readline()
            data = np.loadtxt(fh, delimiter=",")
        cf = parse_document(doc)
        ps = simulate_exact_full(discretize(cf, 1.0), cf, 300, seed=11)
        assert np.array_equal(data[:, 1:], np.hstack([ps.y, ps.x1, ps.x2, ps.r1]))

    @pytest.mark.parametrize("h", [1.0, 10.0])
    @pytest.mark.parametrize("levy", [
        {"kind": "compound_poisson_gaussian_jumps", "sigma_L": [[1.0, 0.0], [0.0, 1.0]],
         "jump_rate": 3.0, "jump_cov": [[0.333333334, 0.0], [0.0, 0.333333334]]},
        {"kind": "compound_poisson_gaussian_jumps", "sigma_L": [[100.0, 0.0], [0.0, 100.0]],
         "jump_rate": 1.0, "jump_cov": [[100.0000005, 0.0], [0.0, 100.0000005]]},
        {"kind": "brownian_plus_compound_poisson", "sigma_L": [[100.0, 0.0], [0.0, 100.0]],
         "jump_rate": 1.0, "jump_cov": [[100.0000005, 0.0], [0.0, 100.0000005]]},
    ], ids=["pure_9_digits", "pure_sigma_100", "mixed_sigma_100"])
    def test_driver_accepted_by_levy_spec_simulates(self, tmp_path, capsys, levy, h):
        # the sampler factored the Van Loan integral of the unclipped
        # remainder sigma_L - jump_rate * jump_cov and exited 3 ("Brownian
        # noise covariance is not positive semidefinite")
        doc = scalar_doc(h=h)
        doc["levy"] = levy
        cfg = write_json(tmp_path / "model.json", doc)
        assert main(["simulate", cfg, "-o", str(tmp_path / "x.csv")]) == 0
        assert capsys.readouterr().err == ""
        assert len((tmp_path / "x.csv").read_text().splitlines()) == 401

    def test_sidecar_gamma0_is_the_canonical_forms(self, tmp_path):
        doc = partial_doc()
        cfg = write_json(tmp_path / "model.json", doc)
        assert main(["simulate", cfg, "-o", str(tmp_path / "x.csv")]) == 0
        sidecar = json.loads((tmp_path / "x.json").read_text())
        assert np.array_equal(sidecar["gamma0"], parse_document(doc).gamma0)


class TestCsvWriter:
    def test_bytes_match_shortest_17_digit_format(self, tmp_path):
        rows = np.array([[-0.0, 5e-324, 1e16, 1.8e308, -1.8e308],
                         [0.1, -1.0 / 3.0, 2.0**-1074 * 3, 123456789.0, 1.0]])
        path = tmp_path / "out.csv"
        _write_csv(str(path), ["a", "b", "c", "d", "e"], rows)
        want = "a,b,c,d,e\n" + "".join(
            ",".join(format(float(v), ".17g") for v in row) + "\n" for row in rows
        )
        assert path.read_bytes() == want.encode()


class TestJsonOutput:
    @pytest.mark.parametrize("command", ["simulate", "filter", "ecf", "analyze"])
    def test_non_finite_json_exits_3_before_any_output(self, tmp_path, monkeypatch, command):
        doc = partial_doc()
        doc["sampling"]["n_steps"] = 300
        cfg = write_json(tmp_path / "model.json", doc)
        csv, out = tmp_path / "path.csv", str(tmp_path / "out.csv")
        assert main(["simulate", cfg, "-o", str(csv)]) == 0
        # every command's JSON holds a matrix; a NaN in it used to be written
        monkeypatch.setattr(cli, "mat_to_list", lambda M: [[float("nan")]])
        argv = {"simulate": ["simulate", cfg, "-o", out],
                "filter": ["filter", cfg, str(csv), "-o", str(tmp_path / "out")],
                "ecf": ["ecf", cfg, "--path", str(csv), "--residuals-out", out],
                "analyze": ["analyze", cfg, "--moments", "--output", out]}[command]
        run_cli(argv, tmp_path, 3, "non-finite")
        with pytest.raises(NumericError):
            dump_json({"x": float("inf")})


class TestAnalyzeCommand:
    def test_cointegrated_mcarma_report(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "model.json", mcar1_doc())
        assert main(["analyze", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        report = out["cointegration"]
        assert report["is_cointegrated"] is True
        assert report["r"] == 1
        assert out["c"] == 1

    def test_stationary_mcarma_report(self, tmp_path, capsys):
        doc = mcar1_doc()
        doc["p_coeffs"] = [[[1.0, 0.0], [0.0, 2.0]]]
        cfg = write_json(tmp_path / "model.json", doc)
        assert main(["analyze", cfg]) == 0
        report = json.loads(capsys.readouterr().out)["cointegration"]
        assert report["is_cointegrated"] is False
        assert report["r"] == 2

    def test_state_space_reports_canonical_structure(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "model.json", weak_input_doc() | {"B": np.eye(2).tolist()})
        assert main(["analyze", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["c"] == 1
        assert "cointegration_space" in out
        assert np.allclose(np.abs(out["cointegration_space"]), [[0.0], [1.0]], atol=1e-10)

    def test_rank_tol_reaches_canonicalization(self, tmp_path):
        cfg = write_json(tmp_path / "model.json", weak_input_doc())
        assert main(["analyze", cfg]) == 0
        assert main(["analyze", cfg, "--rank-tol", "1e-3"]) == 3

    def test_moments_grid(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "model.json", scalar_doc())
        csv_out = tmp_path / "moments.csv"
        assert main(["analyze", cfg, "--moments", "--t-grid", "1,2",
                     "--s-grid", "0,1", "--output", str(csv_out)]) == 0
        out = json.loads(capsys.readouterr().out)
        lines = csv_out.read_text().splitlines()
        assert lines[0] == "t,s,cov_1_1,cov_1_2,cov_2_1,cov_2_2"
        assert len(lines) == 5
        first = [float(v) for v in lines[1].split(",")]
        assert first[:2] == [1.0, 0.0]
        assert np.isclose(first[2], 1.0)  # Var(Y_1(1)) = t
        assert out["moments_csv"].splitlines()[1] == lines[1]

    @pytest.mark.parametrize("flag,value", [("--t-grid", "1,2"), ("--s-grid", "0"),
                                            ("--output", "mom.csv")])
    def test_moment_flags_need_moments(self, tmp_path, capsys, monkeypatch, flag, value):
        monkeypatch.chdir(tmp_path)
        cfg = write_json(tmp_path / "model.json", scalar_doc())
        with pytest.raises(SystemExit) as exc:
            main(["analyze", cfg, flag, value])
        assert exc.value.code == 2
        assert f"analyze: {flag} needs --moments" in capsys.readouterr().err
        assert not (tmp_path / "mom.csv").exists()

    @pytest.mark.parametrize("flag,value", [("--t-grid", "abc"), ("--t-grid", "nan,1"),
                                            ("--s-grid", "0,inf"), ("--s-grid", "")])
    def test_bad_grid_is_a_usage_error(self, tmp_path, capsys, flag, value):
        cfg = write_json(tmp_path / "model.json", scalar_doc())
        out = tmp_path / "moments.csv"
        with pytest.raises(SystemExit) as exc:
            main(["analyze", cfg, "--moments", flag, value, "--output", str(out)])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()


class TestCanonicalizeCommand:
    def test_canonicalizes_state_space(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "model.json", weak_input_doc() | {"B": np.eye(2).tolist()})
        assert main(["canonicalize", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["c"] == 1
        assert np.allclose(out["transform"], np.eye(2), atol=1e-10)
        assert np.allclose(out["canonical_form"]["A2"], [[-1.0]], atol=1e-12)

    def test_rank_tol_is_used(self, tmp_path):
        doc = weak_input_doc()
        with pytest.raises(MinimalityError):
            canonicalize(parse_document(doc), rel_tol=1e-3)
        cfg = write_json(tmp_path / "model.json", doc)
        assert main(["canonicalize", cfg]) == 0
        assert main(["canonicalize", cfg, "--rank-tol", "1e-3"]) == 3

    def test_deterministic_output(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "model.json", partial_doc())
        main(["canonicalize", cfg])
        first = capsys.readouterr().out
        main(["canonicalize", cfg])
        second = capsys.readouterr().out
        assert first == second


class TestFilterCommand:
    def _simulated(self, tmp_path, doc):
        cfg = write_json(tmp_path / "model.json", doc)
        csv = tmp_path / "path.csv"
        assert main(["simulate", cfg, "-o", str(csv)]) == 0
        return cfg, csv

    def test_end_to_end(self, tmp_path):
        cfg, csv = self._simulated(tmp_path, partial_doc())
        assert main(["filter", cfg, str(csv), "-o", str(tmp_path / "flt")]) == 0
        sol = json.loads((tmp_path / "flt_solution.json").read_text())
        assert sorted(sol) == ["gain", "h", "omega", "residual", "rho_closed_loop", "v"]
        assert sol["rho_closed_loop"] < 1.0
        assert sol["residual"] <= 1e-9
        lines = (tmp_path / "flt_innovations.csv").read_text().splitlines()
        assert lines[0] == "t,eps_1,eps_2"
        assert len(lines) == 3001

    def test_innovations_pass_whiteness(self, tmp_path):
        doc = partial_doc()
        doc["sampling"]["n_steps"] = 21000
        doc["sampling"]["seed"] = 7
        cfg, csv = self._simulated(tmp_path, doc)
        main(["filter", cfg, str(csv), "-o", str(tmp_path / "flt")])
        with open(tmp_path / "flt_innovations.csv") as fh:
            fh.readline()
            eps = np.loadtxt(fh, delimiter=",")[:, 1:]
        from cointssm import whiteness_diagnostic
        assert whiteness_diagnostic(eps[1000:], max_lag=10).passed

    def test_byte_identical_reruns(self, tmp_path):
        cfg, csv = self._simulated(tmp_path, partial_doc())
        main(["filter", cfg, str(csv), "-o", str(tmp_path / "r1")])
        main(["filter", cfg, str(csv), "-o", str(tmp_path / "r2")])
        assert (tmp_path / "r1_innovations.csv").read_bytes() == \
               (tmp_path / "r2_innovations.csv").read_bytes()
        assert (tmp_path / "r1_solution.json").read_bytes() == \
               (tmp_path / "r2_solution.json").read_bytes()


class TestEcfCommand:
    def test_report_fields(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "model.json", partial_doc())
        assert main(["ecf", cfg, "--J", "50"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["r"] == 1
        assert out["structural_check"]["ok"] is True
        assert len(out["L_norms"]) == 51
        assert out["tail_bound"] < 1e-10

    def test_residual_comparison_with_path(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "model.json", partial_doc())
        csv = tmp_path / "path.csv"
        main(["simulate", cfg, "-o", str(csv)])
        res_out = tmp_path / "resid.csv"
        assert main(["ecf", cfg, "--path", str(csv), "--J", "200",
                     "--residuals-out", str(res_out)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["max_residual_gap"] <= 1e-6
        lines = res_out.read_text().splitlines()
        assert lines[0] == "t,eps_1,eps_2"
        assert len(lines) == 3000 - 201 + 1

    def test_residual_gap_is_exact_at_small_step(self, tmp_path, capsys):
        # the 200-lag truncated filter printed 0.45 here, max|eps| being 6.7
        doc = zoo.doc(zoo.slow(), {"h": 0.1, "n_steps": 1500, "seed": 62})
        cfg = write_json(tmp_path / "model.json", doc)
        csv = tmp_path / "path.csv"
        assert main(["simulate", cfg, "-o", str(csv)]) == 0
        assert main(["filter", cfg, str(csv), "-o", str(tmp_path / "flt")]) == 0
        eps = np.loadtxt(tmp_path / "flt_innovations.csv", delimiter=",", skiprows=1)[:, 1:]
        assert main(["ecf", cfg, "--path", str(csv)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["max_residual_gap"] <= 1e-10 * np.max(np.abs(eps))
        assert out["whiteness"] is not None

    def test_short_path_reports_no_whiteness(self, tmp_path, capsys):
        # 399 residual rows are too few for the 10-lag whiteness report,
        # which used to end the command with exit 2
        doc = partial_doc()
        doc["sampling"]["n_steps"] = 600
        cfg = write_json(tmp_path / "model.json", doc)
        csv, res_out = tmp_path / "path.csv", tmp_path / "resid.csv"
        main(["simulate", cfg, "-o", str(csv)])
        assert main(["ecf", cfg, "--path", str(csv), "--residuals-out", str(res_out)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["whiteness"] is None
        assert out["max_residual_gap"] <= 1e-10
        assert len(res_out.read_text().splitlines()) == 600 - 201 + 1

    def test_degenerate_whiteness_is_strict_json(self, tmp_path, capsys):
        # a constant path's residuals settle on a constant, whose
        # autocorrelations are undefined; the report printed "max_abs": NaN
        cfg = write_json(tmp_path / "model.json", partial_doc())
        csv = tmp_path / "path.csv"
        _write_csv(str(csv), ["t", "y_1", "y_2"],
                   np.column_stack([0.5 * np.arange(1, 3001), np.ones((3000, 2))]))
        assert main(["ecf", cfg, "--path", str(csv)]) == 0
        white = strict_json(capsys.readouterr().out)["whiteness"]
        assert white["degenerate"] is True and white["max_abs"] is None

    def test_residuals_out_needs_path(self, tmp_path, capsys):
        # the option used to be ignored without --path (exit 0, no file)
        cfg = write_json(tmp_path / "model.json", partial_doc())
        res_out = tmp_path / "resid.csv"
        with pytest.raises(SystemExit) as exc:
            main(["ecf", cfg, "--residuals-out", str(res_out)])
        assert exc.value.code == 2
        assert "ecf: --residuals-out needs --path" in capsys.readouterr().err
        assert not res_out.exists()

    def test_tail_bound_ratio_tracks_spectral_radius(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "model.json", partial_doc())
        main(["ecf", cfg, "--J", "10"])
        t10 = json.loads(capsys.readouterr().out)["tail_bound"]
        main(["ecf", cfg, "--J", "200"])
        out = json.loads(capsys.readouterr().out)
        rho = (out["tail_bound"] / t10) ** (1.0 / 190.0)
        assert 0.0 < rho < 1.0


class TestPathCsvValidation:
    def test_times_do_not_keep_the_table(self, tmp_path):
        cfg = write_json(tmp_path / "model.json", partial_doc())
        csv = tmp_path / "path.csv"
        assert main(["simulate", cfg, "-o", str(csv), "--columns", "full"]) == 0
        times, y, h = _read_path_csv(str(csv), 2)
        assert times.base is None and y.shape == (3000, 2) and h == 0.5

    @pytest.mark.parametrize("comments", ["", "# written by hand\n\n#\n"],
                             ids=["plain", "commented"])
    @pytest.mark.parametrize("sampling,ecf_code", [
        ({"h": 0.5, "n_steps": 300, "seed": -1}, 0),
        ({"h": 0.5, "n_steps": "many", "seed": 40}, 0),
        ({"h": 0.5, "n_steps": 300}, 0),  # the seed would come from COINTSSM_SEED=abc
        ("h=0.5", 2),
        ({"h": float("nan"), "n_steps": 300, "seed": 40}, 2),
        ({"h": "half", "n_steps": 300, "seed": 40}, 2),
    ], ids=["negative_seed", "text_n_steps", "env_seed", "not_an_object", "nan_h", "text_h"])
    def test_each_input_is_read_by_the_commands_that_use_it(
            self, tmp_path, capsys, monkeypatch, comments, sampling, ecf_code):
        # filter and ecf --path take h from the path CSV and read no sampling
        # field, ecf reads sampling.h alone, and only simulate reads the rest
        # and COINTSSM_SEED; comment and blank lines in the body change nothing
        monkeypatch.setenv("COINTSSM_SEED", "abc")
        doc = partial_doc()
        doc["sampling"]["n_steps"] = 300
        good = write_json(tmp_path / "good.json", doc)
        bad = write_json(tmp_path / "bad.json", dict(doc, sampling=sampling))
        plain, csv = tmp_path / "plain.csv", tmp_path / "path.csv"
        assert main(["simulate", good, "-o", str(plain)]) == 0
        header, body = plain.read_text().split("\n", 1)
        csv.write_text(header + "\n" + comments + body)

        def run(model, path, tag):
            capsys.readouterr()
            codes = [main(["filter", model, str(path), "-o", str(tmp_path / tag)]),
                     main(["ecf", model, "--path", str(path),
                           "--residuals-out", str(tmp_path / f"{tag}_resid.csv")])]
            assert codes == [0, 0], tag
            return [capsys.readouterr().out] + [
                (tmp_path / f"{tag}{suffix}").read_bytes()
                for suffix in ("_innovations.csv", "_solution.json", "_resid.csv")]

        assert run(bad, csv, "bad") == run(good, plain, "good")
        assert main(["ecf", bad]) == ecf_code
        report = capsys.readouterr().out
        if ecf_code == 0:
            assert main(["ecf", good]) == 0
            assert report == capsys.readouterr().out
        run_cli(["simulate", bad, "-o", str(tmp_path / "again.csv")], tmp_path, 2)


#: eps of the `zoo.band` families, where the companion's smallest singular
#: value crosses the default rank tolerance
BAND = (1e-10, 2e-9, 5e-9, 1.5e-8, 5e-8, 1.5e-7, 1e-6)
RANK_TOLS = ("1e-12", "1e-9", "1e-6", "1e-3")


def band_doc(family, eps, kind):
    """A `zoo.band` model as an MCARMA document or a conjugated state-space one."""
    return zoo.doc(zoo.band(family, eps) if kind == "mcarma" else zoo.band_conjugated(family, eps))


#: name: (document, the --rank-tol values it runs at, "default" for none)
UNIT_ROOT_DOCS = {
    **{f"{family}_{kind}_{eps:g}": (functools.partial(band_doc, family, eps, kind),
                                    ("default", "1e-6"))
       for family in ("mcarma21", "mcar1") for eps in BAND for kind in ("mcarma", "state_space")},
    **{f"mcar1_{eps:.0e}": (functools.partial(mcar1_doc, eps), RANK_TOLS)
       for eps in (1e-8, 5e-8, 1e-7)},
    "weak_input": (weak_input_doc, RANK_TOLS),
    "weak_b1": (weak_b1_doc, RANK_TOLS),
}


class TestOneUnitRootCount:
    """`analyze`, `canonicalize` and `ecf` each decide c at ``--rank-tol``:
    any of them may refuse a model (exit 2 or 3, one ``error:`` line), but
    no two that accept it report different c. The zero roots and their
    number c = N - rank(A) are one decision (`matops.unit_roots`) that
    condition (b)'s r, condition (a)'s zero roots and `canonicalize` read."""

    # each was refused by every command: the zero tolerance stayed at
    # 1e-8 (1 + ||A||) whatever --rank-tol, and the canonical form decided
    # B1's rank again at the fixed 1e-9 (exit 2). ecf refuses weak_b1 at
    # 1e-12 rightly: B1's weak direction leaves V singular.
    MUST_ACCEPT = {
        ("mcar1_5e-08", "1e-6"): {"analyze": 1, "canonicalize": 1, "ecf": 1},
        ("mcar1_1e-07", "1e-6"): {"analyze": 1, "canonicalize": 1, "ecf": 1},
        ("weak_b1", "1e-12"): {"analyze": 2, "canonicalize": 2},
    }

    @pytest.mark.parametrize("name,rank_tol", [
        pytest.param(name, tol, id=f"{name}-{tol}")
        for name, (_, tols) in UNIT_ROOT_DOCS.items() for tol in tols])
    def test_commands_that_accept_agree_on_c(self, tmp_path, name, rank_tol):
        doc = UNIT_ROOT_DOCS[name][0]()
        d = len(doc["C"] if "C" in doc else doc["p_coeffs"][0])
        cfg = write_json(tmp_path / "model.json", doc)
        tol = [] if rank_tol == "default" else ["--rank-tol", rank_tol]
        out = {}
        for command in ("analyze", "canonicalize", "ecf"):
            code, text = run_cli([command, cfg, *tol], tmp_path)
            if code == 0:
                out[command] = strict_json(text)
        # (command, c) for each count reported; analyze reports an MCARMA
        # model's r = d - c, and c when it has a canonical form
        report = out.get("analyze", {}).get("cointegration", {})
        implied = [(command, out[command]["c"]) for command in ("analyze", "canonicalize")
                   if "c" in out.get(command, {})]
        if report:
            implied.append(("analyze", d - report["r"]))
        if "ecf" in out:
            implied.append(("ecf", d - out["ecf"]["r"]))
        assert len({c for _, c in implied}) <= 1, implied
        if (name, rank_tol) in self.MUST_ACCEPT:
            assert dict(implied) == self.MUST_ACCEPT[name, rank_tol]
        if doc["model_kind"] == "mcarma":
            assert report.get("is_cointegrated", False) == ("ecf" in out), (report, out)
            # the companion realization has no Jordan block at zero, so
            # canonicalize accepts exactly the models whose roots pass (a)
            assert report.get("condition_a", False) == ("canonicalize" in out), (report, out)


class TestCanonicalDocumentClosure:
    """Every command reads the canonical document that `canonicalize
    --rank-tol t` writes (with the source's sampling block) at t:
    `canonicalize` passes it through unchanged, `simulate` and `analyze`
    accept it, and `filter` and `ecf --path` refuse it only for a computed
    value (exit 3) and otherwise give the same innovations."""

    DOCS = {"scalar": scalar_doc, "partial": partial_doc, "weak_input": weak_input_doc,
            "weak_b1": weak_b1_doc, "mcar1": mcar1_doc,
            "mcar1_5e-08": lambda: mcar1_doc(5e-8)}
    # canonicalize refuses these sources (exit 3, not minimal at t)
    NOT_MINIMAL = {("weak_input", "1e-3"), ("weak_b1", "1e-9"), ("weak_b1", "1e-6"),
                   ("weak_b1", "1e-3")}
    # at t < 5e-8 MCAR(1) has c = 0, and ecf needs it cointegrated
    REFUSED = {("mcar1_5e-08", "1e-12"): {"ecf": 3}, ("mcar1_5e-08", "1e-9"): {"ecf": 3}}
    # B1's 1e-10 direction leaves V's smallest eigenvalue 1e-20 of its
    # largest, below rounding, so its sign is the GEMM kernel's: the two
    # commands that filter the path decide it alike (exit 3 on OpenBLAS's
    # Haswell kernel)
    UNDECIDED = ("weak_b1", "1e-12")

    @pytest.mark.parametrize("rank_tol", ["1e-12", "1e-9", "1e-6", "1e-3"])
    @pytest.mark.parametrize("name", list(DOCS))
    def test_written_document_is_read_at_its_tolerance(self, tmp_path, name, rank_tol):
        doc, tol = self.DOCS[name](), ["--rank-tol", rank_tol]
        source = write_json(tmp_path / "source.json", doc)
        code, out = run_cli(["canonicalize", source] + tol, tmp_path)
        if (name, rank_tol) in self.NOT_MINIMAL:
            assert code == 3
            return
        written = strict_json(out)["canonical_form"]
        sampling = dict(doc.get("sampling") or {}, n_steps=300)
        model = write_json(tmp_path / "model.json", written | {"sampling": sampling})
        path, flt, resid = (str(tmp_path / name) for name in ("path.csv", "flt", "r.csv"))
        assert strict_json(run_cli(["canonicalize", model] + tol, tmp_path, 0)[1])[
            "canonical_form"] == written
        run_cli(["analyze", model] + tol, tmp_path, 0)
        run_cli(["simulate", model, "-o", path] + tol, tmp_path, 0)
        codes = {"filter": run_cli(["filter", model, path, "-o", flt] + tol, tmp_path)[0],
                 "ecf": run_cli(["ecf", model, "--path", path, "--residuals-out", resid] + tol,
                                tmp_path)[0]}
        if (name, rank_tol) == self.UNDECIDED:
            assert codes["filter"] == codes["ecf"] in (0, 3), codes
        else:
            assert codes == {"filter": 0, "ecf": 0} | self.REFUSED.get((name, rank_tol), {})
        if codes == {"filter": 0, "ecf": 0}:
            eps = np.loadtxt(flt + "_innovations.csv", delimiter=",", skiprows=1)
            res = np.loadtxt(resid, delimiter=",", skiprows=1)
            assert np.max(np.abs(eps[-len(res):] - res)) <= 1e-10 * np.max(np.abs(eps))


class TestParser:
    @pytest.mark.parametrize("argv", [
        ["analyze", "m.json"],
        ["canonicalize", "m.json"],
        ["filter", "m.json", "p.csv", "-o", "x"],
        ["ecf", "m.json"],
    ])
    def test_no_riccati_tol(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv + ["--riccati-tol", "1e-12"])

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "1", "abc"])
    @pytest.mark.parametrize("command,doc", [("analyze", weak_input_doc),
                                             ("canonicalize", weak_input_doc),
                                             ("canonicalize", partial_doc),
                                             ("ecf", weak_input_doc),
                                             ("simulate", weak_input_doc),
                                             ("filter", partial_doc)])
    def test_rank_tol_is_a_finite_number_in_unit_interval(self, tmp_path, capsys,
                                                          command, doc, value):
        # NaN and infinities used to exit 3 ("not minimal") on a state-space
        # document and 0 on a canonical one
        cfg = write_json(tmp_path / "model.json", doc())
        rest = {"simulate": ["-o", "x.csv"], "filter": ["p.csv", "-o", "flt"]}.get(command, [])
        with pytest.raises(SystemExit) as exc:
            main([command, cfg, *rest, f"--rank-tol={value}"])
        assert exc.value.code == 2
        assert "--rank-tol" in capsys.readouterr().err

    def test_rank_tol_reaches_every_rank_decision(self, tmp_path, capsys, monkeypatch):
        cfg = write_json(tmp_path / "model.json", mcar1_doc())
        rank = matops.numerical_rank
        seen = []

        def recording(M, rel_tol=matops.RANK_REL_TOL):
            seen.append((sys._getframe(1).f_code.co_name, rel_tol))
            return rank(M, rel_tol)

        monkeypatch.setattr(matops, "numerical_rank", recording)
        path = str(tmp_path / "path.csv")
        for argv in (["analyze"], ["canonicalize"], ["ecf"], ["simulate", "-o", path],
                     ["filter", path, "-o", str(tmp_path / "flt")]):
            seen.clear()
            assert main([argv[0], cfg, *argv[1:], "--rank-tol", "1e-6"]) == 0
            assert seen and all(tol == 1e-6 for _, tol in seen), (argv, seen)
            assert "unit_roots" in {caller for caller, _ in seen}, argv

    @pytest.mark.parametrize("argv", [["filter", "model.json", "path.csv", "-o", "flt"],
                                      ["ecf", "model.json", "--path", "path.csv"],
                                      ["ecf", "model.json"]])
    def test_no_step_override(self, tmp_path, capsys, monkeypatch, argv):
        # h comes from the path's grid or the document; --h skipped the
        # time-column check and could contradict the grid
        monkeypatch.chdir(tmp_path)
        doc = partial_doc()
        doc["sampling"]["n_steps"] = 50
        write_json(tmp_path / "model.json", doc)
        assert main(["simulate", "model.json", "-o", "path.csv"]) == 0
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--h", "1"])
        assert exc.value.code == 2
        assert "--h" in capsys.readouterr().err


class TestSeedEnvironment:
    def test_env_seed_used_when_config_omits_it(self, tmp_path, monkeypatch):
        doc = scalar_doc()
        del doc["sampling"]["seed"]
        cfg = write_json(tmp_path / "model.json", doc)
        monkeypatch.setenv("COINTSSM_SEED", "123")
        main(["simulate", cfg, "-o", str(tmp_path / "a.csv")])
        sidecar = json.loads((tmp_path / "a.json").read_text())
        assert sidecar["seed"] == 123

    def test_config_seed_needs_no_env_seed(self, tmp_path, monkeypatch):
        cfg = write_json(tmp_path / "model.json", scalar_doc())
        monkeypatch.setenv("COINTSSM_SEED", "abc")
        assert main(["simulate", cfg, "-o", str(tmp_path / "a.csv")]) == 0
        assert json.loads((tmp_path / "a.json").read_text())["seed"] == 11

    @pytest.mark.parametrize("raw", ["-1", "abc"])
    def test_bad_env_seed_exits_2(self, tmp_path, monkeypatch, raw):
        doc = scalar_doc()
        del doc["sampling"]["seed"]
        cfg = write_json(tmp_path / "model.json", doc)
        monkeypatch.setenv("COINTSSM_SEED", raw)
        run_cli(["simulate", cfg, "-o", str(tmp_path / "a.csv")], tmp_path, 2, "COINTSSM_SEED")


