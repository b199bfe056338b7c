import json
import sys

import numpy as np
import pytest

import helpers
from cointssm import canonicalize, cli, discretize, matops, simulate, simulate_exact_full
from cointssm.cli import _read_path_csv, _write_csv, build_parser, main
from cointssm.errors import MinimalityError, NumericError
from cointssm.modeldoc import canonical_to_doc, dump_json, parse_document


def write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


def strict_json(text):
    """Parse JSON that must hold no NaN or infinity."""
    def refuse(name):
        raise ValueError(f"{name} is not strict JSON")
    return json.loads(text, parse_constant=refuse)


def scalar_doc(**sampling):
    return {
        "schema_version": "1",
        "model_kind": "canonical",
        "c": 1,
        "A2": [[-1.0]],
        "B1": [[1.0, 0.0]],
        "B2": [[0.0, 1.0]],
        "C1": [[1.0], [0.0]],
        "C2": [[0.0], [1.0]],
        "levy": {"kind": "brownian", "sigma_L": [[1.0, 0.0], [0.0, 1.0]]},
        "sampling": {"h": 1.0, "n_steps": 400, "seed": 11, **sampling},
    }


def mixed_levy() -> dict:
    """A Brownian-plus-jump driver with a unit Brownian component."""
    return {"kind": "brownian_plus_compound_poisson", "sigma_L": [[2.0, 0.0], [0.0, 2.0]],
            "jump_rate": 2.0, "jump_cov": [[0.5, 0.0], [0.0, 0.5]]}


def partial_doc():
    return {
        "schema_version": "1",
        "model_kind": "canonical",
        "c": 1,
        "A2": [[-1.0, 0.4], [0.0, -2.0]],
        "B1": [[1.0, 0.2]],
        "B2": [[0.3, 1.0], [-0.4, 0.5]],
        "C1": [[1.0], [0.0]],
        "C2": [[0.5, -0.2], [1.0, 0.4]],
        "levy": {"kind": "brownian", "sigma_L": [[1.0, 0.2], [0.2, 1.5]]},
        "sampling": {"h": 0.5, "n_steps": 3000, "seed": 40},
    }


def weak_input_doc():
    """Minimal at the default rank tolerance, not minimal at 1e-3: the
    stationary state is driven with weight 1e-5."""
    return {
        "schema_version": "1",
        "model_kind": "state_space",
        "A": [[0.0, 0.0], [0.0, -1.0]],
        "B": [[1.0, 0.0], [0.0, 1e-5]],
        "C": [[1.0, 0.0], [0.0, 1.0]],
        "levy": {"kind": "brownian", "sigma_L": [[1.0, 0.0], [0.0, 1.0]]},
    }


def weak_b1_doc():
    """A = diag(0, 0, -1) with a unit-root input of weight 1e-10 in its
    second direction: minimal, with c = 2, only at rank tolerances below
    about 3.6e-11."""
    return {
        "schema_version": "1",
        "model_kind": "state_space",
        "A": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -1.0]],
        "B": [[1.0, 0.0], [0.0, 1e-10], [1.0, 1.0]],
        "C": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        "levy": {"kind": "brownian", "sigma_L": [[1.0, 0.0], [0.0, 1.0]]},
    }


def mcar1_doc():
    return {
        "schema_version": "1",
        "model_kind": "mcarma",
        "p_coeffs": [[[1.0, 0.0], [0.0, 0.0]]],
        "q_coeffs": [[[1.0, 0.0], [0.0, 1.0]]],
        "levy": {"kind": "brownian", "sigma_L": [[1.0, 0.0], [0.0, 1.0]]},
        "sampling": {"h": 1.0, "n_steps": 200, "seed": 3},
    }


def mcar1_band_doc(eps):
    """MCAR(1) with P_1 = diag(1, eps): c = 1 at rank tolerances above eps."""
    return mcar1_doc() | {"p_coeffs": [[[1.0, 0.0], [0.0, eps]]]}


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

    def test_singular_sigma_exits_2(self, tmp_path, capsys):
        doc = scalar_doc()
        doc["levy"]["sigma_L"] = [[1.0, 0.0], [0.0, 0.0]]
        cfg = write_json(tmp_path / "model.json", doc)
        assert main(["simulate", cfg, "-o", str(tmp_path / "x.csv")]) == 2
        assert "positive definite" in capsys.readouterr().err

    @pytest.mark.parametrize("model_kind", ["canonical", "state_space", "mcarma"])
    def test_invalid_driver_document_exits_2(self, tmp_path, capsys, model_kind):
        doc = {"canonical": scalar_doc(), "state_space": weak_input_doc(),
               "mcarma": mcar1_doc()}[model_kind]
        doc["levy"] = dict(mixed_levy(), jump_rate=8.0)
        cfg = write_json(tmp_path / "model.json", doc)
        assert main(["canonicalize", cfg]) == 2
        err = capsys.readouterr().err
        assert "invalid Levy driver" in err and "no Brownian component fits" in err

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

    def test_missing_field_exits_2(self, tmp_path):
        doc = scalar_doc()
        del doc["A2"]
        cfg = write_json(tmp_path / "model.json", doc)
        assert main(["simulate", cfg, "-o", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("field,value", [("n_steps", "abc"), ("x1_0", 3),
                                             ("h", None), ("seed", -1)])
    def test_malformed_sampling_value_exits_2(self, tmp_path, capsys, field, value):
        cfg = write_json(tmp_path / "model.json", scalar_doc(**{field: value}))
        assert main(["simulate", cfg, "-o", str(tmp_path / "x.csv")]) == 2
        assert "sampling block" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("sampling,code,message", [
        ({"h": 1e300}, 2, "jump_rate * h = 2e+300"),
        ({"h": 1e16}, 2, "jumps a run can hold"),
        ({"n_steps": 10**15}, 3, "out of memory"),
        ({"n_steps": 10**19}, 2, "more than the largest array holds"),
        ({"n_steps": 10**400}, 2, "more than the largest array holds"),
    ], ids=["poisson_mean", "ages_array", "memory", "array_size", "float_overflow"])
    def test_huge_sampling_value_exits_without_traceback(self, tmp_path, capsys, sampling,
                                                         code, message):
        # each ended in a traceback (exit 1): rng.poisson's "lam value too
        # large", numpy's "array is too big" for the 8e18 jump ages,
        # _ArrayMemoryError and "Maximum allowed dimension exceeded"
        doc = scalar_doc(**sampling)
        doc["levy"] = mixed_levy()
        cfg = write_json(tmp_path / "model.json", doc)
        assert main(["simulate", cfg, "-o", str(tmp_path / "x.csv")]) == code
        err = capsys.readouterr().err
        assert message in err and len(err.splitlines()) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]

    def test_huge_step_runs_with_runtime_warnings_as_errors(self, tmp_path, capsys):
        # the symmetry check of sigma_tilde (entries near 1e300) overflowed
        # its norms: a RuntimeWarning, which the test settings make an error
        cfg = write_json(tmp_path / "model.json", partial_doc() | {
            "sampling": {"h": 1e300, "n_steps": 3000, "seed": 40}})
        assert main(["simulate", cfg, "-o", str(tmp_path / "x.csv")]) == 0
        assert capsys.readouterr().err == ""

    def test_subnormal_step_runs(self, tmp_path, capsys):
        # sigma_tilde's entries near 1e-310 made the symmetry check's scale
        # 2^-e overflow (a traceback, exit 1)
        cfg = write_json(tmp_path / "model.json", partial_doc() | {
            "sampling": {"h": 1e-310, "n_steps": 300, "seed": 40}})
        assert main(["simulate", cfg, "-o", str(tmp_path / "x.csv")]) == 0
        assert capsys.readouterr().err == ""

    def test_sidecar_gamma0_is_the_canonical_forms(self, tmp_path):
        doc = partial_doc()
        cfg = write_json(tmp_path / "model.json", doc)
        assert main(["simulate", cfg, "-o", str(tmp_path / "x.csv")]) == 0
        sidecar = json.loads((tmp_path / "x.json").read_text())
        assert np.array_equal(sidecar["gamma0"], parse_document(doc).gamma0)

    @pytest.mark.parametrize("h", [float("nan"), float("inf")])
    def test_non_finite_step_exits_2(self, tmp_path, capsys, h):
        # json.dumps writes NaN / Infinity, which Python's JSON reader accepts
        cfg = write_json(tmp_path / "model.json", scalar_doc(h=h))
        assert main(["simulate", cfg, "-o", str(tmp_path / "x.csv")]) == 2
        assert "sampling.h" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("block,field,value", [
        ("levy", "jump_rate", "abc"), (None, "c", "x"), (None, "c", 1.7),
        ("sampling", "h", "0.5"), ("sampling", "h", True), ("sampling", "x1_0", "7"),
        ("sampling", "x1_0", [True]), (None, "A2", [["-1"]]), (None, "B1", [[True, False]]),
        ("levy", "sigma_L", [["2", "0"], ["0", "2"]]), (None, "sampling", []),
        (None, "sampling", 0), (None, "sampling", False), (None, "sampling", ""),
        (None, "levy", [1.0]), (None, "A2", [[10**400]]),
        pytest.param("levy", "jump_rate", int("9" * 400), id="levy-jump_rate-400_digits"),
    ])
    def test_malformed_model_value_exits_2(self, tmp_path, capsys, block, field, value):
        # these ended in a ValueError traceback (exit 1), truncated c = 1.7 to
        # 1, or read a string or a bool as a number ("7" as 7, true as 1); a
        # falsy sampling block was read as a missing one
        doc = scalar_doc()
        doc["levy"] = mixed_levy()
        (doc[block] if block else doc)[field] = value
        cfg = write_json(tmp_path / "model.json", doc)
        assert main(["simulate", cfg, "-o", str(tmp_path / "x.csv")]) == 2
        assert f"field {field!r}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]

    def test_output_over_model_document_exits_2(self, tmp_path):
        cfg = write_json(tmp_path / "model.json", scalar_doc())
        before = (tmp_path / "model.json").read_bytes()
        for out in ("model.csv", "model.json"):
            assert main(["simulate", cfg, "-o", str(tmp_path / out)]) == 2
        assert (tmp_path / "model.json").read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]


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
    def test_non_finite_json_exits_3_before_any_output(self, tmp_path, capsys, monkeypatch,
                                                       command):
        doc = partial_doc()
        doc["sampling"]["n_steps"] = 300
        cfg = write_json(tmp_path / "model.json", doc)
        csv, out = tmp_path / "path.csv", str(tmp_path / "out.csv")
        assert main(["simulate", cfg, "-o", str(csv)]) == 0
        before = sorted(tmp_path.iterdir())
        # every command's JSON holds a matrix; a NaN in it used to be written
        monkeypatch.setattr(cli, "mat_to_list", lambda M: [[float("nan")]])
        argv = {"simulate": ["simulate", cfg, "-o", out],
                "filter": ["filter", cfg, str(csv), "-o", str(tmp_path / "out")],
                "ecf": ["ecf", cfg, "--path", str(csv), "--residuals-out", out],
                "analyze": ["analyze", cfg, "--moments", "--output", out]}[command]
        capsys.readouterr()
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "non-finite" in captured.err
        assert sorted(tmp_path.iterdir()) == before
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
        doc = {
            "schema_version": "1",
            "model_kind": "state_space",
            "A": [[0.0, 0.0], [0.0, -1.0]],
            "B": [[1.0, 0.0], [0.0, 1.0]],
            "C": [[1.0, 0.0], [0.0, 1.0]],
            "levy": {"kind": "brownian", "sigma_L": [[1.0, 0.0], [0.0, 1.0]]},
        }
        cfg = write_json(tmp_path / "model.json", doc)
        assert main(["analyze", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["c"] == 1
        assert "cointegration_space" in out
        assert np.allclose(np.abs(out["cointegration_space"]), [[0.0], [1.0]], atol=1e-10)

    @pytest.mark.parametrize("field,value", [("p_coeffs", [[["1", 0.0], [0.0, 0.0]]]),
                                             ("q_coeffs", [[[True, 0.0], [0.0, 1.0]]]),
                                             ("p_coeffs", 1.0)])
    def test_malformed_mcarma_coefficient_exits_2(self, tmp_path, capsys, field, value):
        # a string or a bool entry was read as a number
        cfg = write_json(tmp_path / "model.json", mcar1_doc() | {field: value})
        assert main(["analyze", cfg]) == 2
        captured = capsys.readouterr()
        assert f"field {field!r}" in captured.err and captured.out == ""

    def test_jordan_block_exits_3(self, tmp_path):
        doc = {
            "schema_version": "1",
            "model_kind": "state_space",
            "A": [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -1.0]],
            "B": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
            "C": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
            "levy": {"kind": "brownian",
                     "sigma_L": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
        }
        cfg = write_json(tmp_path / "model.json", doc)
        assert main(["analyze", cfg]) == 3

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

    def test_output_over_model_document_exits_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "model.json", scalar_doc())
        before = (tmp_path / "model.json").read_bytes()
        assert main(["analyze", cfg, "--moments", "--output", cfg]) == 2
        assert capsys.readouterr().out == ""
        assert (tmp_path / "model.json").read_bytes() == before


class TestCanonicalizeCommand:
    def test_canonicalizes_state_space(self, tmp_path, capsys):
        doc = {
            "schema_version": "1",
            "model_kind": "state_space",
            "A": [[0.0, 0.0], [0.0, -1.0]],
            "B": [[1.0, 0.0], [0.0, 1.0]],
            "C": [[1.0, 0.0], [0.0, 1.0]],
            "levy": {"kind": "brownian", "sigma_L": [[1.0, 0.0], [0.0, 1.0]]},
        }
        cfg = write_json(tmp_path / "model.json", doc)
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

    def test_dimension_mismatch_exits_2(self, tmp_path):
        cfg, csv = self._simulated(tmp_path, partial_doc())
        other = write_json(tmp_path / "other.json", {
            **partial_doc(),
            "C1": [[1.0], [0.0], [0.0]],
            "C2": [[0.5, -0.2], [1.0, 0.4], [0.0, 1.0]],
        })
        assert main(["filter", other, str(csv), "-o", str(tmp_path / "f2")]) == 2

    def test_outputs_over_inputs_exit_2(self, tmp_path):
        # the prefix "run" names run_innovations.csv and run_solution.json
        doc = partial_doc()
        doc["sampling"]["n_steps"] = 50
        cfg = write_json(tmp_path / "run_solution.json", doc)
        csv = tmp_path / "run_innovations.csv"
        assert main(["simulate", cfg, "-o", str(csv)]) == 0
        other_cfg = write_json(tmp_path / "model.json", doc)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        for model in (cfg, other_cfg):
            assert main(["filter", model, str(csv), "-o", str(tmp_path / "run")]) == 2
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

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
        doc = canonical_to_doc(helpers.slow_fixture())
        doc["sampling"] = {"h": 0.1, "n_steps": 1500, "seed": 62}
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

    def test_residuals_over_inputs_exit_2(self, tmp_path, capsys):
        doc = partial_doc()
        doc["sampling"]["n_steps"] = 600
        cfg = write_json(tmp_path / "model.json", doc)
        csv = tmp_path / "path.csv"
        main(["simulate", cfg, "-o", str(csv)])
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        capsys.readouterr()
        for out in (cfg, str(csv)):
            assert main(["ecf", cfg, "--path", str(csv), "--residuals-out", out]) == 2
            assert capsys.readouterr().out == ""
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("sampling", [[], 0, False, ""])
    def test_non_object_sampling_exits_2(self, tmp_path, capsys, sampling):
        # a falsy block was read as a missing one: h = 1, exit 0
        cfg = write_json(tmp_path / "model.json", partial_doc() | {"sampling": sampling})
        assert main(["ecf", cfg]) == 2
        captured = capsys.readouterr()
        assert "field 'sampling'" in captured.err and captured.out == ""

    def test_stationary_model_exits_3(self, tmp_path):
        doc = {
            "schema_version": "1",
            "model_kind": "canonical",
            "c": 0,
            "A2": [[-1.0]],
            "B1": [],
            "B2": [[1.0]],
            "C1": [[]],
            "C2": [[1.0]],
            "levy": {"kind": "brownian", "sigma_L": [[1.0]]},
            "sampling": {"h": 1.0},
        }
        cfg = write_json(tmp_path / "model.json", doc)
        assert main(["ecf", cfg]) == 3

    def test_tail_bound_ratio_tracks_spectral_radius(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "model.json", partial_doc())
        main(["ecf", cfg, "--J", "10"])
        t10 = json.loads(capsys.readouterr().out)["tail_bound"]
        main(["ecf", cfg, "--J", "200"])
        out = json.loads(capsys.readouterr().out)
        rho = (out["tail_bound"] / t10) ** (1.0 / 190.0)
        assert 0.0 < rho < 1.0


class TestPathCsvValidation:
    @staticmethod
    def _break_ragged(lines):
        lines[3] = lines[3].rsplit(",", 1)[0]

    @staticmethod
    def _break_x2(lines):
        col = lines[0].split(",").index("x2_1")
        fields = lines[3].split(",")
        fields[col] = "abc"
        lines[3] = ",".join(fields)

    @staticmethod
    def _break_time_header(lines):
        lines[0] = "time" + lines[0][1:]

    @staticmethod
    def _break_time_order(lines):
        lines[3], lines[4] = lines[4], lines[3]

    @staticmethod
    def _break_time_nan(lines):
        lines[3] = "nan" + lines[3][lines[3].index(","):]

    @staticmethod
    def _break_grid(lines):
        t = float(lines[3].split(",", 1)[0])
        lines[3] = repr(t + 0.1) + lines[3][lines[3].index(","):]

    @staticmethod
    def _break_y_count(lines):
        lines[0] = lines[0].replace("y_2", "z_2")

    @staticmethod
    def _break_wide_header(lines):
        lines[0] += ",y_3"

    @staticmethod
    def _break_wide_rows(lines):
        lines[1:] = [line + ",0" for line in lines[1:]]

    @pytest.mark.parametrize("command", ["filter", "ecf"])
    @pytest.mark.parametrize("breaker,message", [
        ("_break_ragged", "number of columns changed"),
        ("_break_x2", "'abc'"),
        ("_break_time_header", "must start with a 't' column"),
        ("_break_time_order", "times must be strictly increasing"),
        ("_break_time_nan", "times must be strictly increasing"),  # used to pass, exit 0
        ("_break_grid", "must be sampled on a uniform grid"),
        ("_break_y_count", "path has 1 observation columns, model has d=2"),
        ("_break_wide_header", "has 7 columns per row, its header names 8"),
        ("_break_wide_rows", "has 8 columns per row, its header names 7"),
    ])
    def test_bad_path_csv_exits_2(self, tmp_path, capsys, command, breaker, message):
        doc = partial_doc()
        doc["sampling"]["n_steps"] = 50
        cfg = write_json(tmp_path / "model.json", doc)
        csv = tmp_path / "path.csv"
        assert main(["simulate", cfg, "-o", str(csv), "--columns", "full"]) == 0
        lines = csv.read_text().splitlines()
        getattr(self, breaker)(lines)
        csv.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        argv = (["filter", cfg, str(csv), "-o", str(tmp_path / "flt")] if command == "filter"
                else ["ecf", cfg, "--path", str(csv)])
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["filter", "ecf"])
    @pytest.mark.parametrize("text,message", [
        ("t,y_1,y_2\n", "needs at least two rows"),
        ("t,y_1,y_2\n# no rows\n\n#\n", "needs at least two rows"),
        ("", "must start with a 't' column"),
    ], ids=["header_only", "comments_only", "zero_bytes"])
    def test_empty_path_csv_exits_2(self, tmp_path, capsys, command, text, message):
        cfg = write_json(tmp_path / "model.json", partial_doc())
        csv = tmp_path / "path.csv"
        csv.write_text(text)
        argv = (["filter", cfg, str(csv), "-o", str(tmp_path / "flt")] if command == "filter"
                else ["ecf", cfg, "--path", str(csv)])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err and "Warning" not in err

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
        assert main(["simulate", bad, "-o", str(tmp_path / "again.csv")]) == 2
        assert not (tmp_path / "again.csv").exists() and not (tmp_path / "again.json").exists()


class TestOneUnitRootCount:
    """`analyze`, `canonicalize` and `ecf` each decide c at ``--rank-tol``:
    any of them may refuse a model (exit 2 or 3, one ``error:`` line), but
    no two that accept it report different c."""

    DOCS = {
        "mcar1_1e-08": lambda: mcar1_band_doc(1e-8),
        "mcar1_5e-08": lambda: mcar1_band_doc(5e-8),
        "mcar1_1e-07": lambda: mcar1_band_doc(1e-7),
        "weak_input": weak_input_doc,
        "weak_b1": weak_b1_doc,
    }
    # each was refused by every command: the zero tolerance stayed at
    # 1e-8 (1 + ||A||) whatever --rank-tol, and the canonical form decided
    # B1's rank again at the fixed 1e-9 (exit 2). ecf refuses weak_b1 at
    # 1e-12 rightly: B1's weak direction leaves V singular.
    MUST_ACCEPT = {
        ("mcar1_5e-08", "1e-6"): {"analyze": 1, "canonicalize": 1, "ecf": 1},
        ("mcar1_1e-07", "1e-6"): {"analyze": 1, "canonicalize": 1, "ecf": 1},
        ("weak_b1", "1e-12"): {"analyze": 2, "canonicalize": 2},
    }

    @staticmethod
    def _c(command: str, out: dict, d: int) -> int:
        if command == "ecf":
            return d - out["r"]
        # analyze reports a model without a canonical form by its r = d - c
        return out["c"] if "c" in out else d - out["cointegration"]["r"]

    @pytest.mark.parametrize("rank_tol", ["1e-12", "1e-9", "1e-6", "1e-3"])
    @pytest.mark.parametrize("name", list(DOCS))
    def test_commands_that_accept_agree_on_c(self, tmp_path, capsys, name, rank_tol):
        doc = self.DOCS[name]()
        d = len(doc["C"] if "C" in doc else doc["p_coeffs"][0])
        cfg = write_json(tmp_path / "model.json", doc)
        counts = {}
        for command in ("analyze", "canonicalize", "ecf"):
            code = main([command, cfg, "--rank-tol", rank_tol])
            out, err = capsys.readouterr()
            if code == 0:
                counts[command] = self._c(command, strict_json(out), d)
            else:
                assert code in (2, 3) and out == "", command
                assert len(err.splitlines()) == 1 and err.startswith("error: "), command
        assert len(set(counts.values())) <= 1, counts
        if (name, rank_tol) in self.MUST_ACCEPT:
            assert counts == self.MUST_ACCEPT[name, rank_tol]


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
                                             ("ecf", weak_input_doc)])
    def test_rank_tol_is_a_finite_number_in_unit_interval(self, tmp_path, capsys,
                                                          command, doc, value):
        # NaN and infinities used to exit 3 ("not minimal") on a state-space
        # document and 0 on a canonical one
        cfg = write_json(tmp_path / "model.json", doc())
        with pytest.raises(SystemExit) as exc:
            main([command, cfg, f"--rank-tol={value}"])
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
        for command in ("analyze", "canonicalize", "ecf"):
            seen.clear()
            assert main([command, cfg, "--rank-tol", "1e-6"]) == 0
            assert seen and all(tol == 1e-6 for _, tol in seen), (command, seen)
            assert "unit_roots" in {caller for caller, _ in seen}, command

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

    def test_filter_takes_no_rank_tol(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["filter", "m.json", "p.csv", "-o", "x", "--rank-tol", "1e-3"])


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
    def test_bad_env_seed_exits_2(self, tmp_path, monkeypatch, capsys, raw):
        doc = scalar_doc()
        del doc["sampling"]["seed"]
        cfg = write_json(tmp_path / "model.json", doc)
        monkeypatch.setenv("COINTSSM_SEED", raw)
        assert main(["simulate", cfg, "-o", str(tmp_path / "a.csv")]) == 2
        assert "COINTSSM_SEED" in capsys.readouterr().err
        assert not (tmp_path / "a.csv").exists()


class TestRefusals:
    """Inputs each command refuses with exit 2, one ``error:`` line and no
    file written."""

    @staticmethod
    def _not_json(tmp_path):
        (tmp_path / "model.json").write_text("{not json")

    @staticmethod
    def _unreadable(tmp_path):
        (tmp_path / "model.json").mkdir()

    @staticmethod
    def _not_an_object(tmp_path):
        write_json(tmp_path / "model.json", [partial_doc()])

    @staticmethod
    def _schema_version(tmp_path):
        write_json(tmp_path / "model.json", partial_doc() | {"schema_version": "2"})

    @staticmethod
    def _model_kind(tmp_path):
        write_json(tmp_path / "model.json", partial_doc() | {"model_kind": "arma"})

    @pytest.mark.parametrize("breaker,message", [
        ("_not_json", "is not valid JSON"),
        ("_unreadable", "cannot read model document"),
        ("_not_an_object", "must be a JSON object"),
        ("_schema_version", "unrecognized schema_version '2'"),
        ("_model_kind", "unknown model_kind 'arma'"),
    ])
    @pytest.mark.parametrize("command", ["simulate", "analyze", "canonicalize", "filter", "ecf"])
    def test_bad_model_document_exits_2(self, tmp_path, capsys, command, breaker, message):
        getattr(self, breaker)(tmp_path)
        csv = tmp_path / "path.csv"
        csv.write_text("t,y_1,y_2\n1,0,0\n2,0,0\n")
        cfg, before = str(tmp_path / "model.json"), sorted(tmp_path.iterdir())
        argv = {"simulate": ["simulate", cfg, "-o", str(tmp_path / "x.csv")],
                "analyze": ["analyze", cfg, "--moments", "--output", str(tmp_path / "m.csv")],
                "canonicalize": ["canonicalize", cfg],
                "filter": ["filter", cfg, str(csv), "-o", str(tmp_path / "flt")],
                "ecf": ["ecf", cfg, "--path", str(csv),
                        "--residuals-out", str(tmp_path / "r.csv")]}[command]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
        assert sorted(tmp_path.iterdir()) == before

    def test_x1_0_of_wrong_length_exits_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "model.json", scalar_doc(x1_0=[1.0, 2.0]))
        assert main(["simulate", cfg, "-o", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == "error: x1_0 has length 2, expected c=1\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]

    @pytest.mark.parametrize("command", ["filter", "ecf"])
    def test_unreadable_path_csv_exits_2(self, tmp_path, capsys, command):
        cfg = write_json(tmp_path / "model.json", partial_doc())
        csv = str(tmp_path / "missing.csv")
        argv = (["filter", cfg, csv, "-o", str(tmp_path / "flt")] if command == "filter"
                else ["ecf", cfg, "--path", csv, "--residuals-out", str(tmp_path / "r.csv")])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: cannot read path CSV")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]

    def test_moments_of_stationary_mcarma_exits_2(self, tmp_path, capsys):
        doc = mcar1_doc()
        doc["p_coeffs"] = [[[1.0, 0.0], [0.0, 2.0]]]
        cfg = write_json(tmp_path / "model.json", doc)
        assert main(["analyze", cfg, "--moments", "--output", str(tmp_path / "m.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --moments needs a model with a canonical form\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]

    def test_huge_b2_moments_exit_without_traceback(self, tmp_path, capsys):
        # B2 Sigma_L B2' is about 1e308, finite, but the Lyapunov solve for
        # gamma0 overflowed (scipy's ValueError, exit 1)
        cfg = write_json(tmp_path / "model.json", scalar_doc() | {"B2": [[0.0, 1e154]]})
        code = main(["analyze", cfg, "--moments"])
        err = capsys.readouterr().err
        assert code == 0 and err == "" or (
            code == 3 and len(err.splitlines()) == 1 and err.startswith("error: "))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("h", [1.0, 10.0])
    def test_huge_a2_exits_without_traceback(self, tmp_path, capsys, h):
        # h / 2.0**k overflowed for k = 1024 (OverflowError, exit 1), or
        # h ||A2|| did at h = 10; then the Riccati solver warned and let a
        # NaN residual through
        good = write_json(tmp_path / "good.json", scalar_doc(h=h))
        assert main(["simulate", good, "-o", str(tmp_path / "path.csv")]) == 0
        cfg = write_json(tmp_path / "model.json", scalar_doc(h=h) | {"A2": [[-1e308]]})
        for argv in (["simulate", cfg, "-o", str(tmp_path / "x.csv")],
                     ["filter", cfg, str(tmp_path / "path.csv"), "-o", str(tmp_path / "flt")],
                     ["ecf", cfg], ["ecf", cfg, "--path", str(tmp_path / "path.csv")],
                     ["analyze", cfg, "--moments"]):
            capsys.readouterr()
            code = main(argv)
            err = capsys.readouterr().err
            assert code == 0 and err == "" or (
                code in (2, 3) and len(err.splitlines()) == 1 and err.startswith("error: ")), argv
