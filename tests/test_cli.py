"""End-to-end command line behavior: exit codes, report bytes, artifacts."""

import json
import warnings

import numpy as np
import pytest

from proxitop.cli import run_command

TRACE = "t,x,z\n0.0,0.0,0.1\n0.5,1.0,0.2\n1.0,2.0,0.05\n1.5,3.1,0.3\n"
SQUARE = "x1,x2\n0,0\n1,0\n0,1\n1,1\n"


@pytest.fixture
def trace_file(tmp_path):
    p = tmp_path / "trace.csv"
    p.write_text(TRACE)
    return p


@pytest.fixture
def square_file(tmp_path):
    p = tmp_path / "square.csv"
    p.write_text(SQUARE)
    return p


def run_json(capsys, argv):
    rc = run_command([str(a) for a in argv])
    out = capsys.readouterr().out
    assert rc == 0, out
    return json.loads(out)


def test_witness_command(capsys, tmp_path):
    p = tmp_path / "two.csv"
    p.write_text("x1,x2\n0.0,0.0\n3.0,4.0\n")
    doc = run_json(capsys, ["antipodes", "witness", "--points", p])
    w = doc["results"]["witness"]
    assert w["normal"] == [0.6, 0.8]
    assert w["offsets"] == [0.0, 5.0]
    assert doc["schema_version"] == "1"


def test_witness_null_for_identical_points(capsys, tmp_path):
    p = tmp_path / "two.csv"
    p.write_text("x1\n2.0\n2.0\n")
    doc = run_json(capsys, ["antipodes", "witness", "--points", p])
    assert doc["results"]["witness"] is None


def test_witness_wrong_count_fails(capsys, square_file):
    rc = run_command(["antipodes", "witness", "--points", str(square_file)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:")
    assert "exactly 2" in err


def test_petty_command(capsys, square_file):
    doc = run_json(capsys, ["antipodes", "petty", "--points", square_file])
    assert doc["results"] == {"antipodal": True, "points": 4}


def test_axioms_check_all_families(capsys, square_file):
    for family in ("Lodato-descriptive", "strong", "descriptive-strong"):
        doc = run_json(
            capsys,
            [
                "axioms",
                "check",
                "--family",
                family,
                "--space",
                square_file,
                "--trials",
                "100",
                "--seed",
                "5",
            ],
        )
        assert doc["results"]["passed"] is True
        assert doc["results"]["violations"] == []


def test_axioms_check_feature_config(capsys, square_file):
    doc = run_json(
        capsys,
        [
            "axioms",
            "check",
            "--family",
            "strong",
            "--space",
            square_file,
            "--trials",
            "50",
            "--seed",
            "1",
            "--features",
            '{"name": "norm", "tolerance": 0.25}',
        ],
    )
    assert doc["parameters"]["features"]["name"] == "norm"


def test_axioms_check_unknown_family(capsys, square_file):
    rc = run_command(["axioms", "check", "--family", "nope", "--space", str(square_file)])
    err = capsys.readouterr().err
    assert rc == 1 and "unknown family" in err


def test_axioms_check_rejects_duplicate_universe_points(capsys, tmp_path):
    p = tmp_path / "dup.csv"
    p.write_text("x1,x2\n0,0\n0,0\n1,0\n")
    rc = run_command(["axioms", "check", "--family", "strong", "--space", str(p)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "rows 0 and 1" in lines[0]


def test_but_search_strings_mode(capsys):
    doc = run_json(
        capsys,
        [
            "but",
            "search",
            "--mode",
            "strings",
            "--grid",
            "n=1",
            "density=32",
            "--descriptor",
            "even-coords",
            "--tol",
            "1e-9",
        ],
    )
    res = doc["results"]
    assert res["object_count"] == 16
    assert [(p["a"], p["b"]) for p in res["pairs"]] == [(i, i + 8) for i in range(8)]


def test_but_search_rejects_bad_grid_spec(capsys):
    rc = run_command(
        ["but", "search", "--mode", "points", "--grid", "n:1", "--descriptor", "norm"]
    )
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("error:")


_BUT_STRINGS = ["but", "search", "--mode", "strings", "--grid", "n=1", "density=16"]


@pytest.mark.parametrize(
    "argv",
    [
        [*_BUT_STRINGS, "--descriptor", "even-coords", "--tol", "nan"],
        [*_BUT_STRINGS, "--descriptor", "even-coords", "--tol", "inf"],
        ["fixedpoint", "--map", "half", "--tol", "inf"],
        ["axioms", "check", "--family", "strong", "--space", "SPACE",
         "--features", '{"name":"coords","tolerance":NaN}'],
    ],
    ids=["but-nan", "but-inf", "fixedpoint-inf", "axioms-nan"],
)
def test_non_finite_tolerances_rejected(capsys, square_file, argv):
    rc = run_command([str(square_file) if a == "SPACE" else a for a in argv])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "finite" in lines[0]


def test_surface_torus_writes_obj(capsys, tmp_path):
    out = tmp_path / "m.obj"
    doc = run_json(
        capsys,
        ["surface", "torus", "--c", "2", "--r", "1", "--grid", "8x8", "--out", out],
    )
    assert doc["results"]["vertices"] == 64
    assert doc["results"]["max_residual"] <= 1e-9
    text = out.read_text()
    assert text.count("\nf ") + text.startswith("f ") == 64


def test_surface_torus_flat_ring_rejected(capsys, tmp_path):
    rc = run_command(
        ["surface", "torus", "--c", "1", "--r", "2", "--grid", "4x4",
         "--out", str(tmp_path / "m.obj")]
    )
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and "requires c > r" in err


def test_surface_torus_infinite_radius_rejected(capsys, tmp_path):
    out = tmp_path / "m.obj"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run_command(
            ["surface", "torus", "--c", "inf", "--r", "1", "--grid", "4x4", "--out", str(out)]
        )
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "finite" in lines[0]
    assert [str(w.message) for w in caught] == []
    assert not out.exists()


def test_eeg_lift_round_trip(capsys, trace_file, tmp_path):
    out = tmp_path / "curve.csv"
    doc = run_json(capsys, ["eeg", "lift", "--in", trace_file, "--out", out])
    assert doc["results"]["samples"] == 4
    rows = out.read_text().splitlines()
    assert rows[0] == "x,y,z"
    xs = [float(r.split(",")[0]) for r in rows[1:]]
    assert xs == [0.0, 1.0, 2.0, 3.1]


def test_eeg_torus_end_to_end(capsys, trace_file, tmp_path):
    out = tmp_path / "band.obj"
    doc = run_json(
        capsys,
        ["eeg", "torus", "--in", trace_file, "--c", "2", "--r", "1", "--out", out],
    )
    assert doc["results"]["max_residual"] <= 1e-9
    assert doc["results"]["vertices"] == 64
    assert out.exists()


def test_eeg_lift_missing_file(capsys, tmp_path):
    rc = run_command(
        ["eeg", "lift", "--in", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")]
    )
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("error:")


@pytest.mark.parametrize("sub", [["lift"], ["torus", "--c", "2", "--r", "1"]])
def test_eeg_header_only_trace_has_no_samples(capsys, tmp_path, sub):
    p = tmp_path / "empty.csv"
    p.write_text("t,x,z\n")
    rc = run_command(["eeg", *sub, "--in", str(p), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == "error: trace has no samples\n"


def test_fixedpoint_builtins(capsys):
    doc = run_json(capsys, ["fixedpoint", "--map", "cos", "--tol", "1e-9"])
    assert abs(doc["results"]["point"][0] - 0.7390851332) <= 1e-6
    doc = run_json(capsys, ["fixedpoint", "--map", "rot90", "--tol", "1e-9"])
    assert np.linalg.norm(doc["results"]["point"]) <= 1e-6


def test_fixedpoint_unknown_map(capsys):
    rc = run_command(["fixedpoint", "--map", "sqrt"])
    err = capsys.readouterr().err
    assert rc == 1 and "unknown map" in err


def test_missing_subcommand_is_usage_error(capsys):
    rc = run_command([])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("error:")


def test_reports_are_byte_identical_across_runs(capsys, trace_file, tmp_path):
    argv = ["eeg", "lift", "--in", str(trace_file), "--out", str(tmp_path / "c.csv")]
    assert run_command(argv) == 0
    one = capsys.readouterr().out
    assert run_command(argv) == 0
    two = capsys.readouterr().out
    assert one == two


def test_seed_env_var_fills_default(capsys, square_file, monkeypatch):
    monkeypatch.setenv("PROXITOP_SEED", "99")
    doc = run_json(
        capsys,
        ["axioms", "check", "--family", "strong", "--space", square_file,
         "--trials", "20"],
    )
    assert doc["parameters"]["seed"] == 99
    monkeypatch.setenv("PROXITOP_SEED", "not-a-number")
    rc = run_command(
        ["axioms", "check", "--family", "strong", "--space", str(square_file),
         "--trials", "20"]
    )
    err = capsys.readouterr().err
    assert rc == 2 and "PROXITOP_SEED" in err


def test_seed_flag_beats_env(capsys, square_file, monkeypatch):
    monkeypatch.setenv("PROXITOP_SEED", "99")
    doc = run_json(
        capsys,
        ["axioms", "check", "--family", "strong", "--space", square_file,
         "--trials", "20", "--seed", "3"],
    )
    assert doc["parameters"]["seed"] == 3
