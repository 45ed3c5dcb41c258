"""End-to-end command line behavior: exit codes, report bytes, artifacts."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import proxitop
from proxitop import DescriptiveSpace, check_axioms, feature_map_from_config
from proxitop.cli import build_parser, run_command
from proxitop.proximity import FAMILIES

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


@pytest.mark.parametrize(
    "body",
    ["0,0\n1e300,0\n0,1e300\n", "0,0\n1e4,0\n0,1e4\n1e4,1e4\n"],
    ids=["huge-triangle", "square-1e4"],
)
def test_petty_command_on_large_coordinates(capsys, tmp_path, body):
    # warnings are errors in this suite, so an overflow would fail the run
    p = tmp_path / "large.csv"
    p.write_text("x1,x2\n" + body)
    rc = run_command(["antipodes", "petty", "--points", str(p)])
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    assert json.loads(captured.out)["results"]["antipodal"] is True


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


def test_seed_flag_beats_env(capsys, square_file, monkeypatch):
    # --seed alone sets the seed: the environment is not read, and an omitted
    # flag reports the seed it used, 0
    monkeypatch.setenv("PROXITOP_SEED", "99")
    argv = ["axioms", "check", "--family", "strong", "--space", square_file, "--trials", "20"]
    assert run_json(capsys, [*argv, "--seed", "3"])["parameters"]["seed"] == 3
    assert run_json(capsys, argv)["parameters"]["seed"] == 0


def _single_error(capsys):
    """The one stderr line of a failed run, after checking stdout stayed empty."""
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


def test_help_exits_zero(capsys):
    assert run_command(["--help"]) == 0
    assert run_command(["surface", "torus", "--help"]) == 0
    assert "usage:" in capsys.readouterr().out


def test_unknown_flag_is_usage_error(capsys):
    assert run_command(["fixedpoint", "--map", "half", "--bogus"]) == 2
    assert "--bogus" in _single_error(capsys)


@pytest.mark.parametrize("grid", ["3by3", "3x3x3", "ax3", "3x"])
def test_handler_usage_error_exits_two(capsys, tmp_path, grid):
    out = tmp_path / "m.obj"
    rc = run_command(
        ["surface", "torus", "--c", "2", "--r", "1", "--grid", grid, "--out", str(out)]
    )
    assert rc == 2
    assert "GxG" in _single_error(capsys)
    assert not out.exists()


def test_parser_is_built_once_and_survives_errors(capsys, square_file):
    assert build_parser() is build_parser()
    argv = ["axioms", "check", "--family", "strong", "--space", str(square_file), "--trials", "5"]
    assert run_command(argv) == 0
    first = capsys.readouterr().out
    failing = [
        ["axioms", "check", "--family", "strong", "--bogus"],  # parser error, mid-parse
        ["axioms", "check", "--space", str(square_file)],  # a required flag missing
        ["fixedpoint", "--map", "half", "--tol", "x"],  # a bad type
        ["surface", "torus", "--c", "2", "--r", "1", "--grid", "3by3", "--out", "m.obj"],  # handler
    ]
    for bad in failing:
        assert run_command(bad) == 2
        _single_error(capsys)
        assert run_command(argv) == 0
        assert capsys.readouterr().out == first
    assert run_command(["axioms", "check", "--help"]) == 0
    capsys.readouterr()
    assert run_command(argv) == 0
    assert capsys.readouterr().out == first


def test_library_value_error_exits_one(capsys, square_file):
    assert run_command(["antipodes", "witness", "--points", str(square_file)]) == 1
    assert "exactly 2 points" in _single_error(capsys)


def test_unknown_family_names_every_family(capsys, square_file):
    space = DescriptiveSpace(np.eye(2), feature_map_from_config({"name": "norm"}))
    with pytest.raises(ValueError, match="unknown family 'nope', expected one of") as info:
        check_axioms(space, "nope")
    assert all(family in str(info.value) for family in FAMILIES)
    assert run_command(["axioms", "check", "--family", "nope", "--space", str(square_file)]) == 1
    assert _single_error(capsys) == f"error: {info.value}"


@pytest.mark.parametrize(
    "features, parameter",
    [
        ('{"name":"adjacency-count"}', "'width'"),
        ('{"name":"norm","dim":NaN}', "dim"),
        ('{"name":"constant","value":"abc"}', "constant feature map parameter 'value'"),
        ('{"name":"constant","value":null}', "constant feature map parameter 'value'"),
    ],
)
def test_bad_feature_parameter_is_named(capsys, square_file, features, parameter):
    argv = ["axioms", "check", "--family", "strong", "--space", str(square_file),
            "--features", features]
    assert run_command(argv) == 1
    assert parameter in _single_error(capsys)


def _cold(*argv):
    """A fresh `python -W error -m proxitop.cli` run of argv, warnings fatal."""
    src = os.path.dirname(os.path.dirname(proxitop.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    cmd = [sys.executable, "-W", "error", "-m", "proxitop.cli", *argv]
    return subprocess.run(cmd, capture_output=True, env=env, timeout=120)


def test_cold_subprocess_matches_in_process_report(capsys):
    argv = ["fixedpoint", "--map", "half"]
    assert run_command(argv) == 0
    proc = _cold(*argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == capsys.readouterr().out.encode()
    bare = _cold()
    assert bare.returncode == 2 and bare.stdout == b""
    assert bare.stderr == b"error: missing subcommand (try --help)\n"


# -- refusals ---------------------------------------------------------------


_AXIOMS = ["axioms", "check", "--family", "strong", "--space", "SPACE", "--trials", "5"]
_BUT = ["but", "search", "--descriptor", "even-coords"]


@pytest.mark.parametrize(
    "argv, code, message",
    [
        ([*_AXIOMS, "--features", "@DIR/missing.json"], 1, "No such file or directory"),
        ([*_AXIOMS, "--features", "@DIR/bad.json"], 1, "feature config is not valid JSON"),
        ([*_AXIOMS, "--features", "{name: coords}"], 1, "feature config is not valid JSON"),
        ([*_AXIOMS, "--features", '["coords"]'], 1, "feature config must be a JSON object"),
        ([*_BUT, "--mode", "points", "--grid", "n=1", "size=4"], 2, "unknown grid spec keys: ['size']"),
        ([*_BUT, "--mode", "points", "--grid", "n=1", "density=2.5"], 2, "n and density must be integers"),
        ([*_BUT, "--mode", "points", "--grid", "n=3", "density=2"], 1, "supports grid n=1 or n=2"),
        ([*_BUT, "--mode", "strings", "--grid", "n=2", "density=8"], 1, "strings mode builds circle arcs"),
        ([*_BUT, "--mode", "sheets", "--grid", "n=2", "density=8"], 1, "sheets mode builds circle arcs"),
        (["axioms", "check", "--family", "descriptive", "--space", "SPACE"], 1, "unknown family 'descriptive'"),
    ],
)
def test_cli_refuses_invalid_input_with_one_error_line(capsys, tmp_path, square_file, argv, code, message):
    (tmp_path / "bad.json").write_text('{"name": "coords",}')
    subst = {"SPACE": str(square_file)}
    argv = [subst.get(a, a.replace("@DIR", "@" + str(tmp_path))) for a in argv]
    assert run_command(argv) == code
    assert message in _single_error(capsys)


def test_features_file_reads_like_the_inline_config(capsys, tmp_path, square_file):
    config = '{"name": "norm", "tolerance": 0.5}'
    (tmp_path / "features.json").write_text(config)
    argv = ["axioms", "check", "--family", "strong", "--space", square_file, "--trials", "5"]
    inline = run_json(capsys, [*argv, "--features", config])
    from_file = run_json(capsys, [*argv, "--features", f"@{tmp_path / 'features.json'}"])
    assert from_file["results"] == inline["results"]
    assert from_file["parameters"]["features"] == inline["parameters"]["features"] == json.loads(config)
