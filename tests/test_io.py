"""File formats: trace/point CSV, OBJ meshes, JSON reports."""

import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxitop import (
    MeshDocument,
    ReportDocument,
    TorusParams,
    borsuk,
    export_mesh,
    feature_map_from_config,
    file_digest,
    geometry,
    load_points_csv,
    load_trace_csv,
    save_curve_csv,
    torus_grid,
)
from proxitop.io import _OBJ_BLOCK, _face_lines, _json_text


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


# -- trace CSV --------------------------------------------------------------


def test_trace_round_trip(tmp_path):
    p = write(tmp_path, "t.csv", "t,x,z\n0.0,1.5,0.25\n1.0,2.5,-0.5\n")
    recs = load_trace_csv(p)
    assert list(recs[:, 0]) == [0.0, 1.0]
    assert recs[0, 1] == 1.5 and recs[1, 2] == -0.5


def test_trace_header_enforced(tmp_path):
    p = write(tmp_path, "t.csv", "time,x,z\n0,1,2\n")
    with pytest.raises(ValueError, match="line 1"):
        load_trace_csv(p)


def test_trace_monotonicity_enforced_with_line_number(tmp_path):
    p = write(tmp_path, "t.csv", "t,x,z\n0.0,1.0,0.0\n0.0,2.0,0.0\n")
    with pytest.raises(ValueError, match="line 3.*increase strictly"):
        load_trace_csv(p)


def test_trace_bad_number_names_column(tmp_path):
    p = write(tmp_path, "t.csv", "t,x,z\n0.0,oops,0.0\n")
    with pytest.raises(ValueError, match="line 2.*column x"):
        load_trace_csv(p)


def test_trace_wrong_arity(tmp_path):
    p = write(tmp_path, "t.csv", "t,x,z\n0.0,1.0\n")
    with pytest.raises(ValueError, match="line 2.*3 columns"):
        load_trace_csv(p)


# -- point CSV --------------------------------------------------------------


def _point_csv(a):
    """A point CSV of a's rows as shortest round-trip floats."""
    header = ",".join(f"x{i + 1}" for i in range(a.shape[1]))
    return "\n".join([header] + [",".join(map(repr, row)) for row in a.tolist()]) + "\n"


def test_points_round_trip(tmp_path):
    pts = np.array([[0.1, 0.2], [0.3, 0.4], [1.0 / 3.0, 2.0 / 3.0]])
    p = write(tmp_path, "pts.csv", _point_csv(pts))
    back = load_points_csv(p)
    assert np.array_equal(back, pts)  # repr floats survive the trip bit-exact


def test_points_header_validated(tmp_path):
    p = write(tmp_path, "pts.csv", "a,b\n1,2\n")
    with pytest.raises(ValueError, match="x1"):
        load_points_csv(p)


def test_points_empty_body_gives_empty_array(tmp_path):
    p = write(tmp_path, "pts.csv", "x1,x2,x3\n")
    got = load_points_csv(p)
    assert got.shape == (0, 3)


def test_points_blank_body_gives_empty_array_without_warning(tmp_path):
    for body in ("\n\n", "\r\n"):
        p = write(tmp_path, "pts.csv", "x1,x2\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = load_points_csv(p)
        assert got.shape == (0, 2) and got.dtype == float


def test_trace_header_only_gives_empty_array(tmp_path):
    p = write(tmp_path, "t.csv", "t,x,z\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = load_trace_csv(p)
    assert got.shape == (0, 3)


def test_whitespace_only_body_line_is_refused(tmp_path):
    p = write(tmp_path, "pts.csv", "x1,x2\n   \n")
    with pytest.raises(ValueError, match="line 2: expected 2 columns, got 1"):
        load_points_csv(p)


# -- table reader against the format's spec ---------------------------------

# Whitespace that may pad a number, from none to characters the format
# refuses but float() or numpy strip (\x1c-\x1f are stripped by numpy only).
_PADS = [
    [""],
    ["", " "],
    ["", " ", "\t"],
    ["", " ", "\t", "\x0b", "\x0c", "\xa0", "\u2028"],
    ["", "\x1c", "\x1f"],
]
# fields at the edges of the grammar, the first six inside it
_ODD_FIELDS = ["5.", ".5", "+1E-3", "-0", "007", "1e+0",
               "", "   ", '"1.5"', "#", "1 # c", "1_000", "nan", "inf", "-inf", "Infinity",
               "1e400", "0x10", "1d5", "\u0661", "1,", "1e", "e5", ".", "+", "1.2.3", "--1", "1 2"]


@st.composite
def _csv_case(draw, kind):
    width = 3 if kind == "trace" else draw(st.integers(1, 4))
    names = ["t", "x", "z"] if kind == "trace" else [f"x{i+1}" for i in range(width)]
    m = draw(st.integers(0, 8))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    rows = [draw(st.lists(finite, min_size=width, max_size=width)) for _ in range(m)]
    if kind == "trace" and m:
        ts = sorted(set(draw(st.lists(finite, min_size=m, max_size=m, unique=True))))
        rows = [[t] + r[1:] for t, r in zip(ts, rows)]
    fmt = draw(st.sampled_from([repr, "{:.17g}".format, "{:.9g}".format, "{:.3e}".format]))
    pad = st.sampled_from(draw(st.sampled_from(_PADS)))
    lines = [[draw(pad) + fmt(v) + draw(pad) for v in r] for r in rows]
    # damage: replace a field, drop or add a field in one row or in all rows,
    # repeat a row (t no longer increases), add a trailing comma
    for _ in range(draw(st.integers(0, 2))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        what = draw(st.sampled_from(["field", "drop", "add", "widen", "repeat", "comma"]))
        if what == "widen":
            lines = [fields + ["0"] for fields in lines]
        elif what == "field":
            if lines[i]:
                j = draw(st.integers(0, len(lines[i]) - 1))
                lines[i][j] = draw(st.sampled_from(_ODD_FIELDS))
        elif what == "drop":
            lines[i] = lines[i][:-1]
        elif what == "add":
            lines[i] = lines[i] + ["0"]
        elif what == "repeat":
            lines.insert(i, list(lines[i]))
        else:
            lines[i] = lines[i] + [""]
    text_lines = [",".join(fields) for fields in lines]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text_lines)))
        text_lines.insert(at, draw(st.sampled_from(["", "", "", " ", "\t"])))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    end = draw(st.sampled_from([eol, ""]))
    return ",".join(names) + eol + eol.join(text_lines) + (end if text_lines else "")


def _outcome(fn, *args):
    try:
        a = fn(*args)
    except ValueError as exc:
        return ("error", str(exc))
    return ("ok", a.shape, a.dtype.str, a.tobytes())


# The format, written out independently of proxitop.io: a cell is an ASCII
# float padded by spaces and tabs, and is named not finite when it overflows
# or spells nan, inf or infinity.
_ASCII_FLOAT = re.compile(r"[ \t]*[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?[ \t]*", re.ASCII)
_NON_FINITE_WORD = re.compile(r"[ \t]*[+-]?(nan|inf|infinity)[ \t]*", re.ASCII | re.IGNORECASE)
_HEADERS = {
    "trace": (lambda n: ["t", "x", "z"], "line 1: trace header must be exactly 't,x,z'"),
    "points": (lambda n: [f"x{i+1}" for i in range(n)], "line 1: point header must be x1,...,xn"),
}


def _spec_line_loop(path, kind):
    """The table in the file at path, or the error of its first bad line."""
    with open(path, newline="") as fh:
        header, *lines = re.split(r"\r\n|\r|\n", fh.read())
    names = [c.strip(" \t") for c in header.split(",")]
    want, header_error = _HEADERS[kind]
    if names != want(len(names)):
        raise ValueError(header_error)
    rows = []
    for k, line in enumerate(lines, start=2):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != len(names):
            raise ValueError(f"line {k}: expected {len(names)} columns, got {len(cells)}")
        for cell, name in zip(cells, names):
            number = _ASCII_FLOAT.fullmatch(cell)
            if _NON_FINITE_WORD.fullmatch(cell) or (number and math.isinf(float(cell))):
                raise ValueError(f"line {k}: column {name} is not finite: {cell!r}")
            if not number:
                raise ValueError(f"line {k}: column {name} is not a number: {cell!r}")
        row = [float(cell) for cell in cells]
        if kind == "trace" and rows and row[0] <= rows[-1][0]:
            raise ValueError(f"line {k}: {names[0]} must increase strictly ({row[0]} after {rows[-1][0]})")
        rows.append(row)
    return np.array(rows, dtype=float).reshape(-1, len(names))


_TRACE_CASES = {
    "crlf": "t,x,z\r\n0,1.5,2\r\n1,2.5,3\r\n",
    "bare cr": "t,x,z\r0,1.5,2\r1,2.5,3\r",
    "blank lines": "t,x,z\n\n0,1.5,2\n\n1,2.5,3\n\n",
    "space and tab pads": "t , x,\tz\n 0 ,\t1.5, 2\n1 , 2.5 ,3\t\n",
    "padded numbers": "t,x,z\n 0 ,\t1.5, 2\n1 , 2.5 ,3\x0c\n",
    "whitespace-only line": "t,x,z\n0,1.5,2\n \n1,2.5,3\n",
    "quoted field": 't,x,z\n0,"1.5",2\n1,2.5,3\n',
    "quoted header": '"t",x,z\n0,1.5,2\n1,2.5,3\n',
    "hash": "t,x,z\n0,1.5,2 # note\n1,2.5,3\n",
    "underscore": "t,x,z\n0,1_000,2\n1,2.5,3\n",
    "arabic-indic digit": "t,x,z\n0,\u0661,2\n1,2.5,3\n",
    "nan": "t,x,z\n0,nan,2\n1,2.5,3\n",
    "inf": "t,x,z\n0,1.5,-inf\n1,2.5,3\n",
    "overflow": "t,x,z\n0,1.5,1e400\n1,2.5,3\n",
    "trailing comma": "t,x,z\n0,1.5,2,\n1,2.5,3\n",
    "wrong arity": "t,x,z\n0,1.5\n1,2.5\n",
    "repeated t": "t,x,z\n0,1.5,2\n0,2.5,3\n",
    "falling t": "t,x,z\n1,1.5,2\n0,2.5,3\n",
    "separator pad": "t,x,z\n0,1.5,2\x1c\n1,2.5,3\n",
}
_TRACE_ACCEPTED = {"crlf", "bare cr", "blank lines", "space and tab pads"}


@pytest.mark.parametrize("name", sorted(_TRACE_CASES))
def test_trace_reader_cases_match_line_loop(tmp_path, name):
    path = tmp_path / "t.csv"
    with open(path, "w", newline="") as fh:
        fh.write(_TRACE_CASES[name])
    got = _outcome(load_trace_csv, path)
    assert got == _outcome(_spec_line_loop, path, "trace")
    if name in _TRACE_ACCEPTED:
        assert got[0] == "ok" and load_trace_csv(path).tolist() == [[0.0, 1.5, 2.0], [1.0, 2.5, 3.0]]
    else:
        assert got[0] == "error"


@pytest.mark.parametrize(
    "text, want",
    [
        ("x1\n1\n-0.0\n", [[1.0], [-0.0]]),
        ("x1,x2\n1,2,3\n4,5,6\n", "line 2: expected 2 columns, got 3"),
        ("x1,x2,x3\n1,2\n4,5\n", "line 2: expected 3 columns, got 2"),
        ("x1,x2\n1,2\ninf,5\n", "line 3: column x1 is not finite: 'inf'"),
        ('x1,x2\n\u0661,1_000\n"2",3\n', "line 2: column x1 is not a number: '\u0661'"),
        ('x1,x2\n1,1_000\n"2",3\n', "line 2: column x2 is not a number: '1_000'"),
        ('x1,x2\n1,2\n"2",3\n', "line 3: column x1 is not a number: '\"2\"'"),
        ("", "line 1: point header must be x1,...,xn"),
    ],
)
def test_point_reader_cases(tmp_path, text, want):
    p = write(tmp_path, "pts.csv", text)
    if isinstance(want, str):
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            load_points_csv(p)
    else:
        got = load_points_csv(p)
        assert got.tobytes() == np.array(want).tobytes() and got.shape == np.shape(want)


@pytest.mark.parametrize("kind", ["trace", "points"])
def test_table_reader_matches_line_loop(kind, tmp_path_factory):
    path = tmp_path_factory.mktemp(kind) / "table.csv"
    load = load_trace_csv if kind == "trace" else load_points_csv

    @settings(max_examples=400, deadline=None)
    @given(text=_csv_case(kind))
    def check(text):
        with open(path, "w", newline="") as fh:
            fh.write(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _outcome(load, path)
        assert got == _outcome(_spec_line_loop, path, kind), repr(text)

    check()


_FINITE_TABLE = st.floats(allow_nan=False, allow_infinity=False)


@settings(deadline=None)
@given(
    width=st.integers(1, 4),
    values=st.lists(st.lists(_FINITE_TABLE, min_size=4, max_size=4), min_size=1, max_size=6),
    curve=st.booleans(),
)
def test_written_tables_load_back_bit_exact(tmp_path_factory, width, values, curve):
    a = np.array(values)[:, : 3 if curve else width]
    p = tmp_path_factory.getbasetemp() / "written.csv"
    if curve:
        # a curve body is a point body under another header
        save_curve_csv(p, a)
        text = p.read_text()
        assert text.startswith("x,y,z\n")
        p.write_text("x1,x2,x3\n" + text[len("x,y,z\n") :])
    else:
        p.write_text(_point_csv(a))
    back = load_points_csv(p)
    assert back.shape == a.shape and back.tobytes() == a.tobytes()


@pytest.mark.parametrize("save", [save_curve_csv])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_writers_refuse_non_finite_values_before_opening_the_file(tmp_path, save, bad):
    p = tmp_path / "never.csv"
    rows = [[0.0, 1.0, 2.0], [3.0, bad, 5.0]]
    with pytest.raises(ValueError, match=r"^row 1 is not finite: \[3\.0, (nan|inf|-inf), 5\.0\]$"):
        save(p, rows)
    assert not p.exists()


# -- curve CSV --------------------------------------------------------------


def test_curve_csv_format(tmp_path):
    pts = np.array([[0.0, 0.1, 1.08], [1.0, 0.2, -0.5]])
    p = tmp_path / "c.csv"
    save_curve_csv(p, pts)
    lines = p.read_text().splitlines()
    assert lines[0] == "x,y,z"
    assert lines[1] == "0.0,0.1,1.08"
    parsed = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.array_equal(parsed, pts)


# -- OBJ --------------------------------------------------------------------


def test_mesh_document_validates_indices():
    with pytest.raises(ValueError, match="out of range"):
        MeshDocument(np.zeros((2, 3)), np.array([[0, 1, 2, 0]]))


@pytest.mark.parametrize(
    "faces",
    [
        [[0.9, 1.7, 2.2, 3.99]],
        [[True, False, True, True]],
        [["0", "1", "2", "3"]],
        [[0.0, 1.0, float("nan"), 3.0]],
    ],
    ids=["fractional", "bool", "string", "nan"],
)
def test_mesh_document_refuses_non_integer_faces(faces):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="mesh faces must be integer indices"):
            MeshDocument(np.zeros((4, 3)), faces)


def test_mesh_document_keeps_integer_valued_float_faces():
    mesh = MeshDocument(np.zeros((4, 3)), [[0.0, 1.0, 2.0, 3.0]])
    assert mesh.faces.dtype.kind == "i"
    assert mesh.faces.tolist() == [[0, 1, 2, 3]]
    with pytest.raises(ValueError, match="out of range"):
        MeshDocument(np.zeros((4, 3)), [[0.0, 1.0, 2.0, 1e300]])


_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300,
            1e300, -1.7976931348623157e308, 0.5, 1.0 / 3.0, 123456789.0]
_ROWS = [1, _OBJ_BLOCK - 1, _OBJ_BLOCK, _OBJ_BLOCK + 1]


def _obj_oracle(verts, faces) -> bytes:
    lines = [f"v {x:.9g} {y:.9g} {z:.9g}\n" for x, y, z in verts.tolist()]
    lines += [f"f {a+1} {b+1} {c+1} {d+1}\n" for a, b, c, d in faces.tolist()]
    return "".join(lines).encode()


@settings(max_examples=settings.default.max_examples * 3 // 10, deadline=None)
@given(
    nv=st.sampled_from(_ROWS),
    nf=st.sampled_from(_ROWS),
    pool=st.lists(
        st.one_of(
            st.sampled_from(_SPECIAL),
            st.floats(allow_nan=False, allow_infinity=False),
            st.floats(min_value=1e299, max_value=1e301),
            st.floats(min_value=-1e-299, max_value=-1e-301),
        ),
        min_size=1,
        max_size=20,
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_export_mesh_matches_per_row_oracle(tmp_path_factory, nv, nf, pool, seed):
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, 2**64, size=(nv, 3), dtype=np.uint64).view(np.float64)
    verts = np.where(rng.random((nv, 3)) < 0.5, rng.choice(np.array(pool), (nv, 3)), raw)
    verts[~np.isfinite(verts)] = -0.0
    faces = rng.integers(0, nv, size=(nf, 4))
    p = tmp_path_factory.getbasetemp() / "oracle.obj"
    export_mesh(MeshDocument(verts, faces), p)
    assert p.read_bytes() == _obj_oracle(verts, faces)


def _fixed_notation_values(rng, shape):
    """Both signs of floats the kernel must write or refuse exactly.

    Log-uniform magnitudes in [1e-5, 1e9]; 9-digit significands M with
    runs of zero digits, at every exponent; constructed ties (M + 0.5) *
    10**(e - 8); powers of ten and their nextafter neighbours; the edges of
    the fixed notation and their neighbours; zeros, subnormals and
    integer-valued floats.
    """
    k = rng.integers(-6, 11, shape).astype(float)
    magnitude = 10.0 ** rng.uniform(-5, 9, shape)
    digits = rng.integers(1, 10, shape + (9,)) * (rng.random(shape + (9,)) < 0.3)
    digits[..., 0] = rng.integers(1, 10, shape)
    significand = (digits * 10.0 ** np.arange(8, -1, -1)).sum(axis=-1)
    sparse = np.where(k <= 8, significand / 10.0 ** (8 - np.minimum(k, 8)), significand * 10.0 ** (k - 8))
    tie = (rng.integers(10**8, 10**9, shape) + 0.5) * 10.0 ** (k - 8)
    power = 10.0 ** k
    neighbour = np.nextafter(power, np.where(rng.random(shape) < 0.5, 0.0, np.inf))
    edges = np.array([9.9999999950e-5, 999999999.5, 1e-4, 1e-5, 1e8, 1e9, 0.0, 5e-324,
                      2.2250738585072014e-308, 1e-300])
    edge = rng.choice(np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)]), shape)
    whole = rng.integers(0, 2 * 10**9, shape).astype(float)
    x = np.choose(rng.integers(0, 7, shape), [magnitude, sparse, tie, power, neighbour, edge, whole])
    return np.where(rng.random(shape) < 0.5, -x, x)


@settings(max_examples=settings.default.max_examples // 2, deadline=None)
@given(nv=st.sampled_from(_ROWS), seed=st.integers(0, 2**32 - 1))
def test_export_mesh_fixed_notation_matches_per_row_oracle(tmp_path_factory, nv, seed):
    rng = np.random.default_rng(seed)
    verts = _fixed_notation_values(rng, (nv, 3))
    faces = rng.integers(0, nv, size=(3, 4))
    p = tmp_path_factory.getbasetemp() / "fixed.obj"
    export_mesh(MeshDocument(verts, faces), p)
    assert p.read_bytes() == _obj_oracle(verts, faces)


@pytest.mark.parametrize("top", [10**3, 10**4, 10**7, 10**8, 10**11])
def test_face_lines_at_group_boundaries(top):
    # indices this large need a mesh too big to build, so the face kernel is
    # called directly; small indices share each block with large ones
    edge = [top - 1, top, top + 1]
    faces = np.array([edge + [1], [1, 9, 10, 99], [100, 999, 1000, 9999], [10**4, 10**4 + 1, 1, top]])
    got = _face_lines(faces.astype(float)).tobytes().translate(None, b"\0")
    assert got == "".join(f"f {a} {b} {c} {d}\n" for a, b, c, d in faces.tolist()).encode()


def test_export_mesh_refuses_empty():
    mesh = MeshDocument(np.zeros((4, 3)), np.empty((0, 4), dtype=int))
    with pytest.raises(ValueError, match="empty mesh"):
        export_mesh(mesh, "/tmp/never-written.obj")


def test_export_torus_grid_obj(tmp_path):
    verts, faces = torus_grid(TorusParams(2.0, 1.0), 8, 8)
    p = tmp_path / "m.obj"
    export_mesh(MeshDocument(verts, faces), p)
    lines = p.read_text().splitlines()
    vlines = [ln for ln in lines if ln.startswith("v ")]
    flines = [ln for ln in lines if ln.startswith("f ")]
    assert len(vlines) == 64 and len(flines) == 64
    assert lines[: len(vlines)] == vlines  # all vertices before all faces
    first = vlines[0].split()
    assert first == ["v", "3", "0", "0"]
    # face indices are 1-based and in range
    for ln in flines:
        ids = [int(tok) for tok in ln.split()[1:]]
        assert len(ids) == 4
        assert all(1 <= i <= 64 for i in ids)


def test_exported_vertices_parse_close(tmp_path):
    verts, faces = torus_grid(TorusParams(2.0, 1.0), 6, 6)
    p = tmp_path / "m.obj"
    export_mesh(MeshDocument(verts, faces), p)
    got = np.array(
        [
            [float(tok) for tok in ln.split()[1:]]
            for ln in p.read_text().splitlines()
            if ln.startswith("v ")
        ]
    )
    # 9 significant digits keep re-parsed coordinates within 1e-7
    assert np.max(np.abs(got - verts)) <= 1e-7


# -- reports ----------------------------------------------------------------


def test_report_json_deterministic():
    doc = ReportDocument(
        command="x", parameters={"b": 1, "a": 2}, results={"z": [1, 2]}
    )
    one = doc.to_json()
    two = ReportDocument(
        command="x", parameters={"a": 2, "b": 1}, results={"z": [1, 2]}
    ).to_json()
    assert one == two  # key order cannot leak into the bytes
    assert one.endswith("\n")
    assert '"schema_version": "1"' in one


def test_report_json_refuses_non_finite_floats():
    for bad in (float("nan"), float("inf")):
        doc = ReportDocument(command="x", parameters={"tol": bad}, results={})
        with pytest.raises(ValueError):
            doc.to_json()


def _oracle(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)


# characters the writer's layout leans on: its separator byte, the row
# template's "%", the row split's "]" and "[", escapes and non-ASCII
_TEXT = st.text(
    st.sampled_from(["\x01", "%", "s", '"', "\\", "]", "[", ",", "\n", "é", "\u2603", "\U0001f600", "a"])
    | st.characters(),
    max_size=5,
)
_SCALAR = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | _TEXT


@st.composite
def _record_table(draw, trees):
    """Dicts sharing one key set; a column holds scalars of mixed types,
    nonempty flat lists or anything, and one row may lose a key."""
    keys = draw(st.lists(_TEXT, min_size=1, max_size=4, unique=True))
    cells = {
        "scalars": _SCALAR,
        "flat": st.lists(_SCALAR, min_size=1, max_size=3) | st.tuples(_SCALAR, _SCALAR),
        "lists": st.lists(_SCALAR, max_size=2),
        "trees": trees,
    }
    kinds = [draw(st.sampled_from(sorted(cells))) for _ in keys]
    rows = [{k: draw(cells[kind]) for k, kind in zip(keys, kinds)} for _ in range(draw(st.integers(1, 5)))]
    if draw(st.booleans()):
        del draw(st.sampled_from(rows))[draw(st.sampled_from(keys))]
    return rows


_TREES = st.recursive(
    _SCALAR,
    lambda trees: st.lists(trees, max_size=4)
    | st.lists(trees, max_size=3).map(tuple)
    | st.dictionaries(_TEXT, trees, max_size=4)
    | _record_table(trees),
    max_leaves=40,
)


@settings(deadline=None)
@given(obj=_TREES)
def test_report_writer_matches_json_dumps(obj):
    assert _json_text(obj, "\n") == _oracle(obj)
    doc = ReportDocument(command="x", parameters={"p": obj}, results={"r": [obj, {"q": obj}]})
    assert doc.to_json() == _oracle(doc.to_dict()) + "\n"


@pytest.mark.parametrize(
    "obj",
    [
        {2: [1], 10: {}, -1: [{"a": 1}]},
        {2.5: [1, [2]], 0.1: None},
        {True: [[]], False: 0},
        {None: {"k": [1, 2]}},
        [{3: 1, 1: [1.5, "x"]}, {1: [2], 3: None}],
        [{"a": []}, {"a": [1]}],
        [{"a": [[1]]}, {"a": [[2]]}],
        [{}, {}],
        [[], [[]], {}],
    ],
)
def test_report_writer_matches_json_dumps_on_edge_cases(obj):
    assert _json_text(obj, "\n") == _oracle(obj)


def test_report_writer_matches_json_dumps_on_bench_size_points_report():
    # the benchmark's points job: 8,192 samples of S^2, every pair a table row
    fm = feature_map_from_config({"name": "even-coords", "dim": 3, "tolerance": 0.0})
    result = borsuk.but_search(borsuk.feature_descriptor(fm), grid=geometry.sphere_sample(2, 4096))
    doc = ReportDocument(command="but search", parameters={"n": 2}, results=result.to_dict())
    assert len(doc.to_dict()["results"]["pairs"]) == 4096
    assert doc.to_json() == _oracle(doc.to_dict()) + "\n"


_RECORDS = [{"a": 1, "b": [1.0, 2.0]}, {"a": 2, "b": [3.0, 4.0]}]
_PLACES = [
    lambda x: x,
    lambda x: [1, x],
    lambda x: {"k": x, "l": [{}]},
    lambda x: _RECORDS + [{"a": x, "b": [1.0]}],
    lambda x: _RECORDS + [{"a": 3, "b": [1.0, x]}],
    lambda x: [{"a": [x]}, {"a": [[1]]}],
]


@pytest.mark.parametrize("place", range(len(_PLACES)))
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_report_writer_refuses_non_finite_floats(place, bad):
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        _json_text(_PLACES[place](bad), "\n")


@pytest.mark.parametrize("place", range(len(_PLACES)))
def test_report_writer_refuses_unserialisable_values(place):
    with pytest.raises(TypeError, match="not JSON serializable"):
        _json_text(_PLACES[place](object()), "\n")
    with pytest.raises(TypeError, match="keys must be str"):
        _json_text(_PLACES[place]({(1, 2): [1, {}]}), "\n")


def test_file_digest_stable(tmp_path):
    p = write(tmp_path, "d.txt", "payload")
    assert file_digest(p) == file_digest(p)
    q = write(tmp_path, "d2.txt", "payload2")
    assert file_digest(p) != file_digest(q)


# -- refusals ---------------------------------------------------------------


@pytest.mark.parametrize(
    "write, message",
    [
        (lambda p: save_curve_csv(p, np.zeros((2, 2))), r"curve must be an \(m, 3\) array"),
        (lambda p: save_curve_csv(p, np.zeros(3)), r"curve must be an \(m, 3\) array"),
        (lambda p: MeshDocument(np.zeros((4, 2)), [[0, 1, 2, 3]]), r"nonempty \(m, 3\) array"),
        (lambda p: MeshDocument(np.zeros((0, 3)), np.zeros((0, 4), int)), r"nonempty \(m, 3\) array"),
        (lambda p: MeshDocument([[0.0, 0.0, np.nan]] * 4, [[0, 1, 2, 3]]), "mesh vertices must be finite"),
        (lambda p: MeshDocument(np.zeros((4, 3)), [[0, 1, 2]]), r"\(k, 4\) array of quads"),
        (lambda p: MeshDocument(np.zeros((4, 3)), [0, 1, 2, 3]), r"\(k, 4\) array of quads"),
    ],
)
def test_io_refuses_invalid_input_by_name(tmp_path, write, message):
    p = tmp_path / "never.out"
    with pytest.raises(ValueError, match=message):
        write(p)
    assert not p.exists()
