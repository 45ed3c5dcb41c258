"""File formats: trace/point CSV, OBJ meshes, JSON reports."""

import csv
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxitop import (
    MeshDocument,
    ReportDocument,
    TorusParams,
    export_mesh,
    file_digest,
    load_points_csv,
    load_trace_csv,
    save_curve_csv,
    save_points_csv,
    torus_grid,
)
from proxitop.io import _OBJ_BLOCK, _face_lines, _parse_rows


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


def test_points_round_trip(tmp_path):
    pts = np.array([[0.1, 0.2], [0.3, 0.4], [1.0 / 3.0, 2.0 / 3.0]])
    p = tmp_path / "pts.csv"
    save_points_csv(p, pts)
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


# -- bulk table reader against the line loop --------------------------------

# Whitespace that may pad a number, from none to characters that only one
# of float() and numpy strips (the ASCII separators \x1c-\x1f).
_PADS = [
    [""],
    ["", " "],
    ["", " ", "\t", "\x0b", "\x0c", "\xa0", "\u2028"],
    ["", "\x1c", "\x1f"],
]
_BAD_FIELDS = ["", "   ", '"1.5"', "#", "1 # c", "1_000", "nan", "inf", "-inf",
               "1e400", "0x10", "1d5", "\u0661", "1,"]


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
                lines[i][j] = draw(st.sampled_from(_BAD_FIELDS))
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
    return names, ",".join(names) + eol + eol.join(text_lines) + (end if text_lines else "")


def _outcome(fn, *args):
    try:
        a = fn(*args)
    except ValueError as exc:
        return ("error", str(exc))
    return ("ok", a.shape, a.dtype.str, a.tobytes())


def _line_loop(path, names, increasing):
    with open(path, "r", newline="") as fh:
        rows = csv.reader(fh)
        next(rows)
        return _parse_rows(rows, names, increasing)


_TRACE_CASES = {
    "crlf": "t,x,z\r\n0,1.5,2\r\n1,2.5,3\r\n",
    "blank lines": "t,x,z\n\n0,1.5,2\n\n1,2.5,3\n\n",
    "padded numbers": "t,x,z\n 0 ,\t1.5, 2\n1 , 2.5 ,3\x0c\n",
    "whitespace-only line": "t,x,z\n0,1.5,2\n \n1,2.5,3\n",
    "quoted field": 't,x,z\n0,"1.5",2\n1,2.5,3\n',
    "hash": "t,x,z\n0,1.5,2 # note\n1,2.5,3\n",
    "underscore": "t,x,z\n0,1_000,2\n1,2.5,3\n",
    "nan": "t,x,z\n0,nan,2\n1,2.5,3\n",
    "inf": "t,x,z\n0,1.5,-inf\n1,2.5,3\n",
    "overflow": "t,x,z\n0,1.5,1e400\n1,2.5,3\n",
    "trailing comma": "t,x,z\n0,1.5,2,\n1,2.5,3\n",
    "wrong arity": "t,x,z\n0,1.5\n1,2.5\n",
    "repeated t": "t,x,z\n0,1.5,2\n0,2.5,3\n",
    "falling t": "t,x,z\n1,1.5,2\n0,2.5,3\n",
    "separator pad": "t,x,z\n0,1.5,2\x1c\n1,2.5,3\n",
}


@pytest.mark.parametrize("name", sorted(_TRACE_CASES))
def test_trace_reader_cases_match_line_loop(tmp_path, name):
    path = tmp_path / "t.csv"
    with open(path, "w", newline="") as fh:
        fh.write(_TRACE_CASES[name])
    got = _outcome(load_trace_csv, path)
    assert got == _outcome(_line_loop, path, ["t", "x", "z"], True)
    if name in ("crlf", "blank lines", "padded numbers", "quoted field", "underscore"):
        want = [[0.0, 1000.0 if name == "underscore" else 1.5, 2.0], [1.0, 2.5, 3.0]]
        assert got[0] == "ok" and load_trace_csv(path).tolist() == want
    else:
        assert got[0] == "error"


@pytest.mark.parametrize(
    "text, want",
    [
        ("x1\n1\n-0.0\n", [[1.0], [-0.0]]),
        ("x1,x2\n1,2,3\n4,5,6\n", "line 2: expected 2 columns, got 3"),
        ("x1,x2,x3\n1,2\n4,5\n", "line 2: expected 3 columns, got 2"),
        ("x1,x2\n1,2\ninf,5\n", "line 3: column x1 is not finite: 'inf'"),
    ],
)
def test_point_reader_cases(tmp_path, text, want):
    p = write(tmp_path, "pts.csv", text)
    if isinstance(want, str):
        with pytest.raises(ValueError, match=f"^{want}$"):
            load_points_csv(p)
    else:
        got = load_points_csv(p)
        assert got.tobytes() == np.array(want).tobytes() and got.shape == np.shape(want)


@pytest.mark.parametrize("kind", ["trace", "points"])
def test_table_reader_matches_line_loop(kind, tmp_path_factory):
    path = tmp_path_factory.mktemp(kind) / "table.csv"
    load = load_trace_csv if kind == "trace" else load_points_csv

    @settings(max_examples=400, deadline=None)
    @given(case=_csv_case(kind))
    def check(case):
        names, text = case
        with open(path, "w", newline="") as fh:
            fh.write(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _outcome(load, path)
        assert got == _outcome(_line_loop, path, names, kind == "trace"), repr(text)

    check()


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


def test_file_digest_stable(tmp_path):
    p = write(tmp_path, "d.txt", "payload")
    assert file_digest(p) == file_digest(p)
    q = write(tmp_path, "d2.txt", "payload2")
    assert file_digest(p) != file_digest(q)
