"""File formats: trace/point CSV, OBJ meshes, JSON reports."""

import numpy as np
import pytest

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


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


# -- trace CSV --------------------------------------------------------------


def test_trace_round_trip(tmp_path):
    p = write(tmp_path, "t.csv", "t,x,z\n0.0,1.5,0.25\n1.0,2.5,-0.5\n")
    recs = load_trace_csv(p)
    assert [r.t for r in recs] == [0.0, 1.0]
    assert recs[0].x == 1.5 and recs[1].z == -0.5


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
