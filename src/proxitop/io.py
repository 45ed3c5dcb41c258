"""CSV, OBJ, and JSON report plumbing.

Formats are deliberately rigid so runs are reproducible byte for byte:

* trace CSV: header "t,x,z", one sample per row, t strictly increasing;
* point CSV: header "x1,...,xn", one point per row;
* curve CSV: header "x,y,z", floats written with shortest round-trip repr;
* OBJ: "v x y z" lines with 9 significant digits, then 1-based "f a b c d"
  quads, LF line endings;
* reports: JSON with a schema_version field and sorted keys, no
  timestamps, so identical inputs give identical bytes.

Loader errors carry 1-based line numbers.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

SCHEMA_VERSION = "1"

__all__ = [
    "SCHEMA_VERSION",
    "TraceRecord",
    "MeshDocument",
    "ReportDocument",
    "load_trace_csv",
    "save_curve_csv",
    "load_points_csv",
    "save_points_csv",
    "export_mesh",
    "file_digest",
]


class TraceRecord(NamedTuple):
    t: float
    x: float
    z: float


def _parse_float(raw: str, line: int, col: str) -> float:
    try:
        v = float(raw)
    except ValueError:
        raise ValueError(f"line {line}: column {col} is not a number: {raw!r}") from None
    if not np.isfinite(v):
        raise ValueError(f"line {line}: column {col} is not finite: {raw!r}")
    return v


def load_trace_csv(path) -> list:
    """Read an EEG trace CSV: header t,x,z then samples with increasing t."""
    with open(path, "r", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or [c.strip() for c in rows[0]] != ["t", "x", "z"]:
        raise ValueError("line 1: trace header must be exactly 't,x,z'")
    out: list[TraceRecord] = []
    prev_t = None
    for k, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 3:
            raise ValueError(f"line {k}: expected 3 columns, got {len(row)}")
        t = _parse_float(row[0], k, "t")
        x = _parse_float(row[1], k, "x")
        z = _parse_float(row[2], k, "z")
        if prev_t is not None and t <= prev_t:
            raise ValueError(f"line {k}: t must increase strictly ({t} after {prev_t})")
        prev_t = t
        out.append(TraceRecord(t, x, z))
    return out


def _write_rows(path, header: list, a: np.ndarray) -> None:
    """Write a header line and one row per point, floats as shortest round-trip repr."""
    lines = [",".join(header)] + [",".join(map(repr, p)) for p in a.tolist()]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def save_curve_csv(path, points) -> None:
    """Write 3-D curve vertices as x,y,z rows (shortest round-trip floats)."""
    a = np.asarray(points, dtype=float)
    if a.ndim != 2 or a.shape[1] != 3:
        raise ValueError("curve must be an (m, 3) array")
    _write_rows(path, ["x", "y", "z"], a)


def load_points_csv(path) -> np.ndarray:
    """Read a point set CSV with header x1,...,xn; returns an (m, n) array."""
    with open(path, "r", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError("line 1: empty file, expected a header x1,...,xn")
    header = [c.strip() for c in rows[0]]
    n = len(header)
    if n == 0 or header != [f"x{i+1}" for i in range(n)]:
        raise ValueError("line 1: point header must be x1,...,xn")
    pts = []
    for k, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != n:
            raise ValueError(f"line {k}: expected {n} columns, got {len(row)}")
        pts.append([_parse_float(c, k, header[i]) for i, c in enumerate(row)])
    if not pts:
        return np.empty((0, n))
    return np.array(pts)


def save_points_csv(path, points) -> None:
    a = np.asarray(points, dtype=float)
    if a.ndim != 2 or a.shape[0] == 0:
        raise ValueError("point set must be a nonempty (m, n) array")
    _write_rows(path, [f"x{i+1}" for i in range(a.shape[1])], a)


@dataclass(frozen=True)
class MeshDocument:
    """Quad mesh: (m, 3) vertices and (k, 4) 0-based face indices."""

    vertices: np.ndarray
    faces: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        f = np.asarray(self.faces, dtype=int)
        if v.ndim != 2 or v.shape[1] != 3 or v.shape[0] == 0:
            raise ValueError("mesh vertices must be a nonempty (m, 3) array")
        if not np.all(np.isfinite(v)):
            raise ValueError("mesh vertices must be finite")
        if f.size == 0:
            f = f.reshape(0, 4)
        if f.ndim != 2 or f.shape[1] != 4:
            raise ValueError("mesh faces must be a (k, 4) array of quads")
        if f.size and (f.min() < 0 or f.max() >= v.shape[0]):
            raise ValueError("mesh face indices out of range")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "faces", f)


def export_mesh(mesh: MeshDocument, path) -> None:
    """Write a quad mesh as OBJ: 9-significant-digit v lines, 1-based f lines."""
    if mesh.vertices.shape[0] == 0 or mesh.faces.shape[0] == 0:
        raise ValueError("refusing to export an empty mesh")
    with open(path, "w", newline="\n") as fh:
        for p in mesh.vertices:
            fh.write(f"v {p[0]:.9g} {p[1]:.9g} {p[2]:.9g}\n")
        for f in mesh.faces:
            fh.write(f"f {f[0]+1} {f[1]+1} {f[2]+1} {f[3]+1}\n")


@dataclass(frozen=True)
class ReportDocument:
    """Machine-readable run report with deterministic, standard-JSON serialization."""

    command: str
    parameters: dict
    results: dict
    input_digest: dict | None = None
    schema_version: str = SCHEMA_VERSION

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "command": self.command,
            "input_digest": self.input_digest,
            "parameters": self.parameters,
            "results": self.results,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2, allow_nan=False) + "\n"


def file_digest(path) -> str:
    """sha256 hex digest of a file's bytes."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
