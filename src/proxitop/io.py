"""CSV, OBJ, and JSON report plumbing.

Formats are deliberately rigid so runs are reproducible byte for byte:

* trace CSV: header "t,x,z", one sample per row, t strictly increasing;
* point CSV: header "x1,...,xn", one point per row;
* curve CSV: header "x,y,z", floats written with shortest round-trip repr;
* OBJ: "v x y z" lines with 9 significant digits, then 1-based "f a b c d"
  quads, LF line endings;
* reports: JSON with a schema_version field and sorted keys, no
  timestamps, so identical inputs give identical bytes.

Tables are read and written whole: a CSV body is parsed by one numpy call
into a checked float array, and OBJ lines are formatted in blocks of
``_OBJ_BLOCK`` rows by one ``%`` template each. The line-by-line CSV loop
runs only when the bulk parse refuses a body, to name the first bad line
and column; loader errors carry 1-based line numbers.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass

import numpy as np

SCHEMA_VERSION = "1"

# Rows per OBJ formatting template: one template over a whole 320k-row mesh
# would build a tuple of about 30 MB.
_OBJ_BLOCK = 4096

# ASCII separators numpy strips around a number like whitespace but float()
# refuses; a body holding one goes to the line loop.
_FLOAT_REFUSED_SPACE = "\x1c\x1d\x1e\x1f"

__all__ = [
    "SCHEMA_VERSION",
    "MeshDocument",
    "ReportDocument",
    "load_trace_csv",
    "save_curve_csv",
    "load_points_csv",
    "save_points_csv",
    "export_mesh",
    "file_digest",
]


def _parse_float(raw: str, line: int, col: str) -> float:
    try:
        v = float(raw)
    except ValueError:
        raise ValueError(f"line {line}: column {col} is not a number: {raw!r}") from None
    if not np.isfinite(v):
        raise ValueError(f"line {line}: column {col} is not finite: {raw!r}")
    return v


def _open_table(path) -> tuple:
    """Read a CSV file once: (header row or None, reader over the body rows, body lines)."""
    with open(path, "r", newline="") as fh:
        lines = io.StringIO(fh.read(), newline="").readlines()
    rows = csv.reader(lines)
    header = next(rows, None)
    return header, rows, lines[rows.line_num :]


def _parse_rows(rows, names: list, increasing: bool) -> np.ndarray:
    """The line-by-line parse; it exists only to name the first bad line and column."""
    out = []
    for k, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != len(names):
            raise ValueError(f"line {k}: expected {len(names)} columns, got {len(row)}")
        vals = [_parse_float(c, k, name) for c, name in zip(row, names)]
        if increasing and out and vals[0] <= out[-1][0]:
            raise ValueError(
                f"line {k}: {names[0]} must increase strictly ({vals[0]} after {out[-1][0]})"
            )
        out.append(vals)
    return np.array(out, dtype=float).reshape(-1, len(names))


def _parse_table(rows, body: list, names: list, increasing: bool) -> np.ndarray:
    """Parse a CSV body into an (m, len(names)) float array.

    One ``np.loadtxt`` call parses the whole body; its result is accepted
    only with the expected width, all values finite and, if ``increasing``,
    a strictly increasing first column. Anything else goes to the line loop,
    which gives the result or the error the loader has always given: it
    still accepts what numpy does not parse (quoted fields, ``1_000``) and
    names the first bad line otherwise.
    """
    text = "".join(body)
    if text.strip() and not any(c in text for c in _FLOAT_REFUSED_SPACE):
        try:
            a = np.loadtxt(body, delimiter=",", comments=None, dtype=float, ndmin=2)
        except ValueError:
            a = None
        if (
            a is not None
            and a.shape[1] == len(names)
            and np.isfinite(a).all()
            and (not increasing or (a[1:, 0] > a[:-1, 0]).all())
        ):
            return a
    return _parse_rows(rows, names, increasing)


def load_trace_csv(path) -> np.ndarray:
    """Read an EEG trace CSV: header t,x,z then samples with increasing t.

    Returns the checked (m, 3) float array of (t, x, z) rows; m is 0 for a
    header-only file. The body is parsed in one numpy call; the line loop
    runs only to name the first bad line and column in the error.
    """
    header, rows, body = _open_table(path)
    if header is None or [c.strip() for c in header] != ["t", "x", "z"]:
        raise ValueError("line 1: trace header must be exactly 't,x,z'")
    return _parse_table(rows, body, ["t", "x", "z"], increasing=True)


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
    """Read a point set CSV with header x1,...,xn; returns the checked (m, n) array.

    m is 0 for a header-only file. The body is parsed in one numpy call;
    the line loop runs only to name the first bad line and column.
    """
    header, rows, body = _open_table(path)
    if header is None:
        raise ValueError("line 1: empty file, expected a header x1,...,xn")
    header = [c.strip() for c in header]
    n = len(header)
    if n == 0 or header != [f"x{i+1}" for i in range(n)]:
        raise ValueError("line 1: point header must be x1,...,xn")
    return _parse_table(rows, body, header, increasing=False)


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
        f = np.asarray(self.faces)
        if v.ndim != 2 or v.shape[1] != 3 or v.shape[0] == 0:
            raise ValueError("mesh vertices must be a nonempty (m, 3) array")
        if not np.all(np.isfinite(v)):
            raise ValueError("mesh vertices must be finite")
        integral = np.issubdtype(f.dtype, np.integer) or (
            np.issubdtype(f.dtype, np.floating) and np.isfinite(f).all() and (f == np.floor(f)).all()
        )
        if not integral:
            raise ValueError("mesh faces must be integer indices")
        if f.size == 0:
            f = f.reshape(0, 4)
        if f.ndim != 2 or f.shape[1] != 4:
            raise ValueError("mesh faces must be a (k, 4) array of quads")
        if f.size and (f.min() < 0 or f.max() >= v.shape[0]):
            raise ValueError("mesh face indices out of range")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "faces", f.astype(int, copy=False))


def export_mesh(mesh: MeshDocument, path) -> None:
    """Write a quad mesh as OBJ: 9-significant-digit v lines, 1-based f lines.

    Lines are formatted ``_OBJ_BLOCK`` rows at a time by one ``%`` template
    over the block's values; ``"%.9g" % x`` is the same string as
    ``f"{x:.9g}"`` for every finite double.
    """
    if mesh.vertices.shape[0] == 0 or mesh.faces.shape[0] == 0:
        raise ValueError("refusing to export an empty mesh")
    with open(path, "w", newline="\n") as fh:
        for i in range(0, mesh.vertices.shape[0], _OBJ_BLOCK):
            block = mesh.vertices[i : i + _OBJ_BLOCK]
            fh.write(("v %.9g %.9g %.9g\n" * block.shape[0]) % tuple(block.ravel().tolist()))
        for i in range(0, mesh.faces.shape[0], _OBJ_BLOCK):
            block = mesh.faces[i : i + _OBJ_BLOCK] + 1
            fh.write(("f %d %d %d %d\n" * block.shape[0]) % tuple(block.ravel().tolist()))


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
