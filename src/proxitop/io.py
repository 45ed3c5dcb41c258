"""CSV, OBJ, and JSON report plumbing.

Formats are deliberately rigid so runs are reproducible byte for byte:

* trace CSV: header "t,x,z", one sample per row, t strictly increasing;
* point CSV: header "x1,...,xn", one point per row;
* curve CSV: header "x,y,z", floats written with shortest round-trip repr;
* OBJ: "v x y z" lines with 9 significant digits, then 1-based "f a b c d"
  quads, LF line endings;
* reports: JSON with a schema_version field and sorted keys, no
  timestamps, so identical inputs give identical bytes.

Tables are read and written whole. A CSV body is parsed by one numpy call
into a checked float array; the line-by-line loop runs only when the bulk
parse refuses a body, to name the first bad line and column, and loader
errors carry 1-based line numbers.

OBJ lines are made ``_OBJ_BLOCK`` rows at a time by a numpy byte kernel:
every 4-digit group is one uint32 gathered from a 10,000-entry table of
ASCII words, with b"\\0" where a byte is dropped, each line is a row of
such words, and ``bytes.translate`` deletes the padding. The bytes are
those of ``"%.9g"`` and ``%d`` by construction. For a vertex value x with
decimal exponent e, s = |x| * 10**(8 - e) is one correctly rounded product
(10**k is exact for k <= 22), so it is within half an ulp, below 6e-8, of
its exact value; when s is more than 1e-5 from a rounding tie, rint(s) is
the significand ``"%.9g"`` rounds to. The kernel writes a value only then,
and only when its rounded exponent is in [-4, 8], where ``%g`` uses fixed
notation; every other value (zeros, subnormals, the exponent form,
near-ties) is formatted by ``"%.9g"`` itself.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass

import numpy as np

SCHEMA_VERSION = "1"

# Rows per OBJ block: bounds the kernel's index and word arrays to a few MB.
_OBJ_BLOCK = 8192

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


def _obj_words() -> np.ndarray:
    """The OBJ kernel's word table: 4 ASCII bytes per uint32, b"\\0" where a byte is dropped.

    Three 10,000-entry variants of each 4-digit group: trailing zeros
    blanked (0 is all blank), leading zeros blanked (0 is "0") and zero
    padded; then " " and " -" with 0-99 (leading blanked, 0 is "0") or no
    digits, " " with 0-999 (0 is no digits), and ".", "v", "f" and LF.
    """
    # built as (byte place, entry) columns, transposed once at the end
    digits = np.indices((10, 10, 10, 10), dtype=np.uint8).reshape(4, -1)
    nonzero = digits > 0
    lead = np.logical_or.accumulate(nonzero, axis=0)
    lead[3] = True
    trail = np.logical_or.accumulate(nonzero[::-1], axis=0)[::-1]
    groups = np.stack([trail, lead, np.ones_like(lead)]) * (digits + np.uint8(ord("0")))
    sign = np.zeros((4, 2, 101), dtype=np.uint8)
    sign[0] = ord(" ")
    sign[1, 1] = ord("-")
    sign[2:, :, :100] = groups[1, 2:, None, :100]
    spaced = groups[1, :, :1000].copy()
    spaced[:, 0] = 0
    spaced[0] = ord(" ")
    marks = np.zeros((4, 4), dtype=np.uint8)
    marks[0] = [ord("."), ord("v"), ord("f"), ord("\n")]
    table = np.concatenate([groups.transpose(1, 0, 2).reshape(4, -1), sign.reshape(4, -1), spaced, marks], axis=1)
    return np.ascontiguousarray(table.T).view(np.uint32).ravel()


_WORDS = _obj_words()
# offsets of the table's parts; a group value is added to its variant's
# offset, and _low_groups steps from one group variant to the next by 1e4
_TRAIL, _LEAD, _PAD, _SIGN, _SPACED = 0, 10000, 20000, 30000, 30202
_DOT, _V, _F, _LF = 31202, 31203, 31204, 31205
# 10**k for k <= 22 is exact in binary64
_POW10 = 10.0 ** np.arange(14)


def _low_groups(v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Word indices of the low 4-digit groups of integers v >= 0 (exact floats).

    Rows out[1:] get the groups, most significant first: blank above the
    leading group, leading-blanked on it, zero-padded below it; the last is
    never blank, so 0 is "0". Returns what is left above them.
    """
    last = out.shape[0] - 1
    for i in range(last, 0, -1):
        up = np.floor(v / 1e4)
        # _TRAIL (a 0 above the leading group), _LEAD or _PAD
        out[i] = v - up * 1e4 + 1e4 * ((v >= 1) | (i == last)) + 1e4 * (up >= 1)
        v = up
    return v


def _groups_above(v: np.ndarray, digits: int) -> int:
    """How many 4-digit groups the integers v need below a word of `digits` digits."""
    k = 0
    while v.max() >= 10.0 ** (digits + 4 * k):
        k += 1
    return k


def _line_index(rows: int, head: int, per_line: int, k: int) -> tuple:
    """Word indices of rows lines "head field ... field LF", and a (k, rows, per_line) view of the field words."""
    index = np.empty((rows, 2 + per_line * k), dtype=np.intp)
    index[:, 0] = head
    index[:, -1] = _LF
    return index, index[:, 1:-1].reshape(rows, per_line, k).transpose(2, 0, 1)


def _vertex_lines(v: np.ndarray) -> np.ndarray:
    """The words of the lines "v x y z" of the (rows, 3) vertices v, in "%.9g".

    The kernel writes an integer part, "." and up to 12 fraction digits,
    trailing zeros dropped; the integer part takes as many 4-digit groups as
    the block's largest needs. Values outside its proof of exactness (see
    the module docstring) are formatted by "%.9g" itself.
    """
    a = np.abs(v)
    # the decimal exponent from log10, corrected by one step; clipped so
    # that 10**(8 - e) is a table entry and s never overflows
    e = np.clip(np.floor(np.log10(np.maximum(a, 1e-300))), -5, 8).astype(np.intp)
    s = a * np.take(_POW10, 8 - e)
    e = np.clip(e + (s >= 1e9) - (s < 1e8), -5, 8)
    s = a * np.take(_POW10, 8 - e)
    m = np.rint(s)
    carry = m >= 1e9  # 999999999.5 and up round to 1e8 at the next exponent
    e += carry
    ok = (s >= 1e8) & (s < 1e9) & (np.abs(s - m) < 0.5 - 1e-5) & (e >= -4) & (e <= 8)
    m = np.where(ok & ~carry, m, 1e8)
    e = np.where(ok, e, 0)
    # the value is whole.frac, frac counted in units of 1e-12
    q = np.take(_POW10, 8 - e)
    whole = np.floor(m / q)
    frac = (m - whole * q) * np.take(_POW10, 4 + e)
    # a field is " " or " -" with the top 2 integer digits, k more integer
    # groups, "." and 3 fraction groups: at least 20 bytes, room for any
    # " %.9g" text (17 bytes at most)
    k = _groups_above(whole, 2)
    index, words = _line_index(v.shape[0], _V, 3, k + 5)
    top = _low_groups(whole, words[: k + 1])
    if k:
        top += 100 * (top == 0)  # sign entry 100 has no digits; alone, 0 is "0"
    words[0] = _SIGN + top + 101.0 * np.signbit(v)
    words[k + 1] = _DOT * (frac != 0)
    up = np.floor(frac / 1e4)
    hi = np.floor(frac / 1e8)
    low = frac - up * 1e4
    words[k + 4] = low
    words[k + 3] = up - hi * 1e4 + _PAD * (low != 0)
    words[k + 2] = hi + _PAD * (frac != hi * 1e8)
    lines = np.take(_WORDS, index)
    bad = np.nonzero(~ok)
    if bad[0].size:
        text = np.array([" %.9g" % x for x in v[bad].tolist()], dtype=f"S{4 * (k + 5)}")
        lines[:, 1:-1].reshape(-1, 3, k + 5)[bad] = text.view(np.uint32).reshape(-1, k + 5)
    return lines


def _face_lines(f: np.ndarray) -> np.ndarray:
    """The words of the lines "f a b c d" of the (rows, 4) integers f >= 1 (exact floats)."""
    k = _groups_above(f, 3)
    index, words = _line_index(f.shape[0], _F, 4, k + 1)
    words[0] = _SPACED + _low_groups(f, words)
    return np.take(_WORDS, index)


def export_mesh(mesh: MeshDocument, path) -> None:
    """Write a quad mesh as OBJ: 9-significant-digit v lines, 1-based f lines.

    The bytes are those of ``"v %.9g %.9g %.9g\\n"`` and ``"f %d %d %d %d\\n"``
    per row. A numpy kernel makes them ``_OBJ_BLOCK`` rows at a time: each
    line is a row of uint32 words gathered from a table of 4-byte digit
    groups, and ``bytes.translate`` drops the b"\\0" padding. Vertex values
    outside the kernel's proof of exactness (see the module docstring) are
    formatted by ``"%.9g"`` itself.
    """
    if mesh.vertices.shape[0] == 0 or mesh.faces.shape[0] == 0:
        raise ValueError("refusing to export an empty mesh")
    with open(path, "wb") as fh:
        for i in range(0, mesh.vertices.shape[0], _OBJ_BLOCK):
            lines = _vertex_lines(mesh.vertices[i : i + _OBJ_BLOCK])
            fh.write(lines.tobytes().translate(None, b"\0"))
        for i in range(0, mesh.faces.shape[0], _OBJ_BLOCK):
            lines = _face_lines(mesh.faces[i : i + _OBJ_BLOCK] + 1.0)
            fh.write(lines.tobytes().translate(None, b"\0"))


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
