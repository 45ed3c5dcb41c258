"""CSV, OBJ, and JSON report plumbing.

Formats are deliberately rigid so runs are reproducible byte for byte:

* trace CSV: header "t,x,z", one sample per row, t strictly increasing;
* point CSV: header "x1,...,xn", one point per row;
* curve CSV: header "x,y,z", floats written with shortest round-trip repr;
* OBJ: "v x y z" lines with 9 significant digits, then 1-based "f a b c d"
  quads, LF line endings;
* reports: JSON with a schema_version field and sorted keys, no
  timestamps, so identical inputs give identical bytes; the bytes are those
  of ``json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)``, made
  by the stdlib's C encoder (see ``_json_text``).

Tables are read and written whole. A CSV body cell is an ASCII float,
``[+-]?([0-9]+[.]?[0-9]*|[.][0-9]+)([eE][+-]?[0-9]+)?``, with a finite
value, padded by spaces and tabs; "\\r\\n" and "\\r" end a line as "\\n"
does, and empty lines are skipped. Such a body is parsed by one numpy call
into a checked float array. Any other body is refused, and the error names
its first bad line (1-based) and column. The writers refuse non-finite values.

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

import hashlib
import json
from dataclasses import dataclass
from itertools import chain

import numpy as np

SCHEMA_VERSION = "1"

# Rows per OBJ block: bounds the kernel's index and word arrays to a few MB.
_OBJ_BLOCK = 8192

# The characters of a CSV body cell: an ASCII float, padded by spaces and
# tabs. Over them, np.loadtxt and float() read the same grammar.
_NUMBER = b"0123456789+-.eE \t"

__all__ = [
    "SCHEMA_VERSION",
    "MeshDocument",
    "ReportDocument",
    "load_trace_csv",
    "save_curve_csv",
    "load_points_csv",
    "export_mesh",
    "file_digest",
]


def _within(text: str, chars: bytes) -> bool:
    """text holds only the given ASCII characters."""
    return text.isascii() and not text.encode().translate(None, chars)


def _read_table(path) -> tuple:
    """A CSV file read once in text mode, so "\\r\\n" and "\\r" end lines: (header cells, body)."""
    with open(path) as fh:
        header, _, body = fh.read().partition("\n")
    return [c.strip(" \t") for c in header.split(",")], body


def _cell_error(raw: str) -> str | None:
    """Why a body cell is refused, or None for a finite ASCII float; nan, inf and infinity are not finite."""
    try:
        v = float(raw)
    except ValueError:
        return "is not a number"
    if not _within(raw, _NUMBER + b"afintyAFINTY"):
        return "is not a number"
    return None if np.isfinite(v) else "is not finite"


def _bad_line(body: str, names: list, increasing: bool) -> ValueError:
    """The error naming a refused body's first bad line: its width, a cell or a falling first column."""
    last = -np.inf
    for k, line in enumerate(body.split("\n"), start=2):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != len(names):
            return ValueError(f"line {k}: expected {len(names)} columns, got {len(cells)}")
        for raw, name in zip(cells, names):
            if why := _cell_error(raw):
                return ValueError(f"line {k}: column {name} {why}: {raw!r}")
        t = float(cells[0])
        if increasing and t <= last:
            return ValueError(f"line {k}: {names[0]} must increase strictly ({t} after {last})")
        last = t
    return ValueError("the table body was refused, but no line of it is bad")


def _parse_table(body: str, names: list, increasing: bool) -> np.ndarray:
    """Parse a CSV body into a checked (m, len(names)) float array, or raise at its first bad line.

    Only a body of number characters, commas and newlines reaches the one
    ``np.loadtxt`` call, and its result is accepted only with the expected
    width, all values finite and, if ``increasing``, a rising first column.
    """
    if _within(body, _NUMBER + b",\n"):
        if not body.strip("\n"):
            return np.empty((0, len(names)))
        try:
            a = np.loadtxt(body.split("\n"), delimiter=",", comments=None, dtype=float, ndmin=2)
        except ValueError:
            a = np.empty((0, 0))
        good = a.shape[1] == len(names) and np.isfinite(a).all()
        if good and (not increasing or (a[1:, 0] > a[:-1, 0]).all()):
            return a
    raise _bad_line(body, names, increasing)


def load_trace_csv(path) -> np.ndarray:
    """Read an EEG trace CSV: header t,x,z then samples with increasing t.

    Returns the checked (m, 3) float array of (t, x, z) rows; m is 0 for a
    header-only file. A file outside the format is refused at its first bad line.
    """
    header, body = _read_table(path)
    if header != ["t", "x", "z"]:
        raise ValueError("line 1: trace header must be exactly 't,x,z'")
    return _parse_table(body, header, increasing=True)


def save_curve_csv(path, points) -> None:
    """Write 3-D curve vertices as x,y,z rows (shortest round-trip floats); a non-finite row is refused."""
    a = np.asarray(points, dtype=float)
    if a.ndim != 2 or a.shape[1] != 3:
        raise ValueError("curve must be an (m, 3) array")
    bad = np.flatnonzero(~np.isfinite(a).all(axis=1))
    if bad.size:
        raise ValueError(f"row {bad[0]} is not finite: {a[bad[0]].tolist()}")
    lines = ["x,y,z"] + [",".join(map(repr, p)) for p in a.tolist()]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_points_csv(path) -> np.ndarray:
    """Read a point set CSV with header x1,...,xn; returns the checked (m, n) array.

    m is 0 for a header-only file; a file outside the format is refused at its first bad line.
    """
    header, body = _read_table(path)
    if header != [f"x{i+1}" for i in range(len(header))]:
        raise ValueError("line 1: point header must be x1,...,xn")
    return _parse_table(body, header, increasing=False)


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


# The item separator of the one-line encoder below. With ensure_ascii, no
# encoded string holds a raw control character, so "\x01" in its output
# only ever follows an item.
SEP = ",\x01"
_encode = json.JSONEncoder(separators=(SEP, ": "), sort_keys=True, allow_nan=False).encode
_SCALARS = frozenset({str, int, float, bool, type(None)})


def _scalars(items) -> bool:
    return _SCALARS.issuperset(map(type, items))


def _column(cells: list, pad: str) -> tuple | None:
    """A record-table column as (texts, row slot) for values at indent pad, or None."""
    if _scalars(cells):
        return _encode(cells)[1:-1].split(SEP), "%s"
    if {list, tuple}.issuperset(map(type, cells)) and all(cells) and _scalars(chain.from_iterable(cells)):
        inner = pad + "  "
        # rows end in "]", scalars never do: only a row boundary reads "],\n  ["
        text = _encode(cells)[2:-2].replace(SEP, "," + inner)
        return text.split("]," + inner + "["), "[" + inner + "%s" + pad + "]"
    return None


def _table(rows, pad: str) -> str | None:
    """A record table, a list of dicts sharing one nonempty key set, at indent pad; else None."""
    keys = rows[0].keys() if type(rows[0]) is dict else None
    if not keys or not {dict}.issuperset(map(type, rows)) or not all(map(keys.__eq__, map(dict.keys, rows))):
        return None
    inner, field = pad + "  ", pad + "    "
    columns = [_column([row[k] for row in rows], field) for k in sorted(keys)]
    if None in columns:
        return None
    heads = _encode(dict.fromkeys(keys, 0))[1:-1].split(SEP)  # '"key": 0', sorted
    slots = [h[:-1].replace("%", "%%") + slot for h, (_, slot) in zip(heads, columns)]
    row = "{" + field + ("," + field).join(slots) + inner + "}"
    items = [row % cells for cells in zip(*(texts for texts, _ in columns))]
    return "[" + inner + ("," + inner).join(items) + pad + "]"


def _json_text(obj, pad: str) -> str:
    """obj as json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) writes it at indent pad.

    Only the layout is done here: every run of leaves is one call of the C
    encoder, which json.dumps uses only when indent is None. A container of
    scalars is encoded whole and its separators become newlines; a record
    table is encoded one column at a time, each column of scalars or of
    nonempty flat lists, and each row is filled into one %-template of the
    sorted keys. Anything else is walked.
    """
    if not isinstance(obj, (list, tuple, dict)) or not obj:
        return _encode(obj)
    inner = pad + "  "
    if _scalars(obj.values() if isinstance(obj, dict) else obj):
        text = _encode(obj)
        return text[0] + inner + text[1:-1].replace(SEP, "," + inner) + pad + text[-1]
    if isinstance(obj, dict):
        heads = _encode(dict.fromkeys(obj, 0))[1:-1].split(SEP)
        items = [h[:-1] + _json_text(obj[k], inner) for h, k in zip(heads, sorted(obj))]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    return _table(obj, pad) or "[" + inner + ("," + inner).join(_json_text(v, inner) for v in obj) + pad + "]"


@dataclass(frozen=True)
class ReportDocument:
    """Machine-readable run report with deterministic, standard-JSON serialization."""

    command: str
    parameters: dict
    results: dict
    input_digest: dict | None = None

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "input_digest": self.input_digest,
            "parameters": self.parameters,
            "results": self.results,
        }

    def to_json(self) -> str:
        """The report as indented, sorted-key, standard JSON with a final newline.

        Byte-identical to ``json.dumps(self.to_dict(), sort_keys=True,
        indent=2, allow_nan=False) + "\\n"``; ``_json_text`` writes it.
        """
        return _json_text(self.to_dict(), "\n") + "\n"


def file_digest(path) -> str:
    """sha256 hex digest of a file's bytes."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
