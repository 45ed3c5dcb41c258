"""Worldsheet rolling, torus bending, and EEG trace lifting.

Closed-form surface maps used by the search engines and the CLI:

* roll a flat worldsheet of width w into a cylinder of radius w/(2*pi),
* bend a cylinder into a ring torus (tube radius r, center radius c > r),
* closed-form torus area 4*pi^2*c*r and volume 2*pi^2*c*r^2,
* an implicit-equation residual for membership tests,
* a twist map lifting planar EEG traces to a 3-D string,
* quad-grid mesh builders for the torus and for a trace swept around the
  torus tube.

Angle arguments are taken mod 2*pi. All maps broadcast over numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import StringPath

__all__ = [
    "CylinderParams",
    "TorusParams",
    "TwistSpec",
    "roll_worldsheet",
    "bend_to_torus",
    "sheet_to_torus",
    "torus_measures",
    "torus_residual",
    "twist_height",
    "eeg_twist_lift",
    "torus_grid",
    "trace_to_torus_band",
]


@dataclass(frozen=True)
class CylinderParams:
    """Right circular cylinder: radius and height, both positive."""

    radius: float
    height: float

    def __post_init__(self):
        if not (self.radius > 0 and self.height > 0):
            raise ValueError("cylinder radius and height must be positive")

    @classmethod
    def from_sheet(cls, width: float, height: float) -> "CylinderParams":
        if not (width > 0 and height > 0):
            raise ValueError("sheet width and height must be positive")
        return cls(width / (2.0 * np.pi), height)


@dataclass(frozen=True)
class TorusParams:
    """Ring torus: center-circle radius c and tube radius r, with c > r > 0."""

    center_radius: float
    tube_radius: float

    def __post_init__(self):
        if not (self.tube_radius > 0):
            raise ValueError("torus tube radius must be positive")
        if not (self.center_radius > self.tube_radius):
            raise ValueError(
                f"ring torus requires c > r, got c={self.center_radius} r={self.tube_radius}"
            )


@dataclass(frozen=True)
class TwistSpec:
    """Amplitude-modulated twist: a*(1 - z*cos(inner*x))*cos(outer*x).

    Amplitude 0 degenerates to the constant-zero twist, which is allowed.
    """

    amplitude: float = 1.2
    inner: float = 2.5
    outer: float = 5.0


def _sheet_coords(u, t, width: float, height: float) -> tuple:
    """Sheet coordinates as float arrays, checked against [0, width] x [0, height]."""
    if not (width > 0 and height > 0):
        raise ValueError("sheet width and height must be positive")
    u = np.asarray(u, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(u < -1e-12) or np.any(u > width + 1e-12):
        raise ValueError("sheet coordinate u outside [0, width]")
    if np.any(t < -1e-12) or np.any(t > height + 1e-12):
        raise ValueError("sheet coordinate t outside [0, height]")
    return u, t


def roll_worldsheet(u, t, width: float, height: float) -> np.ndarray:
    """Map sheet coordinates (u, t) onto the cylinder rolled from the sheet.

    The sheet's width direction wraps around a circle of radius
    width/(2*pi); the height coordinate is kept. Coordinates outside
    [0, width] x [0, height] are an error. Broadcasts; returns (..., 3).
    """
    u, t = _sheet_coords(u, t, width, height)
    params = CylinderParams.from_sheet(width, height)
    theta = 2.0 * np.pi * u / width
    r = params.radius
    return np.stack(
        np.broadcast_arrays(r * np.cos(theta), r * np.sin(theta), t), axis=-1
    )


def bend_to_torus(params: TorusParams, u, v) -> np.ndarray:
    """Parametric ring torus point for ring angle u and tube angle v.

    ((c + r*cos v)*cos u, (c + r*cos v)*sin u, r*sin v); broadcasts and
    returns (..., 3).
    """
    c, r = params.center_radius, params.tube_radius
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    ring = c + r * np.cos(v)
    return np.stack(
        np.broadcast_arrays(ring * np.cos(u), ring * np.sin(u), r * np.sin(v)), axis=-1
    )


def sheet_to_torus(params: TorusParams, u, t, width: float, height: float) -> np.ndarray:
    """Composite map: flat sheet -> cylinder -> ring torus.

    Rolling turns the width coordinate into the tube angle; bending turns
    the height coordinate into the ring angle, so (u, t) lands at
    bend_to_torus(2*pi*t/height, 2*pi*u/width).
    """
    u, t = _sheet_coords(u, t, width, height)
    return bend_to_torus(params, 2.0 * np.pi * t / height, 2.0 * np.pi * u / width)


def torus_measures(params: TorusParams) -> tuple:
    """Closed-form (surface area, enclosed volume) of the ring torus."""
    c, r = params.center_radius, params.tube_radius
    return (4.0 * np.pi**2 * c * r, 2.0 * np.pi**2 * c * r**2)


def torus_residual(p, params: TorusParams):
    """Residual of the implicit torus equation at 3-D points.

    |(sqrt(x^2 + y^2) - c)^2 + z^2 - r^2|; zero exactly on the surface.
    Accepts a single point or an (..., 3) array.
    """
    a = np.asarray(p, dtype=float)
    if a.shape[-1] != 3:
        raise ValueError("torus residual needs 3-D points")
    c, r = params.center_radius, params.tube_radius
    rho = np.hypot(a[..., 0], a[..., 1])
    out = np.abs((rho - c) ** 2 + a[..., 2] ** 2 - r**2)
    return float(out) if out.ndim == 0 else out


def twist_height(x, z, spec: TwistSpec = TwistSpec()):
    """Twist displacement a*(1 - z*cos(inner*x))*cos(outer*x); broadcasts.

    Evaluated in distributed form a*co - a*co*z*ci so the pinned values at
    x = 0 and x = pi/5 come out exact in floating point for |z| <= 1.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    amp_co = spec.amplitude * np.cos(spec.outer * x)
    out = amp_co - amp_co * z * np.cos(spec.inner * x)
    return float(out) if out.ndim == 0 else out


def eeg_twist_lift(trace, spec: TwistSpec = TwistSpec()) -> StringPath:
    """Lift a planar trace of (x, z) samples to the 3-D twisted string.

    Each sample becomes one vertex (x, z, twist_height(x, z)); the first two
    coordinates are copied bit for bit and the vertex order follows the
    trace. Needs at least 2 samples and consecutive samples that differ in
    (x, z), since the result is a polyline.
    """
    a = np.asarray(trace, dtype=float)
    if a.ndim != 2 or a.shape[1] != 2 or a.shape[0] < 2:
        raise ValueError("trace must be an (m, 2) array of at least 2 (x, z) samples")
    if not np.all(np.isfinite(a)):
        raise ValueError("trace samples must be finite")
    if np.any(np.all(a[1:] == a[:-1], axis=1)):
        raise ValueError("consecutive trace samples must differ in (x, z)")
    lifted = np.empty((a.shape[0], 3))
    lifted[:, 0] = a[:, 0]
    lifted[:, 1] = a[:, 1]
    lifted[:, 2] = twist_height(a[:, 0], a[:, 1], spec)
    return StringPath(lifted)


def _quad_faces(rows: int, cols: int, wrap_rows: bool) -> np.ndarray:
    """Quads of a rows x cols vertex grid stored row-major, 0-based.

    Columns always wrap (the last column joins the first); rows wrap only
    when wrap_rows is set. Face (i, j) is [(i, j), (i+1, j), (i+1, j+1),
    (i, j+1)], faces in row-major (i, j) order.
    """
    i = np.arange(rows if wrap_rows else rows - 1)[:, None]
    j = np.arange(cols)[None, :]
    i2, j2 = (i + 1) % rows, (j + 1) % cols
    quads = np.broadcast_arrays(i * cols + j, i2 * cols + j, i2 * cols + j2, i * cols + j2)
    return np.stack(quads, axis=-1).reshape(-1, 4)


def torus_grid(params: TorusParams, nu: int, nv: int) -> tuple:
    """Quad mesh of the full torus on an nu x nv angle grid.

    Returns (vertices, faces): nu*nv vertices in row-major (ring, tube)
    order and nu*nv wrapping quads with 0-based indices.
    """
    nu, nv = int(nu), int(nv)
    if nu < 3 or nv < 3:
        raise ValueError("torus grid needs at least 3 samples per direction")
    u = 2.0 * np.pi * np.arange(nu) / nu
    v = 2.0 * np.pi * np.arange(nv) / nv
    uu, vv = np.meshgrid(u, v, indexing="ij")
    verts = bend_to_torus(params, uu, vv).reshape(-1, 3)
    return verts, _quad_faces(nu, nv, wrap_rows=True)


def trace_to_torus_band(params: TorusParams, trace, tube_strings: int = 16) -> tuple:
    """Sweep a planar trace around the torus tube as a quad-mesh band.

    The trace abscissa x maps to the ring angle (normalized over the
    x-range) and the amplitude z to a tube-angle offset (normalized over
    the z-range, 0 when the trace is flat). tube_strings parallel copies
    wrap the tube, giving m*tube_strings vertices, all exactly on the
    torus, and (m-1)*tube_strings quads (wrapping in the tube direction
    only). Needs at least 2 samples and a nonconstant abscissa.
    """
    a = np.asarray(trace, dtype=float)
    if a.ndim != 2 or a.shape[1] != 2 or a.shape[0] < 2:
        raise ValueError("trace must be an (m, 2) array with m >= 2")
    k = int(tube_strings)
    if k < 3:
        raise ValueError("tube_strings must be at least 3")
    x, z = a[:, 0], a[:, 1]
    xspan = float(x.max() - x.min())
    if xspan <= 0:
        raise ValueError("trace abscissa spans no range")
    zspan = float(z.max() - z.min())
    u = 2.0 * np.pi * (x - x.min()) / xspan
    v0 = np.zeros_like(z) if zspan <= 0 else 2.0 * np.pi * (z - z.min()) / zspan
    offsets = 2.0 * np.pi * np.arange(k) / k
    verts = bend_to_torus(params, u[:, None], v0[:, None] + offsets[None, :]).reshape(-1, 3)
    return verts, _quad_faces(a.shape[0], k, wrap_rows=False)
