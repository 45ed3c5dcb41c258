"""Sheet rolling, torus bending, twist lifts, and their measures."""

import numpy as np
import pytest

from proxitop import (
    TorusParams,
    bend_to_torus,
    eeg_twist_lift,
    roll_worldsheet,
    sheet_to_torus,
    torus_grid,
    torus_measures,
    torus_residual,
    trace_to_torus_band,
    twist_height,
)

TAU = 2.0 * np.pi


def test_roll_pins_known_points():
    assert np.allclose(roll_worldsheet(0.0, 0.0, TAU, 1.0), [1.0, 0.0, 0.0])
    assert np.allclose(roll_worldsheet(np.pi, 0.5, TAU, 1.0), [-1.0, 0.0, 0.5])


def test_roll_radius_identity_bulk():
    # every rolled point sits on the cylinder of radius width / tau
    rng = np.random.default_rng(1)
    w, h = 3.7, 2.2
    r = w / TAU
    u = rng.uniform(0.0, w, size=10_000)
    t = rng.uniform(0.0, h, size=10_000)
    p = roll_worldsheet(u, t, w, h)
    assert p.shape == (10_000, 3)
    assert np.max(np.abs(p[:, 0] ** 2 + p[:, 1] ** 2 - r * r)) <= 1e-12
    assert np.array_equal(p[:, 2], t)


def test_roll_rejects_out_of_domain():
    with pytest.raises(ValueError):
        roll_worldsheet(7.0, 0.0, TAU, 1.0)
    with pytest.raises(ValueError):
        roll_worldsheet(0.0, -0.1, TAU, 1.0)


def test_bend_pins_known_points():
    tp = TorusParams(2.0, 1.0)
    assert np.allclose(bend_to_torus(tp, 0.0, 0.0), [3.0, 0.0, 0.0])
    assert np.allclose(bend_to_torus(tp, np.pi / 2, np.pi), [0.0, 1.0, 0.0], atol=1e-15)


def test_bend_residual_identity_bulk():
    tp = TorusParams(1.9, 0.6)
    rng = np.random.default_rng(2)
    u = rng.uniform(0.0, TAU, size=10_000)
    v = rng.uniform(0.0, TAU, size=10_000)
    p = bend_to_torus(tp, u, v)
    assert float(np.max(torus_residual(p, tp))) <= 1e-12


def test_ring_condition_enforced():
    with pytest.raises(ValueError, match="requires c > r"):
        TorusParams(1.0, 1.0)
    with pytest.raises(ValueError, match="requires c > r"):
        TorusParams(0.5, 1.5)


@pytest.mark.parametrize("c, r", [(np.inf, 1.0), (2.0, np.inf), (np.nan, 1.0), (2.0, -np.inf)])
def test_torus_radii_must_be_finite(c, r):
    with pytest.raises(ValueError, match="must be finite"):
        TorusParams(c, r)


def test_torus_measures_closed_form():
    area, volume = torus_measures(TorusParams(2.0, 1.0))
    assert abs(area - 8.0 * np.pi**2) <= 1e-12
    assert abs(volume - 4.0 * np.pi**2) <= 1e-12


def test_torus_measures_against_midpoint_integration():
    tp = TorusParams(2.0, 1.0)
    area, volume = torus_measures(tp)
    n = 512
    u = (np.arange(n) + 0.5) * TAU / n
    v = (np.arange(n) + 0.5) * TAU / n
    uu, vv = np.meshgrid(u, v, indexing="ij")
    cell = (TAU / n) ** 2
    # surface area: |x_u x x_v| = r (c + r cos v)
    num_area = float(np.sum(tp.tube_radius * (tp.center_radius + tp.tube_radius * np.cos(vv))) * cell)
    # volume via divergence theorem: (1/3) closed-integral of x . (x_u x x_v)
    p = bend_to_torus(tp, uu.ravel(), vv.ravel()).reshape(n, n, 3)
    du = np.stack(
        [
            -(tp.center_radius + tp.tube_radius * np.cos(vv)) * np.sin(uu),
            (tp.center_radius + tp.tube_radius * np.cos(vv)) * np.cos(uu),
            np.zeros_like(uu),
        ],
        axis=2,
    )
    dv = np.stack(
        [
            -tp.tube_radius * np.sin(vv) * np.cos(uu),
            -tp.tube_radius * np.sin(vv) * np.sin(uu),
            tp.tube_radius * np.cos(vv),
        ],
        axis=2,
    )
    flux = np.einsum("ijk,ijk->ij", p, np.cross(du, dv))
    num_volume = abs(float(np.sum(flux) * cell / 3.0))
    assert abs(area - num_area) / num_area <= 1e-3
    assert abs(volume - num_volume) / num_volume <= 1e-3


def test_sheet_to_torus_composes_roll_and_bend():
    tp = TorusParams(3.0, 1.0)
    w, h = 5.0, 7.0
    p = sheet_to_torus(tp, 1.25, 3.5, w, h)
    q = bend_to_torus(tp, TAU * 3.5 / h, TAU * 1.25 / w)
    assert np.allclose(p, q, atol=1e-15)


def test_parametric_identities_random_sweep():
    rng = np.random.default_rng(3)
    tp = TorusParams(2.0, 0.7)
    u = rng.uniform(0.0, TAU, size=10_000)
    v = rng.uniform(0.0, TAU, size=10_000)
    assert float(np.max(torus_residual(bend_to_torus(tp, u, v), tp))) <= 1e-12
    w, h = TAU, 2.0
    s = roll_worldsheet(rng.uniform(0, w, 10_000), rng.uniform(0, h, 10_000), w, h)
    assert np.max(np.abs(s[:, 0] ** 2 + s[:, 1] ** 2 - 1.0)) <= 1e-12


# -- twist lift -------------------------------------------------------------


def test_twist_pinned_values():
    assert twist_height(0.0, 1.0) == 0.0
    for z in (-1.0, -0.5, 0.0, 0.3, 1.0):
        assert twist_height(np.pi / 5.0, z) == -1.2


def test_twist_vectorizes():
    x = np.linspace(0.0, 2.0, 7)
    z = np.linspace(-1.0, 1.0, 7)
    got = twist_height(x, z)
    want = np.array([twist_height(a, b) for a, b in zip(x, z)])
    assert np.array_equal(got, want)


def test_lift_keeps_input_columns_bit_exact():
    rng = np.random.default_rng(4)
    xz = rng.uniform(-3.0, 3.0, size=(50, 2))
    path = eeg_twist_lift(xz)
    lifted = path.vertices
    assert lifted.shape == (50, 3)
    assert np.array_equal(lifted[:, 0], xz[:, 0])
    assert np.array_equal(lifted[:, 1], xz[:, 1])
    assert np.array_equal(lifted[:, 2], twist_height(xz[:, 0], xz[:, 1]))


def test_lift_rejects_degenerate_traces():
    with pytest.raises(ValueError, match="at least 2"):
        eeg_twist_lift([[0.0, 0.0]])
    with pytest.raises(ValueError, match="must differ"):
        eeg_twist_lift([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])


# -- meshes -----------------------------------------------------------------


def test_torus_grid_counts_and_residual():
    tp = TorusParams(2.0, 1.0)
    verts, faces = torus_grid(tp, 8, 8)
    assert verts.shape == (64, 3)
    assert faces.shape == (64, 4)
    assert float(np.max(torus_residual(verts, tp))) <= 1e-12
    # all quads reference valid vertices and wrap both directions
    assert faces.min() == 0 and faces.max() == 63
    flat = faces.ravel()
    counts = np.bincount(flat, minlength=64)
    assert np.all(counts == 4)  # each vertex belongs to exactly 4 quads


def test_torus_grid_rejects_tiny_grids():
    with pytest.raises(ValueError):
        torus_grid(TorusParams(2.0, 1.0), 2, 8)


@pytest.mark.parametrize("nu, nv", [(3.9, 4), (3, 4.2), (True, 4), (3, "4")])
def test_torus_grid_refuses_counts_that_are_not_integers(nu, nv):
    with pytest.raises(ValueError, match="must be an integer"):
        torus_grid(TorusParams(2.0, 1.0), nu, nv)


def test_mesh_builders_take_numpy_integer_counts():
    tp = TorusParams(2.0, 1.0)
    got, want = torus_grid(tp, np.int32(3), np.int64(4)), torus_grid(tp, 3, 4)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_trace_band_lies_on_torus():
    tp = TorusParams(2.0, 1.0)
    trace = np.array([[0.0, 0.0], [1.0, 0.5], [2.0, -0.5], [3.0, 0.2], [4.0, 0.0]])
    verts, faces = trace_to_torus_band(tp, trace)
    assert verts.shape == (5 * 16, 3)
    assert faces.shape == (4 * 16, 4)
    assert float(np.max(torus_residual(verts, tp))) <= 1e-9


def test_trace_band_flat_trace_still_sweeps_tube():
    tp = TorusParams(2.0, 1.0)
    trace = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    verts, faces = trace_to_torus_band(tp, trace)
    assert verts.shape == (3 * 16, 3) and faces.shape == (2 * 16, 4)
    assert float(np.max(torus_residual(verts, tp))) <= 1e-9


def test_trace_band_needs_x_spread():
    tp = TorusParams(2.0, 1.0)
    with pytest.raises(ValueError, match="spans no range"):
        trace_to_torus_band(tp, np.array([[1.0, 0.0], [1.0, 1.0]]))


@pytest.mark.parametrize("u, t", [(np.nan, 0.5), (0.5, np.nan), ([0.2, np.nan], 0.5)])
def test_sheet_maps_refuse_nan_coordinates(u, t):
    with pytest.raises(ValueError, match="outside"):
        roll_worldsheet(u, t, 1.0, 1.0)
    with pytest.raises(ValueError, match="outside"):
        sheet_to_torus(TorusParams(2.0, 1.0), u, t, 1.0, 1.0)


@pytest.mark.parametrize("width, height", [(np.inf, 1.0), (1.0, np.inf), (np.nan, 1.0)])
def test_sheet_maps_refuse_non_finite_sheet_size(width, height):
    with pytest.raises(ValueError, match="finite and positive"):
        roll_worldsheet(0.5, 0.5, width, height)


def test_torus_band_refuses_non_finite_trace():
    with pytest.raises(ValueError, match="must be finite"):
        trace_to_torus_band(TorusParams(3.0, 1.0), [[0.0, 0.0], [1.0, np.nan], [2.0, 0.0]])


# -- refusals ---------------------------------------------------------------


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: TorusParams(2.0, 0.0), "tube radius must be positive"),
        (lambda: TorusParams(2.0, -1.0), "tube radius must be positive"),
        (lambda: torus_residual([1.0, 0.0], TorusParams(2.0, 1.0)), "needs 3-D points"),
        (lambda: torus_residual(np.zeros((4, 2)), TorusParams(2.0, 1.0)), "needs 3-D points"),
        (lambda: eeg_twist_lift([[0.0, 0.0], [1.0, np.inf]]), "trace samples must be finite"),
        (lambda: eeg_twist_lift([[np.nan, 0.0], [1.0, 0.0]]), "trace samples must be finite"),
        (lambda: trace_to_torus_band(TorusParams(2.0, 1.0), [[0.0, 0.0], [-np.inf, 1.0]]), "must be finite"),
    ],
)
def test_surfaces_refuse_invalid_input_by_name(build, message):
    with pytest.raises(ValueError, match=message):
        build()
