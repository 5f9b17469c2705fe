import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import rasterized_overlap_area
from sidelux.errors import DegenerateMeshError, GeometryError
from sidelux.geometry import (
    Polygon3,
    clip_polygon,
    decompose_convex,
    make_workplane_grid,
    point_in_polygon,
    project_polygon_along_direction,
)


def square(side=1.0, z=0.0):
    return Polygon3([(0, 0, z), (side, 0, z), (side, side, z), (0, side, z)])


class TestPolygon:
    def test_unit_square_area(self):
        assert square().area == pytest.approx(1.0, abs=1e-12)

    def test_rectangle_area(self):
        rect = Polygon3([(0, 0, 0), (3.9, 0, 0), (3.9, 3.5, 0), (0, 3.5, 0)])
        assert rect.area == pytest.approx(13.65, abs=1e-9)

    def test_collinear_raises(self):
        with pytest.raises(GeometryError):
            Polygon3([(0, 0, 0), (1, 0, 0), (2, 0, 0)])

    def test_too_few_vertices(self):
        with pytest.raises(GeometryError):
            Polygon3([(0, 0, 0), (1, 0, 0)])

    def test_non_planar_raises(self):
        with pytest.raises(GeometryError):
            Polygon3([(0, 0, 0), (1, 0, 0), (1, 1, 0.1), (0, 1, 0)])

    def test_self_intersecting_raises(self):
        with pytest.raises(GeometryError):
            Polygon3([(0, 0, 0), (1, 1, 0), (1, 0, 0), (0, 1, 0)])  # bowtie

    def test_non_finite_raises(self):
        with pytest.raises(GeometryError):
            Polygon3([(float("nan"), 0.0, 0.0), (1, 0, 0), (1, 1, 0)])

    def test_two_dimensional_vertices_raise(self):
        with pytest.raises(GeometryError):
            Polygon3(np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]))

    def test_coords_read_only_and_copied(self):
        pts = np.array([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (0.0, 1.0, 0.0)])
        poly = Polygon3(pts)
        with pytest.raises(ValueError):
            poly.coords[0, 0] = 5.0
        pts[0] = (9.0, 9.0, 9.0)
        assert poly.coords[0].tolist() == [0.0, 0.0, 0.0]
        assert poly.area == pytest.approx(1.0, abs=1e-12)

    def test_l_shape_accepted_and_not_convex(self):
        ell = Polygon3([(0, 0, 0), (4, 0, 0), (4, 2, 0), (2, 2, 0), (2, 4, 0), (0, 4, 0)])
        assert not ell.is_convex
        assert ell.area == pytest.approx(12.0, abs=1e-9)


class TestProjection:
    def test_window_45_degrees(self):
        # 1 m x 1 m window, sill at 1 m, light sliding down at 45 deg along +y
        win = Polygon3([(1.5, 0, 1), (2.5, 0, 1), (2.5, 0, 2), (1.5, 0, 2)])
        d = np.array([0.0, math.cos(math.radians(45)), -math.sin(math.radians(45))])
        img = project_polygon_along_direction(win, d, 0.0)
        assert img is not None
        assert img.area == pytest.approx(1.0, abs=1e-9)
        ys = img.coords[:, 1]
        assert ys.min() == pytest.approx(1.0, abs=1e-9)
        assert ys.max() == pytest.approx(2.0, abs=1e-9)

    def test_parallel_direction_empty(self):
        win = square()
        assert project_polygon_along_direction(win, (1.0, 0.0, 0.0), -1.0) is None

    def test_upward_projection_empty(self):
        # plane above the polygon while the direction points down
        win = Polygon3([(1.5, 0, 1), (2.5, 0, 1), (2.5, 0, 2), (1.5, 0, 2)])
        d = np.array([0.0, 0.5, -0.5])
        d /= np.linalg.norm(d)
        assert project_polygon_along_direction(win, d, 3.0) is None

    def test_zero_direction_raises(self):
        with pytest.raises(ValueError):
            project_polygon_along_direction(square(), (0.0, 0.0, 0.0), 0.0)

    def test_vertex_count_preserved(self):
        tri = Polygon3([(0, 0, 2), (1, 0, 2), (0, 1, 3)])
        d = np.array([0.1, 0.2, -0.9])
        d /= np.linalg.norm(d)
        img = project_polygon_along_direction(tri, d, 0.0)
        assert img is not None and len(img.coords) == 3


class TestClip:
    def test_identity(self):
        s = square(2.0)
        out = clip_polygon(s, s)
        assert out is not None
        assert out.area == pytest.approx(4.0, abs=1e-9)

    def test_disjoint_empty(self):
        a = square()
        b = Polygon3([(5, 5, 0), (6, 5, 0), (6, 6, 0), (5, 6, 0)])
        assert clip_polygon(a, b) is None

    def test_corner_overlap_against_raster_oracle(self):
        rect = Polygon3([(0, 0, 0), (2, 0, 0), (2, 1, 0), (0, 1, 0)])
        sq = square()
        out = clip_polygon(rect, sq)
        assert out is not None
        assert out.area == pytest.approx(1.0, abs=1e-9)
        oracle = rasterized_overlap_area(rect.coords[:, :2], sq.coords[:, :2], res=0.001)
        assert out.area == pytest.approx(oracle, abs=5e-3)

    def test_non_coplanar_raises(self):
        with pytest.raises(GeometryError):
            clip_polygon(square(z=0.0), square(z=1.0))

    def test_non_convex_clip_raises(self):
        ell = Polygon3([(0, 0, 0), (4, 0, 0), (4, 2, 0), (2, 2, 0), (2, 4, 0), (0, 4, 0)])
        with pytest.raises(GeometryError):
            clip_polygon(square(), ell)


class TestPointInPolygon:
    def test_center_inside(self):
        assert point_in_polygon((0.5, 0.5, 0.0), square())

    def test_outside(self):
        assert not point_in_polygon((2.0, 2.0, 0.0), square())

    def test_edge_midpoint_is_inside(self):
        assert point_in_polygon((0.5, 0.0, 0.0), square())

    def test_vertex_is_inside(self):
        assert point_in_polygon((0.0, 0.0, 0.0), square())

    def test_off_plane_raises(self):
        with pytest.raises(GeometryError):
            point_in_polygon((0.5, 0.5, 1.0), square())


class TestWorkplaneGrid:
    def test_reference_grid_39_by_35(self):
        floor = Polygon3([(0, 0, 0), (3.9, 0, 0), (3.9, 3.5, 0), (0, 3.5, 0)])
        g = make_workplane_grid(floor, 0.1, 0.01)
        assert (g.nu, g.nv) == (39, 35)
        assert g.n_points == 1365
        assert g.plane_z == pytest.approx(0.01)

    def test_small_grid(self):
        g = make_workplane_grid(square(), 0.5, 0.0)
        assert (g.nu, g.nv) == (2, 2)
        assert g.n_points == 4

    def test_cell_too_large(self):
        with pytest.raises(DegenerateMeshError):
            make_workplane_grid(square(), 2.0, 0.0)

    def test_cell_not_positive(self):
        with pytest.raises(ValueError):
            make_workplane_grid(square(), 0.0, 0.0)

    def test_centers_inside_floor(self):
        tri = Polygon3([(0, 0, 0), (2, 0, 0), (0, 2, 0)])
        g = make_workplane_grid(tri, 0.25, 0.0)
        assert g.n_points < g.nu * g.nv  # the empty half got dropped
        for p in g.points:
            assert point_in_polygon((p[0], p[1], 0.0), tri)

    def test_full_matrix_scatter(self):
        g = make_workplane_grid(square(), 0.5, 0.0)
        m = g.full_matrix(np.arange(4, dtype=float))
        assert m.shape == (2, 2)
        assert sorted(m.ravel()) == [0.0, 1.0, 2.0, 3.0]


class TestDecompose:
    def test_convex_passthrough(self):
        s = square()
        assert decompose_convex(s) == [s]

    def test_l_shape_triangulated(self):
        ell = Polygon3([(0, 0, 0), (4, 0, 0), (4, 2, 0), (2, 2, 0), (2, 4, 0), (0, 4, 0)])
        parts = decompose_convex(ell)
        assert all(p.is_convex for p in parts)
        assert sum(p.area for p in parts) == pytest.approx(ell.area, rel=1e-9)


# ---------------------------------------------------------------------------
# property tests

def convex_polys(z=0.0):
    """Convex polygons built from sorted angles on a circle."""

    def build(params):
        cx, cy, r, angles = params
        angles = sorted(set(round(a, 3) for a in angles))
        pts = [(cx + r * math.cos(a), cy + r * math.sin(a), z) for a in angles]
        return pts

    return (
        st.tuples(
            st.floats(-5, 5),
            st.floats(-5, 5),
            st.floats(0.5, 4),
            st.lists(st.floats(0, 2 * math.pi - 1e-3), min_size=3, max_size=8),
        )
        .map(build)
        .filter(lambda pts: len(pts) >= 3)
        .map(lambda pts: Polygon3(pts))
    )


@settings(max_examples=60, deadline=None)
@given(convex_polys(), convex_polys())
def test_clipping_never_increases_area(a, b):
    out = clip_polygon(a, b)
    if out is not None:
        assert out.area <= min(a.area, b.area) + 1e-9


@settings(max_examples=60, deadline=None)
@given(
    convex_polys(z=2.0),
    st.floats(-1, 1),
    st.floats(-1, 1),
    st.floats(0.2, 1.0),
)
def test_projection_preserves_vertex_count_or_empty(poly, dx, dy, dz):
    d = np.array([dx, dy, -dz])
    d /= np.linalg.norm(d)
    img = project_polygon_along_direction(poly, d, 0.0)
    assert img is None or len(img.coords) == len(poly.coords)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(1.0, 10.0),
    st.floats(1.0, 10.0),
    st.floats(0.05, 1.0),
)
def test_grid_centers_inside_rectangle(w, d, cell):
    floor = Polygon3([(0, 0, 0), (w, 0, 0), (w, d, 0), (0, d, 0)])
    try:
        g = make_workplane_grid(floor, cell, 0.01)
    except DegenerateMeshError:
        assert cell > w or cell > d
        return
    assert g.n_points == g.nu * g.nv
    for p in g.points[:: max(1, g.n_points // 25)]:
        assert point_in_polygon((p[0], p[1], 0.0), floor)


@settings(max_examples=60, deadline=None)
@given(
    convex_polys(),
    st.floats(-20, 20),
    st.floats(-20, 20),
    st.floats(-20, 20),
    st.floats(0, 2 * math.pi),
)
def test_area_invariant_under_rigid_motion(poly, tx, ty, tz, theta):
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    moved = Polygon3(poly.coords @ rot.T + np.array([tx, ty, tz]))
    assert moved.area == pytest.approx(poly.area, rel=1e-9)
