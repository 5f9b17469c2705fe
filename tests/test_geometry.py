import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import TROPICAL_SITE, assert_same_bits, make_canonical_room, random_l_room
from oracles import (_even_odd_mask, full_pass_clip, full_pass_split, overlap_area,
                     rasterized_overlap_area, shoelace_area)
from sidelux.errors import DegenerateMeshError, GeometryError
from sidelux.daylight import Aperture, BeamKernel, Room, Simulator, SurfaceOptics
from sidelux.geometry import (
    PLANARITY_TOL,
    Polygon3,
    clip_polygon,
    clip_rings,
    decompose_convex,
    points_in_convex_rings,
    project_polygon_along_direction,
    signed_ring_areas,
    split_rings,
    stack_rings,
    workplane_grid_for_parts,
)


def square(side=1.0, z=0.0):
    return Polygon3([(0, 0, z), (side, 0, z), (side, side, z), (0, side, z)])


def floor_grid(floor: Polygon3, cell: float, height: float):
    """The workplane grid of a horizontal convex floor: one part."""
    return workplane_grid_for_parts(floor.coords[None, :, :2], float(floor.coords[0, 2]), cell,
                                    height)


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


def window_image_area(d, plane_z):
    """Sun patch of a 1 m x 1 m window (sill 1 m) on the wall y = 0 of a
    4 m x 4 m room, light travelling along ``d``."""
    floor = Polygon3([(0, 0, 0), (4, 0, 0), (4, 4, 0), (0, 4, 0)])
    win = Polygon3([(1.5, 0, 1), (2.5, 0, 1), (2.5, 0, 2), (1.5, 0, 2)])
    room = Room(floor=floor, height=2.8, optics=SurfaceOptics(0.2, 0.6, 0.6),
                apertures=(Aperture(win),))
    d = np.asarray(d, dtype=float)[None]
    return BeamKernel(room, plane_z)(d, np.zeros((0, 2)))[0][0, 0]


class TestProjection:
    """Sliding a window along the sun direction onto a horizontal plane, as
    the beam kernel does."""

    def test_window_45_degrees(self):
        # 1 m x 1 m window, sill at 1 m, light sliding down at 45 deg along +y
        d = np.array([0.0, math.cos(math.radians(45)), -math.sin(math.radians(45))])
        assert window_image_area(d, 0.0) == pytest.approx(1.0, abs=1e-9)

    def test_parallel_direction_empty(self):
        # on a plane at the sill a low sun stretches the image over the whole
        # floor depth; within PARALLEL_TOL of horizontal there is no image
        assert window_image_area((0.0, 1.0, -1e-3), 1.0) == pytest.approx(4.0, rel=1e-9)
        assert window_image_area((0.0, 1.0, -1e-10), 1.0) == 0.0

    def test_vertex_count_preserved(self):
        tri = np.array([[(0, 0, 2), (1, 0, 2), (0, 1, 3)]], dtype=float)
        d = np.array([[0.1, 0.2, -0.9]]) / np.linalg.norm([0.1, 0.2, -0.9])
        image = project_polygon_along_direction(tri, d, 0.0)
        assert image.shape == (1, 3, 2)
        t = -tri[0, :, 2] / d[0, 2]  # how far along d each vertex travels to z = 0
        np.testing.assert_allclose(image[0], tri[0, :, :2] + t[:, None] * d[0, :2], rtol=1e-15)

    def test_plane_above_the_sill_gets_the_upper_part(self):
        # only the part of the window above the plane casts light onto it:
        # at 1.5 m the upper 1 m x 0.5 m, whose image at 45 deg has the same
        # area, A_upper |d.n| / |d_z|; above the head nothing
        d = np.array([0.0, 0.5, -0.5]) / np.linalg.norm([0.0, 0.5, -0.5])
        assert window_image_area(d, 1.5) == pytest.approx(0.5, rel=1e-12)
        assert window_image_area(d, 3.0) == 0.0
        assert window_image_area(d, 0.0) == pytest.approx(1.0, rel=1e-12)


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

    def test_corner_just_beyond_an_edge(self):
        """A subject corner 1e-13 m beyond a clip edge is cut off by two
        points 1e-13 m apart, which the result holds as one vertex."""
        tip = Polygon3([(1, -1e-13, 0), (1.5, 1, 0), (0.5, 1, 0)])
        out = clip_polygon(tip, square(2.0))
        assert out is not None
        assert out.area == pytest.approx(0.5, abs=1e-12)

    def test_non_coplanar_raises(self):
        with pytest.raises(GeometryError):
            clip_polygon(square(z=0.0), square(z=1.0))

    def test_non_convex_clip_raises(self):
        ell = Polygon3([(0, 0, 0), (4, 0, 0), (4, 2, 0), (2, 2, 0), (2, 4, 0), (0, 4, 0)])
        with pytest.raises(GeometryError):
            clip_polygon(square(), ell)

    def test_non_convex_subject_raises(self):
        """A U cut by a band across its arms leaves two squares, which no
        one polygon holds: the subject must be convex too."""
        u = Polygon3([(0, 0, 0), (3, 0, 0), (3, 3, 0), (2, 3, 0), (2, 1, 0), (1, 1, 0),
                      (1, 3, 0), (0, 3, 0)])
        band = Polygon3([(-1, 2, 0), (4, 2, 0), (4, 4, 0), (-1, 4, 0)])
        assert overlap_area(u.coords[:, :2], band.coords[:, :2]) == pytest.approx(2.0, abs=1e-12)
        with pytest.raises(GeometryError, match="subject polygon must be convex"):
            clip_polygon(u, band)


def contains(point, poly: Polygon3) -> bool:
    return bool(points_in_convex_rings(np.array([point[:2]]), poly.coords[None, :, :2])[0, 0])


def ring_area(rings: np.ndarray) -> np.ndarray:
    return np.abs(signed_ring_areas(rings, rings[:, 0]))


class TestEmptyRings:
    """What ``geometry`` does with a ring that is clipped away or has no
    area: a row clipped away stays away, an empty ring holds no point, and
    an edge of no length cuts nothing off."""

    def test_rows_clipped_away_by_different_edges_stay_away(self):
        # one ring beyond the square's right edge, one beyond its top edge:
        # the first comes back as zeros at the origin, which the later edges
        # keep whole, unless it stays out of their passes
        rings = np.array([[(5.0, 1.0), (6.0, 1.0), (6.0, 2.0), (5.0, 2.0)],
                          [(1.0, 5.0), (2.0, 5.0), (2.0, 6.0), (1.0, 6.0)]])
        assert_same_bits(clip_rings(rings, GRID_CLIPS[0]), np.zeros((2, 1, 2)))
        inside, slabs = clip_rings(rings, GRID_CLIPS[0], outside=True)
        assert_same_bits(inside, np.zeros((2, 1, 2)))
        # each ring is cut off whole by the edge that rejects it, and only there
        assert [ring_area(s).tolist() for s in slabs] == [[0.0, 0.0], [1.0, 0.0],
                                                          [0.0, 1.0], [0.0, 0.0]]

    @pytest.mark.parametrize("ring", [
        [(0.0, 0.0)] * 4,
        [(3.0, 3.0)] * 3,
        [(0.0, 0.0), (2.0, 2.0), (2.0, 2.0)],
        [(1.0, 0.0), (1.0, 4.0), (1.0, 4.0), (1.0, 4.0)],
    ])
    def test_an_empty_ring_holds_no_point(self, ring):
        """Zero rings and two-point segments contain no point, not even the
        points on them; a sliver of positive area keeps the band
        (``TestPointInPolygon.test_band_is_a_distance``)."""
        ring = np.array([ring])
        points = np.concatenate((ring[0], 0.5 * (ring[0] + np.roll(ring[0], -1, axis=0)),
                                 [(0.0, 0.0), (3.0, 3.0), (1.0, 1.0), (2.0, 0.5)]))
        assert not points_in_convex_rings(points, ring).any()
        square_ring = np.array([[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]])
        both = points_in_convex_rings(points, stack_rings(ring, square_ring))
        assert not both[0].any() and both[1].all()

    def test_an_edge_of_no_length_cuts_nothing_off(self):
        """A clip padded as ``stack_rings`` pads, shared or one per row: the
        inner side and the slabs come to the ring's area, and the padding
        edge's slab is empty."""
        ring = np.array([[(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]])
        clip = np.array([(1.0, -1.0), (3.0, -1.0), (3.0, -1.0), (3.0, 3.0), (1.0, 3.0)])
        for rings, clips in ((ring, clip), (np.concatenate((ring, np.roll(ring, 1, axis=1))),
                                            np.stack((clip, np.roll(clip, 2, axis=0))))):
            inside, slabs = clip_rings(rings, clips, outside=True)
            assert_same_bits(inside, clip_rings(rings, clips))
            np.testing.assert_allclose(ring_area(inside), 2.0, rtol=0.0, atol=1e-15)
            np.testing.assert_allclose(ring_area(inside) + sum(map(ring_area, slabs)), 4.0,
                                       rtol=0.0, atol=1e-15)
            for i, slab in enumerate(slabs):
                padding = np.all(clips[..., i, :] == np.roll(clips, -1, axis=-2)[..., i, :], axis=-1)
                assert not slab[np.broadcast_to(padding, len(rings))].any()


class TestPointInPolygon:
    def test_center_inside(self):
        assert contains((0.5, 0.5), square())

    def test_outside(self):
        assert not contains((2.0, 2.0), square())

    def test_edge_midpoint_is_inside(self):
        assert contains((0.5, 0.0), square())

    def test_vertex_is_inside(self):
        assert contains((0.0, 0.0), square())

    def test_band_is_a_distance(self):
        """The band reaches 1e-9 m beyond every edge line, on a 4 m edge and
        on a 1 mm one alike."""
        sliver = np.array([[(0.0, 0.0), (4.0, 0.0), (4.0, 0.001), (0.0, 0.001)]])
        points = np.array([(2.0, -0.5e-9), (2.0, -1.5e-9), (4.0 + 0.5e-9, 0.0005),
                           (4.0 + 1.5e-9, 0.0005)])
        assert points_in_convex_rings(points, sliver).tolist() == [[True, False, True, False]]


class TestWorkplaneGrid:
    def test_reference_grid_39_by_35(self):
        floor = Polygon3([(0, 0, 0), (3.9, 0, 0), (3.9, 3.5, 0), (0, 3.5, 0)])
        g = floor_grid(floor, 0.1, 0.01)
        assert (g.nu, g.nv) == (39, 35)
        assert g.n_points == 1365
        assert g.plane_z == pytest.approx(0.01)

    def test_small_grid(self):
        g = floor_grid(square(), 0.5, 0.0)
        assert (g.nu, g.nv) == (2, 2)
        assert g.n_points == 4

    def test_cell_too_large(self):
        with pytest.raises(DegenerateMeshError):
            floor_grid(square(), 2.0, 0.0)

    def test_cell_not_positive(self):
        with pytest.raises(ValueError):
            floor_grid(square(), 0.0, 0.0)

    @pytest.mark.parametrize("cell", [0.0, float("nan")])
    def test_cell_not_positive_through_the_simulator(self, cell):
        """A NaN cell is not positive either: the grid function and
        ``Simulator`` both give the package's own message for it."""
        with pytest.raises(ValueError, match="^cell size must be positive$"):
            floor_grid(square(), cell, 0.0)
        with pytest.raises(ValueError, match="^cell size must be positive$"):
            Simulator(make_canonical_room(), TROPICAL_SITE, cell=cell)

    def test_centers_inside_floor(self):
        tri = Polygon3([(0, 0, 0), (2, 0, 0), (0, 2, 0)])
        g = floor_grid(tri, 0.25, 0.0)
        assert g.n_points < g.nu * g.nv  # the empty half got dropped
        for p in g.points:
            assert contains(p, tri)

    def test_full_matrix_scatter(self):
        g = floor_grid(square(), 0.5, 0.0)
        m = g.full_matrix(np.arange(4, dtype=float))
        assert m.shape == (2, 2)
        assert sorted(m.ravel()) == [0.0, 1.0, 2.0, 3.0]


class TestDecompose:
    def test_convex_passthrough(self):
        s = square()
        assert np.array_equal(decompose_convex(s), s.coords[None])

    def test_l_shape_merged_into_two_parts(self):
        """The four ear triangles merge across the two diagonals that leave
        both ends convex; the one from the outer corner to the re-entrant
        corner stays."""
        ell = Polygon3([(0, 0, 0), (4, 0, 0), (4, 2, 0), (2, 2, 0), (2, 4, 0), (0, 4, 0)])
        parts = decompose_convex(ell)
        assert parts.shape == (2, 4, 3)
        assert np.array_equal(parts, ell.coords[[[1, 2, 3, 0], [5, 0, 3, 4]]])
        assert all(Polygon3(p).is_convex for p in parts)
        assert sum(Polygon3(p).area for p in parts) == pytest.approx(ell.area, rel=1e-9)

    def test_parts_are_the_input_vertices_bit_for_bit(self):
        """On a floor turned by 0.3 rad, where no in-plane frame maps the
        coordinates back exactly, every part vertex is one of the input's."""
        c, s = math.cos(0.3), math.sin(0.3)
        ell = [(0, 0), (4, 0), (4, 2), (2, 2), (2, 4), (0, 4)]
        floor = Polygon3([(1.3 + c * x - s * y, -0.7 + s * x + c * y, 0.25) for x, y in ell])
        parts = decompose_convex(floor)
        assert len(parts) == 2
        vertices = {tuple(v) for v in floor.coords.tolist()}
        assert {tuple(v) for v in parts.reshape(-1, 3).tolist()} <= vertices
        assert min(Polygon3(p).normal @ floor.normal for p in parts) > 0.0


# ---------------------------------------------------------------------------
# property tests

def _turn(a, b, c) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


@st.composite
def star_polygons(draw):
    """Horizontal simple polygons star-shaped about a random centre: 6 to
    12 vertices at increasing angles, with random radii, listed either way
    round; kept when at least two vertices are reflex."""
    n = draw(st.integers(6, 12))
    gaps = np.array(draw(st.lists(st.floats(0.2, 1.0), min_size=n, max_size=n)))
    angles = 2.0 * math.pi * np.cumsum(gaps) / gaps.sum()
    radii = np.array(draw(st.lists(st.floats(0.5, 3.0), min_size=n, max_size=n)))
    cx, cy, z = (draw(st.floats(-5.0, 5.0)) for _ in range(3))
    ring = np.column_stack((cx + radii * np.cos(angles), cy + radii * np.sin(angles)))
    reflex = sum(_turn(ring[i - 1], ring[i], ring[(i + 1) % n]) < 0.0 for i in range(n))
    assume(reflex >= 2)
    if draw(st.booleans()):
        ring = ring[::-1]
    try:
        return Polygon3([(x, y, z) for x, y in ring])
    except GeometryError:
        assume(False)


def _l_floor(seed: int) -> Polygon3:
    return random_l_room(np.random.default_rng(seed)).floor


@settings(max_examples=150, deadline=None)
@given(st.one_of(star_polygons().map(lambda poly: (poly, False)),
                 st.integers(0, 2**32 - 1).map(lambda seed: (_l_floor(seed), True))),
       st.integers(0, 2**32 - 1))
def test_merged_parts_cover_the_polygon_and_cannot_merge_further(case, seed):
    """The merged parts of a simple polygon are convex, counter-clockwise
    about its normal and made of its own vertices, bit for bit; they cover
    it exactly, are no more than its ear triangles nor than 2r + 1 for r
    reflex vertices (an L gives two), no two of them that share a diagonal
    could merge into a convex part, and their union holds the points the
    even-odd rule puts inside the outline."""
    poly, is_l = case
    parts = decompose_convex(poly)
    n = len(poly.coords)
    index = {tuple(v): i for i, v in enumerate(poly.coords.tolist())}
    assert {tuple(v) for v in parts.reshape(-1, 3).tolist()} <= set(index)
    rings = []
    for part in parts:
        ids = [index[tuple(v)] for v in part.tolist()]
        while ids[-1] == ids[-2]:  # the padding repeats the last vertex
            ids.pop()
        assert len(set(ids)) == len(ids) >= 3
        rings.append(ids)
    v2 = poly.to_plane_2d(poly.coords)
    reflex = sum(_turn(v2[i - 1], v2[i], v2[(i + 1) % n]) <= 1e-12 for i in range(n))
    assert len(parts) <= min(n - 2, 2 * reflex + 1)
    if is_l:
        assert len(parts) == 2
    for ids in rings:
        assert all(_turn(*v2[[ids[i - 1], ids[i], ids[(i + 1) % len(ids)]]]) > 1e-12
                   for i in range(len(ids)))
    areas = signed_ring_areas(parts[:, :, :2], parts[0, 0, :2]) * np.sign(poly.normal[2])
    assert np.all(areas > 0.0)
    assert areas.sum() == pytest.approx(poly.area, rel=1e-12)

    def after(ids, a):
        return ids[(ids.index(a) + 1) % len(ids)]

    def before(ids, a):
        return ids[ids.index(a) - 1]

    for first in rings:
        for second in rings:
            for a, b in zip(first, first[1:] + first[:1]):
                if b in second and after(second, b) == a:
                    # a -> b in first, b -> a in second: the merged ring turns
                    # at a from first into second and at b back into first
                    at_a = _turn(*v2[[before(first, a), a, after(second, a)]])
                    at_b = _turn(*v2[[before(second, b), b, after(first, b)]])
                    assert not (at_a > 1e-12 and at_b > 1e-12), (first, second)

    rng = np.random.default_rng(seed)
    xy = poly.coords[:, :2]
    points = rng.uniform(xy.min(axis=0) - 0.5, xy.max(axis=0) + 0.5, (500, 2))
    a, e = xy, np.roll(xy, -1, axis=0) - xy
    t = np.clip(np.sum((points[:, None] - a) * e, axis=2) / np.sum(e * e, axis=1), 0.0, 1.0)
    gap = np.linalg.norm(points[:, None] - (a + t[:, :, None] * e), axis=2).min(axis=1)
    clear = points[gap > 1e-6]
    assert np.array_equal(points_in_convex_rings(clear, parts[:, :, :2]).any(axis=0),
                          _even_odd_mask(clear[:, 0], clear[:, 1], xy))


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


def _signed_distances(points, ring):
    """Signed distance (positive inside) from each 2-D point to each edge
    line of a convex ring without repeated vertices, shape (N, m)."""
    ccw = ring if signed_ring_areas(ring[None], ring[0])[0] > 0.0 else ring[::-1]
    e = np.roll(ccw, -1, axis=0) - ccw
    rel = points[:, None, :] - ccw[None]
    return (e[:, 0] * rel[..., 1] - e[:, 1] * rel[..., 0]) / np.hypot(e[:, 0], e[:, 1])


@settings(max_examples=200, deadline=None)
@given(st.lists(convex_polys(), min_size=1, max_size=4), st.data())
def test_convex_containment_matches_even_odd_outside_the_band(polys, data):
    """Batched containment against the even-odd oracle on random points
    more than 1e-9 m from every ring's boundary lines (rings of either
    orientation, from a random start vertex, all padded); vertices, edge
    midpoints and points 0.5e-9 m beyond an edge are inside, points
    1.5e-9 m beyond it outside."""
    rings = []
    for poly in polys:
        ring = poly.coords[:, :2]
        ring = ring[::-1] if data.draw(st.booleans()) else ring
        rings.append(np.roll(ring, data.draw(st.integers(0, len(ring) - 1)), axis=0))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    points = rng.uniform(-10.0, 10.0, (400, 2))
    inside = points_in_convex_rings(points, stack_rings(np.empty((0, 9, 2)),
                                                        *(r[None] for r in rings)))
    assert inside.shape == (len(rings), len(points))
    for ring, got in zip(rings, inside):
        d = _signed_distances(points, ring).min(axis=1)
        clear = np.abs(d) > 1e-9
        assert np.array_equal(got[clear], _even_odd_mask(points[clear, 0], points[clear, 1], ring))

        ccw = ring if signed_ring_areas(ring[None], ring[0])[0] > 0.0 else ring[::-1]
        e = np.roll(ccw, -1, axis=0) - ccw
        outward = np.column_stack((e[:, 1], -e[:, 0])) / np.hypot(e[:, 0], e[:, 1])[:, None]
        mid = ccw + 0.5 * e
        probes = np.concatenate((ring, mid, mid + 0.5e-9 * outward, mid + 1.5e-9 * outward))
        m = len(ring)
        got = points_in_convex_rings(probes, stack_rings(ring[None], np.empty((0, 9, 2))))[0]
        assert got.tolist() == [True] * 3 * m + [False] * m


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_room_contains_matches_the_l_outline(seed):
    """``Room.contains`` tests the floor's convex parts at once; it agrees
    with the even-odd oracle on the whole L outline away from its edges
    and from the floor and ceiling heights (within PLANARITY_TOL of them
    it accepts), takes its vertices and edge midpoints, and checks the
    height."""
    rng = np.random.default_rng(seed)
    room = random_l_room(rng)
    ring = room.floor.coords[:, :2]
    xy = rng.uniform(ring.min(axis=0) - 0.5, ring.max(axis=0) + 0.5, (500, 2))
    z = rng.uniform(-0.5, room.height + 0.5, len(xy))
    got = room.contains(np.column_stack((xy, z)))
    assert got.shape == (len(xy),)
    e = np.roll(ring, -1, axis=0) - ring
    t = np.clip(np.sum((xy[:, None] - ring) * e, axis=2) / np.sum(e * e, axis=1), 0.0, 1.0)
    clear = ((np.linalg.norm(xy[:, None] - (ring + t[..., None] * e), axis=2).min(axis=1) > 1e-9)
             & (np.abs(z) > PLANARITY_TOL) & (np.abs(z - room.height) > PLANARITY_TOL))
    expected = _even_odd_mask(xy[:, 0], xy[:, 1], ring) & (z >= 0.0) & (z <= room.height)
    assert np.array_equal(got[clear], expected[clear])
    assert got.any() and not got.all()

    edge_points = np.concatenate((ring, ring + 0.5 * e))
    heights = rng.uniform(0.0, room.height, len(edge_points))
    assert room.contains(np.column_stack((edge_points, heights))).all()


@settings(max_examples=60, deadline=None)
@given(convex_polys(), convex_polys())
def test_clipping_never_increases_area(a, b):
    out = clip_polygon(a, b)
    if out is not None:
        assert out.area <= min(a.area, b.area) + 1e-9


def circle_ring(cx, cy, r, angles):
    """Convex counter-clockwise ring of points on a circle at the given angles."""
    a = np.array(sorted(set(angles)))
    return np.column_stack((cx + r * np.cos(a), cy + r * np.sin(a)))


circles = st.tuples(st.floats(-5, 5), st.floats(-5, 5), st.floats(0.5, 4),
                    st.lists(st.floats(0, 2 * math.pi - 1e-3), min_size=3, max_size=8,
                             unique_by=lambda a: round(a, 3)))


@st.composite
def clip_pairs(draw):
    """A convex counter-clockwise clip ring and a convex subject ring. Half
    the subjects have a vertex within 1e-13 of a clip edge's line, on either
    side; the rest are the clip itself, a triangle on one of its edges
    (inside or outside) or an unrelated ring."""
    clip = circle_ring(*draw(circles))
    i = draw(st.integers(0, len(clip) - 1))
    a, b = clip[i], clip[(i + 1) % len(clip)]
    if draw(st.booleans()):
        normal = np.array([a[1] - b[1], b[0] - a[0]]) / np.linalg.norm(b - a)
        q = a + draw(st.floats(0.0, 1.0)) * (b - a) + draw(st.floats(-1e-13, 1e-13)) * normal
        r = draw(st.floats(0.5, 4))
        phi = draw(st.floats(0, 2 * math.pi))
        centre = q - r * np.array([math.cos(phi), math.sin(phi)])
        others = draw(st.lists(st.floats(0.05, 2 * math.pi - 0.05), min_size=2, max_size=6,
                               unique_by=lambda t: round(t, 2)))
        subject = circle_ring(*centre, r, [phi] + [phi + t for t in others])
        subject[0] = q
        return clip, subject
    kind = draw(st.sampled_from(["same", "edge", "free"]))
    if kind == "same":
        return clip, clip.copy()
    if kind == "edge":
        apex = np.array([draw(st.floats(-9, 9)), draw(st.floats(-9, 9))])
        return clip, np.array([b, a, apex])
    return clip, circle_ring(*draw(circles))


@settings(max_examples=300, deadline=None)
@given(clip_pairs())
def test_clip_rings_matches_the_scanline_oracle(pair):
    """The subject, from two starting vertices, each padded by repeating its
    last vertex twice, clips to the exact overlap area within 1e-12 m^2,
    with the clip shared or given per row (from two starting vertices too);
    the inner side and the slabs cut off add up to the subject's area."""
    clip, subject = pair
    rings = np.stack([np.concatenate((s, s[-1:], s[-1:]))
                      for s in (subject, np.roll(subject, 1, axis=0))])
    expected = overlap_area(subject, clip)
    for clips in (clip, np.stack((clip, np.roll(clip, 1, axis=0)))):
        inside, slabs = clip_rings(rings, clips, outside=True)
        assert np.array_equal(inside, clip_rings(rings, clips))
        area = np.abs(signed_ring_areas(inside, clip.mean(axis=0)))
        assert np.all(np.abs(area - expected) <= 1e-12), (area, expected)
        whole = area + sum(np.abs(signed_ring_areas(s, clip.mean(axis=0))) for s in slabs)
        assert np.all(np.abs(whole - shoelace_area(subject)) <= 1e-12), whole



# Counter-clockwise clips on the integer grid, four vertices each, so that a
# subject vertex on the grid lies exactly on a clip edge's line (side == 0).
GRID_CLIPS = np.array([[(0, 0), (4, 0), (4, 4), (0, 4)], [(1, 0), (3, 0), (3, 5), (1, 5)],
                       [(0, 0), (4, 0), (2, 3), (0, 2)], [(4, 4), (0, 4), (0, 0), (4, 0)]],
                      dtype=float)
grid_coords = st.integers(-3, 7).map(float)


@st.composite
def grid_rings(draw):
    """A convex counter-clockwise ring: a rectangle or a triangle with
    corners on the integer grid around the clips (wholly inside, wholly
    outside, along an edge's line or touching it at one vertex), or a ring
    on a circle that crosses edges anywhere; from any starting vertex,
    padded by repeating its last vertex up to twice."""
    kind = draw(st.sampled_from(["rect", "tri", "circle"]))
    if kind == "rect":
        x0, x1 = sorted(draw(st.lists(grid_coords, min_size=2, max_size=2, unique=True)))
        y0, y1 = sorted(draw(st.lists(grid_coords, min_size=2, max_size=2, unique=True)))
        ring = np.array([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])
    elif kind == "tri":
        ring = np.array(draw(st.lists(st.tuples(grid_coords, grid_coords), min_size=3, max_size=3)))
        (ax, ay), (bx, by) = ring[1] - ring[0], ring[2] - ring[0]
        turn = ax * by - ay * bx
        assume(turn != 0.0)
        ring = ring if turn > 0.0 else ring[::-1]
    else:
        ring = circle_ring(*draw(circles))
    ring = np.roll(ring, draw(st.integers(0, len(ring) - 1)), axis=0)
    return np.concatenate((ring, np.repeat(ring[-1:], draw(st.integers(0, 2)), axis=0)))


def padded(clip: np.ndarray, at) -> np.ndarray:
    """The clip with the vertices at the indices ``at`` repeated, each
    repeat an edge of no length, as ``stack_rings`` pads."""
    return np.insert(clip, at, clip[at], axis=0)


@settings(max_examples=300, deadline=None)
@given(st.lists(grid_rings(), min_size=1, max_size=8), st.data())
def test_cut_is_bit_identical_to_the_full_pass(subjects, data):
    """Cutting only the rows that a line divides gives, values and width,
    the bits of the full Sutherland-Hodgman pass over every row
    (``tests/oracles.py``): for ``split_rings`` along a grid line, and for
    ``clip_rings`` with or without the slabs, by a clip shared or one per
    row, each padded by up to two edges of no length, on batches that mix
    whole, cut, empty, touching and padded rows."""
    rings = stack_rings(*(s[None] for s in subjects))
    for side in (rings[:, :, 0] - data.draw(grid_coords), rings[:, :, 1] - data.draw(grid_coords)):
        for got, expected in zip(split_rings(rings, side), full_pass_split(rings, side)):
            assert_same_bits(got, expected)
    n_pad = data.draw(st.integers(0, 2))

    def draw_clip():
        clip = GRID_CLIPS[data.draw(st.integers(0, len(GRID_CLIPS) - 1))]
        return padded(clip, data.draw(st.lists(st.integers(0, 3), min_size=n_pad, max_size=n_pad)))

    shared = draw_clip()
    per_row = np.stack([draw_clip() for _ in rings])
    for clips in (shared, per_row):
        assert_same_bits(clip_rings(rings, clips), full_pass_clip(rings, clips))
        inside, slabs = clip_rings(rings, clips, outside=True)
        expected_inside, expected_slabs = full_pass_clip(rings, clips, outside=True)
        assert_same_bits(inside, expected_inside)
        assert len(slabs) == len(expected_slabs)
        for got, expected in zip(slabs, expected_slabs):
            assert_same_bits(got, expected)


def test_a_batch_no_edge_cuts_comes_back_unchanged():
    """Rings inside the clip, one along an edge and one padded, are their
    own inner side, at their own width."""
    rings = stack_rings(np.array([[(1.0, 1.0), (3.0, 1.0), (2.0, 3.0)]]),
                        np.array([[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]]),
                        np.array([[(0.5, 0.5), (1.5, 0.5), (1.5, 1.5), (0.5, 1.5), (0.5, 1.5)]]))
    assert_same_bits(clip_rings(rings, GRID_CLIPS[0]), rings)


def test_a_batch_wholly_outside_comes_back_as_zeros():
    """Rings beyond the clip's first edge, one padded, are cut away there;
    the zero rows then lie on the clip's corner at the origin."""
    rings = np.array([[(5.0, -2.0), (6.0, -2.0), (6.0, -1.0), (5.0, -1.0)],
                      [(-2.0, -3.0), (-1.0, -3.0), (-1.0, -1e-300), (-1.0, -1e-300)]])
    assert_same_bits(clip_rings(rings, GRID_CLIPS[0]), np.zeros((2, 1, 2)))

def test_room_parts_are_counter_clockwise():
    """The beam kernel clips against ``Room.parts`` as they come: each part
    is counter-clockwise from above, whichever way the floor was given."""
    rng = np.random.default_rng(3)
    floors = [Polygon3(square(3.0).coords[::-1])]
    for _ in range(20):
        ell = random_l_room(rng).floor
        floors += [ell, Polygon3(ell.coords[::-1])]
    for floor in floors:
        parts = Room(floor=floor, height=2.8, optics=SurfaceOptics(0.2, 0.6, 0.6)).parts
        areas = signed_ring_areas(parts, parts[:, 0])
        assert min(areas) > 0.0
        assert sum(areas) == pytest.approx(floor.area, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(1.0, 10.0),
    st.floats(1.0, 10.0),
    st.floats(0.05, 1.0),
)
def test_grid_centers_inside_rectangle(w, d, cell):
    floor = Polygon3([(0, 0, 0), (w, 0, 0), (w, d, 0), (0, d, 0)])
    try:
        g = floor_grid(floor, cell, 0.01)
    except DegenerateMeshError:
        assert cell > w or cell > d
        return
    assert g.n_points == g.nu * g.nv
    for p in g.points[:: max(1, g.n_points // 25)]:
        assert contains(p, floor)


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
