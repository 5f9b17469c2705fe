"""The sky and externally reflected components: the exact integral over each
window's visible pieces against ray-cast oracles, the benchmark's frozen
references and the visibility rules (horizon, walls, nearest obstruction).
"""

import json
import sys
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import make_canonical_room, random_l_room, random_room, with_obstructions
from oracles import ray_cast_daylight_factor, ray_cast_sky, sight_classes, walls_other_than
from test_stepping import L_PROBES, make_l_room
from sidelux.daylight import (
    Aperture,
    DFBreakdown,
    Obstruction,
    Room,
    SkyKernel,
    _piece_integrals,
    compute_sun_patch,
    daylight_factor,
    df_from_components,
)
from sidelux.errors import DataError, GeometryError
from sidelux.geometry import Polygon3, signed_ring_areas, split_rings, workplane_grid_for_parts
from sidelux.io import parse_building
from sidelux.solar import SolarState, WeatherSeries

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
EZ = np.array([0.0, 0.0, 1.0])


def rect_of(polygon: Polygon3):
    """(corner, edge1, edge2) of a rectangle listed corner by corner."""
    c = polygon.coords
    return c[0], c[1] - c[0], c[3] - c[0]


def plain(room: Room) -> dict:
    """The room as the plain data the oracles read."""
    return dict(
        floor=room.floor.coords[:, :2], floor_z=room.floor_z, height=room.height,
        rho=(room.optics.floor, room.optics.walls, room.optics.ceiling),
        windows=[(rect_of(ap.polygon), (ap.tau, ap.mf, ap.fr, ap.mg, ap.fc))
                 for ap in room.apertures],
        obstructions=[(*rect_of(o.polygon), o.luminance_fraction) for o in room.obstructions],
    )


def engine_df(room: Room, point) -> float:
    return sum(daylight_factor(point, room, ap).df for ap in room.apertures)


def random_points(room: Room, rng, n, heights=(0.01,)):
    """``n`` random points inside the room, each at a height drawn from
    ``heights`` (a pair (lo, hi) draws uniformly between them)."""
    lo, hi = room.floor.coords[:, :2].min(axis=0), room.floor.coords[:, :2].max(axis=0)
    points = []
    while len(points) < n:
        x, y = rng.uniform(lo, hi)
        z = heights[0] if len(heights) == 1 else rng.uniform(*heights)
        if room.contains([(x, y, z)])[0]:
            points.append((x, y, z))
    return np.array(points)


def crossing_obstructions_room() -> Room:
    """A south window with two obstructions whose projections overlap and
    whose planes cross in front of it, so the nearer one changes inside the
    overlap."""
    base = make_canonical_room("south")
    parallel = Obstruction(Polygon3([(-5, -3, 0), (7, -3, 0), (7, -3, 4), (-5, -3, 4)]), 0.2)
    oblique = Obstruction(Polygon3([(-3, -1.5, 0), (6, -5, 0), (6, -5, 7), (-3, -1.5, 7)]), 0.45)
    return Room(floor=base.floor, height=base.height, optics=base.optics,
                apertures=base.apertures, obstructions=(parallel, oblique))


def l_fin_room() -> Room:
    """A south window, an L-shaped fin beside the room in the plane x = 4
    across the window plane y = 0, and a wall wholly behind that plane.
    The fin's two convex parts are quadrilaterals; the cut at the plane
    divides one into a smaller quadrilateral and leaves the other whole."""
    base = make_canonical_room("south")
    outline = [(-3, 0), (1, 0), (1, 1.5), (-1, 1.5), (-1, 4), (-3, 4)]
    fin = Obstruction(Polygon3([(4.0, y, z) for y, z in outline]), 0.4)
    behind = Obstruction(Polygon3([(5, 0.5, 0), (5, 3, 0), (5, 3, 3), (5, 0.5, 3)]), 0.3)
    return Room(floor=base.floor, height=base.height, optics=base.optics,
                apertures=base.apertures, obstructions=(fin, behind))


# ---------------------------------------------------------------------------
# Hidden points.

@pytest.mark.parametrize("window, point", [(0, (5.45, 1.45)), (1, (2.85, 5.85))])
def test_points_hidden_by_re_entrant_walls_get_no_sky(window, point):
    room = make_l_room()
    ap = room.apertures[window]
    p = (*point, 0.01)
    parts = daylight_factor(p, room, ap)
    assert parts.sc == 0.0 and parts.erc == 0.0 and parts.irc > 0.0
    sc, erc = room.sky[window](np.array([p]))
    assert sc.tolist() == [0.0] and erc.tolist() == [0.0]
    # without the room's walls the same window is in plain view
    assert SkyKernel(ap.polygon, room.outward[window])(p)[0][0] > 1e-4


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), fx=st.floats(0.02, 0.98), fy=st.floats(0.02, 0.98))
def test_windows_hidden_in_plan_give_no_sky(seed, fx, fy):
    room = random_l_room(np.random.default_rng(seed))
    lo, hi = room.floor.coords[:, :2].min(axis=0), room.floor.coords[:, :2].max(axis=0)
    p = np.array([lo[0] + fx * (hi[0] - lo[0]), lo[1] + fy * (hi[1] - lo[1]), 0.01])
    assume(room.contains(p[None])[0])
    ap = room.apertures[0]
    corner, e1, e2 = rect_of(ap.polygon)
    # both ends included: the visible part can be a sliver at one end
    nodes = corner + np.linspace(0.0, 1.0, 33)[:, None] * e1 + 0.5 * e2
    walls = walls_other_than(room.floor.coords[:, :2], (corner, e1, e2))
    hidden = sight_classes(p, nodes, walls) == -2
    sc = daylight_factor(p, room, ap).sc
    if hidden.all():
        assert sc == 0.0
    elif not hidden.any():
        assert sc > 0.0
    else:
        assert 0.0 < sc < SkyKernel(ap.polygon, room.outward[0])(p)[0][0]


def test_walls_beyond_the_window_line_do_not_hide_it():
    """A window on a re-entrant wall looks out past the building's other
    wing: walls hide a window only from inside the room."""
    base = make_l_room()
    window = Polygon3([(3, 4, 0.9), (3, 5, 0.9), (3, 5, 2.1), (3, 4, 2.1)])
    room = Room(floor=base.floor, height=base.height, optics=base.optics,
                apertures=(Aperture(window),))
    data = plain(room)
    for p in [(1.0, 5.5, 0.01), (0.5, 5.8, 0.01), (2.5, 5.9, 1.0)]:
        # the wall y = 3 beyond the window line lies behind part of the window
        bare, _ = SkyKernel(window, room.outward[0])(p)
        assert daylight_factor(p, room, room.apertures[0]).sc == pytest.approx(bare[0], rel=1e-12)
        assert engine_df(room, p) == pytest.approx(ray_cast_daylight_factor(p, data, 64), abs=1e-9)


# ---------------------------------------------------------------------------
# Each piece sees one thing, and the pieces cover what the point sees.

FRACTIONS = np.array([0.0, 0.3, 0.6, 0.9, 0.99, 0.999])


def check_pieces(room: Room, points: np.ndarray, rng, n_cover=64):
    """Ray-cast samples inside every piece (from its vertex mean towards
    its corners and edge midpoints) must see what the piece is labelled
    with, and random samples of the window must lie in exactly one piece of
    their own class, or in none where hidden. Pieces whose integral is at
    most 1e-12 are not sampled: they cannot move a DF by more than that."""
    checked = 0
    for ap, kernel in zip(room.apertures, room.sky):
        rings, owner, cls, (u, h, z) = kernel._pieces(points)
        value = _piece_integrals(rings, u[owner], h[owner], z[owner])
        rect = rect_of(ap.polygon)
        walls = walls_other_than(room.floor.coords[:, :2], rect)
        obstructions = [(*rect_of(o.polygon), o.luminance_fraction) for o in room.obstructions]
        centre = rings.mean(axis=1)
        ends = np.concatenate((rings, 0.5 * (rings + np.roll(rings, -1, axis=1))), axis=1)
        inner = centre[:, None, None] + FRACTIONS[None, :, None, None] * (ends - centre[:, None])[:, None]
        inner = inner.reshape(len(rings), -1, 2)
        to_3d = lambda s: kernel.origin + s[:, :1] * kernel.along + s[:, 1:] * EZ
        for i, p in enumerate(points):
            mine = np.flatnonzero(owner == i)
            big = mine[value[mine] > 1e-12]
            # coverage samples spread over the whole window
            s = kernel.ring.min(axis=0) + rng.uniform(size=(n_cover, 2)) * np.ptp(kernel.ring, axis=0)
            seen = sight_classes(p, to_3d(np.concatenate((inner[big].reshape(-1, 2), s))),
                                 walls, obstructions)
            seen, want = seen[:-n_cover].reshape(len(big), inner.shape[1]), seen[-n_cover:]
            assert np.all(seen == cls[big, None]), (p, rings[big], cls[big])
            a = rings[mine]
            e = np.roll(a, -1, axis=1) - a
            length = np.hypot(e[..., 0], e[..., 1])
            with np.errstate(divide="ignore", invalid="ignore"):
                margin = (e[..., 0, None] * (s[None, None, :, 1] - a[..., 1, None])
                          - e[..., 1, None] * (s[None, None, :, 0] - a[..., 0, None])) / length[..., None]
            margin = np.where(length[..., None] > 0.0, margin, np.inf).min(axis=1)  # (pieces, samples)
            clear = np.all(np.abs(margin) > 1e-9, axis=0)
            inside = margin > 0.0
            count = inside.sum(axis=0)
            assert np.all(count[clear & (want == -2)] == 0), p
            shown = clear & (want != -2)
            assert np.all(count[shown] == 1), p
            if shown.any():
                got = cls[mine][np.argmax(inside[:, shown], axis=0)]
                assert np.array_equal(got, want[shown]), p
            checked += len(mine)
    return checked


def test_pieces_of_every_l_room_grid_point():
    room = make_l_room()
    points = workplane_grid_for_parts(room.parts, room.floor_z, 0.1, 0.01).points
    assert len(points) == 2700
    assert check_pieces(room, points, np.random.default_rng(1), n_cover=16) > 2700


@pytest.mark.parametrize("seed", range(6))
def test_pieces_in_random_rooms_with_obstructions(seed):
    rng = np.random.default_rng(100 + seed)
    room = random_room(rng)[0] if seed % 2 else random_l_room(rng)
    room = with_obstructions(room, rng, seed % 3)
    ap = room.apertures[0].polygon.coords[:, 2]
    points = np.concatenate((random_points(room, rng, 20),
                             random_points(room, rng, 20, (ap.min(), ap.max()))))
    check_pieces(room, points, rng)


def test_pieces_where_two_obstructions_overlap_and_cross():
    room = crossing_obstructions_room()
    rng = np.random.default_rng(3)
    points = np.concatenate((random_points(room, rng, 30), random_points(room, rng, 30, (1.0, 2.0))))
    check_pieces(room, points, rng)
    # both obstructions are seen, and each is nearer somewhere in the overlap
    kernel = room.sky[0]
    _, owner, cls, _ = kernel._pieces(points)
    both = [i for i in range(len(points)) if {0, 1} <= set(cls[owner == i].tolist())]
    assert len(both) > 10


# ---------------------------------------------------------------------------
# Against the ray-cast oracle.

def test_points_that_see_each_window_fully_or_not_at_all_match_the_oracle_to_1e9():
    rng = np.random.default_rng(21)
    cases = [(make_canonical_room(), [(1.95, y, 0.01) for y in (3.27, 2.77, 2.27, 1.77, 1.27)]),
             (make_l_room(), [(x, y, 0.01) for x, y in L_PROBES])]
    for _ in range(4):  # convex rooms, no obstruction, workplane below every sill
        room = random_room(rng)[0]
        cases.append((room, random_points(room, rng, 5).tolist()))
    for room, points in cases:
        data = plain(room)
        for p in points:
            assert engine_df(room, p) == pytest.approx(ray_cast_daylight_factor(p, data, 64),
                                                       abs=1e-9)


# The largest change of the oracle at the partly hidden points below when
# its cell size is halved (64 -> 128 cells per window side), measured: the
# ray-cast nodes resolve a visibility edge only to within a cell.
ORACLE_HALVING_CHANGE = 6.3e-5


def test_partly_hidden_points_match_the_oracle_within_its_own_resolution():
    rng = np.random.default_rng(31)
    room = make_l_room()
    corner = [(x, y, 0.01) for x, y in ((3.65, 2.95), (2.95, 3.25), (2.45, 3.55), (4.15, 2.65))]
    cases = [(room, corner), (crossing_obstructions_room(),
                              random_points(crossing_obstructions_room(), rng, 4, (0.01, 1.6)))]
    for seed in range(4):
        r = random_room(rng)[0] if seed % 2 else random_l_room(rng)
        r = with_obstructions(r, rng, 2)
        cases.append((r, random_points(r, rng, 3, (0.01, 1.6))))
    changes, errors = [], []
    for r, points in cases:
        data = plain(r)
        for p in points:
            coarse, fine = (ray_cast_daylight_factor(p, data, c) for c in (64, 128))
            changes.append(abs(fine - coarse))
            errors.append(abs(engine_df(r, p) - fine))
    assert max(changes) <= ORACLE_HALVING_CHANGE
    assert max(errors) <= ORACLE_HALVING_CHANGE


def assert_fin_room_matches_the_oracle(room, fin_rects):
    """The sky and externally reflected components of the first window of
    a room from :func:`l_fin_room` or :func:`t_fin_room` match the ray
    cast, which sees its fin as ``fin_rects``, within the oracle's own
    resolution, at points that see the fin."""
    points = np.array([(0.3, 0.4, 1.2), (0.6, 0.2, 0.01), (0.2, 1.0, 1.5), (1.0, 0.3, 0.8),
                       (0.5, 1.0, 0.01), (0.3, 2.0, 0.5)])
    sc, erc = room.sky[0](points)
    window = rect_of(room.apertures[0].polygon)
    walls = walls_other_than(room.floor.coords[:, :2], window)
    rects = [(*rect, 0.4) for rect in fin_rects] + [(*rect_of(room.obstructions[1].polygon), 0.3)]
    for p, got in zip(points, zip(sc, erc)):
        coarse, fine = (np.array(ray_cast_sky(p, window, walls, rects, c)) for c in (64, 128))
        assert np.abs(fine - coarse).max() <= ORACLE_HALVING_CHANGE
        assert np.abs(np.array(got) - fine).max() <= ORACLE_HALVING_CHANGE, p
    assert np.count_nonzero(erc > 1e-4) >= 4


def test_an_obstruction_across_the_window_plane_matches_the_oracle():
    """The fin's two merged parts are cut at the window plane into two
    pieces of four vertices, and the wall behind the plane is skipped."""
    room = l_fin_room()
    kernel = room.sky[0]
    assert [j for _, j in kernel.parts] == [0, 0]
    assert not any(np.array_equal(piece[-1], piece[-2]) for piece, _ in kernel.parts)
    assert_fin_room_matches_the_oracle(room, [
        ((4.0, -3.0, 0.0), (0.0, 2.0, 0.0), (0.0, 0.0, 4.0)),
        ((4.0, -1.0, 0.0), (0.0, 2.0, 0.0), (0.0, 0.0, 1.5))])


def t_fin_room() -> Room:
    """:func:`l_fin_room` with a T-shaped fin across the window plane in
    place of the L, a bar on a stem: its merged parts are triangles and
    quadrilaterals, so the triangles come back from
    :func:`decompose_convex` padded."""
    room = l_fin_room()
    outline = [(-2, 0), (-1, 0), (-1, 2), (1, 2), (1, 3), (-3, 3), (-3, 2), (-2, 2)]
    fin = Obstruction(Polygon3([(4.0, y, z) for y, z in outline]), 0.4)
    return Room(floor=room.floor, height=room.height, optics=room.optics,
                apertures=room.apertures, obstructions=(fin, room.obstructions[1]))


def test_a_padded_obstruction_piece_matches_the_oracle():
    """The pieces of the T-shaped fin beyond the window plane are used as
    the cut returns them, padding included."""
    room = t_fin_room()
    widths = {len(np.unique(part, axis=0)) for part in room.obstructions[0].parts}
    assert widths == {3, 4}
    kernel = room.sky[0]
    assert {j for _, j in kernel.parts} == {0}
    assert any(np.array_equal(piece[-1], piece[-2]) for piece, _ in kernel.parts)
    assert_fin_room_matches_the_oracle(room, [
        ((4.0, -2.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 2.0)),
        ((4.0, -3.0, 2.0), (0.0, 4.0, 0.0), (0.0, 0.0, 1.0))])


# ---------------------------------------------------------------------------
# The benchmark's frozen references.

def benchmark_inputs():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import inputs
    finally:
        sys.path.remove(str(PERFBENCH))
    return inputs


def benchmark_room(name, tmp_path):
    """A benchmark building, parsed, and its probes."""
    inputs = benchmark_inputs()
    path = tmp_path / "building.json"
    path.write_text(json.dumps(inputs.BUILDINGS[name]), encoding="utf-8")
    probes = {"test_cell": inputs.TEST_CELL_PROBES, "l_room": inputs.L_ROOM_PROBES}[name]
    return parse_building(path), tuple(probes)


@pytest.mark.parametrize("name", ["test_cell", "l_room"])
def test_probe_daylight_factors_match_the_benchmark_references(name, tmp_path):
    b, probes = benchmark_room(name, tmp_path)
    ref = json.loads((PERFBENCH / "refs.json").read_text(encoding="utf-8"))[name]
    assert [tuple(p) for p in ref["probes"]] == [tuple(p) for p in probes]
    sim = b.simulator()
    _, df = sim._probe_df(probes)
    np.testing.assert_allclose(df, ref["df"], rtol=0.0, atol=1e-8)
    single = [engine_df(b.room, (x, y, sim.grid.plane_z)) for x, y in probes]
    np.testing.assert_allclose(single, ref["df"], rtol=0.0, atol=1e-8)


# ---------------------------------------------------------------------------
# One daylight-factor path: the point functions read the room's own kernels.

@pytest.mark.parametrize("name", ["test_cell", "l_room"])
def test_point_functions_build_no_kernel(name, tmp_path, monkeypatch):
    b, probes = benchmark_room(name, tmp_path)
    built = []
    init = SkyKernel.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SkyKernel, "__init__", counted)
    room = b.room
    for x, y in probes:
        p = (x, y, 0.01)
        for ap in room.apertures:
            daylight_factor(p, room, ap)
    assert built == []


@pytest.mark.parametrize("name", ["test_cell", "l_room"])
def test_point_daylight_factors_are_the_simulators_to_the_bit(name, tmp_path):
    b, probes = benchmark_room(name, tmp_path)
    room = b.room
    sim = b.simulator()
    points, df = sim._probe_df(probes)
    assert np.array_equal([engine_df(room, p) for p in points], df)
    for ap, kernel, irc in zip(room.apertures, room.sky, room.irc):
        sc, erc = kernel(points)
        for i, p in enumerate(points):
            assert daylight_factor(p, room, ap) == DFBreakdown(
                sc[i], erc[i], irc, df_from_components(sc[i], erc[i], irc, ap.fc, ap.mf, ap.fr,
                                                       ap.tau, ap.mg))


def test_point_functions_reject_what_the_room_does_not_hold():
    room = make_l_room()
    p = (1.45, 1.45, 0.01)
    ap = room.apertures[0]
    twin = Aperture(ap.polygon, tau=0.5)  # the same window with other glazing
    west = Aperture(Polygon3([(0, 2.2, 0.9), (0, 0.8, 0.9), (0, 0.8, 2.1), (0, 2.2, 2.1)]))
    sun = SolarState.from_angles(45.0, 0.0)
    # an aperture is matched by identity, so its bare polygon is foreign too
    for foreign in (twin, west, ap.polygon):
        with pytest.raises(ValueError, match="^aperture is not one of the room's apertures$"):
            daylight_factor(p, room, foreign)
        with pytest.raises(ValueError, match="^aperture is not one of the room's apertures$"):
            compute_sun_patch(room, foreign, sun, 0.01)
    with pytest.raises(ValueError, match="^point lies outside the room$"):
        daylight_factor((6.5, 6.5, 0.01), room, ap)
    assert daylight_factor(p, room, ap).df > 0.0


# ---------------------------------------------------------------------------
# Edge cases.

WINDOW = Polygon3([(1.5, 0, 0.8), (2.5, 0, 0.8), (2.5, 0, 1.8), (1.5, 0, 1.8)])


SOUTH = (0.0, -1.0, 0.0)  # WINDOW's outward normal, seen from y > 0


def test_a_wide_window_sees_the_front_half_of_the_dome():
    """A vertical window of half-width and height w, seen from 1 m in front
    of it at its sill, sees the whole front half of the CIE overcast dome
    as w grows: the SC tends to 0.5, which checks OVERCAST_DOME."""
    gaps = []
    for w in (1e2, 1e3, 1e4):
        window = Polygon3([(-w, 0, 0), (w, 0, 0), (w, 0, w), (-w, 0, w)])
        sc, _ = SkyKernel(window, SOUTH)((0.0, 1.0, 0.0))
        gaps.append(0.5 - sc[0])
    assert 0.0 < gaps[2] < gaps[1] < gaps[0]
    assert gaps[2] < 1e-4


@pytest.mark.parametrize("point", [(2.0, 0.0, 1.2), (1.5, 0.0, 0.8), (2.5, 0.0, 1.3)])
def test_point_on_the_aperture_raises(point):
    with pytest.raises(GeometryError):
        SkyKernel(WINDOW, SOUTH)(point)


def test_points_in_the_window_plane_off_the_aperture_or_above_it_see_nothing():
    sc, erc = SkyKernel(WINDOW, SOUTH)([(4.0, 0.0, 1.0), (2.0, 1.0, 1.8), (2.0, 1.0, 2.5)])
    assert sc.tolist() == [0.0] * 3 and erc.tolist() == [0.0] * 3


def test_window_seen_from_either_side_without_a_room():
    front, _ = SkyKernel(WINDOW, SOUTH)((2.0, 1.0, 0.5))
    back, _ = SkyKernel(WINDOW, (0.0, 1.0, 0.0))((2.0, -1.0, 0.5))
    assert front[0] == pytest.approx(back[0], rel=1e-12)


def test_batched_and_single_points_agree():
    room = crossing_obstructions_room()
    points = random_points(room, np.random.default_rng(4), 700, (0.01, 1.9))
    kernel = room.sky[0]
    sc, erc = kernel(points)
    for i in range(0, 700, 97):
        s1, e1 = kernel(points[i:i + 1])
        assert s1[0] == pytest.approx(sc[i], rel=1e-12, abs=1e-18)
        assert e1[0] == pytest.approx(erc[i], rel=1e-12, abs=1e-18)
    assert (erc > 0.0).sum() > 100 and (sc > 0.0).sum() > 100


def test_empty_period_is_rejected_before_the_probe_daylight_factors(coarse_sim, monkeypatch):
    def no_df(points):
        raise AssertionError("probe daylight factors computed for an empty period")

    monkeypatch.setattr(coarse_sim, "_df_for_points", no_df)
    start = datetime(2009, 7, 15, 10, 0)
    times = np.datetime64(start, "us") + np.arange(5) * np.timedelta64(1, "m")
    weather = WeatherSeries(times, np.full(5, 300.0), np.full(5, 300.0))
    with pytest.raises(DataError):
        coarse_sim.run(weather, start=start, end=start, probes=[(1.95, 2.77)])


def test_split_rings_divides_each_ring_along_its_own_line():
    rng = np.random.default_rng(8)
    n = 500
    k = rng.integers(3, 9, n)
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, (n, 8)), axis=1)
    width = 8
    rings = np.empty((n, width, 2))
    for i in range(n):  # convex rings of k vertices, padded by repeating the last
        a = angles[i, :k[i]]
        pts = np.column_stack((np.cos(a), np.sin(a))) * rng.uniform(0.5, 3.0) + rng.uniform(-2, 2, 2)
        rings[i, :k[i]], rings[i, k[i]:] = pts, pts[-1]
    normal = rng.normal(size=(n, 2))
    offset = rng.uniform(-2.0, 2.0, n)
    side = lambda r: np.sum(r * normal[:, None], axis=2) + offset[:, None]
    inside, outside = split_rings(rings, side(rings))
    area = lambda r: signed_ring_areas(r, r[:, 0])
    np.testing.assert_allclose(area(inside) + area(outside), area(rings), rtol=1e-12, atol=1e-12)
    assert np.all(area(inside) >= 0.0) and np.all(area(outside) >= 0.0)
    tol = 1e-12 * np.abs(normal).sum(axis=1)[:, None] * 4
    full = area(inside) > 0.0  # an empty row is all zeros
    assert np.all(side(inside)[full] >= -tol[full])
    full = area(outside) > 0.0
    assert np.all(side(outside)[full] <= tol[full])
    assert 0 < np.count_nonzero(area(inside) == 0.0) < n
    # a ring with an edge on the line: whole on one side, degenerate on the other
    square = np.array([[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]])
    above, below = split_rings(square, square[:, :, 1])
    assert area(above).tolist() == [1.0] and area(below).tolist() == [0.0]
