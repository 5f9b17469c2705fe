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
from oracles import ray_cast_daylight_factor, sight_classes, walls_other_than
from test_stepping import L_PROBES, make_l_room
from sidelux.daylight import (
    Aperture,
    Obstruction,
    Room,
    Simulator,
    _piece_integrals,
    daylight_factor,
    externally_reflected_component,
    sky_component,
)
from sidelux.errors import DataError, GeometryError
from sidelux.geometry import Polygon3, signed_ring_areas, split_rings
from sidelux.io import parse_building
from sidelux.solar import WeatherSeries

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


# ---------------------------------------------------------------------------
# Hidden points.

@pytest.mark.parametrize("window, point", [(0, (5.45, 1.45)), (1, (2.85, 5.85))])
def test_points_hidden_by_re_entrant_walls_get_no_sky(window, point):
    room = make_l_room()
    ap = room.apertures[window]
    p = (*point, 0.01)
    assert sky_component(p, ap, room.obstructions, room) == 0.0
    assert externally_reflected_component(p, ap, room.obstructions, room) == 0.0
    parts = daylight_factor(p, room, ap)
    assert parts.sc == 0.0 and parts.erc == 0.0 and parts.irc > 0.0
    sc, erc = room.sky_kernel(ap.polygon, room.obstructions)(np.array([p]))
    assert sc.tolist() == [0.0] and erc.tolist() == [0.0]
    # without the room's walls the same window is in plain view
    assert sky_component(p, ap) > 1e-4


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
    sc = sky_component(p, ap, (), room)
    if hidden.all():
        assert sc == 0.0
    elif not hidden.any():
        assert sc > 0.0
    else:
        assert 0.0 < sc < sky_component(p, ap)


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
        assert sky_component(p, window, (), room) == pytest.approx(sky_component(p, window),
                                                                   rel=1e-12)
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
    for ap in room.apertures:
        kernel = room.sky_kernel(ap.polygon, room.obstructions)
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
    points = room.workplane(0.1, 0.01).points
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
    kernel = room.sky_kernel(room.apertures[0].polygon, room.obstructions)
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


# ---------------------------------------------------------------------------
# The benchmark's frozen references.

def benchmark_inputs():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import inputs
    finally:
        sys.path.remove(str(PERFBENCH))
    return inputs


@pytest.mark.parametrize("name", ["test_cell", "l_room"])
def test_probe_daylight_factors_match_the_benchmark_references(name, tmp_path):
    inputs = benchmark_inputs()
    ref = json.loads((PERFBENCH / "refs.json").read_text(encoding="utf-8"))[name]
    probes = {"test_cell": inputs.TEST_CELL_PROBES, "l_room": inputs.L_ROOM_PROBES}[name]
    assert [tuple(p) for p in ref["probes"]] == [tuple(p) for p in probes]
    path = tmp_path / "building.json"
    path.write_text(json.dumps(inputs.BUILDINGS[name]), encoding="utf-8")
    b = parse_building(path)
    sim = Simulator(b.room, b.location, cell=b.workplane_cell, workplane_height=b.workplane_height)
    _, df = sim._probe_df(tuple(probes))
    np.testing.assert_allclose(df, ref["df"], rtol=0.0, atol=1e-8)
    single = [engine_df(b.room, (x, y, sim.grid.plane_z)) for x, y in probes]
    np.testing.assert_allclose(single, ref["df"], rtol=0.0, atol=1e-8)


# ---------------------------------------------------------------------------
# Edge cases.

WINDOW = Polygon3([(1.5, 0, 0.8), (2.5, 0, 0.8), (2.5, 0, 1.8), (1.5, 0, 1.8)])


def test_full_dome_is_exactly_one():
    assert sky_component(np.zeros(3), None) == 1.0


@pytest.mark.parametrize("point", [(2.0, 0.0, 1.2), (1.5, 0.0, 0.8), (2.5, 0.0, 1.3)])
def test_point_on_the_aperture_raises(point):
    with pytest.raises(GeometryError):
        sky_component(point, WINDOW)
    with pytest.raises(GeometryError):
        externally_reflected_component(point, WINDOW, ())


def test_points_in_the_window_plane_off_the_aperture_or_above_it_see_nothing():
    assert sky_component((4.0, 0.0, 1.0), WINDOW) == 0.0
    assert sky_component((2.0, 1.0, 1.8), WINDOW) == 0.0
    assert sky_component((2.0, 1.0, 2.5), WINDOW) == 0.0


def test_window_seen_from_either_side_without_a_room():
    assert sky_component((2.0, 1.0, 0.5), WINDOW) == pytest.approx(
        sky_component((2.0, -1.0, 0.5), WINDOW), rel=1e-12)


def test_batched_and_single_points_agree():
    room = crossing_obstructions_room()
    points = random_points(room, np.random.default_rng(4), 700, (0.01, 1.9))
    kernel = room.sky_kernel(room.apertures[0].polygon, room.obstructions)
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
