"""The batched stepping of ``Simulator.run`` against independent references:
the beam kernel against the scanline patch oracle of ``tests/oracles.py``
(area, empty set and lit points), the beam invariants as property tests,
and whole runs against a reference stepped one minute at a time with
``sun_position``, ``reconstruct_illuminance`` and that oracle.
"""

import math
import sys
import warnings
from datetime import datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (TROPICAL_SITE, assert_same_bits, make_canonical_room, random_l_room,
                      with_obstructions)
from oracles import beam_image, beam_patch, one_pass_sun_positions, overlap_area, shoelace_area
from sidelux import daylight, solar
from sidelux.daylight import (
    Aperture,
    BeamKernel,
    Obstruction,
    Room,
    Simulator,
    SurfaceOptics,
    daylight_factor,
)
from sidelux.errors import ConfigError, DataError
from sidelux.geometry import PARALLEL_TOL, Polygon3
from sidelux.io import parse_weather_csv, write_weather_csv
from sidelux.solar import (
    EfficacyModel,
    SolarState,
    WeatherSeries,
    outdoor_illuminance,
    reconstruct_illuminance,
    sun_altitudes,
    sun_directions,
    sun_position,
    sun_positions,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import inputs  # noqa: E402
import physics  # noqa: E402

PLANE_Z = 0.01
CELL_PROBES = [(1.95, 3.27), (1.95, 2.77), (1.95, 2.27), (1.95, 1.77), (1.95, 1.27)]
L_PROBES = [(1.45, 5.45), (1.45, 1.45), (5.45, 1.45), (5.45, 0.45), (0.45, 0.45), (2.85, 5.85)]


def make_l_room() -> Room:
    """L-shaped floor (27 m^2), a north and an east window, an obstruction
    in front of each."""
    floor = Polygon3([(0, 0, 0), (6, 0, 0), (6, 3, 0), (3, 3, 0), (3, 6, 0), (0, 6, 0)])
    north = Polygon3([(2.2, 6, 0.9), (0.8, 6, 0.9), (0.8, 6, 2.1), (2.2, 6, 2.1)])
    east = Polygon3([(6, 0.8, 0.9), (6, 2.2, 0.9), (6, 2.2, 2.1), (6, 0.8, 2.1)])
    glazing = dict(tau=0.9, mf=0.9, fr=0.8, mg=0.8)
    return Room(
        floor=floor,
        height=2.8,
        optics=SurfaceOptics(floor=0.2, walls=0.6, ceiling=0.6),
        apertures=(Aperture(north, **glazing), Aperture(east, **glazing)),
        obstructions=(
            Obstruction(Polygon3([(8.5, -1, 0), (8.5, 4, 0), (8.5, 4, 4.5), (8.5, -1, 4.5)])),
            Obstruction(Polygon3([(-1, 9.5, 0), (4, 9.5, 0), (4, 9.5, 5), (-1, 9.5, 5)])),
        ),
    )


ROOMS = {"test_cell": make_canonical_room, "l_room": make_l_room}


def random_suns(rng, n):
    """Half low suns (long images far from the room, slivers at the floor's
    edge), half anywhere, some below the horizon."""
    altitude = np.concatenate((rng.uniform(0.0, 4.0, n // 2), rng.uniform(-5.0, 90.0, n - n // 2)))
    azimuth = rng.uniform(0.0, 360.0, n)
    return [SolarState.from_angles(a, z) for a, z in zip(altitude, azimuth)]


def directions(suns):
    return np.array([s.direction for s in suns])


def oracle_patches(room, suns, points=()):
    """Areas (S, K) and lit points (S, K, N) of the scanline oracle."""
    floor = room.floor.coords[:, :2]
    areas = np.zeros((len(suns), len(room.apertures)))
    lit = np.zeros((len(suns), len(room.apertures), len(points)), dtype=bool)
    for i, sun in enumerate(suns):
        for k, ap in enumerate(room.apertures):
            areas[i, k], lit[i, k] = beam_patch(floor, ap.polygon.coords, sun.direction, PLANE_Z,
                                                points)
    return areas, lit


@pytest.mark.parametrize("name", sorted(ROOMS))
def test_kernel_area_matches_patch_oracle(name):
    room = ROOMS[name]()
    suns = random_suns(np.random.default_rng(7), 2400)
    areas, lit = BeamKernel(room, PLANE_Z)(directions(suns), np.zeros((0, 2)))
    assert areas.shape == (len(suns), len(room.apertures))
    assert lit.shape == (len(suns), len(room.apertures), 0)
    expected, _ = oracle_patches(room, suns)
    assert np.count_nonzero(expected) > 400
    np.testing.assert_allclose(areas, expected, rtol=0.0, atol=1e-12)
    assert np.array_equal(areas > 0.0, expected > 0.0)


def _distance_to_edges(points, ring):
    """Distance from each 2-D point to the nearest edge of a ring."""
    a = ring[None, :, :]
    ab = np.roll(ring, -1, axis=0)[None] - a
    rel = points[:, None, :] - a
    t = np.clip((rel * ab).sum(axis=2) / (ab * ab).sum(axis=2), 0.0, 1.0)
    return np.hypot(*np.moveaxis(rel - t[..., None] * ab, 2, 0)).min(axis=1)


@pytest.mark.parametrize("name", sorted(ROOMS))
def test_kernel_lit_matches_patch_oracle(name):
    """Lit points agree with the oracle's even-odd containment in the image
    and the floor, outside a 1e-9 m band around the edges of both."""
    room = ROOMS[name]()
    rng = np.random.default_rng(11)
    suns = random_suns(rng, 600)
    lo, hi = room.floor.coords[:, :2].min(axis=0), room.floor.coords[:, :2].max(axis=0)
    points = rng.uniform(lo, hi, (300, 2))
    points = points[room.contains(np.column_stack((points, np.full(len(points), PLANE_Z))))]
    areas, lit = BeamKernel(room, PLANE_Z)(directions(suns), points)
    expected_areas, expected = oracle_patches(room, suns, points)
    floor = room.floor.coords[:, :2]
    clear_of_floor = _distance_to_edges(points, floor) > 1e-9
    checked = 0
    for i, sun in enumerate(suns):
        for k, ap in enumerate(room.apertures):
            clear = clear_of_floor.copy()
            image = beam_image(floor, ap.polygon.coords, sun.direction, PLANE_Z)
            if expected_areas[i, k] > 0.0:
                clear &= _distance_to_edges(points, image) > 1e-9
            assert np.array_equal(lit[i, k, clear], expected[i, k, clear]), (sun, k)
            checked += clear.sum()
    assert checked > 0.999 * len(suns) * len(room.apertures) * len(points)
    assert lit.sum() > 1000 and not lit.all()


@pytest.mark.parametrize("altitude,offset,expected", [
    (60.0, 1.5e-9, False), (60.0, 0.5e-9, True), (30.0, 0.7e-9, True), (30.0, 1.3e-9, False),
])
def test_lit_band_is_a_distance_in_metres(altitude, offset, expected):
    """With the sun due north the test cell's window image has side edges
    on x = 1.45 and x = 2.45 of cot(altitude) m (0.577 m at 60 deg, 1.73 m
    at 30 deg); a point ``offset`` beyond either, halfway along it, is lit
    exactly when the offset is within 1e-9 m, whatever the edge's length."""
    sun = SolarState.from_angles(altitude, 0.0)
    y = 3.5 - 1.49 / math.tan(math.radians(altitude))  # the image of the window's mid-height
    points = np.array([(1.45 - offset, y), (2.45 + offset, y)])
    areas, lit = BeamKernel(make_canonical_room(), PLANE_Z)(directions([sun]), points)
    assert areas[0, 0] > 0.0
    assert lit[0, 0].tolist() == [expected, expected]


def test_sunrise_sliver_is_empty():
    """One minute after sunrise the L-room's east window projects hundreds
    of meters west; the clipped pieces must come out exactly empty, as the
    oracle finds them, not as cancellation noise."""
    room = make_l_room()
    sun = sun_position(datetime(2009, 7, 3, 7, 1), TROPICAL_SITE)
    assert 0.0 < sun.altitude < 0.5
    areas, _ = BeamKernel(room, PLANE_Z)(directions([sun]), np.zeros((0, 2)))
    assert areas.tolist() == [[0.0, 0.0]]
    assert oracle_patches(room, [sun])[0].tolist() == [[0.0, 0.0]]


def square_room_with_west_window(sill: float, head: float) -> Room:
    floor = Polygon3([(0, 0, 0), (4, 0, 0), (4, 4, 0), (0, 4, 0)])
    window = Polygon3([(0, 2, sill), (0, 1, sill), (0, 1, head), (0, 2, head)])
    return Room(floor=floor, height=2.8, optics=SurfaceOptics(0.2, 0.6, 0.6),
                apertures=(Aperture(window),))


def test_the_direction_alone_keeps_the_beam_above_the_horizon():
    """A west window whose sill is on the workplane, suns due west: a sun
    below the horizon, one so low that |d_z| < PARALLEL_TOL (1e-8 deg) and
    a horizontal direction, all facing the window, cast nothing and light
    no point, while a sun at 0.01 deg casts its image over the whole 4 m
    run of the floor behind the 1 m window (3.999999999999975 m^2, the
    oracle's 4 m^2 within 1e-12)."""
    room = square_room_with_west_window(0.0, 2.0)
    points = np.stack(np.meshgrid(np.linspace(0.05, 3.95, 9), np.linspace(0.05, 3.95, 9)),
                      axis=-1).reshape(-1, 2)
    below, grazing, low = (SolarState.from_angles(a, 270.0) for a in (-5.0, 1e-8, 0.01))
    assert abs(grazing.direction[2]) < PARALLEL_TOL
    areas, lit = BeamKernel(room, PLANE_Z)(
        np.array([below.direction, grazing.direction, (1.0, 0.0, 0.0)]), points)
    assert not areas.any() and not lit.any()
    areas, lit = BeamKernel(room, PLANE_Z)(directions([low]), points)
    assert areas[0, 0] == 3.999999999999975
    assert areas[0, 0] == pytest.approx(oracle_patches(room, [low])[0][0, 0], rel=0.0, abs=1e-12)
    assert lit.any()


@pytest.mark.parametrize("scope", daylight.PATCH_SCOPES)
def test_no_sun_casts_no_beam_whatever_the_direct_part(scope):
    """``evaluate`` with the sun below the horizon, on the window's side,
    gives DF * E_global alone, even with a direct part: no beam term, no
    patch, no warning."""
    sim = Simulator(make_canonical_room(), TROPICAL_SITE, cell=0.5, patch_scope=scope)
    below = SolarState.from_angles(-5.0, 0.0)
    e_global = 8000.0 + 30000.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fld = sim.evaluate(below.direction[None], [e_global], [30000.0])[0]
    assert fld.patch_area == 0.0 and not fld.e_direct.any()
    for got in (fld.e_diffuse, fld.e_global):
        assert_same_bits(got, sim.df * e_global)


@pytest.mark.parametrize("gap,expected_area", [(1e-13, 0.0), (1e-5, 1e-5)])
def test_pieces_of_at_most_empty_area_count_as_empty(gap, expected_area):
    """The sill's image lands ``gap`` short of the far wall, leaving a piece
    ``gap`` wide and 1 m long on the floor."""
    room = square_room_with_west_window(1.0, 2.0)
    altitude = math.degrees(math.atan2(1.0 - PLANE_Z, 4.0 - gap))
    sun = SolarState.from_angles(altitude, 270.0)
    areas, _ = BeamKernel(room, PLANE_Z)(directions([sun]), np.zeros((0, 2)))
    expected, _ = oracle_patches(room, [sun])
    assert areas[0, 0] == pytest.approx(expected_area, rel=1e-6, abs=0.0)
    assert expected[0, 0] == pytest.approx(expected_area, rel=1e-6, abs=0.0)


def test_window_reaching_below_the_workplane_casts_its_upper_part():
    """Only the part of a window above the workplane casts light onto it,
    as the oracle rules, whether the sill lies below the plane or above it;
    a window wholly below the plane casts nothing."""
    rng = np.random.default_rng(13)
    suns = random_suns(rng, 400)
    for sill in (0.0, 0.2):
        room = square_room_with_west_window(sill, 2.0)
        areas, _ = BeamKernel(room, PLANE_Z)(directions(suns), np.zeros((0, 2)))
        expected, _ = oracle_patches(room, suns)
        np.testing.assert_allclose(areas, expected, rtol=0.0, atol=1e-12)
        assert areas.any()
    areas, lit = BeamKernel(room, 2.5)(directions(suns), rng.uniform(0.0, 4.0, (50, 2)))
    assert not areas.any() and not lit.any()


def rectangular_building(width, depth, window, plane_z) -> dict:
    """A plain building of the benchmark's layout (``perfbench/inputs.py``):
    a ``width`` x ``depth`` floor, 2.8 m high, one window given by its
    vertices, the workplane at ``plane_z``."""
    return dict(inputs.TEST_CELL, obstructions=[],
                workplane={"cell": 0.1, "height": plane_z},
                room=dict(inputs.TEST_CELL["room"], apertures=[{"vertices": window}],
                          floor_vertices=[[0, 0, 0], [width, 0, 0], [width, depth, 0],
                                          [0, depth, 0]]))


def room_of(building: dict) -> Room:
    room = building["room"]
    return Room(floor=Polygon3(room["floor_vertices"]), height=room["height"],
                optics=SurfaceOptics(0.2, 0.6, 0.6),
                apertures=tuple(Aperture(Polygon3(a["vertices"])) for a in room["apertures"]))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sill=st.floats(0.0, 1.5), tall=st.floats(0.3, 1.2),
       plane_z=st.floats(0.0, 2.5))
def test_a_window_cut_by_the_workplane_matches_the_benchmark_reference(seed, sill, tall, plane_z):
    """Random sills and workplane heights in a rectangular room against
    ``perfbench/physics.py::patch_area``, which clips the window to
    z >= plane_z on its own; in a convex room the other walls cast no
    shadow on the patch, so both models agree."""
    rng = np.random.default_rng(seed)
    width, depth = rng.uniform(2.5, 6.0, 2)
    x0 = rng.uniform(0.0, width - 0.3)
    x1 = rng.uniform(x0 + 0.3, width)
    window = [[x1, depth, sill], [x0, depth, sill], [x0, depth, sill + tall],
              [x1, depth, sill + tall]]
    building = rectangular_building(width, depth, window, plane_z)
    suns = random_suns(rng, 24)
    areas, _ = BeamKernel(room_of(building), plane_z)(directions(suns), np.zeros((0, 2)))
    scene = physics.Scene(building)
    expected = [physics.patch_area(scene, sun.direction) if sun.altitude > 0.0 else 0.0
                for sun in suns]
    np.testing.assert_allclose(areas[:, 0], expected, rtol=1e-9, atol=1e-9)


# The test cell with its sill at 0.6 m, on 2009-06-21 with a sun every
# 30 min from 07:00 to 16:30: the largest patch, from physics.patch_area.
LOW_SILL_PATCHES = [(0.55, 1.6985), (0.65, 1.6776), (0.85, 1.5383)]


@pytest.mark.parametrize("plane_z, largest", LOW_SILL_PATCHES)
def test_the_test_cell_with_a_low_sill_matches_the_reference_table(plane_z, largest):
    room_d = inputs.TEST_CELL["room"]
    window = [[x, y, 0.6 if z == 1.0 else z] for x, y, z in room_d["apertures"][0]["vertices"]]
    building = rectangular_building(3.9, 3.5, window, plane_z)
    times = np.datetime64("2009-06-21T07:00", "us") + np.arange(20) * np.timedelta64(30, "m")
    altitude, _, direction = sun_positions(times, TROPICAL_SITE)
    areas, _ = BeamKernel(room_of(building), plane_z)(direction, np.zeros((0, 2)))
    scene = physics.Scene(building)
    expected = [physics.patch_area(scene, d) if a > 0.0 else 0.0
                for a, d in zip(altitude, direction)]
    np.testing.assert_allclose(areas[:, 0], expected, rtol=0.0, atol=1e-4)
    assert areas.max() == pytest.approx(largest, abs=1e-4)


@pytest.mark.parametrize("plane_z", [0.5, 1.0, 1.5])
def test_a_cut_image_wholly_on_the_floor_balances_the_flux(plane_z):
    """A 2 m x 1.5 m north window (sill 0.3 m) in a 10 m square room, suns
    in front of it: the image of its part above the plane lies wholly on
    the floor, so the patch is A_upper |d.n_w| / |d_z|."""
    window = [[6, 10, 0.3], [4, 10, 0.3], [4, 10, 1.8], [6, 10, 1.8]]
    room = room_of(rectangular_building(10.0, 10.0, window, plane_z))
    rng = np.random.default_rng(int(plane_z * 10))
    suns = [SolarState.from_angles(a, z) for a, z in zip(rng.uniform(35.0, 70.0, 50),
                                                        rng.uniform(-30.0, 30.0, 50) % 360.0)]
    direction = directions(suns)
    areas, _ = BeamKernel(room, plane_z)(direction, np.zeros((0, 2)))
    upper = 2.0 * (1.8 - plane_z)
    d = direction / np.linalg.norm(direction, axis=1)[:, None]
    np.testing.assert_allclose(areas[:, 0], upper * np.abs(d[:, 1]) / np.abs(d[:, 2]),
                               rtol=1e-12, atol=0.0)


def test_sun_positions_match_the_scalar_wrapper():
    start = datetime(2009, 1, 1, 0, 0, 30)
    stamps = [start + timedelta(minutes=37 * i) for i in range(2000)]
    altitude, azimuth, direction = sun_positions(np.array(stamps, dtype="datetime64[us]"),
                                                 TROPICAL_SITE)
    for i in range(0, len(stamps), 97):
        sun = sun_position(stamps[i], TROPICAL_SITE)
        assert (sun.altitude, sun.azimuth) == (altitude[i], azimuth[i])
        assert np.array_equal(sun.direction, direction[i])
    with pytest.raises(ValueError, match="year 2101"):
        sun_positions(np.array(["2009-01-01", "2101-01-01"], dtype="datetime64[us]"),
                      TROPICAL_SITE)


YEAR_2009 = np.datetime64("2009-01-01", "us") + np.arange(525_600) * np.timedelta64(1, "m")
EDGE_STAMPS = np.array(["1950-01-01", "1955-03-04T05:06:07.123456", "1969-12-31T23:59:59.999999",
                        "1970-01-01", "2100-12-31T23:59:59.999999"], dtype="datetime64[us]")


@pytest.mark.parametrize("times", [YEAR_2009, EDGE_STAMPS], ids=["2009_minutes", "edges"])
def test_the_two_sun_passes_give_the_one_pass_bits(times):
    """The altitude of every step (pass one), and the azimuth and direction
    from its terms (pass two), are the bits of the one-pass formula, also
    before 1970 and in the last microsecond of 2100."""
    loc = TROPICAL_SITE
    altitude, azimuth, direction = one_pass_sun_positions(times, loc.latitude, loc.longitude,
                                                          loc.timezone)
    got, terms = sun_altitudes(times, loc)
    assert_same_bits(got, altitude)
    assert terms.shape == (4, len(times))
    for got, expected in zip(sun_positions(times, loc), (altitude, azimuth, direction)):
        assert_same_bits(got, expected)


def test_the_direction_pass_on_gathered_steps_gives_their_full_pass_bits():
    """Pass two over the sunny steps alone, or any other gathered subset,
    gives those steps' azimuth and direction of the full pass, bit for bit."""
    altitude, terms = sun_altitudes(YEAR_2009, TROPICAL_SITE)
    azimuth, direction = sun_directions(altitude, terms, TROPICAL_SITE)
    rng = np.random.default_rng(3)
    for steps in (np.flatnonzero(altitude > 0.0), np.sort(rng.choice(len(altitude), 777)),
                  np.array([5, 3, 5]), np.array([], dtype=np.intp)):
        got_azimuth, got_direction = sun_directions(altitude[steps], terms[:, steps],
                                                    TROPICAL_SITE)
        assert_same_bits(got_azimuth, azimuth[steps])
        assert_same_bits(got_direction, direction[steps])


@pytest.mark.parametrize("stamps,year", [
    (["1949-12-31T23:59:59.999999", "2101-01-01"], 1949),
    (["2101-01-01", "1949-12-31T23:59:59.999999"], 2101),
    (["2009-01-01", "1950-01-01", "1949-06-30"], 1949),
    (["2100-12-31T23:59:59.999999", "2101-01-01T00:00:00.000001"], 2101),
])
def test_the_year_error_names_the_first_stamp_out_of_range(stamps, year):
    with pytest.raises(ValueError, match=f"^timestamp year {year} outside supported range "
                                         "1950-2100$"):
        sun_positions(np.array(stamps, dtype="datetime64[us]"), TROPICAL_SITE)


def test_no_stamps_pass_the_year_check_and_not_a_time_fails_it():
    with pytest.raises(ValueError, match="outside supported range"):
        sun_positions(np.array(["2009-01-01", "NaT"], dtype="datetime64[us]"), TROPICAL_SITE)
    altitude, terms = sun_altitudes(np.array([], dtype="datetime64[us]"), TROPICAL_SITE)
    assert altitude.shape == (0,) and terms.shape == (4, 0)


def test_an_overcast_run_computes_no_sun_direction(coarse_sim):
    """With no direct part on any step, no chunk of lit steps has a sunny
    one, so none works out the sun's direction or calls the beam."""
    weather = overcast_minutes(datetime(2009, 7, 15, 0, 0), 3 * daylight.BLOCK_STEPS - 5)
    with mock.patch.object(daylight, "sun_directions", wraps=sun_directions) as spy, \
            mock.patch.object(coarse_sim, "beam", wraps=coarse_sim.beam) as beam:
        res = coarse_sim.run(weather, probes=CELL_PROBES)
    assert spy.call_count == 0 and beam.call_count == 0
    assert not res.patch_area.any() and res.outdoor_global.any()


def test_an_all_dark_run_computes_no_sun_altitude(coarse_sim):
    """With no light on any step, by day too, no step is lit, so the sun's
    altitude is never worked out, and every output is +0.0."""
    n = 3 * daylight.BLOCK_STEPS - 5
    times = np.datetime64("2009-07-15", "us") + np.arange(n) * np.timedelta64(1, "m")
    weather = WeatherSeries(times, np.zeros(n), np.zeros(n))
    with mock.patch.object(daylight, "sun_altitudes", wraps=sun_altitudes) as spy:
        res = coarse_sim.run(weather, probes=CELL_PROBES)
    assert spy.call_count == 0
    for series in (res.outdoor_global, res.outdoor_diffuse, res.outdoor_direct, res.patch_area,
                   res.probe_global):
        assert not series.any() and not np.signbit(series).any()


@pytest.mark.parametrize("start,rows_minutes,n_rows,step,year", [
    ("1949-12-31T23:50", 1, 20, 1, 1949),
    ("2100-12-31T23:50", 1, 20, 1, 2101),
    ("2100-12-31T23:50", 1, 20, 3, 2101),
    ("2100-06-01", 400 * 1440, 3, 400 * 1440, 2101),  # the last step is in 2102
], ids=["into_1950", "into_2101", "into_2101_gathered", "past_2101"])
def test_a_dark_period_out_of_range_names_the_first_bad_year(coarse_sim, start, rows_minutes,
                                                             n_rows, step, year):
    """Only the lit steps' altitudes are worked out, yet a period of dark
    steps outside 1950-2100 is refused, naming the first bad step's year."""
    times = np.datetime64(start, "us") + np.arange(n_rows) * np.timedelta64(rows_minutes, "m")
    weather = WeatherSeries(times, np.zeros(n_rows), np.zeros(n_rows))
    with pytest.raises(ValueError, match=f"^timestamp year {year} outside supported range "
                                         "1950-2100$"):
        coarse_sim.run(weather, step_minutes=step)


def assert_run_is_the_full_pass(sim, weather, monkeypatch, step_minutes=1):
    """In chunks of 7 and of ``BLOCK_STEPS`` lit steps, ``run`` gives the bits of
    a full pass that works out the sun of every step: the outdoor series,
    the sunny steps' directions and direct parts handed to the beam, and
    the probes of the other steps. Returns the full pass's altitude and the
    last run."""
    loc = sim.location
    stride = slice(None, None, step_minutes)
    altitude, _, direction = one_pass_sun_positions(weather.times[stride], loc.latitude,
                                                    loc.longitude, loc.timezone)
    up = altitude > 0.0
    diffuse, direct = (np.where(up, e, 0.0) for e in outdoor_illuminance(
        weather.gh[stride], weather.dh[stride], sim.efficacy, weather.ev_global[stride],
        weather.ev_diffuse[stride]))
    sunny = up & (direct > 0.0)
    _, probe_df = sim._probe_df(CELL_PROBES)
    for size in (7, daylight.BLOCK_STEPS):
        with monkeypatch.context() as patch:
            patch.setattr(daylight, "BLOCK_STEPS", size)
            with mock.patch.object(sim, "_illuminance", wraps=sim._illuminance) as spy:
                res = sim.run(weather, step_minutes=step_minutes, probes=CELL_PROBES)
        assert_same_bits(res.timestamps, weather.times[stride])
        for got, expected in zip((res.outdoor_diffuse, res.outdoor_direct, res.outdoor_global),
                                 (diffuse, direct, diffuse + direct)):
            assert_same_bits(got, expected)
        *beam, _ = spy.call_args_list  # the beam batches, then the (empty) fields
        assert_same_bits(np.concatenate([call.args[0] for call in beam]), direction[sunny])
        assert_same_bits(np.concatenate([call.args[2] for call in beam]), direct[sunny])
        e_global = (diffuse + direct)[~sunny]
        assert_same_bits(res.probe_global[~sunny], probe_df[None, :] * e_global[:, None] + 0.0)
        assert not res.patch_area[~sunny].any()
    return altitude, res


def test_light_before_sunrise_reads_dark_as_in_the_full_pass(coarse_sim, monkeypatch):
    """Records with light while the sun is still below the horizon are lit
    steps whose altitude zeroes them."""
    weather = winter_weather(1)
    altitude, _, _ = sun_positions(weather.times, TROPICAL_SITE)
    sunrise = int(np.argmax(altitude > 0.0))
    gh, dh = weather.gh.copy(), weather.dh.copy()
    gh[sunrise - 40:sunrise], dh[sunrise - 40:sunrise] = 4.0, 3.0
    dawn = WeatherSeries(weather.times, gh, dh)
    _, res = assert_run_is_the_full_pass(coarse_sim, dawn, monkeypatch)
    assert not res.outdoor_global[sunrise - 40:sunrise].any()
    assert res.outdoor_global[sunrise]


def test_negative_zero_records_from_a_file_keep_the_full_pass_bits(coarse_sim, monkeypatch,
                                                                   tmp_path):
    """A -0.00 record carries light as far as the bits go: with the sun up
    its diffuse part is -0.0, as in the full pass; with the sun down +0.0."""
    weather = winter_weather(1)
    path = tmp_path / "weather.csv"
    write_weather_csv(weather, path)
    lines = path.read_text().splitlines()
    for k in (*range(100, 130), *range(700, 730)):  # before sunrise, then about noon
        lines[1 + k] = lines[1 + k].split(",")[0] + ",-0.00,-0.00"
    path.write_text("\n".join(lines) + "\n")
    signed = parse_weather_csv(path)
    assert np.signbit(signed.gh).sum() == np.signbit(signed.dh).sum() == 60
    altitude, res = assert_run_is_the_full_pass(coarse_sim, signed, monkeypatch)
    assert np.array_equal(np.signbit(res.outdoor_diffuse), np.signbit(signed.dh) & (altitude > 0.0))
    assert np.signbit(res.outdoor_diffuse[700:730]).all()


def test_measured_light_at_night_reads_dark_as_in_the_full_pass(monkeypatch):
    """In passthrough mode a measured, non-zero illuminance at night makes a
    lit step whose altitude zeroes it."""
    sim = Simulator(make_canonical_room(), TROPICAL_SITE, cell=0.5,
                    efficacy=EfficacyModel(mode="passthrough"))
    weather = winter_weather(1, measured_every=3)
    altitude, _, _ = sun_positions(weather.times, TROPICAL_SITE)
    night = ~(altitude > 0.0)
    assert not weather.gh[night].any()
    evg, evd = weather.ev_global.copy(), weather.ev_diffuse.copy()
    evg[night], evd[night] = 50.0, 20.0
    measured = WeatherSeries(weather.times, weather.gh, weather.dh, evg, evd)
    _, res = assert_run_is_the_full_pass(sim, measured, monkeypatch)
    assert not res.outdoor_global[night].any()
    assert res.outdoor_diffuse[~night].any() and res.outdoor_direct[~night].any()


# ---------------------------------------------------------------------------
# Beam invariants over random L-rooms with 0-2 obstructions, which do not
# shade the beam.

def random_room_and_suns(seed, n_suns=48):
    rng = np.random.default_rng(seed)
    room = with_obstructions(random_l_room(rng), rng, seed % 3)
    return room, random_suns(rng, n_suns)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_patch_area_is_bounded_by_the_window_image(seed):
    """Per window, the patch area is at most A_win |d.n_w| / |d_z|, the area
    of the window's image, and equals it (flux balance) where the oracle
    finds the whole image on the floor."""
    room, suns = random_room_and_suns(seed)
    direction = directions(suns)
    areas, _ = BeamKernel(room, PLANE_Z)(direction, np.zeros((0, 2)))
    floor = room.floor.coords[:, :2]
    for k, ap in enumerate(room.apertures):
        bound = ap.area * np.abs(direction @ room.outward[k]) / np.abs(direction[:, 2])
        assert np.all(areas[:, k] <= bound + 1e-9)
        for i, sun in enumerate(suns):
            image = beam_image(floor, ap.polygon.coords, sun.direction, PLANE_Z)
            whole = image is not None and \
                overlap_area(image, floor) >= (1 - 1e-12) * shoelace_area(image)
            if whole:
                assert areas[i, k] == pytest.approx(bound[i], rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), e_direct=st.floats(100.0, 9000.0))
def test_beam_terms_are_linear_in_the_direct_illuminance(seed, e_direct):
    """At a fixed E_global, doubling E_direct doubles the transmitted beam
    and the patch-reflected term and leaves the DF * E_global part as it is."""
    room, suns = random_room_and_suns(seed)
    sim = Simulator(room, TROPICAL_SITE, cell=0.5)
    areas, _ = sim.beam(directions(suns), np.zeros((0, 2)))
    assume(areas.any())
    sun = suns[int(np.argmax(areas.sum(axis=1) > 0.0))]
    e_global = 20000.0
    base, once, twice = (
        sim.evaluate(sun.direction[None], [e_global], [m * e_direct])[0]
        for m in (0.0, 1.0, 2.0))
    assert np.array_equal(base.e_diffuse, sim.df * e_global) and not base.e_direct.any()
    lit = once.e_direct > 0.0
    assert once.patch_area > 0.0 and twice.patch_area == once.patch_area
    np.testing.assert_allclose(once.e_direct[lit], e_direct * room.apertures[0].tau, rtol=1e-12)
    np.testing.assert_allclose(twice.e_direct, 2.0 * once.e_direct, rtol=1e-12, atol=0.0)
    term_once, term_twice = once.e_diffuse - base.e_diffuse, twice.e_diffuse - base.e_diffuse
    assert not term_once[~lit].any() and not term_twice[~lit].any()
    np.testing.assert_allclose(term_once[lit], e_direct * room.optics.floor * once.patch_area
                               / room.s_t, rtol=1e-9)
    np.testing.assert_allclose(term_twice, 2.0 * term_once, rtol=1e-9, atol=0.0)


# ---------------------------------------------------------------------------
# Whole runs against the per-step reference.

def winter_weather(days, start=datetime(2009, 7, 1), measured_every=0):
    """Clear austral-winter minutes with three half-hour overcast spells a
    day (Dh = Gh); with ``measured_every``, every so many samples also carry
    measured illuminances."""
    rng = np.random.default_rng(days)
    times = np.datetime64(start, "us") + np.arange(days * 1440) * np.timedelta64(1, "m")
    altitude, _, _ = sun_positions(times, TROPICAL_SITE)
    sin_h = np.clip(np.sin(np.radians(altitude)), 0.0, 1.0)
    gh = 1050.0 * sin_h**1.15 * rng.uniform(0.95, 1.05, len(times))
    dh = gh * (0.12 + 0.10 * (1.0 - sin_h))
    for day in range(days):
        for hour in (8, 11, 14):
            m = day * 1440 + hour * 60 + int(rng.integers(0, 120))
            gh[m:m + 30] *= 0.4
            dh[m:m + 30] = gh[m:m + 30]
    measured = np.zeros(len(times), dtype=bool)
    if measured_every:
        measured[::measured_every] = True
    return WeatherSeries(times, gh, dh, np.where(measured, 115.0 * gh, np.nan),
                         np.where(measured, 118.0 * dh, np.nan))


def subset(weather, keep):
    return WeatherSeries(weather.times[keep], weather.gh[keep], weather.dh[keep],
                         weather.ev_global[keep], weather.ev_diffuse[keep])


def reference_step(sim, weather, i, points, df):
    """Outdoor illuminance, patch area and illuminance at ``points`` for the
    step at sample ``i``: one step at a time, with the scalar sun position
    and outdoor conversion and the oracle's patch."""
    room, z = sim.room, sim.grid.plane_z
    sun = sun_position(weather.times[i].astype(datetime), sim.location)
    out = reconstruct_illuminance(sun, weather.gh[i], weather.dh[i], sim.efficacy,
                                  weather.ev_global[i], weather.ev_diffuse[i])
    values = df * out.e_global
    area = 0.0
    if out.e_direct > 0.0:
        for ap in room.apertures:
            patch, lit = beam_patch(room.floor.coords[:, :2], ap.polygon.coords, sun.direction, z,
                                    points[:, :2])
            area += patch
            values = values + lit * (out.e_direct * room.optics.floor * patch / room.s_t)
            values = values + lit * (out.e_direct * ap.tau)
    return out, area, values


def check_against_reference(sim, weather, probes, field_at, step_minutes=1):
    res = sim.run(weather, step_minutes=step_minutes, probes=probes, field_at=field_at)
    stamps = weather.times.astype(datetime).tolist()
    index = {t: i for i, t in enumerate(stamps)}
    step = timedelta(minutes=step_minutes)
    z = sim.grid.plane_z
    probe_pts = np.array([(x, y, z) for x, y in probes])
    probe_df = np.array([sum(daylight_factor(p, sim.room, ap).df for ap in sim.room.apertures)
                         for p in probe_pts])
    expected = []
    t = stamps[0]
    while t <= stamps[-1]:
        out, area, values = reference_step(sim, weather, index[t], probe_pts, probe_df)
        expected.append((t, out.e_global, out.e_diffuse, out.e_direct, area, values))
        t += step
    assert res.timestamps.dtype == np.dtype("datetime64[us]")
    assert res.timestamps.astype(datetime).tolist() == [e[0] for e in expected]
    for col, attr in enumerate(("outdoor_global", "outdoor_diffuse", "outdoor_direct"), start=1):
        np.testing.assert_allclose(getattr(res, attr), [e[col] for e in expected],
                                   rtol=1e-12, atol=1e-9)
    np.testing.assert_allclose(res.patch_area, [e[4] for e in expected], rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(res.probe_global, np.array([e[5] for e in expected]),
                               rtol=1e-12, atol=1e-8)
    assert set(res.fields) == set(field_at)
    for when in field_at:
        fld = res.fields[when]
        _, area, values = reference_step(sim, weather, index[when], sim.grid.points, sim.df)
        assert fld.patch_area == pytest.approx(area, abs=1e-12)
        np.testing.assert_allclose(fld.e_global, values, rtol=1e-12, atol=1e-8)
        assert np.array_equal(fld.e_global, fld.e_diffuse + fld.e_direct)
    return res


def test_run_matches_reference_clear_winter_week(coarse_sim, monkeypatch):
    monkeypatch.setattr(daylight, "BLOCK_STEPS", 512)  # so the week spans many chunks
    weather = winter_weather(7)
    assert len(weather) > 10 * daylight.BLOCK_STEPS
    field_at = [datetime(2009, 7, 2, 3, 0), datetime(2009, 7, 3, 10, 17),
                datetime(2009, 7, 5, 12, 0)]
    res = check_against_reference(coarse_sim, weather, CELL_PROBES, field_at)
    assert (res.patch_area > 0.0).sum() > 2000
    assert ((res.outdoor_direct == 0.0) & (res.outdoor_global > 0.0)).sum() > 500
    assert not res.fields[field_at[0]].e_global.any()


def test_run_matches_reference_l_room_seven_minute_steps():
    sim = Simulator(make_l_room(), TROPICAL_SITE, cell=0.5)
    weather = subset(winter_weather(2), slice(0, 7 * 411 + 1))  # the last sample on the grid
    field_at = [datetime(2009, 7, 1, 9, 6), datetime(2009, 7, 2, 15, 47)]
    res = check_against_reference(sim, weather, L_PROBES, field_at, step_minutes=7)
    assert len(res.timestamps) == 412
    assert (res.patch_area > 0.0).sum() > 100


def test_run_matches_reference_passthrough_efficacy():
    sim = Simulator(make_canonical_room(), TROPICAL_SITE, cell=0.5,
                    efficacy=EfficacyModel(mode="passthrough"))
    weather = winter_weather(1, measured_every=3)
    res = check_against_reference(sim, weather, CELL_PROBES[:2],
                                  [datetime(2009, 7, 1, 12, 0), datetime(2009, 7, 1, 12, 1)])
    noon = 12 * 60
    assert res.timestamps[noon] == np.datetime64("2009-07-01T12:00")
    assert res.outdoor_diffuse[noon] == pytest.approx(118.0 * weather.dh[noon])


@pytest.mark.parametrize("name", sorted(ROOMS))
def test_run_is_the_same_bits_for_any_block_size(name, monkeypatch):
    """Chunks of 7, 500 and the default ``BLOCK_STEPS`` lit steps give every
    series and field of a winter week bit for bit alike: with constant
    efficacy, and with passthrough efficacy on weather whose every third
    sample is measured and the others NaN; at minute steps, which read the
    weather as slices, and at 7-minute steps, which gather its rows. The
    diffuse irradiance reads -0.0 at one night and one sunny sample. Each
    beam batch is the sunny steps of one chunk, in time order, so a chunk
    with a dark or overcast lit step hands over a short batch."""
    probes = CELL_PROBES if name == "test_cell" else L_PROBES
    weather = winter_weather(7, measured_every=3)
    dh = weather.dh.copy()
    dh[[140, 700]] = -0.0  # 02:20 and 11:40 of the first day: unmeasured, on the 7-minute grid
    weather = WeatherSeries(weather.times, weather.gh, dh, weather.ev_global, weather.ev_diffuse)
    field_at = weather.times[[2058, 7917]].astype(datetime).tolist()
    for mode, step in (("constant", 1), ("passthrough", 1), ("passthrough", 7)):
        sim = Simulator(ROOMS[name](), TROPICAL_SITE, cell=0.5, efficacy=EfficacyModel(mode=mode))
        stride = slice(None, None, step)
        altitude, _, direction = sun_positions(weather.times[stride], TROPICAL_SITE)
        diffuse, direct = outdoor_illuminance(weather.gh[stride], weather.dh[stride], sim.efficacy,
                                              weather.ev_global[stride], weather.ev_diffuse[stride])
        lit = np.flatnonzero(np.signbit(diffuse) | np.signbit(direct) | (diffuse != 0.0)
                             | (direct != 0.0))
        sunny = (altitude > 0.0) & (direct > 0.0)
        runs = []
        for size in (7, 500, daylight.BLOCK_STEPS):
            with monkeypatch.context() as patch:
                patch.setattr(daylight, "BLOCK_STEPS", size)
                with mock.patch.object(sim, "_illuminance", wraps=sim._illuminance) as spy:
                    runs.append(sim.run(weather, step_minutes=step, probes=probes,
                                        field_at=field_at))
            chunks = [lit[i:i + size] for i in range(0, len(lit), size)]
            expected = [c[sunny[c]] for c in chunks if sunny[c].any()]
            *beam, fields = spy.call_args_list  # the beam batches, then one call for all the fields
            assert len(fields.args[0]) == len(field_at)
            assert len(beam) == len(expected)
            for call, steps in zip(beam, expected):
                assert_same_bits(call.args[0], direction[steps])
                assert_same_bits(call.args[2], direct[steps])
            if size < len(lit):
                assert any(len(steps) < size for steps in expected[:-1])  # a short batch
        for res in runs[:2]:
            for attr in ("timestamps", "outdoor_global", "outdoor_diffuse", "outdoor_direct",
                         "patch_area", "probe_global"):
                assert_same_bits(getattr(res, attr), getattr(runs[-1], attr))
            for when in field_at:
                fld, ref = res.fields[when], runs[-1].fields[when]
                assert fld.patch_area == ref.patch_area
                for attr in ("df", "e_diffuse", "e_direct", "e_global"):
                    assert_same_bits(getattr(fld, attr), getattr(ref, attr))
        assert np.flatnonzero(np.signbit(runs[-1].outdoor_diffuse)).tolist() == [700 // step]
        assert (runs[-1].patch_area > 0.0).sum() > 2000 // step


@pytest.mark.parametrize("name", sorted(ROOMS))
def test_run_fields_are_evaluate_bit_for_bit(name):
    """``run`` builds all its fields in one pass over their instants: three
    sunny ones, one with the sun below the horizon and one overcast (no
    direct part). Each field is bit for bit what ``evaluate`` gives for
    that instant alone, and what ``step``, a one-sample run, gives."""
    sim = Simulator(ROOMS[name](), TROPICAL_SITE, cell=0.5)
    weather = winter_weather(1)
    altitude, _, direction = sun_positions(weather.times, TROPICAL_SITE)
    plain = sim.run(weather)
    sunny = np.flatnonzero(plain.patch_area > 0.0)
    dark = np.flatnonzero(altitude <= 0.0)[0]
    overcast = np.flatnonzero((altitude > 0.0) & (plain.outdoor_direct == 0.0))[0]
    steps = sorted([dark, overcast, *sunny[[0, len(sunny) // 2, -1]]])
    field_at = weather.times[steps].astype(datetime).tolist()
    res = sim.run(weather, field_at=field_at)
    assert len(res.fields) == 5
    for k, when in zip(steps, field_at):
        fld = res.fields[when]
        assert fld.patch_area == res.patch_area[k]
        alone = sim.evaluate(direction[[k]], res.outdoor_global[[k]], res.outdoor_direct[[k]])[0]
        for ref in (alone, sim.step(when, float(weather.gh[k]), float(weather.dh[k]))):
            assert ref.patch_area == fld.patch_area
            for attr in ("df", "e_diffuse", "e_direct", "e_global"):
                assert_same_bits(getattr(ref, attr), getattr(fld, attr))
    assert res.fields[field_at[steps.index(dark)]].patch_area == 0.0
    assert not res.fields[field_at[steps.index(overcast)]].e_direct.any()
    assert res.fields[field_at[steps.index(sunny[len(sunny) // 2])]].e_direct.any()


def test_run_fields_build_no_per_instant_objects(monkeypatch):
    """``run`` builds its fields from its own columns: with ``SolarState``
    and ``OutdoorIlluminance`` made to raise, a run with fields at sunny,
    dark and overcast instants gives, bit for bit, what it gave before."""
    sim = Simulator(make_l_room(), TROPICAL_SITE, cell=0.5)
    weather = winter_weather(1)
    field_at = weather.times[::97].astype(datetime).tolist()
    expected = sim.run(weather, field_at=field_at)

    def forbidden(*args, **kwargs):
        raise AssertionError("a run builds no per-instant objects")

    monkeypatch.setattr(daylight, "SolarState", forbidden)
    monkeypatch.setattr(solar, "OutdoorIlluminance", forbidden)
    res = sim.run(weather, field_at=field_at)
    e_global, e_direct = res.outdoor_global[::97], res.outdoor_direct[::97]
    assert res.patch_area[::97].any() and not e_global.all()
    assert ((e_global > 0.0) & (e_direct == 0.0)).any()
    assert list(res.fields) == list(expected.fields) == field_at
    for when in field_at:
        fld, ref = res.fields[when], expected.fields[when]
        assert fld.patch_area == ref.patch_area
        for attr in ("e_diffuse", "e_direct", "e_global"):
            assert_same_bits(getattr(fld, attr), getattr(ref, attr))


# ---------------------------------------------------------------------------
# Semantics of run that the batching keeps.

def overcast_minutes(start, n, gh=300.0):
    times = np.datetime64(start, "us") + np.arange(n) * np.timedelta64(1, "m")
    values = gh + np.arange(n) % 100
    return WeatherSeries(times, values, values)


@pytest.mark.parametrize("step,message", [
    (0, "step must be at least one minute"),
    (-1, "step must be at least one minute"),
    (10**15, "step of 1000000000000000 minutes is too long"),
], ids=["zero", "negative", "overflowing"])
def test_step_below_one_minute_or_too_long_raises(coarse_sim, step, message):
    """A step is at least a minute, and its length in microseconds fits the
    int64 time axis."""
    weather = overcast_minutes(datetime(2009, 7, 15, 10, 0), 5)
    with pytest.raises(ConfigError, match=f"^{message}$"):
        coarse_sim.run(weather, step_minutes=step)
    longest = np.iinfo(np.int64).max // 60_000_000
    assert len(coarse_sim.run(weather, step_minutes=longest).timestamps) == 1


@pytest.mark.parametrize("order,message", [
    ([0, 1, 2, 4, 3, 5], "line 6: timestamps not ascending at 2009-07-15T10:03:00"),
    ([0, 1, 2, 2, 3, 4], "line 5: duplicate timestamp 2009-07-15T10:02:00"),
], ids=["unordered", "duplicate"])
def test_unordered_or_duplicate_times_raise(order, message):
    """Samples come in strictly ascending time; the later sample of an
    unordered or repeated pair is named."""
    weather = overcast_minutes(datetime(2009, 7, 15, 10, 0), 6)
    with pytest.raises(DataError, match=f"^{message}$"):
        WeatherSeries(weather.times[order], weather.gh[order], weather.dh[order],
                      lines=np.arange(len(order)) + 2)
    with pytest.raises(DataError, match=f"^{message[8:]}$"):
        WeatherSeries(weather.times[order], weather.gh[order], weather.dh[order])


def test_start_and_end_default_to_first_and_last_given_record(coarse_sim):
    start = datetime(2009, 7, 15, 10, 0)
    weather = overcast_minutes(start, 30)
    res = coarse_sim.run(subset(weather, slice(5, 20)), step_minutes=2)
    # from the first sample given up to and including the last one given
    assert res.timestamps[0] == weather.times[5]
    assert res.timestamps[-1] == weather.times[19]
    assert len(res.timestamps) == 8
    res = coarse_sim.run(weather, start=start + timedelta(minutes=3),
                         end=start + timedelta(minutes=9))
    assert np.array_equal(res.timestamps, weather.times[3:9])


@pytest.mark.parametrize("step,n", [(7, 5), (60, 1), (29, 2)])
def test_default_end_stops_at_the_last_sample(coarse_sim, step, n):
    """Without ``end`` the run takes (last - start) // step + 1 steps, so a
    step coarser than the samples never lands past the last one."""
    weather = overcast_minutes(datetime(2009, 7, 15, 10, 0), 30)
    res = coarse_sim.run(weather, step_minutes=step)
    assert len(res.timestamps) == n
    assert res.timestamps[-1] == weather.times[(n - 1) * step]


def test_a_period_inside_the_weather_is_that_period_cut_out(coarse_sim, monkeypatch):
    """A period that starts after the first record and ends before the last
    reads its own rows: every series and field is the bits of a run on the
    same rows cut out as their own series."""
    monkeypatch.setattr(daylight, "BLOCK_STEPS", 512)  # the period ends inside a chunk
    weather = winter_weather(2)
    start, end = datetime(2009, 7, 1, 9, 13), datetime(2009, 7, 2, 15, 2)
    rows = slice(*np.searchsorted(weather.times, np.array([start, end], "datetime64[us]")))
    assert rows.start > 0 and rows.stop < len(weather)
    field_at = [datetime(2009, 7, 1, 12, 0), datetime(2009, 7, 2, 10, 17)]
    inside = coarse_sim.run(weather, start=start, end=end, probes=CELL_PROBES, field_at=field_at)
    cut = coarse_sim.run(subset(weather, rows), probes=CELL_PROBES, field_at=field_at)
    for attr in ("timestamps", "outdoor_global", "outdoor_diffuse", "outdoor_direct",
                 "patch_area", "probe_global"):
        assert_same_bits(getattr(inside, attr), getattr(cut, attr))
    for when in field_at:
        for attr in ("e_diffuse", "e_direct", "e_global"):
            assert_same_bits(getattr(inside.fields[when], attr), getattr(cut.fields[when], attr))
    assert (inside.patch_area > 0.0).sum() > 500


def test_an_end_past_the_last_record_names_the_first_missing_stamp(coarse_sim):
    start = datetime(2009, 7, 15, 10, 0)
    weather = overcast_minutes(start, 30)
    with pytest.raises(DataError, match="no weather record for 2009-07-15T10:30:00$"):
        coarse_sim.run(weather, start=start + timedelta(minutes=5),
                       end=start + timedelta(minutes=45))


def test_seven_minute_steps_are_the_full_pass(monkeypatch):
    """Steps coarser than the records look up their rows and give the bits
    of the full pass over every 7th record."""
    sim = Simulator(make_canonical_room(), TROPICAL_SITE, cell=0.5)
    _, res = assert_run_is_the_full_pass(sim, winter_weather(2), monkeypatch, step_minutes=7)
    assert (res.patch_area > 0.0).sum() > 100


def test_first_missing_record_is_named(coarse_sim):
    start = datetime(2009, 7, 15, 10, 0)
    weather = overcast_minutes(start, 1500)
    keep = ~np.isin(np.arange(1500), [700, 1200])
    with pytest.raises(DataError, match="no weather record for 2009-07-15T21:40:00$"):
        coarse_sim.run(subset(weather, keep))


def test_field_at_an_instant_not_visited(coarse_sim):
    start = datetime(2009, 7, 15, 10, 0)
    weather = overcast_minutes(start, 31)
    off_grid = start + timedelta(minutes=3)
    after = start + timedelta(minutes=40)
    with pytest.raises(DataError, match="not visited") as err:
        coarse_sim.run(weather, step_minutes=2, field_at=[after, start, off_grid])
    assert str(err.value).endswith("2009-07-15T10:03:00, 2009-07-15T10:40:00")


def test_field_instants_are_checked_before_stepping(coarse_sim):
    weather = overcast_minutes(datetime(2009, 7, 15, 10, 0), 31)
    with mock.patch.object(coarse_sim, "_illuminance") as illuminance:
        with pytest.raises(DataError, match="not visited"):
            coarse_sim.run(weather, field_at=[datetime(2009, 7, 15, 10, 0, 30)])
    illuminance.assert_not_called()


def test_field_patch_area_is_its_step_patch_area(coarse_sim):
    """A field's sun is its step's sun, so the two patch areas are equal."""
    weather = winter_weather(1)
    sunny = np.flatnonzero(coarse_sim.run(weather).patch_area > 0.0)
    steps = sunny[[0, len(sunny) // 2, -1]]
    field_at = weather.times[steps].astype(datetime).tolist()
    res = coarse_sim.run(weather, field_at=field_at)
    for k, when in zip(steps, field_at):
        assert res.fields[when].patch_area == res.patch_area[k] > 0.0


def test_utc_offset_rejected(coarse_sim):
    start = datetime(2009, 7, 15, 10, 0)
    weather = overcast_minutes(start, 5)
    aware = start.replace(tzinfo=timezone(timedelta(hours=4)))
    with pytest.raises(DataError, match="UTC offset"):
        coarse_sim.run(weather, start=aware)
    with pytest.raises(DataError, match="UTC offset"):
        WeatherSeries([start - timedelta(minutes=1), aware], [1.0, 1.0], [1.0, 1.0])
    with pytest.raises(DataError, match="UTC offset"):
        coarse_sim.step(aware, 1.0, 1.0)
