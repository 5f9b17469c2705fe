"""The batched stepping of ``Simulator.run`` against independent references:
the beam kernel against the scanline patch oracle of ``tests/oracles.py``
(area, empty set and lit points), the beam invariants as property tests,
and whole runs against a reference stepped one minute at a time with
``sun_position``, ``reconstruct_illuminance`` and that oracle.
"""

import math
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import TROPICAL_SITE, make_canonical_room, random_l_room, with_obstructions
from oracles import beam_image, beam_patch, overlap_area, shoelace_area
from sidelux.daylight import (
    BLOCK_STEPS,
    Aperture,
    BeamKernel,
    Obstruction,
    Room,
    Simulator,
    SurfaceOptics,
    daylight_factor,
)
from sidelux.errors import ConfigError, DataError
from sidelux.geometry import Polygon3
from sidelux.solar import (
    EfficacyModel,
    OutdoorIlluminance,
    SolarState,
    WeatherSeries,
    reconstruct_illuminance,
    sun_position,
    sun_positions,
)

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


def kernel_inputs(suns):
    return (np.array([s.altitude for s in suns]), np.array([s.direction for s in suns]))


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
    areas, lit = BeamKernel(room, PLANE_Z)(*kernel_inputs(suns), np.zeros((0, 2)))
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
    areas, lit = BeamKernel(room, PLANE_Z)(*kernel_inputs(suns), points)
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
    areas, lit = BeamKernel(make_canonical_room(), PLANE_Z)(*kernel_inputs([sun]), points)
    assert areas[0, 0] > 0.0
    assert lit[0, 0].tolist() == [expected, expected]


def test_sunrise_sliver_is_empty():
    """One minute after sunrise the L-room's east window projects hundreds
    of meters west; the clipped pieces must come out exactly empty, as the
    oracle finds them, not as cancellation noise."""
    room = make_l_room()
    sun = sun_position(datetime(2009, 7, 3, 7, 1), TROPICAL_SITE)
    assert 0.0 < sun.altitude < 0.5
    areas, _ = BeamKernel(room, PLANE_Z)(*kernel_inputs([sun]), np.zeros((0, 2)))
    assert areas.tolist() == [[0.0, 0.0]]
    assert oracle_patches(room, [sun])[0].tolist() == [[0.0, 0.0]]


def square_room_with_west_window(sill: float, head: float) -> Room:
    floor = Polygon3([(0, 0, 0), (4, 0, 0), (4, 4, 0), (0, 4, 0)])
    window = Polygon3([(0, 2, sill), (0, 1, sill), (0, 1, head), (0, 2, head)])
    return Room(floor=floor, height=2.8, optics=SurfaceOptics(0.2, 0.6, 0.6),
                apertures=(Aperture(window),))


@pytest.mark.parametrize("gap,expected_area", [(1e-13, 0.0), (1e-5, 1e-5)])
def test_pieces_of_at_most_empty_area_count_as_empty(gap, expected_area):
    """The sill's image lands ``gap`` short of the far wall, leaving a piece
    ``gap`` wide and 1 m long on the floor."""
    room = square_room_with_west_window(1.0, 2.0)
    altitude = math.degrees(math.atan2(1.0 - PLANE_Z, 4.0 - gap))
    sun = SolarState.from_angles(altitude, 270.0)
    areas, _ = BeamKernel(room, PLANE_Z)(*kernel_inputs([sun]), np.zeros((0, 2)))
    expected, _ = oracle_patches(room, [sun])
    assert areas[0, 0] == pytest.approx(expected_area, rel=1e-6, abs=0.0)
    assert expected[0, 0] == pytest.approx(expected_area, rel=1e-6, abs=0.0)


def test_window_reaching_below_the_workplane_casts_no_patch():
    """A vertex below the workplane would be projected backwards: no patch,
    as the oracle rules; the same window above it casts one."""
    suns = random_suns(np.random.default_rng(13), 400)
    for sill, lit in ((0.0, False), (0.2, True)):
        room = square_room_with_west_window(sill, 2.0)
        areas, _ = BeamKernel(room, PLANE_Z)(*kernel_inputs(suns), np.zeros((0, 2)))
        expected, _ = oracle_patches(room, suns)
        np.testing.assert_allclose(areas, expected, rtol=0.0, atol=1e-12)
        assert areas.any() == lit


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
    altitude, direction = kernel_inputs(suns)
    areas, _ = BeamKernel(room, PLANE_Z)(altitude, direction, np.zeros((0, 2)))
    floor = room.floor.coords[:, :2]
    for k, ap in enumerate(room.apertures):
        bound = ap.area * np.abs(direction @ room.aperture_outward(k)) / np.abs(direction[:, 2])
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
    areas, _ = sim.beam(*kernel_inputs(suns), np.zeros((0, 2)))
    assume(areas.any())
    sun = suns[int(np.argmax(areas.sum(axis=1) > 0.0))]
    e_global = 20000.0
    base, once, twice = (
        sim.evaluate(OutdoorIlluminance.from_components(e_global - m * e_direct, m * e_direct), sun)
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


def test_run_matches_reference_clear_winter_week(coarse_sim):
    weather = winter_weather(7)
    assert len(weather) > 10 * BLOCK_STEPS
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
