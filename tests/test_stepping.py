"""The batched stepping of ``Simulator.run`` against the scalar per-step path
it replaced: the beam kernel against ``compute_sun_patch`` and per-piece
containment, and whole runs against a reference stepped one minute at a
time with ``sun_position``, ``reconstruct_illuminance`` and
``compute_sun_patch``.
"""

import math
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from conftest import TROPICAL_SITE, make_canonical_room
from sidelux.daylight import (
    BLOCK_STEPS,
    Aperture,
    BeamKernel,
    Obstruction,
    Room,
    Simulator,
    SurfaceOptics,
    compute_sun_patch,
    daylight_factor,
)
from sidelux.errors import DataError
from sidelux.geometry import Polygon3, points_in_polygon_mask
from sidelux.solar import (
    EfficacyModel,
    SolarState,
    WeatherRecord,
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


@pytest.mark.parametrize("name", sorted(ROOMS))
def test_kernel_area_matches_compute_sun_patch(name):
    room = ROOMS[name]()
    suns = random_suns(np.random.default_rng(7), 2400)
    areas, lit = BeamKernel(room, PLANE_Z)(*kernel_inputs(suns), np.zeros((0, 2)))
    assert areas.shape == (len(suns), len(room.apertures))
    assert lit.shape == (len(suns), len(room.apertures), 0)
    expected = np.array([[compute_sun_patch(room, ap, sun, PLANE_Z).area
                          for ap in room.apertures] for sun in suns])
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
def test_kernel_lit_matches_piece_containment(name):
    room = ROOMS[name]()
    rng = np.random.default_rng(11)
    suns = random_suns(rng, 600)
    lo, hi = room.floor.coords[:, :2].min(axis=0), room.floor.coords[:, :2].max(axis=0)
    points = rng.uniform(lo, hi, (300, 2))
    points = points[[room.contains((x, y, PLANE_Z)) for x, y in points]]
    areas, lit = BeamKernel(room, PLANE_Z)(*kernel_inputs(suns), points)
    checked = 0
    for i, sun in enumerate(suns):
        for k, ap in enumerate(room.apertures):
            patch = compute_sun_patch(room, ap, sun, PLANE_Z)
            inside = np.zeros(len(points), dtype=bool)
            clear = np.ones(len(points), dtype=bool)
            for piece in patch.pieces:
                ring = piece.coords[:, :2]
                inside |= points_in_polygon_mask(points[:, 0], points[:, 1], ring)
                clear &= _distance_to_edges(points, ring) > 1e-9
            assert np.array_equal(lit[i, k, clear], inside[clear]), (sun, k)
            checked += clear.sum()
    assert checked > 0.999 * len(suns) * len(room.apertures) * len(points)
    assert lit.sum() > 1000 and not lit.all()


def test_sunrise_sliver_is_empty():
    """One minute after sunrise the L-room's east window projects hundreds
    of meters west; the clipped pieces must come out exactly empty, as
    ``compute_sun_patch`` makes them, not as cancellation noise."""
    room = make_l_room()
    sun = sun_position(datetime(2009, 7, 3, 7, 1), TROPICAL_SITE)
    assert 0.0 < sun.altitude < 0.5
    areas, _ = BeamKernel(room, PLANE_Z)(*kernel_inputs([sun]), np.zeros((0, 2)))
    assert areas.tolist() == [[0.0, 0.0]]
    assert [compute_sun_patch(room, ap, sun, PLANE_Z).area for ap in room.apertures] == [0.0, 0.0]


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
    patch = compute_sun_patch(room, room.apertures[0], sun, PLANE_Z)
    assert areas[0, 0] == pytest.approx(expected_area, rel=1e-6, abs=0.0)
    assert patch.area == pytest.approx(expected_area, rel=1e-6, abs=0.0)


def test_window_reaching_below_the_workplane_casts_no_patch():
    """A vertex below the workplane would be projected backwards: no patch,
    as in ``compute_sun_patch``; the same window above it casts one."""
    suns = random_suns(np.random.default_rng(13), 400)
    for sill, lit in ((0.0, False), (0.2, True)):
        room = square_room_with_west_window(sill, 2.0)
        areas, _ = BeamKernel(room, PLANE_Z)(*kernel_inputs(suns), np.zeros((0, 2)))
        expected = [compute_sun_patch(room, room.apertures[0], sun, PLANE_Z).area for sun in suns]
        np.testing.assert_allclose(areas[:, 0], expected, rtol=0.0, atol=1e-12)
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
# Whole runs against the per-step reference.

def winter_records(days, start=datetime(2009, 7, 1), measured_every=0):
    """Clear austral-winter minutes with three half-hour overcast spells a
    day (Dh = Gh); with ``measured_every``, every so many records also carry
    measured illuminances."""
    rng = np.random.default_rng(days)
    stamps = [start + timedelta(minutes=m) for m in range(days * 1440)]
    altitude, _, _ = sun_positions(np.array(stamps, dtype="datetime64[us]"), TROPICAL_SITE)
    sin_h = np.clip(np.sin(np.radians(altitude)), 0.0, 1.0)
    gh = 1050.0 * sin_h**1.15 * rng.uniform(0.95, 1.05, len(stamps))
    dh = gh * (0.12 + 0.10 * (1.0 - sin_h))
    for day in range(days):
        for hour in (8, 11, 14):
            m = day * 1440 + hour * 60 + int(rng.integers(0, 120))
            gh[m:m + 30] *= 0.4
            dh[m:m + 30] = gh[m:m + 30]
    records = []
    for i, ts in enumerate(stamps):
        if measured_every and i % measured_every == 0:
            records.append(WeatherRecord(ts, gh[i], dh[i], 115.0 * gh[i], 118.0 * dh[i]))
        else:
            records.append(WeatherRecord(ts, gh[i], dh[i]))
    return records


def reference_step(sim, rec, when, points, df):
    """Outdoor illuminance, patch area and illuminance at ``points`` for one
    step, the way the engine computed them before it stepped in blocks."""
    room, z = sim.room, sim.grid.plane_z
    sun = sun_position(when, sim.location)
    out = reconstruct_illuminance(rec, sun, sim.efficacy)
    values = df * out.e_global
    area = 0.0
    if out.e_direct > 0.0 and sun.altitude > 0.0:
        for ap in room.apertures:
            patch = compute_sun_patch(room, ap, sun, z)
            area += patch.area
            lit = np.array([patch.contains((x, y, z)) for x, y in points[:, :2]], dtype=bool)
            values = values + lit * (out.e_direct * room.optics.floor * patch.area / room.s_t)
            values = values + lit * (out.e_direct * ap.tau)
    return out, area, values


def check_against_reference(sim, records, probes, field_at, step_minutes=1):
    res = sim.run(records, step_minutes=step_minutes, probes=probes, field_at=field_at)
    index = {r.timestamp: r for r in records}
    step = timedelta(minutes=step_minutes)
    z = sim.grid.plane_z
    probe_pts = np.array([(x, y, z) for x, y in probes])
    probe_df = np.array([sum(daylight_factor(p, sim.room, ap).df for ap in sim.room.apertures)
                         for p in probe_pts])
    expected = []
    t = records[0].timestamp
    while t < records[-1].timestamp + step:
        out, area, values = reference_step(sim, index[t], t, probe_pts, probe_df)
        expected.append((t, out.e_global, out.e_diffuse, out.e_direct, area, values))
        t += step
    assert res.timestamps == [e[0] for e in expected]
    for col, attr in enumerate(("outdoor_global", "outdoor_diffuse", "outdoor_direct"), start=1):
        np.testing.assert_allclose(getattr(res, attr), [e[col] for e in expected],
                                   rtol=1e-12, atol=1e-9)
    np.testing.assert_allclose(res.patch_area, [e[4] for e in expected], rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(res.probe_global, np.array([e[5] for e in expected]),
                               rtol=1e-12, atol=1e-8)
    assert set(res.fields) == set(field_at)
    for when in field_at:
        fld = res.fields[when]
        _, area, values = reference_step(sim, index[when], when, sim.grid.points, sim.df)
        assert fld.patch_area == pytest.approx(area, abs=1e-12)
        np.testing.assert_allclose(fld.e_global, values, rtol=1e-12, atol=1e-8)
        assert np.array_equal(fld.e_global, fld.e_diffuse + fld.e_direct)
    return res


def test_run_matches_reference_clear_winter_week(coarse_sim):
    records = winter_records(7)
    assert len(records) > 10 * BLOCK_STEPS
    field_at = [datetime(2009, 7, 2, 3, 0), datetime(2009, 7, 3, 10, 17),
                datetime(2009, 7, 5, 12, 0)]
    res = check_against_reference(coarse_sim, records, CELL_PROBES, field_at)
    assert (res.patch_area > 0.0).sum() > 2000
    assert ((res.outdoor_direct == 0.0) & (res.outdoor_global > 0.0)).sum() > 500
    assert not res.fields[field_at[0]].e_global.any()


def test_run_matches_reference_l_room_seven_minute_steps():
    sim = Simulator(make_l_room(), TROPICAL_SITE, cell=0.5)
    records = winter_records(2)[:7 * 411 + 1]  # the last record on the 7-minute grid
    field_at = [datetime(2009, 7, 1, 9, 6), datetime(2009, 7, 2, 15, 47)]
    res = check_against_reference(sim, records, L_PROBES, field_at, step_minutes=7)
    assert len(res.timestamps) == 412
    assert (res.patch_area > 0.0).sum() > 100


def test_run_matches_reference_passthrough_efficacy():
    sim = Simulator(make_canonical_room(), TROPICAL_SITE, cell=0.5,
                    efficacy=EfficacyModel(mode="passthrough"))
    records = winter_records(1, measured_every=3)
    res = check_against_reference(sim, records, CELL_PROBES[:2],
                                  [datetime(2009, 7, 1, 12, 0), datetime(2009, 7, 1, 12, 1)])
    noon = res.timestamps.index(datetime(2009, 7, 1, 12, 0))
    assert res.outdoor_diffuse[noon] == pytest.approx(118.0 * records[noon].dh)


# ---------------------------------------------------------------------------
# Semantics of run that the batching keeps.

def overcast_minutes(start, n, gh=300.0):
    return [WeatherRecord(start + timedelta(minutes=m), gh + m % 100, gh + m % 100)
            for m in range(n)]


def test_records_in_any_order_last_duplicate_wins(coarse_sim):
    start = datetime(2009, 7, 15, 10, 0)
    records = overcast_minutes(start, 40)
    dup = WeatherRecord(start + timedelta(minutes=20), 900.0, 900.0)
    middle = records[1:-1]
    np.random.default_rng(3).shuffle(middle)
    shuffled = [records[0], *middle[:10], WeatherRecord(dup.timestamp, 1.0, 1.0),
                *middle[10:], dup, records[-1]]
    expected = records.copy()
    expected[20] = dup
    a = coarse_sim.run(shuffled, probes=CELL_PROBES)
    b = coarse_sim.run(expected, probes=CELL_PROBES)
    assert a.timestamps == b.timestamps
    assert np.array_equal(a.outdoor_global, b.outdoor_global)
    assert np.array_equal(a.probe_global, b.probe_global)


def test_start_and_end_default_to_first_and_last_given_record(coarse_sim):
    start = datetime(2009, 7, 15, 10, 0)
    records = overcast_minutes(start, 30)
    res = coarse_sim.run([records[5], *records[:5], *records[6:20]], step_minutes=2)
    # from the first record given to one step past the last one given
    assert res.timestamps[0] == records[5].timestamp
    assert res.timestamps[-1] == records[19].timestamp
    assert len(res.timestamps) == 8
    res = coarse_sim.run(records, start=start + timedelta(minutes=3),
                         end=start + timedelta(minutes=9))
    assert res.timestamps == [r.timestamp for r in records[3:9]]


def test_first_missing_record_is_named(coarse_sim):
    start = datetime(2009, 7, 15, 10, 0)
    records = overcast_minutes(start, 1500)
    del records[1200]
    del records[700]
    with pytest.raises(DataError, match="no weather record for 2009-07-15T21:40:00$"):
        coarse_sim.run(records)


def test_field_at_an_instant_not_visited(coarse_sim):
    start = datetime(2009, 7, 15, 10, 0)
    records = overcast_minutes(start, 31)
    off_grid = start + timedelta(minutes=3)
    after = start + timedelta(minutes=40)
    with pytest.raises(DataError, match="not visited") as err:
        coarse_sim.run(records, step_minutes=2, field_at=[after, start, off_grid])
    assert str(err.value).endswith("2009-07-15T10:03:00, 2009-07-15T10:40:00")


def test_utc_offset_rejected(coarse_sim):
    start = datetime(2009, 7, 15, 10, 0)
    records = overcast_minutes(start, 5)
    aware = start.replace(tzinfo=timezone(timedelta(hours=4)))
    with pytest.raises(DataError, match="UTC offset"):
        coarse_sim.run(records, start=aware)
    with pytest.raises(DataError, match="UTC offset"):
        coarse_sim.run([records[0], WeatherRecord(aware, 1.0, 1.0), *records[1:]])
