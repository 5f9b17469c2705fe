"""Acceptance suite: one test per release criterion, each at its stated
tolerance. The conftest terminal hook prints one PASS/FAIL line per
criterion at the end of the run.
"""

import json
import time
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

from conftest import random_room, same_weather
from oracles import loop_metrics, mc_sky_fractions
from sidelux.daylight import (
    Aperture,
    BeamKernel,
    Room,
    Simulator,
    SkyKernel,
    SurfaceOptics,
    df_from_components,
)
from sidelux.errors import DataError, ParseError
from sidelux.geometry import Polygon3, workplane_grid_for_parts
from sidelux.io import parse_tmy2_subset, parse_weather_csv, write_weather_csv
from sidelux.metrics import (
    SeriesPair,
    build_margins,
    mbd,
    r2,
    relative_errors,
    resample_hourly,
    rmsd,
    rsd,
)
from sidelux.solar import GeoLocation, SolarState, WeatherSeries, reconstruct_illuminance, \
    sun_position
from test_io import TMY2_HEADER, tmy2_line

DATA = Path(__file__).parent / "data"


def test_c01_decomposition_identity():
    """Every point of every random configuration satisfies
    E_global = E_diffuse + E_direct to 1e-9 relative, in under 30 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    checked = 0
    for _ in range(10):
        room, loc = random_room(rng)
        sim = Simulator(room, loc, cell=0.5, workplane_height=0.01)
        for _ in range(10):
            month = int(rng.integers(1, 13))
            hour = int(rng.integers(7, 18))
            gh = float(rng.uniform(50.0, 1000.0))
            dh = gh * float(rng.uniform(0.2, 1.0))
            fld = sim.step(datetime(2009, month, 15, hour, 0), gh, dh)
            assert np.allclose(
                fld.e_global, fld.e_diffuse + fld.e_direct, rtol=1e-9, atol=1e-12
            )
            checked += 1
    assert checked == 100
    assert time.perf_counter() - t0 < 30.0


def test_c02_overcast_regime(canonical_sim):
    """Gh = Dh gives an empty sun patch, zero transmitted beam, and the
    pure daylight-factor field, pointwise to 1e-12."""
    for gh in (50.0, 300.0, 900.0):
        fld = canonical_sim.step(datetime(2009, 7, 15, 11, 0), gh, gh)
        assert fld.patch_area == 0.0
        assert not fld.e_direct.any()
        expected = canonical_sim.df * (canonical_sim.efficacy.kd * gh)
        assert np.allclose(fld.e_global, expected, rtol=1e-12, atol=0.0)


def test_c03_grid_reproduction():
    """A 3.9 m x 3.5 m floor at 0.1 m cells meshes to exactly 39 x 35."""
    floor = Polygon3([(0, 0, 0), (3.9, 0, 0), (3.9, 3.5, 0), (0, 3.5, 0)])
    grid = workplane_grid_for_parts(floor.coords[None, :, :2], 0.0, 0.1, 0.01)
    assert (grid.nu, grid.nv) == (39, 35)
    assert grid.n_points == 1365


def test_c04_sun_patch_analytic():
    """1 m x 1 m window with a 1 m sill under a 45-degree sun normal to the
    facade: patch of exactly 1 m^2 spanning depths 1 m to 2 m."""
    floor = Polygon3([(0, 0, 0), (4, 0, 0), (4, 4, 0), (0, 4, 0)])
    win = Polygon3([(1.5, 0, 1), (2.5, 0, 1), (2.5, 0, 2), (1.5, 0, 2)])
    room = Room(floor=floor, height=2.8, optics=SurfaceOptics(0.2, 0.6, 0.6),
                apertures=(Aperture(win),))
    sun = SolarState.from_angles(45.0, 180.0)
    # probes 1e-6 m inside, then outside, each edge x = 1.5, x = 2.5, y = 1, y = 2
    edges = np.array([(1.5, 1.5), (2.5, 1.5), (2.0, 1.0), (2.0, 2.0)])
    step = 1e-6 * np.array([(1, 0), (-1, 0), (0, 1), (0, -1)])
    areas, lit = BeamKernel(room, 0.0)(sun.direction[None],
                                       np.concatenate((edges + step, edges - step)))
    assert areas[0, 0] == pytest.approx(1.0, abs=1e-6)
    assert lit[0, 0].tolist() == [True] * 4 + [False] * 4


def test_c05_sky_component_oracle():
    """Five randomized point/window cases agree with a >=1e6-sample
    Monte-Carlo dome integration within 2 percent absolute, under 2 min."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)
    for k in range(5):
        width = float(rng.uniform(0.6, 2.5))
        height = float(rng.uniform(0.6, 1.8))
        sill = float(rng.uniform(0.2, 1.2))
        x0 = float(rng.uniform(0.0, 2.0))
        window = Polygon3([
            (x0, 0, sill), (x0 + width, 0, sill),
            (x0 + width, 0, sill + height), (x0, 0, sill + height),
        ])
        rect = ((x0, 0.0, sill), (width, 0.0, 0.0), (0.0, 0.0, height))
        point = np.array([
            float(rng.uniform(0.0, 4.0)), float(rng.uniform(0.3, 4.0)),
            float(rng.uniform(0.0, 1.2)),
        ])
        sc, _ = SkyKernel(window, (0.0, -1.0, 0.0))(point)  # outward: away from y > 0
        sc_mc, _ = mc_sky_fractions(point, rect, n=1_200_000, seed=1000 + k)
        assert sc[0] == pytest.approx(sc_mc, abs=0.02)
    assert time.perf_counter() - t0 < 120.0


def test_c06_sun_position_noaa():
    """Twenty frozen (location, time) pairs within half a degree of the
    NOAA-style oracle on both angles."""
    cases = json.loads((DATA / "solar_noaa.json").read_text())
    assert len(cases) == 20
    for c in cases:
        loc = GeoLocation(latitude=c["lat"], longitude=c["lon"], timezone=c["tz"])
        s = sun_position(datetime.fromisoformat(c["timestamp"]), loc)
        assert abs(s.altitude - c["altitude"]) <= 0.5
        assert abs((s.azimuth - c["azimuth"] + 180.0) % 360.0 - 180.0) <= 0.5


def test_c07_metric_definitions():
    """All indicators reproduce the independent arithmetic to 1e-12,
    including the 32.7 percent error / 67.3 percent reliability pairing."""
    # frozen two-point fixture
    p = SeriesPair(np.array([100.0, 200.0]), np.array([110.0, 190.0]))
    assert rmsd(p) == pytest.approx(10.0 / 150.0, abs=1e-12)
    assert mbd(p) == pytest.approx(0.0, abs=1e-12)
    printed, standard = r2(p)
    assert printed == pytest.approx(200.0 / 3200.0, abs=1e-12)
    assert standard == pytest.approx(1.0 - 200.0 / 3200.0, abs=1e-12)
    err = relative_errors(p)
    assert err.mean == pytest.approx((-10.0 / 110.0 + 10.0 / 190.0) / 2.0, abs=1e-12)

    # random ten-point fixture vs the plain-loop oracle
    rng = np.random.default_rng(77)
    ref = rng.uniform(100.0, 800.0, 10)
    sim = ref * rng.uniform(0.6, 1.4, 10)
    expected = loop_metrics(list(sim), list(ref))
    q = SeriesPair(sim, ref)
    assert rmsd(q) == pytest.approx(expected["rmsd"], abs=1e-12)
    assert mbd(q) == pytest.approx(expected["mbd_pct"], abs=1e-12)
    qp, qs = r2(q)
    assert qp == pytest.approx(expected["r2_printed"], abs=1e-12)
    assert qs == pytest.approx(expected["r2_standard"], abs=1e-12)
    qe = relative_errors(q)
    assert qe.mean == pytest.approx(expected["eps_mean"], abs=1e-12)
    assert qe.mean_abs == pytest.approx(expected["eps_mean_abs"], abs=1e-12)
    assert rsd(q, "error") == pytest.approx(100.0 - qe.mean_abs * 100.0, abs=1e-12)

    # 32.7 percent mean absolute error leaves 67.3 percent reliability
    sims = np.array([100.0 * (1.0 + s * 0.327) for s in (1, -1, 1, -1)])
    r = SeriesPair(sims, np.full(4, 100.0))
    assert relative_errors(r).mean_abs * 100.0 == pytest.approx(32.7, abs=1e-12)
    assert rsd(r, "error") == pytest.approx(67.3, abs=1e-12)

    # margin mode is a pure count ratio
    lower, upper = build_margins(np.full(4, 100.0), 0.15)
    m = SeriesPair(np.array([105.0, 95.0, 100.0, 140.0]), np.full(4, 100.0),
                   lower=lower, upper=upper)
    assert rsd(m, "margin") == 75.0


def test_c08_daylight_factor_substitution():
    """The component assembly reproduces the worked factor example exactly
    and collapses to the bare sum under identity factors."""
    df = df_from_components(0.02, 0.005, 0.01, 1.0, 0.9, 0.8, 0.9, 0.8)
    assert df == pytest.approx(0.018144, rel=1e-12)
    identity = df_from_components(0.02, 0.005, 0.01, 1.0, 1.0, 1.0, 1.0, 1.0)
    assert identity == pytest.approx(0.02 + 0.005 + 0.01, rel=1e-12)


def test_c09_linearity(canonical_sim):
    """Scaling the outdoor illuminance scales every indoor output by the
    same factor to 1e-9 relative."""
    when = datetime(2009, 7, 15, 10, 0)
    base = canonical_sim.step(when, 600.0, 150.0)
    assert base.patch_area > 0.0  # exercise all three terms
    sun = sun_position(when, canonical_sim.location)
    outdoor = reconstruct_illuminance(sun, 600.0, 150.0, canonical_sim.efficacy)
    for lam in (0.5, 2.0, 10.0):
        diffuse, direct = lam * outdoor.e_diffuse, lam * outdoor.e_direct
        scaled = canonical_sim.evaluate(sun.direction[None], [diffuse + direct], [direct])[0]
        for a, b in (
            (scaled.e_diffuse, base.e_diffuse),
            (scaled.e_direct, base.e_direct),
            (scaled.e_global, base.e_global),
        ):
            assert np.allclose(a, lam * b, rtol=1e-9, atol=1e-12)


def _year_of_minutes(year=2009):
    """Synthetic minute weather for a full non-leap year."""
    minutes = np.arange(525_600)
    x = (minutes % 1440 - 360) / 720.0  # 06:00 to 18:00
    gh = 900.0 * np.where((x >= 0.0) & (x <= 1.0), np.maximum(0.0, np.sin(np.pi * x)), 0.0)
    times = np.datetime64(f"{year}-01-01", "us") + minutes * np.timedelta64(1, "m")
    return WeatherSeries(times, gh, 0.35 * gh)


def test_c10_full_year_performance(canonical_sim):
    """A precomputed-DF full-year minute-step simulation on the 1365-point
    grid finishes within the ten-minute budget."""
    weather = _year_of_minutes()
    assert len(weather) == 525_600
    probes = [(1.95, 3.27), (1.95, 2.77), (1.95, 2.27), (1.95, 1.77), (1.95, 1.27)]
    t0 = time.perf_counter()
    result = canonical_sim.run(weather, step_minutes=1, probes=probes)
    elapsed = time.perf_counter() - t0
    assert len(result.timestamps) == 525_600
    assert result.probe_global.shape == (525_600, 5)
    assert result.probe_global.max() > 0.0
    assert elapsed <= 600.0


MALFORMED_WEATHER = [
    ("timestamp,Gh_Wm2,Dh_Wm2\nnot-a-time,500,100\n", 2),
    ("timestamp,Gh_Wm2,Dh_Wm2\n2009-03-21T12:00,abc,100\n", 2),
    ("timestamp,Gh_Wm2,Dh_Wm2\n2009-03-21T12:00,500\n", 2),
    ("timestamp,Gh_Wm2,Dh_Wm2\n2009-03-21T12:00,500,100,49200\n", 2),
    ("timestamp,Gh_Wm2,Dh_Wm2\n2009-03-21T12:00,100,500\n", 2),
    ("timestamp,Gh_Wm2,Dh_Wm2\n2009-03-21T12:00,500,100\n2009-03-21T12:00,500,100\n", 3),
    ("timestamp,Gh_Wm2,Dh_Wm2\n2009-03-21T12:01,500,100\n2009-03-21T12:00,500,100\n", 3),
    ("timestamp,Gh_Wm2,Dh_Wm2\n2009-03-21T12:00,-5,0\n", 2),
    ("timestamp,Gh_Wm2,Dh_Wm2\n2009-03-21T12:00,1600,100\n", 2),
    ("time,G,D\n2009-03-21T12:00,500,100\n", 1),
]


def test_c11_roundtrip_and_parser_totality(tmp_path):
    """Weather CSV round-trips exactly; ten malformed fixtures fail with a
    located error; the TMY2 fixture decodes to its CSV equivalent."""
    src = tmp_path / "w.csv"
    src.write_text(
        "timestamp,Gh_Wm2,Dh_Wm2,Evg_lux,Evd_lux\n"
        "2009-03-21T12:00,500.25,100.125,49200.5,12000.25\n"
        "2009-03-21T12:01,501.5,99.875,49300.0,11900.0\n",
        encoding="utf-8",
    )
    weather = parse_weather_csv(src)
    round_path = tmp_path / "round.csv"
    write_weather_csv(weather, round_path)
    assert same_weather(parse_weather_csv(round_path), weather)

    for i, (body, line) in enumerate(MALFORMED_WEATHER):
        bad = tmp_path / f"bad{i}.csv"
        bad.write_text(body, encoding="utf-8")
        with pytest.raises((ParseError, DataError)) as err:
            parse_weather_csv(bad)
        assert err.value.line == line

    ts = datetime(1985, 3, 21, 12, 0)
    t2 = tmp_path / "site.tm2"
    t2.write_text(
        TMY2_HEADER + "\n" + tmy2_line(ts, 500, 100, gh_ill=492, dh_ill=120) + "\n",
        encoding="utf-8",
    )
    csv = tmp_path / "equiv.csv"
    csv.write_text(
        "timestamp,Gh_Wm2,Dh_Wm2,Evg_lux,Evd_lux\n1985-03-21T12:00,500,100,49200,12000\n",
        encoding="utf-8",
    )
    assert same_weather(parse_tmy2_subset(t2), parse_weather_csv(csv))


def test_c12_hourly_resampling():
    """Minute fixtures average to the hand-computed hourly values exactly."""
    t0 = datetime(2009, 3, 21, 10, 0)
    ts = [t0 + timedelta(minutes=m) for m in range(120)]
    values = list(range(60)) + [10.0] * 60
    hours, means = resample_hourly(ts, values)
    assert hours.tolist() == [t0, t0 + timedelta(hours=1)]
    assert means[0] == 29.5  # mean of 0..59 exactly
    assert means[1] == 10.0
