import json
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import assert_same_bits
from sidelux import solar
from sidelux.errors import ConfigError, DataError
from sidelux.solar import (
    EfficacyModel,
    GeoLocation,
    OutdoorIlluminance,
    SolarState,
    WeatherSeries,
    reconstruct_illuminance,
    sun_altitudes,
    sun_position,
    sun_up,
)

FIXTURES = Path(__file__).parent / "data" / "solar_noaa.json"


def azimuth_diff(a, b):
    return abs((a - b + 180.0) % 360.0 - 180.0)


class TestSunPosition:
    def test_equator_equinox_noon_overhead(self):
        loc = GeoLocation(latitude=0.0, longitude=0.0, timezone=0.0)
        best = max(
            sun_position(datetime(2009, 3, 20, h, m), loc).altitude
            for h in range(11, 14)
            for m in range(0, 60, 2)
        )
        assert best == pytest.approx(90.0, abs=0.5)

    def test_tropical_site_equinox_noon(self):
        loc = GeoLocation(latitude=-21.34, longitude=55.48, timezone=4.0)
        best = max(
            sun_position(datetime(2009, 3, 20, h, m), loc).altitude
            for h in range(11, 14)
            for m in range(0, 60, 2)
        )
        assert best == pytest.approx(68.7, abs=0.5)

    def test_midnight_below_horizon(self):
        loc = GeoLocation(latitude=45.0, longitude=7.0, timezone=1.0)
        assert sun_position(datetime(2010, 6, 15, 0, 0), loc).altitude < 0.0

    def test_noaa_reference_cases(self):
        cases = json.loads(FIXTURES.read_text())
        assert len(cases) == 20
        for c in cases:
            loc = GeoLocation(latitude=c["lat"], longitude=c["lon"], timezone=c["tz"])
            s = sun_position(datetime.fromisoformat(c["timestamp"]), loc)
            assert s.altitude == pytest.approx(c["altitude"], abs=0.5)
            assert azimuth_diff(s.azimuth, c["azimuth"]) <= 0.5

    def test_year_range_enforced(self):
        loc = GeoLocation(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            sun_position(datetime(1900, 1, 1), loc)

    def test_direction_consistent_with_angles(self):
        s = SolarState.from_angles(30.0, 135.0)
        assert s.direction[2] == pytest.approx(-0.5, abs=1e-12)
        # sun in the south-east: light travels toward north-west
        assert s.direction[0] < 0.0 and s.direction[1] > 0.0

    @pytest.mark.parametrize("altitude,azimuth,message", [
        (90.5, 135.0, r"altitude 90\.5 out of \[-90, 90\]"),
        (30.0, 360.0, r"azimuth 360\.0 out of \[0, 360\)"),
        (30.0, 315.0, "direction vector inconsistent with altitude/azimuth"),
    ], ids=["altitude", "azimuth", "direction"])
    def test_solar_state_checks_its_angles(self, altitude, azimuth, message):
        """Each check, given the direction of a sun at 30 degrees, azimuth 135."""
        with pytest.raises(ValueError, match=f"^{message}$"):
            SolarState(altitude, azimuth, SolarState.from_angles(30.0, 135.0).direction)


class TestGeoLocation:
    def test_bad_latitude(self):
        with pytest.raises(ValueError):
            GeoLocation(latitude=95.0, longitude=0.0, timezone=0.0)

    def test_bad_albedo(self):
        with pytest.raises(ValueError):
            GeoLocation(latitude=0.0, longitude=0.0, timezone=0.0, albedo=1.5)


class TestWeatherRecord:
    """The rules on one weather record, checked as a one-sample series."""

    def test_diffuse_exceeding_global_rejected(self):
        with pytest.raises(DataError):
            WeatherSeries([datetime(2009, 1, 1)], [100.0], [500.0])

    def test_small_excess_tolerated(self):
        weather = WeatherSeries([datetime(2009, 1, 1)], [100.0], [101.0])
        assert weather.dh.tolist() == [101.0]

    def test_irradiance_cap(self):
        with pytest.raises(DataError):
            WeatherSeries([datetime(2009, 1, 1)], [1600.0], [100.0])


class TestWeatherSeries:
    T0 = datetime(2009, 7, 1, 12, 0)

    def times(self, *minutes):
        return [self.T0 + timedelta(minutes=m) for m in minutes]

    @pytest.mark.parametrize("minutes,message", [
        ((0, 2, 1), "timestamps not ascending at 2009-07-01T12:01:00"),
        ((0, 1, 1), "duplicate timestamp 2009-07-01T12:01:00"),
    ])
    def test_unordered_or_duplicate_time_raises(self, minutes, message):
        with pytest.raises(DataError, match=f"^{message}$") as err:
            WeatherSeries(self.times(*minutes), [100.0] * 3, [50.0] * 3)
        assert err.value.line is None

    def test_nan_global_raises(self):
        with pytest.raises(DataError, match="^global irradiance nan is not a finite number$"):
            WeatherSeries(self.times(0, 1), [100.0, float("nan")], [50.0, 50.0])

    def test_first_faulty_sample_then_its_first_rule(self):
        with pytest.raises(DataError, match="^line 8: diffuse irradiance -1.0 W/m\\^2 negative$"):
            WeatherSeries(self.times(0, 1, 1), [100.0, 100.0, 2000.0], [50.0, -1.0, 5000.0],
                          [1.0, -1.0, 1.0], [1.0, 1.0, 1.0], lines=[5, 8, 9])

    def test_missing_illuminance_is_nan(self):
        weather = WeatherSeries(self.times(0, 1), [100.0, 100.0], [50.0, 50.0],
                                ev_global=[9000.0, float("nan")])
        assert weather.times.dtype == np.dtype("datetime64[us]")
        assert weather.ev_global[0] == 9000.0 and np.isnan(weather.ev_global[1])
        assert np.isnan(weather.ev_diffuse).all()

    def test_infinite_illuminance_raises(self):
        with pytest.raises(DataError, match="^ev_diffuse inf is not a finite number$"):
            WeatherSeries(self.times(0), [100.0], [50.0], [1.0], [float("inf")])

    def test_columns_of_unequal_length_raise(self):
        with pytest.raises(DataError, match="equal length"):
            WeatherSeries(self.times(0, 1), [100.0], [50.0, 50.0])


HIGH_SUN = SolarState.from_angles(60.0, 0.0)
NIGHT_SUN = SolarState.from_angles(-10.0, 0.0)
EFF = EfficacyModel()


class TestReconstruct:
    def test_zero_inputs(self):
        out = reconstruct_illuminance(HIGH_SUN, 0.0, 0.0, EFF)
        assert (out.e_global, out.e_diffuse, out.e_direct) == (0.0, 0.0, 0.0)

    def test_constant_efficacies(self):
        out = reconstruct_illuminance(HIGH_SUN, 500.0, 100.0, EFF)
        assert out.e_diffuse == pytest.approx(12000.0)
        assert out.e_direct == pytest.approx(37200.0)
        assert out.e_global == pytest.approx(49200.0)

    def test_passthrough_overcast(self):
        out = reconstruct_illuminance(HIGH_SUN, 200.0, 200.0, EfficacyModel(mode="passthrough"),
                                      10000.0, 10000.0)
        assert out.e_direct == 0.0
        assert out.e_global == pytest.approx(10000.0)

    def test_passthrough_without_measurements_falls_back(self):
        out = reconstruct_illuminance(HIGH_SUN, 500.0, 100.0, EfficacyModel(mode="passthrough"))
        assert out.e_global == pytest.approx(49200.0)

    def test_night_zero(self):
        out = reconstruct_illuminance(NIGHT_SUN, 500.0, 100.0, EFF)
        assert out.e_global == 0.0

    def test_clamp_small_diffuse_excess(self):
        out = reconstruct_illuminance(HIGH_SUN, 100.0, 101.0, EFF)
        assert out.e_direct == 0.0
        assert out.e_diffuse == pytest.approx(12120.0)


class TestOutdoorIlluminance:
    @pytest.mark.parametrize("values,message", [
        ((100.0, 100.0, -0.5), "illuminances must be non-negative"),
        ((100.0, 60.0, 30.0), "global illuminance must equal diffuse \\+ direct"),
    ], ids=["negative", "unbalanced"])
    def test_checks_its_parts(self, values, message):
        with pytest.raises(DataError, match=f"^{message}$"):
            OutdoorIlluminance(*values)


class TestEfficacyModel:
    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            EfficacyModel(kd=30.0)

    @pytest.mark.parametrize("fields,message", [
        ({"kd": 30.0}, r"kd=30\.0 lm/W out of \[50, 200\]"),
        ({"kb": 250.0}, r"kb=250\.0 lm/W out of \[50, 200\]"),
        ({"mode": "perez"}, "unknown efficacy mode 'perez'"),
    ], ids=["kd", "kb", "mode"])
    def test_errors_name_the_efficacy(self, fields, message):
        with pytest.raises(ConfigError, match=f"^efficacy: {message}$"):
            EfficacyModel(**fields)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            EfficacyModel(mode="perez")


@settings(max_examples=80, deadline=None)
@given(
    st.floats(0.0, 1200.0),
    st.floats(0.0, 1.0),
    st.floats(1.0, 89.0),
)
def test_additivity_property(gh, frac, alt):
    out = reconstruct_illuminance(SolarState.from_angles(alt, 180.0), gh, gh * frac, EFF)
    assert out.e_global == out.e_diffuse + out.e_direct


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 1200.0), st.floats(0.0, 1.0), st.floats(-89.0, 0.0))
def test_night_monotonicity_property(gh, frac, alt):
    out = reconstruct_illuminance(SolarState.from_angles(alt, 0.0), gh, gh * frac, EFF)
    assert out.e_global == 0.0 and out.e_diffuse == 0.0 and out.e_direct == 0.0


@settings(max_examples=40, deadline=None)
@given(st.floats(10.0, 1200.0), st.floats(0.1, 0.9), st.floats(0.01, 5.0))
def test_continuity_in_irradiance(gh, frac, delta):
    """The conversion is linear, so small input changes bound output changes."""
    sun = SolarState.from_angles(45.0, 180.0)
    dh = gh * frac
    a = reconstruct_illuminance(sun, gh, dh, EFF)
    gh2 = min(gh + delta, 1500.0)
    b = reconstruct_illuminance(sun, gh2, dh, EFF)
    assert abs(b.e_global - a.e_global) <= 200.0 * (gh2 - gh) + 1e-9


# ---------------------------------------------------------------------------
# sun_up: the sign of the exact altitude, from a few exact altitudes and a
# bound on how fast the altitude moves.

MINUTE_US, DAY_US = 60_000_000, 86_400_000_000
FIRST_US, END_US = (int(np.datetime64(day, "us").astype(np.int64))
                    for day in ("1950-01-01", "2101-01-01"))
SITES = st.builds(GeoLocation,
                  latitude=st.one_of(st.sampled_from([-90.0, 90.0]), st.floats(-90.0, 90.0)),
                  longitude=st.floats(-180.0, 180.0), timezone=st.floats(-12.0, 14.0))


def as_stamps(us) -> np.ndarray:
    return np.asarray(us, dtype=np.int64).astype("datetime64[us]")


@st.composite
def ascending_stamps(draw):
    """Up to 3000 ascending stamps in 1950-2100, 1 or 60 minutes apart or
    by random gaps of up to 2 days, from any microsecond."""
    n = draw(st.integers(0, 3000))
    spacing = draw(st.sampled_from([MINUTE_US, 60 * MINUTE_US, None]))
    if spacing is None:
        gaps = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(1, 2 * DAY_US, n)
    else:
        gaps = np.full(n, spacing)
    offsets = np.cumsum(gaps) - gaps[:1].sum()
    span = int(offsets[-1]) if n else 0
    return as_stamps(draw(st.integers(FIRST_US, END_US - 1 - span)) + offsets)


@settings(max_examples=150, deadline=None)
@given(site=SITES, times=ascending_stamps())
def test_sun_up_is_the_sign_of_the_exact_altitude(site, times):
    assert_same_bits(sun_up(times, site), sun_altitudes(times, site)[0] > 0.0)


@pytest.mark.parametrize("stamps", [[], ["2009-06-21T12:00"], ["2009-12-21T00:00"],
                                    ["1950-01-01"], ["2100-12-31T23:59:59.999999"]])
@pytest.mark.parametrize("latitude", [-90.0, -21.34, 66.0, 90.0])
def test_sun_up_of_no_stamp_or_one(stamps, latitude):
    site = GeoLocation(latitude=latitude, longitude=55.48, timezone=4.0)
    times = np.array(stamps, dtype="datetime64[us]")
    assert_same_bits(sun_up(times, site), sun_altitudes(times, site)[0] > 0.0)


@settings(max_examples=40, deadline=None)
@given(site=SITES, day=st.integers(1, (END_US - FIRST_US) // DAY_US - 2))
def test_sun_up_splits_two_stamps_a_microsecond_apart_at_sunrise(site, day):
    """Two stamps 1 us apart, found by bisection, bracket a sunrise: alone,
    where both are anchors, and among minute stamps, where neither is."""
    minutes = FIRST_US + day * DAY_US + np.arange(-100, 1540) * MINUTE_US
    up = sun_altitudes(as_stamps(minutes), site)[0] > 0.0
    rises = np.flatnonzero(~up[99:-100] & up[100:-99]) + 99
    assume(len(rises))
    k = int(rises[0])
    lo, hi = int(minutes[k]), int(minutes[k + 1])
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if sun_altitudes(as_stamps([mid]), site)[0][0] > 0.0:
            hi = mid
        else:
            lo = mid
    pair = as_stamps([lo, hi])
    assert sun_up(pair, site).tolist() == [False, True]
    around = np.unique(np.concatenate((as_stamps(minutes[k - 99:k + 100]), pair)))
    # neither is an anchor: neither starts a bin of elapsed time, and neither is the last stamp
    bins = (around - around[0]).view(np.int64) // solar._ANCHOR_BIN
    at = np.searchsorted(around, pair)
    assert np.all(bins[at] == bins[at - 1]) and at[-1] < len(around) - 1
    assert_same_bits(sun_up(around, site), sun_altitudes(around, site)[0] > 0.0)


@st.composite
def skimming_lit_stamps(draw):
    """The stamps a run asks ``sun_up`` about where the sun skims the
    horizon: 1 to 6 consecutive days within 12 days of a solstice at a
    latitude of 60-66 degrees, every 1, 2, 7 or 60 minutes, keeping only
    the lit ones, those with the exact altitude above -2 to 0 degrees, as
    weather lights a dawn before the sun is up. Returns the site and the
    stamps."""
    site = GeoLocation(latitude=draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(60.0, 66.0)),
                       longitude=draw(st.floats(-180.0, 180.0)),
                       timezone=draw(st.integers(-12, 14)))
    solstice = np.datetime64(f"{draw(st.integers(1950, 2099))}-{draw(st.sampled_from(['06', '12']))}"
                             "-21", "us")
    first = solstice + np.timedelta64(draw(st.integers(-12, 12)), "D")
    step = draw(st.sampled_from([1, 2, 7, 60]))
    times = first + np.arange(0, draw(st.integers(1, 6)) * 1440, step) * np.timedelta64(1, "m")
    lit = sun_altitudes(times, site)[0] > -draw(st.floats(0.0, 2.0))
    return site, times[lit]


@settings(max_examples=60, deadline=None)
@given(case=skimming_lit_stamps())
def test_sun_up_of_lit_stamps_where_the_sun_skims_the_horizon(case):
    """With the nights removed, a block that spans a night runs from a
    day's last anchor to the next day's first stamp, hours later, and its
    stamps near sunset are bounded one by one; the answer is still the sign
    of the exact altitude."""
    site, times = case
    assert_same_bits(sun_up(times, site), sun_altitudes(times, site)[0] > 0.0)


@settings(max_examples=100, deadline=None)
@given(site=SITES, seed=st.integers(0, 2**32 - 1))
def test_the_altitude_moves_slower_than_the_rate_sun_up_assumes(site, seed):
    """Over stamp pairs up to 2 h apart the altitude moves at most
    0.2505 deg/min, the sun's largest speed on the sky, below the rate
    ``sun_up`` bounds it by."""
    assert solar._ALTITUDE_RATE * 60e6 >= 0.2505
    rng = np.random.default_rng(seed)
    t0 = rng.integers(FIRST_US, END_US - 120 * MINUTE_US, 500)
    dt = rng.integers(0, 120 * MINUTE_US, 500, endpoint=True)
    start, end = (sun_altitudes(as_stamps(t), site)[0] for t in (t0, t0 + dt))
    moved = np.abs(end - start)
    assert np.all(moved <= 0.2505 * dt / MINUTE_US + 1e-5)
