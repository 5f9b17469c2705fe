"""Solar position, the weather series, and reconstruction of outdoor
illuminance from irradiance-only weather.

The position algorithm follows the Astronomical Almanac's low-precision
form: the sun's mean longitude and anomaly give the ecliptic longitude,
from which declination and the equation of time follow; the hour angle then
comes from true solar time. Accuracy is a few hundredths of a degree over
1950-2100. Azimuth is measured clockwise from North, altitude above the
horizon. Local axes everywhere are x=East, y=North, z=up.

Two rules decide what is worked out at a step. :func:`sun_up` tells only
whether the sun is up, from few exact altitudes (:func:`sun_altitudes`);
:func:`sun_positions` gives the altitude, azimuth and direction of the
stamps it is given and checks their years (:func:`check_years`). The
outdoor conversion (:func:`outdoor_illuminance`) reads no sun. Which
steps ask :func:`sun_up` and which get a position is ``Simulator.run``'s
to decide; its docstring states the rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .errors import ConfigError, DataError, ParseError

DH_GH_TOL = 0.02  # tolerated diffuse excess over global before data is rejected
LOCAL_TIME = "timestamps are local civil time; the building's tz gives their UTC offset"


@dataclass(frozen=True)
class GeoLocation:
    """Site coordinates; longitude positive east, timezone in hours from UTC.
    An error starts with the building-file path ``location: ``."""

    latitude: float
    longitude: float
    timezone: float
    albedo: float = 0.2

    def __post_init__(self):
        if not -90.0 <= self.latitude <= 90.0:
            raise ConfigError(f"location: latitude {self.latitude} out of [-90, 90]")
        if not -180.0 <= self.longitude <= 180.0:
            raise ConfigError(f"location: longitude {self.longitude} out of [-180, 180]")
        if not -12.0 <= self.timezone <= 14.0:
            raise ConfigError(f"location: timezone {self.timezone} out of [-12, 14]")
        if not 0.0 <= self.albedo <= 1.0:
            raise ConfigError(f"location: albedo {self.albedo} out of [0, 1]")


def _sun_direction(altitude, azimuth) -> np.ndarray:
    """Unit vectors pointing from the sun toward the ground, shape (..., 3),
    for altitudes and azimuths in degrees (scalars or arrays)."""
    h = np.radians(altitude)
    a = np.radians(azimuth)
    ch = np.cos(h)
    return np.stack((-np.sin(a) * ch, -np.cos(a) * ch, -np.sin(h)), axis=-1)


@dataclass(frozen=True, eq=False, slots=True)
class SolarState:
    """Sun altitude/azimuth in degrees plus the matching unit direction
    (from the sun toward the ground)."""

    altitude: float
    azimuth: float
    direction: np.ndarray

    def __post_init__(self):
        if not -90.0 <= self.altitude <= 90.0:
            raise ValueError(f"altitude {self.altitude} out of [-90, 90]")
        if not 0.0 <= self.azimuth < 360.0:
            raise ValueError(f"azimuth {self.azimuth} out of [0, 360)")
        if not np.abs(self.direction - _sun_direction(self.altitude, self.azimuth)).max() <= 1e-9:
            raise ValueError("direction vector inconsistent with altitude/azimuth")

    @classmethod
    def from_angles(cls, altitude: float, azimuth: float) -> "SolarState":
        azimuth = azimuth % 360.0
        return cls(altitude, azimuth, _sun_direction(altitude, azimuth))


_J2000 = np.datetime64("2000-01-01T12:00:00", "us")
# the supported stamps: from 1950-01-01 up to, not including, 2101-01-01
_FIRST, _END = np.datetime64("1950-01-01", "us"), np.datetime64("2101-01-01", "us")
_US_PER_DAY = 86_400_000_000


def check_years(t: np.ndarray) -> None:
    """Raise for the first of the stamps ``t`` outside 1950-2100, naming its year."""
    bad = ~((t >= _FIRST) & (t < _END))  # NaT compares false, so it is bad too
    if bad.any():
        year = int(t[np.argmax(bad)].astype("datetime64[Y]").astype(np.int64)) + 1970
        raise ValueError(f"timestamp year {year} outside supported range 1950-2100")


def sun_altitudes(times: np.ndarray, loc: GeoLocation) -> tuple[np.ndarray, np.ndarray]:
    """Sun altitude (degrees) for an array of local civil timestamps, and the
    hour-angle and declination terms, shape (4, n), from which
    :func:`sun_positions` finds the azimuth.

    Standard geometry: declination and the equation of time from the sun's
    low-precision mean elements, hour angle from true solar time. The
    stamps' years are the caller's to check.
    """
    t = np.asarray(times, dtype="datetime64[us]")
    days = (t - _J2000).astype(np.int64) / 1e6 / 86400.0 - loc.timezone / 24.0
    mean_long = np.radians((280.460 + 0.9856474 * days) % 360.0)
    mean_anom = np.radians((357.528 + 0.9856003 * days) % 360.0)
    ecl_long = mean_long + np.radians(
        1.915 * np.sin(mean_anom) + 0.020 * np.sin(2.0 * mean_anom)
    )
    obliq = np.radians(23.439 - 0.0000004 * days)
    sin_ecl = np.sin(ecl_long)
    decl = np.arcsin(np.sin(obliq) * sin_ecl)
    ra = np.arctan2(np.cos(obliq) * sin_ecl, np.cos(ecl_long))
    # equation of time in minutes: mean longitude minus right ascension
    eqtime = 4.0 * np.degrees((mean_long - ra + math.pi) % (2.0 * math.pi) - math.pi)
    # time of day, floored, so also before 1970: hours, minutes, seconds, microseconds
    seconds, us = np.divmod(t.view(np.int64) % _US_PER_DAY, 1_000_000)
    minutes, seconds = np.divmod(seconds, 60)
    hours, minutes = np.divmod(minutes, 60)
    hours = hours + minutes / 60.0 + seconds / 3600.0 + us / 3.6e9
    tst = hours * 60.0 + eqtime + 4.0 * loc.longitude - 60.0 * loc.timezone
    terms = np.empty((4, len(t)))
    ha, cos_ha, sin_decl, cos_decl = terms
    np.radians(tst / 4.0 - 180.0, out=ha)
    np.cos(ha, out=cos_ha)
    np.sin(decl, out=sin_decl)
    np.cos(decl, out=cos_decl)
    phi = math.radians(loc.latitude)
    sin_alt = math.sin(phi) * sin_decl + math.cos(phi) * cos_decl * cos_ha
    return np.degrees(np.arcsin(np.clip(sin_alt, -1.0, 1.0))), terms


# The altitude changes by at most the sun's speed on the sky: the hour angle
# turns 0.25 deg/min times (1 + the equation of time's drift, under 0.0004)
# and the declination drifts under 0.0003 deg/min, so under 0.2505 deg/min
_ALTITUDE_RATE = 0.26 / 60e6     # degrees per microsecond, above that
_ANCHOR_BIN = 32 * 60_000_000    # microseconds of elapsed time per anchor of sun_up
_HORIZON_MARGIN = 1e-3           # degrees: a bound nearer the horizon decides nothing,
                                 # which leaves room for rounding


def sun_up(times: np.ndarray, loc: GeoLocation) -> np.ndarray:
    """Whether the sun is above the horizon at each of the ascending stamps
    ``times``: ``sun_altitudes(times, loc)[0] > 0.0``, element by element.

    The anchors are the first stamp of each ``_ANCHOR_BIN`` of elapsed time
    from the first stamp, and the last stamp; each gets its exact altitude,
    whose sign is its answer, so stamps ``_ANCHOR_BIN`` or more apart are
    all anchors. Between two anchors the altitude may leave each by
    ``_ALTITUDE_RATE``, so the mean of the two anchors' one-sided bounds
    bounds every stamp of the block between them: a block whose bound
    clears the horizon by ``_HORIZON_MARGIN`` is wholly up or wholly down.
    In the other blocks each stamp is bounded from its own two anchors, and
    only the stamps that bound leaves within ``_HORIZON_MARGIN`` of the
    horizon get their exact altitude. The stamps' years are the caller's
    to check.
    """
    t = np.asarray(times, dtype="datetime64[us]")
    n = len(t)
    if n == 0:
        return np.zeros(0, dtype=bool)
    us = t.view(np.int64)
    bins = (us - us[0]) // _ANCHOR_BIN
    first = np.ones(n, dtype=bool)  # the first stamp of each bin, and the last stamp
    first[1:] = bins[1:] != bins[:-1]
    first[-1] = True
    anchors = np.flatnonzero(first)
    counts = np.diff(anchors, append=n)  # the stamps from each anchor up to the next; 1 for the last
    altitude = sun_altitudes(t[anchors], loc)[0]
    # per block between two anchors: their mean altitude, and how far a stamp's may be from it
    mean = 0.5 * (altitude[:-1] + altitude[1:])
    reach = 0.5 * _ALTITUDE_RATE * (us[anchors[1:]] - us[anchors[:-1]])
    up = np.repeat(np.append(mean - reach > _HORIZON_MARGIN, False), counts)
    up[anchors] = altitude > 0.0
    near_horizon = np.append(np.abs(mean) <= reach + _HORIZON_MARGIN, False)
    if near_horizon.any():
        inside = np.repeat(near_horizon, counts)
        inside[anchors] = False
        stamps = np.flatnonzero(inside)
        left = np.searchsorted(anchors, stamps) - 1
        # per anchor on either side of a stamp: its altitude and how far the stamp's may be from it
        near = [(altitude[k], _ALTITUDE_RATE * np.abs(us[stamps] - us[anchors[k]]))
                for k in (left, left + 1)]
        up[stamps] = np.maximum(*(a - r for a, r in near)) > _HORIZON_MARGIN
        unsure = stamps[~up[stamps] & (np.minimum(*(a + r for a, r in near)) >= -_HORIZON_MARGIN)]
        if len(unsure):  # a pass over no stamp still costs about 50 us
            up[unsure] = sun_altitudes(t[unsure], loc)[0] > 0.0
    return up


def sun_positions(times: np.ndarray, loc: GeoLocation) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sun altitude, azimuth (degrees) and unit direction from the sun toward
    the ground, shape (n, 3), for an array of local civil timestamps, all
    in 1950-2100: the azimuth from the hour-angle and declination terms of
    :func:`sun_altitudes`. Each stamp's bits are its own, whatever other
    stamps come with it."""
    times = np.asarray(times, dtype="datetime64[us]")
    check_years(times)
    altitude, (ha, cos_ha, sin_decl, cos_decl) = sun_altitudes(times, loc)
    phi = math.radians(loc.latitude)
    azimuth = (
        np.degrees(np.arctan2(np.sin(ha) * cos_decl,
                              cos_ha * cos_decl * math.sin(phi) - sin_decl * math.cos(phi)))
        + 180.0
    ) % 360.0
    return altitude, azimuth, _sun_direction(altitude, azimuth)


def sun_position(when: datetime, loc: GeoLocation) -> SolarState:
    """Sun altitude/azimuth for one local civil timestamp (see
    :func:`sun_positions`)."""
    altitude, azimuth, direction = sun_positions(np.array([when], dtype="datetime64[us]"), loc)
    return SolarState(float(altitude[0]), float(azimuth[0]), direction[0])


def local_time(when: datetime) -> datetime:
    """``when`` itself; anything but a ``datetime``, and an offset-aware
    one, is an error."""
    if not isinstance(when, datetime):
        raise DataError(f"timestamp {when!r} is not a datetime")
    if when.tzinfo is not None:
        raise DataError(f"timestamp {when.isoformat()} has a UTC offset; {LOCAL_TIME}")
    return when


def check_samples(t: np.ndarray, rules, lines, **columns: np.ndarray) -> None:
    """Raise for the first sample of a series with stamps ``t`` that breaks
    a rule, at its first broken rule: a stamp that repeats its predecessor,
    one that goes back from it (both ParseErrors, as in the files they come
    from), then each of ``rules``, rows of (mask over the samples, error
    type, message). A message names the stamp as ``{t}`` and a sample's
    value of each of ``columns`` by its keyword; the error carries the
    sample's source line when ``lines`` (None or one per sample) gives one."""
    same, back = np.zeros((2, len(t)), dtype=bool)
    same[1:], back[1:] = t[1:] == t[:-1], t[1:] < t[:-1]
    rules = ((same, ParseError, "duplicate timestamp {t}"),
             (back, ParseError, "timestamps not ascending at {t}"), *rules)
    hits = [(int(np.argmax(bad)), k) for k, (bad, _, _) in enumerate(rules) if bad.any()]
    if hits:
        row, k = min(hits)
        _, error, message = rules[k]
        raise error(message.format(t=t[row].astype(datetime).isoformat(),
                                   **{name: float(c[row]) for name, c in columns.items()}),
                    line=None if lines is None else int(lines[row]))


class WeatherSeries:
    """Weather samples as columns: strictly ascending local civil timestamps
    (``datetime64[us]``), global and diffuse horizontal irradiance (W/m^2),
    and measured global and diffuse horizontal illuminance (lux), NaN where
    not measured. Validated once, as a whole, by :func:`check_samples`:
    the error names the first sample that breaks a rule, then its first
    broken rule, and its source line when ``lines`` gives one per sample.
    """

    def __init__(self, times, gh, dh, ev_global=None, ev_diffuse=None, lines=None):
        times = np.asarray(times)
        for when in times.flat if times.dtype == object else ():
            local_time(when)
        self.times = t = times.astype("datetime64[us]")
        self.gh, self.dh, self.ev_global, self.ev_diffuse = gh, dh, evg, evd = [
            np.full(len(t), np.nan) if c is None else np.asarray(c, dtype=float)
            for c in (gh, dh, ev_global, ev_diffuse)]
        if any(c.shape != (len(t),) for c in (t, gh, dh, evg, evd)):
            raise DataError("weather columns must be one-dimensional and of equal length")
        check_samples(t, (
            (~np.isfinite(gh), DataError, "global irradiance {gh} is not a finite number"),
            (~np.isfinite(dh), DataError, "diffuse irradiance {dh} is not a finite number"),
            (np.isinf(evg), DataError, "ev_global {evg} is not a finite number"),
            (np.isinf(evd), DataError, "ev_diffuse {evd} is not a finite number"),
            ((gh < 0.0) | (gh > 1500.0), DataError,
             "global irradiance {gh} W/m^2 out of [0, 1500]"),
            (dh < 0.0, DataError, "diffuse irradiance {dh} W/m^2 negative"),
            (dh > gh * (1.0 + DH_GH_TOL) + 1e-9, DataError,
             f"diffuse irradiance {{dh}} exceeds global {{gh}} by more than {DH_GH_TOL:.0%}"),
            (evg < 0.0, DataError, "ev_global {evg} lux negative"),
            (evd < 0.0, DataError, "ev_diffuse {evd} lux negative"),
        ), lines, gh=gh, dh=dh, evg=evg, evd=evd)

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class EfficacyModel:
    """How outdoor illuminance is obtained from a weather sample.

    ``constant`` converts irradiance with fixed luminous efficacies
    (kd for the diffuse part, kb for the beam part, lm/W); ``passthrough``
    prefers measured illuminances where a sample carries them and
    falls back to the constant conversion otherwise, so both modes need
    kd and kb in [50, 200]. An error starts with the building-file path
    ``efficacy: ``.
    """

    mode: str = "constant"
    kd: float = 120.0
    kb: float = 93.0

    def __post_init__(self):
        if self.mode not in ("constant", "passthrough"):
            raise ConfigError(f"efficacy: unknown efficacy mode {self.mode!r}")
        for name, v in (("kd", self.kd), ("kb", self.kb)):
            if not 50.0 <= v <= 200.0:
                raise ConfigError(f"efficacy: {name}={v} lm/W out of [50, 200]")


@dataclass(frozen=True, slots=True)
class OutdoorIlluminance:
    """Horizontal outdoor illuminances in lux: global, diffuse and the
    direct (sun) part, with global = diffuse + direct by construction."""

    e_global: float
    e_diffuse: float
    e_direct: float

    def __post_init__(self):
        if min(self.e_global, self.e_diffuse, self.e_direct) < 0.0:
            raise DataError("illuminances must be non-negative")
        if abs(self.e_global - (self.e_diffuse + self.e_direct)) > 1e-6 * max(1.0, self.e_global):
            raise DataError("global illuminance must equal diffuse + direct")


def outdoor_illuminance(gh: np.ndarray, dh: np.ndarray, eff: EfficacyModel, ev_global: np.ndarray,
                        ev_diffuse: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Outdoor diffuse and direct horizontal illuminance (lux) per step, as
    if the sun were up; the steps with the sun down are the caller's to zero.

    In passthrough mode the measured illuminances are used where both are
    measured (not NaN); everywhere else the beam horizontal irradiance
    max(0, Gh - Dh) and the diffuse irradiance are converted with the
    configured efficacies.
    """
    diffuse = eff.kd * dh
    # fmax, not maximum: a NaN difference gives no direct part
    direct = eff.kb * np.fmax(0.0, gh - dh)
    if eff.mode == "passthrough":
        use = ~np.isnan(ev_global) & ~np.isnan(ev_diffuse)
        diffuse = np.where(use, ev_diffuse, diffuse)
        direct = np.where(use, np.fmax(0.0, ev_global - ev_diffuse), direct)
    return diffuse, direct


def reconstruct_illuminance(sun: SolarState, gh: float, dh: float, eff: EfficacyModel,
                            ev_global: float | None = None,
                            ev_diffuse: float | None = None) -> OutdoorIlluminance:
    """Outdoor illuminance for one sample (see :func:`outdoor_illuminance`):
    zero with the sun at or below the horizon. A measured illuminance left
    out counts as not measured."""
    if sun.altitude <= 0.0:
        return OutdoorIlluminance(0.0, 0.0, 0.0)
    diffuse, direct = outdoor_illuminance(
        np.array([gh]), np.array([dh]), eff,
        np.array([ev_global], dtype=float), np.array([ev_diffuse], dtype=float),
    )
    diffuse, direct = float(diffuse[0]), float(direct[0])
    return OutdoorIlluminance(diffuse + direct, diffuse, direct)
