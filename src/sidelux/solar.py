"""Solar position and reconstruction of outdoor illuminance from
irradiance-only weather records.

The position algorithm follows the Astronomical Almanac's low-precision
form: the sun's mean longitude and anomaly give the ecliptic longitude,
from which declination and the equation of time follow; the hour angle then
comes from true solar time. Accuracy is a few hundredths of a degree over
1950-2100. Azimuth is measured clockwise from North, altitude above the
horizon. Local axes everywhere are x=East, y=North, z=up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .errors import DataError

DH_GH_TOL = 0.02  # tolerated diffuse excess over global before data is rejected
LOCAL_TIME = "timestamps are local civil time; the building's tz gives their UTC offset"


@dataclass(frozen=True)
class GeoLocation:
    """Site coordinates; longitude positive east, timezone in hours from UTC."""

    latitude: float
    longitude: float
    timezone: float
    albedo: float = 0.2

    def __post_init__(self):
        if not -90.0 <= self.latitude <= 90.0:
            raise ValueError(f"latitude {self.latitude} out of [-90, 90]")
        if not -180.0 <= self.longitude <= 180.0:
            raise ValueError(f"longitude {self.longitude} out of [-180, 180]")
        if not 0.0 <= self.albedo <= 1.0:
            raise ValueError(f"albedo {self.albedo} out of [0, 1]")


def _sun_direction(altitude: float, azimuth: float) -> tuple[float, float, float]:
    """Unit vector pointing from the sun toward the ground."""
    h = math.radians(altitude)
    a = math.radians(azimuth)
    ch = math.cos(h)
    return (-math.sin(a) * ch, -math.cos(a) * ch, -math.sin(h))


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
        dx, dy, dz = _sun_direction(self.altitude, self.azimuth)
        d = self.direction
        if max(abs(d[0] - dx), abs(d[1] - dy), abs(d[2] - dz)) > 1e-9:
            raise ValueError("direction vector inconsistent with altitude/azimuth")

    @classmethod
    def from_angles(cls, altitude: float, azimuth: float) -> "SolarState":
        azimuth = azimuth % 360.0
        return cls(altitude, azimuth, np.array(_sun_direction(altitude, azimuth)))


_J2000 = np.datetime64("2000-01-01T12:00:00", "us")
_US_PER_HOUR = 3_600_000_000


def sun_positions(times: np.ndarray, loc: GeoLocation) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sun altitude, azimuth (degrees) and unit direction from the sun toward
    the ground, shape (n, 3), for an array of local civil timestamps.

    Standard geometry: declination and the equation of time from the sun's
    low-precision mean elements, hour angle from true solar time.
    """
    t = np.asarray(times, dtype="datetime64[us]")
    years = t.astype("datetime64[Y]").astype(np.int64) + 1970
    bad = (years < 1950) | (years > 2100)
    if bad.any():
        year = int(years[np.argmax(bad)])
        raise ValueError(f"timestamp year {year} outside supported range 1950-2100")
    days = (t - _J2000).astype(np.int64) / 1e6 / 86400.0 - loc.timezone / 24.0
    mean_long = np.radians((280.460 + 0.9856474 * days) % 360.0)
    mean_anom = np.radians((357.528 + 0.9856003 * days) % 360.0)
    ecl_long = mean_long + np.radians(
        1.915 * np.sin(mean_anom) + 0.020 * np.sin(2.0 * mean_anom)
    )
    obliq = np.radians(23.439 - 0.0000004 * days)
    decl = np.arcsin(np.sin(obliq) * np.sin(ecl_long))
    ra = np.arctan2(np.cos(obliq) * np.sin(ecl_long), np.cos(ecl_long))
    # equation of time in minutes: mean longitude minus right ascension
    eqtime = 4.0 * np.degrees((mean_long - ra + math.pi) % (2.0 * math.pi) - math.pi)
    us = (t - t.astype("datetime64[D]")).astype(np.int64)
    hours = (us // _US_PER_HOUR + (us // 60_000_000 % 60) / 60.0
             + (us // 1_000_000 % 60) / 3600.0 + (us % 1_000_000) / 3.6e9)
    tst = hours * 60.0 + eqtime + 4.0 * loc.longitude - 60.0 * loc.timezone
    ha = np.radians(tst / 4.0 - 180.0)
    phi = math.radians(loc.latitude)
    sin_alt = math.sin(phi) * np.sin(decl) + math.cos(phi) * np.cos(decl) * np.cos(ha)
    altitude = np.degrees(np.arcsin(np.clip(sin_alt, -1.0, 1.0)))
    azimuth = (
        np.degrees(
            np.arctan2(
                np.sin(ha) * np.cos(decl),
                np.cos(ha) * np.cos(decl) * math.sin(phi) - np.sin(decl) * math.cos(phi),
            )
        )
        + 180.0
    ) % 360.0
    h = np.radians(altitude)
    a = np.radians(azimuth)
    ch = np.cos(h)
    direction = np.column_stack((-np.sin(a) * ch, -np.cos(a) * ch, -np.sin(h)))
    return altitude, azimuth, direction


def sun_position(when: datetime, loc: GeoLocation) -> SolarState:
    """Sun altitude/azimuth for one local civil timestamp (see
    :func:`sun_positions`)."""
    altitude, azimuth, direction = sun_positions(np.array([when], dtype="datetime64[us]"), loc)
    return SolarState(float(altitude[0]), float(azimuth[0]), direction[0])


@dataclass(frozen=True, slots=True)
class WeatherRecord:
    """One weather sample: local civil timestamp, global and diffuse
    horizontal irradiance in W/m^2, optional measured horizontal
    illuminances in lux."""

    timestamp: datetime
    gh: float
    dh: float
    ev_global: float | None = None
    ev_diffuse: float | None = None

    def __post_init__(self):
        for name, v in (("global irradiance", self.gh), ("diffuse irradiance", self.dh),
                        ("ev_global", self.ev_global), ("ev_diffuse", self.ev_diffuse)):
            if v is not None and not math.isfinite(v):
                raise DataError(f"{name} {v} is not a finite number")
        if not 0.0 <= self.gh <= 1500.0:
            raise DataError(f"global irradiance {self.gh} W/m^2 out of [0, 1500]")
        if self.dh < 0.0:
            raise DataError(f"diffuse irradiance {self.dh} W/m^2 negative")
        if self.dh > self.gh * (1.0 + DH_GH_TOL) + 1e-9:
            raise DataError(
                f"diffuse irradiance {self.dh} exceeds global {self.gh} by more than "
                f"{DH_GH_TOL:.0%}"
            )
        for name, v in (("ev_global", self.ev_global), ("ev_diffuse", self.ev_diffuse)):
            if v is not None and v < 0.0:
                raise DataError(f"{name} {v} lux negative")


@dataclass(frozen=True)
class EfficacyModel:
    """How outdoor illuminance is obtained from a weather record.

    ``constant`` converts irradiance with fixed luminous efficacies
    (kd for the diffuse part, kb for the beam part, lm/W); ``passthrough``
    prefers measured illuminance fields when a record carries them and
    falls back to the constant conversion otherwise.
    """

    mode: str = "constant"
    kd: float = 120.0
    kb: float = 93.0

    def __post_init__(self):
        if self.mode not in ("constant", "passthrough"):
            raise ValueError(f"unknown efficacy mode {self.mode!r}")
        if self.mode == "constant":
            for name, v in (("kd", self.kd), ("kb", self.kb)):
                if not 50.0 <= v <= 200.0:
                    raise ValueError(f"efficacy {name}={v} lm/W out of [50, 200]")


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

    @classmethod
    def from_components(cls, diffuse: float, direct: float) -> "OutdoorIlluminance":
        return cls(diffuse + direct, diffuse, direct)

    def scaled(self, factor: float) -> "OutdoorIlluminance":
        return OutdoorIlluminance.from_components(self.e_diffuse * factor, self.e_direct * factor)


def outdoor_illuminance(altitude: np.ndarray, gh: np.ndarray, dh: np.ndarray,
                        eff: EfficacyModel, measured: np.ndarray | None = None,
                        ev_global: np.ndarray | None = None,
                        ev_diffuse: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Outdoor diffuse and direct horizontal illuminance (lux) per step.

    Below the horizon everything is zero. In passthrough mode the measured
    illuminances are used where ``measured`` is set; everywhere else the
    beam horizontal irradiance max(0, Gh - Dh) and the diffuse irradiance
    are converted with the configured efficacies.
    """
    up = altitude > 0.0
    diffuse = np.where(up, eff.kd * dh, 0.0)
    # fmax, not maximum: a NaN difference gives no direct part
    direct = np.where(up, eff.kb * np.fmax(0.0, gh - dh), 0.0)
    if eff.mode == "passthrough" and measured is not None:
        use = up & measured
        diffuse = np.where(use, ev_diffuse, diffuse)
        direct = np.where(use, np.fmax(0.0, ev_global - ev_diffuse), direct)
    return diffuse, direct


def reconstruct_illuminance(
    rec: WeatherRecord, sun: SolarState, eff: EfficacyModel
) -> OutdoorIlluminance:
    """Outdoor illuminance for one record (see :func:`outdoor_illuminance`)."""
    measured = rec.ev_global is not None and rec.ev_diffuse is not None
    diffuse, direct = outdoor_illuminance(
        np.array([sun.altitude]), np.array([rec.gh]), np.array([rec.dh]), eff,
        np.array([measured]),
        np.array([rec.ev_global if measured else 0.0]),
        np.array([rec.ev_diffuse if measured else 0.0]),
    )
    return OutdoorIlluminance.from_components(float(diffuse[0]), float(direct[0]))
