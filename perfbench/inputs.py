"""Seeded input files for the benchmark workloads.

The same seed gives byte-identical files: every random draw comes from one
``numpy.random.default_rng(seed)`` stream per file, in a fixed order, and
every number is written with a fixed format.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

import physics

SITE = {"lat": -21.34, "lon": 55.48, "tz": 4, "albedo": 0.7}
_SURFACES = [
    {"role": "floor", "reflectance": 0.2},
    {"role": "walls", "reflectance": 0.6},
    {"role": "ceiling", "reflectance": 0.6},
]
_GLAZING = {"tau_vitre": 0.9, "MF": 0.9, "FR": 0.8, "MG": 0.8, "FC": 1.0}

# The reference test cell of the paper: 3.9 x 3.5 m, one 1 m^2 north window
# (1365 points at 0.1 m).
TEST_CELL = {
    "location": SITE,
    "room": {
        "floor_vertices": [[0, 0, 0], [3.9, 0, 0], [3.9, 3.5, 0], [0, 3.5, 0]],
        "height": 2.8,
        "surfaces": _SURFACES,
        "apertures": [dict(_GLAZING, vertices=[[1.45, 3.5, 1.0], [2.45, 3.5, 1.0],
                                               [2.45, 3.5, 2.0], [1.45, 3.5, 2.0]])],
    },
    "obstructions": [],
    "workplane": {"cell": 0.1, "height": 0.01},
    "efficacy": {"mode": "constant", "Kd": 120, "Kb": 93},
    "patch_scope": "patch",
}
TEST_CELL_PROBES = [(1.95, 3.27), (1.95, 2.77), (1.95, 2.27), (1.95, 1.77), (1.95, 1.27)]
# Austral winter: the sun faces the north window all day.
TEST_CELL_INSTANTS = ["2009-07-01T09:00", "2009-07-01T12:00", "2009-07-01T15:30"]

# An L-shaped room (27 m^2, 2700 points at 0.1 m) with a north and an east
# window and an obstruction in front of each. The re-entrant walls hide part
# of the floor from each window, and the obstructions shade the beam.
L_ROOM = {
    "location": SITE,
    "room": {
        "floor_vertices": [[0, 0, 0], [6, 0, 0], [6, 3, 0], [3, 3, 0], [3, 6, 0], [0, 6, 0]],
        "height": 2.8,
        "surfaces": _SURFACES,
        "apertures": [
            dict(_GLAZING, vertices=[[2.2, 6, 0.9], [0.8, 6, 0.9], [0.8, 6, 2.1], [2.2, 6, 2.1]]),
            dict(_GLAZING, vertices=[[6, 0.8, 0.9], [6, 2.2, 0.9], [6, 2.2, 2.1], [6, 0.8, 2.1]]),
        ],
    },
    "obstructions": [
        {"vertices": [[8.5, -1, 0], [8.5, 4, 0], [8.5, 4, 4.5], [8.5, -1, 4.5]],
         "luminance_fraction": 0.2},
        {"vertices": [[-1, 9.5, 0], [4, 9.5, 0], [4, 9.5, 5], [-1, 9.5, 5]],
         "luminance_fraction": 0.2},
    ],
    "workplane": {"cell": 0.1, "height": 0.01},
    "efficacy": {"mode": "constant", "Kd": 120, "Kb": 93},
    "patch_scope": "patch",
}
# Cell centres that see each window, and each obstruction through it, fully or
# not at all, so the ray-cast reference has no visibility edge to resolve;
# (5.45, 1.45) and (2.85, 5.85) are hidden from one window by the re-entrant
# walls.
L_ROOM_PROBES = [(1.45, 5.45), (1.45, 1.45), (5.45, 1.45), (5.45, 0.45), (0.45, 0.45),
                 (2.85, 5.85)]
# The obstructions shade the beam at 09:00 and 11:00, a re-entrant wall at 16:00.
L_ROOM_INSTANTS = ["2009-07-01T09:00", "2009-07-01T11:00", "2009-07-01T16:00"]

BUILDINGS = {"test_cell": TEST_CELL, "l_room": L_ROOM}


def minute_range(start: str, days: int) -> np.ndarray:
    t0 = np.datetime64(start, "m").astype(np.int64)
    return np.arange(t0, t0 + days * 1440, dtype=np.int64)


def iso_minutes(minutes: np.ndarray) -> np.ndarray:
    """ISO-8601 local timestamps with seconds, as Python's isoformat writes them."""
    return np.datetime_as_string(minutes.astype("datetime64[m]").astype("datetime64[s]"))


def sun_altitude(minutes: np.ndarray) -> np.ndarray:
    return physics.sun_angles(minutes, SITE["lat"], SITE["lon"], SITE["tz"])[0]


# Cloudy spells: one of fixed length in each fixed daytime slot, so every seed
# has the same number of overcast minutes and does the same patch work.
SPELL_MINUTES = 30
SPELL_SLOTS = ((7 * 60, 10 * 60), (10 * 60, 13 * 60), (13 * 60, 16 * 60))


def clear_weather(seed: int, start: str, days: int, keep_clear=()) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clear minute weather with three cloudy spells a day in which the sky
    is fully diffuse (Dh = Gh). No spell comes within five minutes of a
    ``keep_clear`` instant."""
    rng = np.random.default_rng(seed)
    minutes = minute_range(start, days)
    sin_h = np.clip(np.sin(np.radians(sun_altitude(minutes))), 0.0, 1.0)
    gh = 1050.0 * sin_h**1.15 * np.clip(1.0 + 0.02 * rng.standard_normal(len(minutes)), 0.9, 1.1)
    dh = gh * (0.12 + 0.10 * (1.0 - sin_h))
    guard = physics.to_minutes(list(keep_clear)) - minutes[0]
    cloudy = np.zeros(len(minutes), dtype=bool)
    for day in range(days):
        for lo, hi in SPELL_SLOTS:
            while True:
                begin = day * 1440 + int(rng.integers(lo, hi - SPELL_MINUTES))
                if not np.any((guard >= begin - 5) & (guard < begin + SPELL_MINUTES + 5)):
                    break
            cloudy[begin:begin + SPELL_MINUTES] = True
    gh = np.where(cloudy, gh * rng.uniform(0.2, 0.5, len(minutes)), gh)
    dh = np.where(cloudy, gh, dh)
    return minutes, np.round(gh, 2), np.round(dh, 2)


def overcast_weather(seed: int):
    """Thirteen weeks of minute weather under overcast skies (Dh = Gh)."""
    rng = np.random.default_rng(seed)
    days = 91
    minutes = minute_range("2009-01-01", days)
    sin_h = np.clip(np.sin(np.radians(sun_altitude(minutes))), 0.0, 1.0)
    daily = np.repeat(rng.uniform(0.5, 1.2, days), 1440)
    noise = np.clip(1.0 + 0.05 * rng.standard_normal(len(minutes)), 0.7, 1.3)
    gh = np.round(320.0 * sin_h * daily * noise, 2)
    return minutes, gh, gh.copy()


def write_weather(path: Path, minutes, gh, dh) -> None:
    ts = iso_minutes(minutes)
    g = np.char.mod("%.2f", gh)
    d = np.char.mod("%.2f", dh)
    rows = np.char.add(np.char.add(np.char.add(np.char.add(ts, ","), g), ","), d)
    path.write_text("timestamp,Gh_Wm2,Dh_Wm2\n" + "\n".join(rows.tolist()) + "\n", encoding="utf-8")


def validation_series(seed: int, year: int = 2009):
    """A reference illuminance series for a year of minutes and a simulated
    one that overestimates it by about 3 % with 10 % noise. Both are rounded
    to the millilux they are written with."""
    rng = np.random.default_rng(seed)
    days = 365 + (year % 4 == 0)
    minutes = minute_range(f"{year}-01-01T00:00", days)
    sin_h = np.clip(np.sin(np.radians(sun_altitude(minutes))), 0.0, 1.0)
    ref = 400.0 * sin_h * np.repeat(rng.uniform(0.4, 1.3, days), 1440)
    ref *= np.clip(1.0 + 0.05 * rng.standard_normal(len(minutes)), 0.5, 1.5)
    sim = ref * 1.03 * np.clip(1.0 + 0.10 * rng.standard_normal(len(minutes)), 0.2, 1.8)
    return minutes, np.round(ref, 3), np.round(sim, 3)


def write_series(path: Path, minutes, values) -> None:
    rows = np.char.add(np.char.add(iso_minutes(minutes), ","), np.char.mod("%.3f", values))
    path.write_text("timestamp,E_lux\n" + "\n".join(rows.tolist()) + "\n", encoding="utf-8")


def write_building(path: Path, name: str) -> None:
    path.write_text(json.dumps(BUILDINGS[name], indent=1) + "\n", encoding="utf-8")


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()
