"""File ingestion and result emission.

Formats:
  * weather CSV     - header ``timestamp,Gh_Wm2,Dh_Wm2[,Evg_lux,Evd_lux]``,
                      comma-delimited, UTF-8, LF; ISO-8601 local timestamps,
                      strictly ascending, no duplicates.
  * TMY2 subset     - the NREL fixed-width layout; only the header line and
                      the irradiance/illuminance fields are interpreted
                      (illuminance is stored in units of 100 lux, 9999 means
                      missing). All records are mapped onto the year of the
                      first record so the typical-year sequence stays
                      chronological.
  * building JSON   - see :func:`parse_building`.
  * results         - a summary CSV per run plus a plain-text matrix file
                      per requested field instant.

Every parser either consumes its file completely or raises an error that
carries the offending line number; nothing is silently skipped.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from .daylight import (
    Aperture,
    IlluminanceField,
    Obstruction,
    PeriodResult,
    Room,
    SurfaceOptics,
    PATCH_SCOPES,
)
from .errors import ConfigError, DataError, GeometryError, ParseError
from .geometry import GridMesh, Polygon3
from .solar import LOCAL_TIME, EfficacyModel, GeoLocation, WeatherSeries

WEATHER_COLUMNS = ("timestamp", "Gh_Wm2", "Dh_Wm2")
WEATHER_COLUMNS_ILLUM = WEATHER_COLUMNS + ("Evg_lux", "Evd_lux")

# 0-based column slices of the TMY2 fields we read
_T2_YEAR = slice(1, 3)
_T2_MONTH = slice(3, 5)
_T2_DAY = slice(5, 7)
_T2_HOUR = slice(7, 9)
_T2_GHI = slice(17, 21)
_T2_DHI = slice(29, 33)
_T2_GHILL = slice(35, 39)
_T2_DHILL = slice(47, 51)
_T2_MIN_LEN = 53
_T2_MISSING = 9999
_SUMMARY_ROWS_PER_WRITE = 4096
_EPOCH = datetime(1970, 1, 1)
_MICROSECOND = timedelta(microseconds=1)


def _micros(text: str, line: int) -> int:
    """Microseconds since 1970 of an ISO-8601 local timestamp."""
    try:
        ts = datetime.fromisoformat(text.strip())
    except ValueError:
        raise ParseError(f"bad timestamp {text!r}", line=line) from None
    if ts.tzinfo is not None:
        raise ParseError(f"timestamp {text.strip()!r} has a UTC offset; {LOCAL_TIME}", line=line)
    return (ts - _EPOCH) // _MICROSECOND


def _iso(times: np.ndarray) -> np.ndarray:
    """ISO-8601 text of ``datetime64[us]`` times, as ``datetime.isoformat``
    writes them when either all or none of them have a microsecond part."""
    whole_seconds = not (times.astype(np.int64) % 1_000_000).any()
    return np.datetime_as_string(times, unit="s" if whole_seconds else "us")


def parse_weather_csv(path) -> WeatherSeries:
    """Read a weather CSV into a series, preserving the stored values."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ParseError("empty weather file", line=1)
    header = tuple(c.strip() for c in lines[0].split(","))
    if header == WEATHER_COLUMNS:
        with_illum = False
    elif header == WEATHER_COLUMNS_ILLUM:
        with_illum = True
    else:
        raise ParseError(
            f"unexpected header {','.join(header)!r}; expected "
            f"{','.join(WEATHER_COLUMNS)} optionally followed by Evg_lux,Evd_lux",
            line=1,
        )
    n_cols = 5 if with_illum else 3
    # filled in place, so no per-row object outlives its line
    micros, source = np.empty((2, len(lines) - 1), dtype=np.int64)
    gh, dh, evg, evd = np.full((4, len(lines) - 1), np.nan)
    k = 0
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) != n_cols:
            raise ParseError(f"expected {n_cols} columns, got {len(parts)}", line=lineno)
        micros[k] = _micros(parts[0], lineno)
        try:
            gh[k], dh[k] = float(parts[1]), float(parts[2])
            if with_illum:
                evg[k], evd[k] = float(parts[3]), float(parts[4])
        except ValueError:
            raise ParseError(f"non-numeric value in {raw!r}", line=lineno) from None
        source[k] = lineno
        k += 1
    if with_illum:  # the file has no way to mark an illuminance as not measured
        unmeasured = np.isnan(evg[:k]) | np.isnan(evd[:k])
        if unmeasured.any():
            row = int(np.argmax(unmeasured))
            name = "ev_global" if np.isnan(evg[row]) else "ev_diffuse"
            raise DataError(f"{name} nan is not a finite number", line=int(source[row]))
    return WeatherSeries(micros[:k].view("datetime64[us]"), gh[:k], dh[:k], evg[:k], evd[:k],
                         lines=source[:k])


def write_weather_csv(weather: WeatherSeries, path) -> None:
    """Write a series in the weather CSV format (round-trips exactly)."""
    measured = ~np.isnan(np.stack((weather.ev_global, weather.ev_diffuse)))
    if measured.any() and not measured.all():
        raise DataError("cannot serialize records that mix present and missing illuminance")
    columns = [weather.gh, weather.dh]
    if measured.any():
        columns += [weather.ev_global, weather.ev_diffuse]
    values = np.column_stack(columns)
    lines = [",".join(WEATHER_COLUMNS_ILLUM if measured.any() else WEATHER_COLUMNS)]
    for ts, row in zip(_iso(weather.times).tolist(), values.tolist()):
        lines.append(",".join([ts, *map(repr, row)]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _t2_int(line: str, sl: slice, what: str, lineno: int) -> int:
    text = line[sl]
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"non-numeric {what} field {text!r}", line=lineno) from None


def parse_tmy2_subset(path) -> WeatherSeries:
    """Read the irradiance/illuminance subset of a TMY2 file."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ParseError("empty TMY2 file", line=1)
    if len(lines[0].split()) < 7:
        raise ParseError("TMY2 header line too short", line=1)
    micros, source = np.empty((2, len(lines) - 1), dtype=np.int64)
    values = np.empty((4, len(lines) - 1))
    nominal_year: int | None = None
    k = 0
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        if len(raw) < _T2_MIN_LEN:
            raise ParseError(
                f"record length {len(raw)} shorter than the {_T2_MIN_LEN} columns needed",
                line=lineno,
            )
        yy = _t2_int(raw, _T2_YEAR, "year", lineno)
        month = _t2_int(raw, _T2_MONTH, "month", lineno)
        day = _t2_int(raw, _T2_DAY, "day", lineno)
        hour = _t2_int(raw, _T2_HOUR, "hour", lineno)
        if nominal_year is None:
            nominal_year = 1900 + yy
        if not 1 <= hour <= 24:
            raise ParseError(f"hour {hour} out of 1..24", line=lineno)
        try:
            micros[k] = (datetime(nominal_year, month, day, hour - 1) - _EPOCH) // _MICROSECOND
        except ValueError as exc:
            raise ParseError(f"bad date: {exc}", line=lineno) from None
        ghi = _t2_int(raw, _T2_GHI, "global irradiance", lineno)
        dhi = _t2_int(raw, _T2_DHI, "diffuse irradiance", lineno)
        if ghi == _T2_MISSING or dhi == _T2_MISSING:
            raise DataError("missing irradiance in TMY2 record", line=lineno)
        gh_ill = _t2_int(raw, _T2_GHILL, "global illuminance", lineno)
        dh_ill = _t2_int(raw, _T2_DHILL, "diffuse illuminance", lineno)
        values[:, k] = [ghi, dhi] + [np.nan if v == _T2_MISSING else v * 100.0
                                     for v in (gh_ill, dh_ill)]
        source[k] = lineno
        k += 1
    return WeatherSeries(micros[:k].view("datetime64[us]"), *values[:, :k], lines=source[:k])


def parse_series_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a two-column ``timestamp,value`` CSV (any value column name)
    into ``datetime64[us]`` times and finite values."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ParseError("empty series file", line=1)
    header = [c.strip() for c in lines[0].split(",")]
    if len(header) != 2 or header[0] != "timestamp":
        raise ParseError("expected a two-column header starting with 'timestamp'", line=1)
    micros = np.empty(len(lines) - 1, dtype=np.int64)
    values = np.empty(len(lines) - 1)
    k = 0
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) != 2:
            raise ParseError(f"expected 2 columns, got {len(parts)}", line=lineno)
        micros[k] = _micros(parts[0], lineno)
        try:
            value = float(parts[1])
        except ValueError:
            raise ParseError(f"malformed row {raw!r}", line=lineno) from None
        if not math.isfinite(value):
            raise DataError(f"value {value} is not a finite number", line=lineno)
        values[k] = value
        k += 1
    return micros[:k].view("datetime64[us]"), values[:k]


@dataclass(eq=False)
class BuildingDescription:
    """Parsed building file: site, room and simulation settings."""

    location: GeoLocation
    room: Room
    workplane_cell: float
    workplane_height: float
    efficacy: EfficacyModel
    patch_scope: str


def _typed(node, kind: type, where: str):
    """``node`` when it is a JSON object (``kind`` dict) or list."""
    if not isinstance(node, kind):
        raise ConfigError(f"{where}: expected {'an object' if kind is dict else 'a list'}")
    return node


def _require(mapping: dict, key: str, where: str):
    if key not in _typed(mapping, dict, where):
        raise ConfigError(f"{where}.{key}: missing required field")
    return mapping[key]


def _number(mapping: dict, key: str, where: str, default: float | None = None) -> float:
    """``mapping[key]`` as a finite float; required when there is no default."""
    mapping = _typed(mapping, dict, where)
    raw = _require(mapping, key, where) if default is None else mapping.get(key, default)
    try:
        value = float(raw)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where}.{key}: {raw!r} is not a number") from None
    if not math.isfinite(value):
        raise ConfigError(f"{where}.{key}: {value} is not a finite number")
    return value


def _vertices(raw, where: str) -> Polygon3:
    if not isinstance(raw, list) or len(raw) < 3:
        raise ConfigError(f"{where}: need a list of at least 3 [x, y, z] vertices")
    for v in raw:
        if not isinstance(v, list) or len(v) != 3:
            raise ConfigError(f"{where}: each vertex must be [x, y, z]")
    coords = [[_number(dict(zip("xyz", v)), c, f"{where}[{i}]") for c in "xyz"]
              for i, v in enumerate(raw)]
    try:
        return Polygon3(coords)
    except GeometryError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def parse_building(path) -> BuildingDescription:
    """Read a building description JSON.

    Schema (keys and nesting):
      location{lat,lon,tz,albedo}
      room{floor_vertices, height, surfaces[{role,reflectance}],
           apertures[{vertices,tau_vitre,MF,FR,MG,FC}]}
      obstructions[{vertices,luminance_fraction}]      (optional)
      workplane{cell,height}
      efficacy{mode,Kd,Kb}                             (optional)
      patch_scope                                      (optional, patch|room)

    L-shaped floors are accepted and decomposed into convex parts.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", line=exc.lineno) from None

    loc_d = _require(data, "location", "building")
    loc = GeoLocation(*(_number(loc_d, key, "location") for key in ("lat", "lon", "tz", "albedo")))

    room_d = _require(data, "room", "building")
    floor = _vertices(_require(room_d, "floor_vertices", "room"), "room.floor_vertices")
    height = _number(room_d, "height", "room")

    refl = {}
    for i, s in enumerate(_typed(_require(room_d, "surfaces", "room"), list, "room.surfaces")):
        role = _require(s, "role", f"room.surfaces[{i}]")
        value = _number(s, "reflectance", f"room.surfaces[{i}]")
        if not 0.0 <= value <= 1.0:
            raise ConfigError(f"room.surfaces[{i}].reflectance: {value} out of [0, 1]")
        if role not in ("floor", "walls", "ceiling"):
            raise ConfigError(f"room.surfaces[{i}].role: unknown role {role!r}")
        refl[role] = value
    for role in ("floor", "walls", "ceiling"):
        if role not in refl:
            raise ConfigError(f"room.surfaces: missing reflectance for role {role!r}")
    optics = SurfaceOptics(floor=refl["floor"], walls=refl["walls"], ceiling=refl["ceiling"])

    apertures = []
    for i, a in enumerate(_typed(room_d.get("apertures", []), list, "room.apertures")):
        where = f"room.apertures[{i}]"
        poly = _vertices(_require(a, "vertices", where), f"{where}.vertices")
        factors = dict(
            tau=_number(a, "tau_vitre", where, 0.9),
            mf=_number(a, "MF", where, 1.0),
            fr=_number(a, "FR", where, 1.0),
            mg=_number(a, "MG", where, 1.0),
            fc=_number(a, "FC", where, 1.0),
        )
        try:
            apertures.append(Aperture(polygon=poly, **factors))
        except (ConfigError, GeometryError) as exc:
            raise type(exc)(f"{where}: {exc}") from None

    obstructions = []
    for i, o in enumerate(_typed(data.get("obstructions", []), list, "obstructions")):
        where = f"obstructions[{i}]"
        poly = _vertices(_require(o, "vertices", where), f"{where}.vertices")
        fraction = _number(o, "luminance_fraction", where, 0.2)
        try:
            obstructions.append(Obstruction(polygon=poly, luminance_fraction=fraction))
        except (ConfigError, GeometryError) as exc:
            raise type(exc)(f"{where}: {exc}") from None

    room = Room(
        floor=floor,
        height=height,
        optics=optics,
        apertures=tuple(apertures),
        obstructions=tuple(obstructions),
    )

    wp = _require(data, "workplane", "building")
    cell = _number(wp, "cell", "workplane")
    if cell <= 0.0:
        raise ConfigError(f"workplane.cell: {cell} must be positive")
    wp_height = _number(wp, "height", "workplane", 0.01)

    eff_d = data.get("efficacy", {})
    kd, kb = _number(eff_d, "Kd", "efficacy", 120.0), _number(eff_d, "Kb", "efficacy", 93.0)
    try:
        efficacy = EfficacyModel(mode=eff_d.get("mode", "constant"), kd=kd, kb=kb)
    except ValueError as exc:
        raise ConfigError(f"efficacy: {exc}") from None

    scope = data.get("patch_scope", "patch")
    if scope not in PATCH_SCOPES:
        raise ConfigError(f"patch_scope: must be one of {PATCH_SCOPES}, got {scope!r}")

    return BuildingDescription(
        location=loc,
        room=room,
        workplane_cell=cell,
        workplane_height=wp_height,
        efficacy=efficacy,
        patch_scope=scope,
    )


def _fmt(value: float) -> str:
    return f"{value:#.6g}"


def write_field_file(path, grid: GridMesh, values: np.ndarray, label: str) -> None:
    """Plain-text field matrix: header ``# nu nv label`` then nv rows of nu
    values (six significant digits); cells outside the floor are zero."""
    matrix = grid.full_matrix(values)
    lines = [f"# {grid.nu} {grid.nv} {label}"]
    for iv in range(grid.nv):
        lines.append(" ".join(_fmt(v) for v in matrix[iv]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_results(result: PeriodResult, prefix) -> list[Path]:
    """Write the per-step summary CSV plus one field file per stored field.

    Returns the written paths. Output is deterministic: running the same
    simulation twice produces byte-identical files.
    """
    prefix = str(prefix)
    paths: list[Path] = []
    summary = Path(f"{prefix}_summary.csv")
    header = ["timestamp", "E_out_G_lux", "E_out_dif_lux", "E_out_Dir_S_lux", "S_TS_m2"]
    header += [f"E_glo_{name}_lux" for name in result.probe_names]
    # one format operation per row, the same text as _fmt per value
    row_format = "%s" + ",%#.6g" * (len(header) - 1)
    columns = (result.outdoor_global, result.outdoor_diffuse, result.outdoor_direct,
               result.patch_area)
    with summary.open("w", encoding="utf-8") as out:
        out.write(",".join(header) + "\n")
        # converted to Python floats a block at a time, so memory stays flat
        for i in range(0, len(result.timestamps), _SUMMARY_ROWS_PER_WRITE):
            block = slice(i, i + _SUMMARY_ROWS_PER_WRITE)
            values = np.column_stack([c[block] for c in columns] + [result.probe_global[block]])
            out.write("".join(
                row_format % (ts, *row) + "\n"
                for ts, row in zip(_iso(result.timestamps[block]).tolist(), values.tolist())
            ))
    paths.append(summary)
    for ts in sorted(result.fields):
        fld: IlluminanceField = result.fields[ts]
        path = Path(f"{prefix}_field_{ts.strftime('%Y%m%dT%H%M')}.txt")
        write_field_file(path, fld.grid, fld.e_global, ts.isoformat(timespec="minutes"))
        paths.append(path)
    return paths


def write_probe_series_csv(result: PeriodResult, probe_index: int, path) -> None:
    """One probe's illuminance as a two-column series CSV (for validation)."""
    lines = ["timestamp,E_glo_lux"]
    for ts, value in zip(_iso(result.timestamps), result.probe_global[:, probe_index]):
        lines.append(f"{ts},{_fmt(value)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
