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
carries the offending line number; nothing is silently skipped. A CSV file
in the plain shape (see ``_plain_table``) is read in array passes, any other
one row by row; both readers give the same arrays or the same error.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import NamedTuple

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
_EPOCH_ORDINAL = datetime(1970, 1, 1).toordinal()
# what a CSV file in the plain shape is made of (see _plain_table)
_LF, _COMMA = ord("\n"), ord(",")
_PLAIN_BYTES = bytes([_LF, *range(0x20, 0x7F)])
_STAMP = "YYYY-MM-DDThh:mm:ss"  # each letter a digit of that field
# a value column costs rows x its widest value in bytes; a wider value sends
# the file row by row
_MAX_VALUE_WIDTH = 32
_BLOCK_ROWS = 1 << 16


def _epoch_micros(ts: datetime) -> int:
    """Microseconds since 1970 of a naive datetime, in integer arithmetic."""
    seconds = ((ts.toordinal() - _EPOCH_ORDINAL) * 24 + ts.hour) * 60 + ts.minute
    return (seconds * 60 + ts.second) * 1_000_000 + ts.microsecond


def _micros(text: str, line: int) -> int:
    """Microseconds since 1970 of an ISO-8601 local timestamp."""
    try:
        ts = datetime.fromisoformat(text.strip())
    except ValueError:
        raise ParseError(f"bad timestamp {text!r}", line=line) from None
    if ts.tzinfo is not None:
        raise ParseError(f"timestamp {text.strip()!r} has a UTC offset; {LOCAL_TIME}", line=line)
    return _epoch_micros(ts)


def _iso(times: np.ndarray) -> np.ndarray:
    """ISO-8601 text of ``datetime64[us]`` times, as ``datetime.isoformat``
    writes them when either all or none of them have a microsecond part."""
    whole_seconds = not (times.astype(np.int64) % 1_000_000).any()
    return np.datetime_as_string(times, unit="s" if whole_seconds else "us")


class _Table(NamedTuple):
    header: str
    micros: np.ndarray  # int64 microseconds since 1970, one per body row
    values: np.ndarray  # float64, one row per value column


def _plain_table(data: bytes) -> _Table | None:
    """A CSV file's header, stamps and values, read in array passes when the
    whole file has the plain shape; None for any other file.

    The plain shape: printable ASCII and LF line ends only; at least one body
    row and no blank one; every body row a ``YYYY-MM-DDTHH:MM`` or
    ``YYYY-MM-DDTHH:MM:SS`` stamp (one width for the whole file) with a valid
    calendar date and time, then exactly as many commas as the header and no
    empty or overlong value. Values go through numpy's cast from bytes, which
    applies Python's ``float``. On such a file the per-line readers build the
    same arrays, so they stay the reference and the readers of every other
    file, and they locate its errors.
    """
    if not data or data.translate(None, _PLAIN_BYTES):
        return None
    buf = np.frombuffer(data, np.uint8)
    ends = _offsets(buf, _LF)
    if not data.endswith(b"\n"):
        ends = np.append(ends, len(buf))
    if len(ends) < 2:
        return None
    header = data[:ends[0]].decode("ascii")
    n_sep = header.count(",")
    starts, ends = ends[:-1] + 1, ends[1:]
    commas = _offsets(buf, _COMMA)[n_sep:]
    if n_sep == 0 or len(commas) != len(starts) * n_sep:
        return None
    # each row's commas lie between its stamp and its end, so every row has n_sep
    commas = commas.reshape(-1, n_sep)
    width = int(commas[0, 0] - starts[0])
    if (width not in (16, 19) or np.count_nonzero(commas[:, 0] - starts != width)
            or np.count_nonzero(commas[:, -1] >= ends)):
        return None
    micros = np.empty(len(starts), np.int64)
    values = np.empty((n_sep, len(starts)))
    for i in range(0, len(starts), _BLOCK_ROWS):  # a block at a time, so temporaries stay small
        rows = slice(i, i + _BLOCK_ROWS)
        block = _stamp_micros(buf, starts[rows], width)
        if block is None:
            return None
        micros[rows] = block
        for j in range(n_sep):
            block = _float_fields(buf, commas[rows, j] + 1,
                                  commas[rows, j + 1] if j + 1 < n_sep else ends[rows])
            if block is None:
                return None
            values[j, rows] = block
    return _Table(header, micros, values)


def _offsets(buf: np.ndarray, byte: int) -> np.ndarray:
    """Offsets of every ``byte`` in a non-empty ``buf``, searched a MiB at a time."""
    step = 1 << 20
    return np.concatenate([np.flatnonzero(buf[i:i + step] == byte) + i
                           for i in range(0, len(buf), step)])


def _stamp_micros(buf: np.ndarray, starts: np.ndarray, width: int) -> np.ndarray | None:
    """Microseconds since 1970 of the plain stamps at ``starts``; None unless
    every one is a valid date and time."""
    fields = dict.fromkeys("YMDhms", 0)
    for k, c in enumerate(_STAMP[:width]):
        column = buf[starts + k]
        if c in fields:
            digit = column - np.uint8(ord("0"))  # bytes below "0" wrap past 9
            if np.count_nonzero(digit > 9):
                return None
            fields[c] = fields[c] * 10 + digit.astype(np.int64)
        elif np.count_nonzero(column != ord(c)):
            return None
    year, month, day, hour, minute, second = fields.values()
    if np.count_nonzero((year < 1) | (month < 1) | (month > 12) | (hour > 23) | (minute > 59)
                        | (second > 59)):
        return None
    month_index = (year - 1970) * 12 + month - 1
    first, following = (m.astype("datetime64[M]").astype("datetime64[D]").view(np.int64)
                        for m in (month_index, month_index + 1))
    if np.count_nonzero((day < 1) | (day > following - first)):
        return None
    return ((((first + day - 1) * 24 + hour) * 60 + minute) * 60 + second) * 1_000_000


def _float_fields(buf: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray | None:
    """The fields ``buf[lo:hi]`` as floats by Python's ``float`` rules; None
    if any of them is empty, overlong or not a number."""
    size = hi - lo
    width = int(size.max())
    if size.min() == 0 or width > _MAX_VALUE_WIDTH:
        return None
    cells = np.zeros((len(lo), width), np.uint8)  # right-padded with NUL, which the cast drops
    for k in range(width):
        cells[:, k] = np.where(k < size, buf.take(lo + k, mode="clip"), 0)
    try:
        return cells.view(f"S{width}")[:, 0].astype(np.float64)
    except ValueError:
        return None


def _weather_header(line: str) -> bool:
    """Whether a weather CSV header line names the illuminance columns."""
    header = tuple(c.strip() for c in line.split(","))
    if header not in (WEATHER_COLUMNS, WEATHER_COLUMNS_ILLUM):
        raise ParseError(
            f"unexpected header {','.join(header)!r}; expected "
            f"{','.join(WEATHER_COLUMNS)} optionally followed by Evg_lux,Evd_lux",
            line=1,
        )
    return header == WEATHER_COLUMNS_ILLUM


def _weather_series(micros, gh, dh, evg, evd, source, with_illum: bool) -> WeatherSeries:
    if with_illum:  # the file has no way to mark an illuminance as not measured
        unmeasured = np.isnan(evg) | np.isnan(evd)
        if unmeasured.any():
            row = int(np.argmax(unmeasured))
            name = "ev_global" if np.isnan(evg[row]) else "ev_diffuse"
            raise DataError(f"{name} nan is not a finite number", line=int(source[row]))
    return WeatherSeries(micros.view("datetime64[us]"), gh, dh, evg, evd, lines=source)


def parse_weather_csv(path) -> WeatherSeries:
    """Read a weather CSV into a series, preserving the stored values.

    A file in the plain shape is read in array passes (:func:`_plain_table`),
    any other file row by row (:func:`_weather_rows`); both give the same
    series or the same located error."""
    table = _plain_table(Path(path).read_bytes())
    if table is None:
        return _weather_rows(Path(path).read_text(encoding="utf-8").splitlines())
    with_illum = _weather_header(table.header)
    gh, dh = table.values[:2]
    evg, evd = table.values[2:] if with_illum else (None, None)  # None: not measured
    return _weather_series(table.micros, gh, dh, evg, evd, np.arange(2, len(gh) + 2), with_illum)


def _weather_rows(lines: list[str]) -> WeatherSeries:
    if not lines:
        raise ParseError("empty weather file", line=1)
    with_illum = _weather_header(lines[0])
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
    return _weather_series(micros[:k], gh[:k], dh[:k], evg[:k], evd[:k], source[:k], with_illum)


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
            micros[k] = _epoch_micros(datetime(nominal_year, month, day, hour - 1))
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
    into ``datetime64[us]`` times and finite values.

    As in :func:`parse_weather_csv`, a plain file is read in array passes;
    any other file, and one with a non-finite value, row by row."""
    table = _plain_table(Path(path).read_bytes())
    if table is None or not np.isfinite(table.values).all():
        return _series_rows(Path(path).read_text(encoding="utf-8").splitlines())
    _series_header(table.header)
    return table.micros.view("datetime64[us]"), table.values[0]


def _series_header(line: str) -> None:
    header = [c.strip() for c in line.split(",")]
    if len(header) != 2 or header[0] != "timestamp":
        raise ParseError("expected a two-column header starting with 'timestamp'", line=1)


def _series_rows(lines: list[str]) -> tuple[np.ndarray, np.ndarray]:
    if not lines:
        raise ParseError("empty series file", line=1)
    _series_header(lines[0])
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
    site = [_number(loc_d, key, "location") for key in ("lat", "lon", "tz", "albedo")]
    try:
        loc = GeoLocation(*site)
    except ValueError as exc:
        raise ConfigError(f"location: {exc}") from None

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
