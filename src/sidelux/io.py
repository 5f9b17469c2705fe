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
carries the offending line number; nothing is silently skipped. Both CSV
formats go through one table reader (``_read_table``): a file in the plain
shape (see ``_plain_table``) is read by numpy's own CSV loader, any other one
by one per-line loop, and both build the same table. Each format's value
rules are then checked once, on that table.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .daylight import (
    Aperture,
    Obstruction,
    PeriodResult,
    Room,
    Simulator,
    SurfaceOptics,
)
from .errors import ConfigError, DataError, GeometryError, ParseError
from .geometry import GridMesh, Polygon3
from .solar import LOCAL_TIME, EfficacyModel, GeoLocation, WeatherSeries, check_samples

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
_ROWS_PER_WRITE = 4096
_EPOCH_ORDINAL = datetime(1970, 1, 1).toordinal()
# what a CSV file in the plain shape is made of (see _plain_table)
_LF, _COMMA, _SPACE = ord("\n"), ord(","), ord(" ")
_PLAIN_BYTES = bytes([_LF, *range(0x20, 0x7F)])
_STAMP = "YYYY-MM-DDThh:mm:ss"  # each letter a digit of that field
_STAMP_FIELD = len(_STAMP) + 1  # a longer stamp fills the field and shows as too wide
# suffixes of files np.loadtxt opens as compressed archives
_DECOMPRESSED = (".gz", ".bz2", ".xz", ".lzma")
# '%#.6g' in array passes (see _cells): a cell holds a lead byte and at most
# 13 bytes of text, as in "-1.23457e-308"; a stamp at most 26 bytes
_CELL = 16
_STAMP_BYTES = 26
_POW10 = 10.0 ** np.arange(11)
_DIGITS3 = np.array([sum((48 + int(c)) << 8 * j for j, c in enumerate(f"{k:03d}"))
                     for k in range(1000)], dtype=np.uint64)  # three ASCII digits of k
_ZERO_TEXT = int.from_bytes(b"0.00000", "little")
_FRACTION_PREFIX = np.zeros(8, dtype=np.uint64)  # by X in -4..-1, read as _FRACTION_PREFIX[X]
_FRACTION_PREFIX[-4:] = [int.from_bytes(b"0." + b"0" * (-x - 1), "little") for x in range(-4, 0)]
# The fields each object of a building file may set, by its path ("[]": each
# item of a list). Seven of them name objects, the other 22 hold values.
BUILDING_FIELDS = {
    "building": ("location", "room", "obstructions", "workplane", "efficacy", "patch_scope"),
    "location": ("lat", "lon", "tz", "albedo"),
    "room": ("floor_vertices", "height", "surfaces", "apertures"),
    "room.surfaces[]": ("role", "reflectance"),
    "room.apertures[]": ("vertices", "tau_vitre", "MF", "FR", "MG", "FC"),
    "obstructions[]": ("vertices", "luminance_fraction"),
    "workplane": ("cell", "height"),
    "efficacy": ("mode", "Kd", "Kb"),
}


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
    """ISO-8601 text of ``datetime64[us]`` times as ``datetime.isoformat``
    writes each: ``S26`` bytes, NUL-padded where there are no microseconds."""
    times = np.asarray(times, dtype="datetime64[us]")
    text = times.astype(f"S{_STAMP_BYTES}")
    whole_seconds = times.astype(np.int64) % 1_000_000 == 0
    text.view(np.uint8).reshape(-1, _STAMP_BYTES)[whole_seconds, len(_STAMP):] = 0
    return text


class _Table(NamedTuple):
    header: str
    micros: np.ndarray  # int64 microseconds since 1970, one per body row
    values: np.ndarray  # float64, one row per value column
    lines: np.ndarray   # int64 file line of each body row, the header being line 1


def _plain_table(path: Path, data: bytes) -> _Table | None:
    """A CSV file's header, stamps and values, read by ``np.loadtxt`` when the
    whole file has the plain shape; None for any other file.

    The plain shape: printable ASCII and LF line ends only; at least one body
    row and no blank one; every body row a ``YYYY-MM-DDTHH:MM`` or
    ``YYYY-MM-DDTHH:MM:SS`` stamp (one width for the whole file) with a valid
    calendar date and time in year 1 or later, then exactly as many commas as
    the header and values numpy's float parser reads. That parser gives the
    same bits as Python's ``float`` but rejects digit-group underscores
    (``1_000``), which send the file to the loop. On such a file the per-line
    loop of :func:`_read_table` builds the same table, so that loop stays the
    reference; it also reads every other file and locates its errors.

    numpy reads ``path`` again, through its C reader: ``data`` is only
    checked. A file numpy would not read as those bytes (not a regular file,
    one it decompresses by its suffix, or a row count that differs) takes
    the loop."""
    end = data.find(b"\n")  # of the header; slices of data would copy it
    n_sep = data.count(b",", 0, end)
    # a body of LFs only (or none) is no data to numpy, which warns; numpy
    # skips a blank line among rows, so its row count falls short of the lines
    lfs = data.count(b"\n", end + 1)
    if (end < 0 or lfs == len(data) - end - 1 or n_sep == 0
            or data.translate(None, _PLAIN_BYTES) or path.suffix in _DECOMPRESSED
            or not path.is_file()):
        return None
    try:
        rows = np.loadtxt(path, np.dtype(",".join([f"S{_STAMP_FIELD}"] + ["f8"] * n_sep)),
                          delimiter=",", comments=None, skiprows=1, ndmin=1)
    except ValueError:
        return None
    if len(rows) != lfs + (not data.endswith(b"\n")):
        return None
    # the stamp field's bytes, NUL-padded, in place: a copy would cost memory
    stamps = rows.view(np.uint8).reshape(len(rows), -1)[:, :_STAMP_FIELD]
    width = 19 if stamps[0, 16] else 16
    if np.count_nonzero(stamps[:, width]):
        return None
    for k, c in enumerate(_STAMP[:width]):
        column = stamps[:, k]
        if c in "YMDhms":  # numpy would also read a "+" or a space in a year
            if np.count_nonzero(column - np.uint8(ord("0")) > 9):  # bytes below "0" wrap past 9
                return None
        elif np.count_nonzero(column != ord(c)):
            return None
    try:
        times = rows["f0"].astype("datetime64[us]")
    except ValueError:  # an impossible date or time
        return None
    if np.count_nonzero(times < np.datetime64("0001-01-01")):  # numpy reads year 0000
        return None
    values = np.array([rows[name] for name in rows.dtype.names[1:]])
    return _Table(data[:end].decode("ascii"), times.view(np.int64), values,
                  np.arange(2, len(rows) + 2))


def _decode(data: bytes) -> str:
    """``data`` as UTF-8 text; a byte sequence that is not UTF-8 is a
    ParseError on its line, as ``str.splitlines`` numbers the lines."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[:exc.start].decode("utf-8") + "\ufffd").splitlines())
        raise ParseError(f"byte {data[exc.start]:#04x} is not UTF-8 ({exc.reason})",
                         line=line) from None


def _read_table(path, check_header) -> _Table:
    """A CSV file's header, stamps and values, and the file line of each
    body row.

    The file's bytes are read once. A file in the plain shape is then read
    again from its path by ``np.loadtxt`` (:func:`_plain_table`), any other
    one from those bytes by the per-line loop below, which skips blank lines
    and stops at the first malformed row (a wrong column count, a bad stamp,
    a value ``float`` rejects) with its line. ``check_header`` sees the
    header line before any row can fail. Both paths build the same table, so
    each format's value rules are checked once, on the table."""
    path = Path(path)  # np.loadtxt downloads a str that parses as a URL; a Path's text never does
    data = path.read_bytes()
    table = _plain_table(path, data)
    lines = [table.header] if table is not None else _decode(data).splitlines()
    if not lines:
        raise ParseError("empty CSV file", line=1)
    check_header(lines[0])
    if table is not None:
        return table
    n_cols = len(lines[0].split(","))
    # filled row by row, so no per-row object outlives its line
    micros, source, values = array("q"), array("q"), array("d")
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) != n_cols:
            raise ParseError(f"expected {n_cols} columns, got {len(parts)}", line=lineno)
        micros.append(_micros(parts[0], lineno))
        try:
            values.extend(map(float, parts[1:]))
        except ValueError:
            raise ParseError(f"non-numeric value in {raw!r}", line=lineno) from None
        source.append(lineno)
    return _Table(lines[0], np.array(micros, np.int64),
                  np.array(values).reshape(-1, n_cols - 1).T.copy(), np.array(source, np.int64))


def _weather_header(line: str) -> None:
    header = tuple(c.strip() for c in line.split(","))
    if header not in (WEATHER_COLUMNS, WEATHER_COLUMNS_ILLUM):
        raise ParseError(
            f"unexpected header {','.join(header)!r}; expected "
            f"{','.join(WEATHER_COLUMNS)} optionally followed by Evg_lux,Evd_lux",
            line=1,
        )


def parse_weather_csv(path) -> WeatherSeries:
    """Read a weather CSV into a series, preserving the stored values.

    The file is read by :func:`_read_table`; then a NaN illuminance is an
    error on its line, and :class:`WeatherSeries` checks the rest."""
    table = _read_table(path, _weather_header)
    gh, dh, *illum = table.values
    evg, evd = illum or (None, None)  # None: not measured
    if illum:  # the file has no way to mark an illuminance as not measured
        unmeasured = np.isnan(evg) | np.isnan(evd)
        if unmeasured.any():
            row = int(np.argmax(unmeasured))
            name = "ev_global" if np.isnan(evg[row]) else "ev_diffuse"
            raise DataError(f"{name} nan is not a finite number", line=int(table.lines[row]))
    return WeatherSeries(table.micros.view("datetime64[us]"), gh, dh, evg, evd, lines=table.lines)


def write_weather_csv(weather: WeatherSeries, path) -> None:
    """Write a series in the weather CSV format (round-trips exactly)."""
    measured = ~np.isnan(np.stack((weather.ev_global, weather.ev_diffuse)))
    if measured.any() and not measured.all():
        raise DataError("cannot serialize records that mix present and missing illuminance")
    columns = [weather.gh, weather.dh]
    if measured.any():
        columns += [weather.ev_global, weather.ev_diffuse]
    header = ",".join(WEATHER_COLUMNS_ILLUM if measured.any() else WEATHER_COLUMNS)
    with Path(path).open("wb") as out:
        out.write((header + "\n").encode())
        _write_rows(out, weather.times, columns, _exact_cells)


def _t2_int(line: str, sl: slice, what: str, lineno: int) -> int:
    text = line[sl]
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"non-numeric {what} field {text!r}", line=lineno) from None


def parse_tmy2_subset(path) -> WeatherSeries:
    """Read the irradiance/illuminance subset of a TMY2 file."""
    lines = _decode(Path(path).read_bytes()).splitlines()
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


def _series_header(line: str) -> None:
    header = [c.strip() for c in line.split(",")]
    if len(header) != 2 or header[0] != "timestamp":
        raise ParseError("expected a two-column header starting with 'timestamp'", line=1)


def parse_series_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a two-column ``timestamp,value`` CSV (any value column name)
    into strictly ascending ``datetime64[us]`` times and finite values.

    The file is read by :func:`_read_table`; then the first row that breaks
    a rule is an error on its line: a repeated stamp or one that goes back,
    worded as in a weather file (:func:`check_samples`), or a non-finite
    value."""
    table = _read_table(path, _series_header)
    times, values = table.micros.view("datetime64[us]"), table.values[0]
    finite = (~np.isfinite(values), DataError, "value {value} is not a finite number")
    check_samples(times, [finite], table.lines, value=values)
    return times, values


@dataclass(eq=False)
class BuildingDescription:
    """Parsed building file: site, room and the :class:`Simulator` keyword
    arguments the file sets. A setting the file leaves out is not in
    ``settings``: :class:`Simulator` and the models, which own every value
    rule and default, check and fill them when :meth:`simulator` builds it."""

    location: GeoLocation
    room: Room
    settings: dict

    def simulator(self) -> Simulator:
        """The :class:`Simulator` of this room, site and settings."""
        return Simulator(self.room, self.location, **self.settings)


def _typed(node, kind: type, where: str):
    """``node`` when it is a JSON object (``kind`` dict) or list."""
    if not isinstance(node, kind):
        raise ConfigError(f"{where}: expected {'an object' if kind is dict else 'a list'}")
    return node


def _fields(node, kind: str, where: str = "") -> dict:
    """``node`` as a JSON object that sets no field outside
    ``BUILDING_FIELDS[kind]``; errors name ``where``, by default ``kind``."""
    where = where or kind
    for key in _typed(node, dict, where):
        if key not in BUILDING_FIELDS[kind]:
            raise ConfigError(f"{where}: unknown field {key!r}")
    return node


def _require(mapping: dict, key: str, where: str):
    if key not in _typed(mapping, dict, where):
        raise ConfigError(f"{where}.{key}: missing required field")
    return mapping[key]


def _number(mapping: dict, key: str, where: str) -> float:
    """``mapping[key]``, a required JSON number, as a finite float."""
    raw = _require(mapping, key, where)
    try:  # a bool or text is no JSON number, though float() would read it
        value = float(raw) if type(raw) in (int, float) else None
    except OverflowError:  # an integer past the float range
        value = None
    if value is None:
        raise ConfigError(f"{where}.{key}: {raw!r} is not a number")
    if not math.isfinite(value):
        raise ConfigError(f"{where}.{key}: {value} is not a finite number")
    return value


def _given(mapping: dict, where: str, **args: str) -> dict:
    """``{arg: _number(mapping, key, where)}`` for each ``key=arg`` that
    ``mapping`` sets; a field the file leaves out takes the model's default."""
    return {arg: _number(mapping, key, where) for key, arg in args.items() if key in mapping}


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


def _polygons(items, where: str, make, **args: str) -> tuple:
    """``make(polygon=..., **factors)`` for each item of the JSON list
    ``items`` at ``where``: an object of the fields of ``where[]`` with its
    ``vertices`` and the factors ``args`` names (see :func:`_given`). An
    error names the item's path, such as ``room.apertures[k]: ``."""
    made = []
    for i, node in enumerate(_typed(items, list, where)):
        at = f"{where}[{i}]"
        node = _fields(node, f"{where}[]", at)
        poly = _vertices(_require(node, "vertices", at), f"{at}.vertices")
        factors = _given(node, at, **args)
        try:
            made.append(make(polygon=poly, **factors))
        except (ConfigError, GeometryError) as exc:
            raise type(exc)(f"{at}: {exc}") from None
    return tuple(made)


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

    L-shaped floors are accepted and decomposed into convex parts. The
    parser checks the file's shape: objects and lists where the schema has
    them, no field outside it (:data:`BUILDING_FIELDS`), every required
    field, numbers that are finite JSON numbers (not ``true`` or text), and
    each surface role once. Every value rule and default belongs to the
    model that reads the value (:class:`GeoLocation`, :class:`SurfaceOptics`,
    :class:`Room`, :class:`Aperture`, :class:`Obstruction`,
    :class:`EfficacyModel`, :class:`Simulator`), and its errors, like the
    parser's, name their path. A setting the file leaves out takes the
    model's default.
    """
    try:
        data = json.loads(_decode(Path(path).read_bytes()))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", line=exc.lineno) from None

    data = _fields(data, "building")
    loc_d = _fields(_require(data, "location", "building"), "location")
    site = [_number(loc_d, key, "location") for key in ("lat", "lon", "tz", "albedo")]
    try:
        loc = GeoLocation(*site)
    except ValueError as exc:
        raise ConfigError(f"location: {exc}") from None

    room_d = _fields(_require(data, "room", "building"), "room")
    floor = _vertices(_require(room_d, "floor_vertices", "room"), "room.floor_vertices")
    height = _number(room_d, "height", "room")

    refl = {}
    for i, s in enumerate(_typed(_require(room_d, "surfaces", "room"), list, "room.surfaces")):
        where = f"room.surfaces[{i}]"
        role = _require(_fields(s, "room.surfaces[]", where), "role", where)
        value = _number(s, "reflectance", where)
        if role not in ("floor", "walls", "ceiling"):
            raise ConfigError(f"{where}.role: unknown role {role!r}")
        if role in refl:
            raise ConfigError(f"{where}.role: duplicate role {role!r}")
        refl[role] = value
    for role in ("floor", "walls", "ceiling"):
        if role not in refl:
            raise ConfigError(f"room.surfaces: missing reflectance for role {role!r}")
    optics = SurfaceOptics(**refl)

    apertures = _polygons(room_d.get("apertures", []), "room.apertures", Aperture,
                          tau_vitre="tau", MF="mf", FR="fr", MG="mg", FC="fc")
    obstructions = _polygons(data.get("obstructions", []), "obstructions", Obstruction,
                             luminance_fraction="luminance_fraction")
    room = Room(floor=floor, height=height, optics=optics, apertures=apertures,
                obstructions=obstructions)

    wp = _fields(_require(data, "workplane", "building"), "workplane")
    settings = {"cell": _number(wp, "cell", "workplane"),
                **_given(wp, "workplane", height="workplane_height")}
    if "efficacy" in data:
        eff_d = _fields(data["efficacy"], "efficacy")
        mode = {"mode": eff_d["mode"]} if "mode" in eff_d else {}
        factors = _given(eff_d, "efficacy", Kd="kd", Kb="kb")
        try:
            settings["efficacy"] = EfficacyModel(**mode, **factors)
        except ValueError as exc:
            raise ConfigError(f"efficacy: {exc}") from None
    if "patch_scope" in data:
        settings["patch_scope"] = data["patch_scope"]
    return BuildingDescription(location=loc, room=room, settings=settings)


def _cells(values: np.ndarray, lead: int) -> np.ndarray:
    """``'%#.6g' % v`` of every value as the ASCII bytes of a NUL-padded
    ``_CELL``-byte cell, after one ``lead`` byte (0: none); shape
    ``values.shape + (_CELL,)``.

    A positive value that prints in fixed notation (exponent X in [-4, 5])
    is placed by integer arithmetic: X from ``floor(log10)``, six digits
    from ``rint`` of v * 10^(5 - X), carried into X + 1 where that rounds to
    1e6 (which also mends a log10 one too low at a power of ten; one too
    high leaves v * 10^(5 - X) just under 1e5, which rounds to 1e5 all the
    same); then the digits with the point after X + 1 of them, or after "0."
    and -X - 1 zeros. Plain zero is ``0.00000``. Every other value goes
    through ``%`` on its own: negative, -0.0, non-finite, exponent form, and
    any value whose v * 10^(5 - X) lies within 1e-6 of a rounding tie, where
    the product's own rounding (at most 1.2e-10 here) could pick the wrong
    neighbour.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    cells = np.empty((v.size, 2), dtype="<u8")  # a cell as two little-endian words
    cells[:, 0] = lead | _ZERO_TEXT << 8
    cells[:, 1] = 0
    at = np.flatnonzero((v >= 9.5e-5) & (v < 999999.5))  # X in [-5, 5], no carry past 5
    w = v[at]
    x = np.floor(np.log10(w)).astype(np.int64)
    scaled = w * _POW10[5 - x]
    digits = np.rint(scaled)
    carry = digits >= 1e6
    x += carry
    digits = np.where(carry, 1e5, digits).astype(np.int64)
    exact = (np.abs(scaled - np.floor(scaled) - 0.5) >= 1e-6) & (x >= -4)
    word = _DIGITS3[digits // 1000] | _DIGITS3[digits % 1000] << 24
    # X >= 0: the point after X + 1 digits
    shift = (np.maximum(x, 0) + 1).astype(np.uint64) << 3
    low = word & ((1 << shift) - 1)
    text = low | ord(".") << shift | (word ^ low) << 8
    # X < 0: "0." and -X - 1 zeros, then the digits; up to 11 bytes, so two words
    small = x < 0
    shift = (1 - x[small]).astype(np.uint64) << 3
    text[small] = _FRACTION_PREFIX[x[small]] | word[small] << shift
    high = np.zeros_like(word)
    high[small] = word[small] >> (64 - shift)
    cells[at, 0] = lead | text << 8
    cells[at, 1] = text >> 56 | high << 8
    rest = (v != 0.0) | np.signbit(v)  # all but plain zero
    rest[at[exact]] = False
    slow = np.flatnonzero(rest)
    if slow.size:
        head = bytes([lead])
        text = np.array([head + b"%#.6g" % f for f in v[slow].tolist()], dtype=f"S{_CELL}")
        cells[slow] = text.view("<u8").reshape(-1, 2)
    return cells.view(np.uint8).reshape(*np.shape(values), _CELL)


def write_field_file(path, grid: GridMesh, values: np.ndarray, label: str) -> None:
    """Plain-text field matrix: header ``# nu nv label`` then nv rows of nu
    values (``%#.6g``); cells outside the floor are zero."""
    matrix = np.empty((grid.nv, grid.nu * _CELL + 1), dtype=np.uint8)
    matrix[:, :-1] = _cells(grid.full_matrix(values), _SPACE).reshape(grid.nv, -1)
    matrix[:, 0] = 0  # a row's first value has no separator
    matrix[:, -1] = _LF
    with Path(path).open("wb") as out:
        out.write(f"# {grid.nu} {grid.nv} {label}\n".encode())
        out.write(matrix[matrix != 0])


def _exact_cells(values: np.ndarray, lead: int) -> np.ndarray:
    """``repr`` of every value after one ``lead`` byte, as NUL-padded
    25-byte cells: numpy casts a float64 to ``S24`` as its ``repr``, and 24
    bytes hold the longest, as in "-2.2250738585072014e-308"."""
    text = np.char.add(bytes([lead]), np.asarray(values, dtype=np.float64).astype("S24"))
    return text.view(np.uint8).reshape(text.shape + (25,))


def _write_rows(out, times: np.ndarray, columns: list[np.ndarray], cells) -> None:
    """Write one CSV row per time: its ISO-8601 stamp, then a comma and the
    text ``cells`` (:func:`_cells` or :func:`_exact_cells`) gives each value
    of the columns (each (n,) or (n, k)). Rows are built as a NUL-padded
    byte matrix a block at a time, so memory stays flat, and written with
    the NULs removed."""
    for i in range(0, len(times), _ROWS_PER_WRITE):
        block = slice(i, i + _ROWS_PER_WRITE)
        stamps = _iso(times[block])
        values = np.column_stack([c[block] for c in columns])
        text = cells(values, _COMMA).reshape(len(values), -1)
        rows = np.empty((len(values), _STAMP_BYTES + text.shape[1] + 1), dtype=np.uint8)
        rows[:, :_STAMP_BYTES] = stamps.view(np.uint8).reshape(-1, _STAMP_BYTES)
        rows[:, _STAMP_BYTES:-1] = text
        rows[:, -1] = _LF
        out.write(rows[rows != 0])


def write_results(result: PeriodResult, prefix) -> list[Path]:
    """Write the per-step summary CSV plus one field file per stored field.

    Returns the written paths. Output is deterministic: running the same
    simulation twice produces byte-identical files.
    """
    prefix = str(prefix)
    paths: list[Path] = []
    summary = Path(f"{prefix}_summary.csv")
    header = ["timestamp", "E_out_G_lux", "E_out_dif_lux", "E_out_Dir_S_lux", "S_TS_m2"]
    header += [f"E_glo_p{j + 1}_lux" for j in range(result.probe_global.shape[1])]
    columns = [result.outdoor_global, result.outdoor_diffuse, result.outdoor_direct,
               result.patch_area, result.probe_global]
    with summary.open("wb") as out:
        out.write((",".join(header) + "\n").encode())
        _write_rows(out, result.timestamps, columns, _cells)
    paths.append(summary)
    for ts in sorted(result.fields):
        fld = result.fields[ts]
        path = Path(f"{prefix}_field_{ts.strftime('%Y%m%dT%H%M')}.txt")
        write_field_file(path, fld.grid, fld.e_global, ts.isoformat(timespec="minutes"))
        paths.append(path)
    return paths


def write_probe_series_csv(result: PeriodResult, probe_index: int, path) -> None:
    """One probe's illuminance as a two-column series CSV (for validation)."""
    with Path(path).open("wb") as out:
        out.write(b"timestamp,E_glo_lux\n")
        _write_rows(out, result.timestamps, [result.probe_global[:, probe_index]], _cells)
