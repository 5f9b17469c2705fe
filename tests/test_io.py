import json
import re
from datetime import datetime, timedelta
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sidelux import io as sidelux_io
from sidelux.errors import ConfigError, DataError, GeometryError, ParseError
from sidelux.daylight import PeriodResult
from sidelux.geometry import workplane_grid_for_parts
from sidelux.io import (
    BUILDING_FIELDS,
    parse_building,
    parse_series_csv,
    parse_tmy2_subset,
    parse_weather_csv,
    write_field_file,
    write_results,
    write_weather_csv,
)
from conftest import overcast_day_csv, same_weather
from sidelux.solar import WeatherSeries

DATA = Path(__file__).parent / "data"


def write(tmp_path, text, name="weather.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestWeatherCsv:
    def test_basic_row(self, tmp_path):
        p = write(tmp_path, "timestamp,Gh_Wm2,Dh_Wm2\n2009-03-21T12:00,500,100\n")
        weather = parse_weather_csv(p)
        assert len(weather) == 1
        assert weather.times.tolist() == [datetime(2009, 3, 21, 12, 0)]
        assert weather.gh.tolist() == [500.0] and weather.dh.tolist() == [100.0]
        assert np.isnan(weather.ev_global).all()

    def test_diffuse_above_global_is_located_data_error(self, tmp_path):
        p = write(tmp_path, "timestamp,Gh_Wm2,Dh_Wm2\n2009-03-21T12:00,100,500\n")
        with pytest.raises(DataError) as err:
            parse_weather_csv(p)
        assert err.value.line == 2

    @pytest.mark.parametrize("row,message", [
        ("nan,0,49200,12000", "global irradiance nan"),
        ("500,nan,49200,12000", "diffuse irradiance nan"),
        ("500,100,inf,12000", "ev_global inf"),
        ("500,100,49200,nan", "ev_diffuse nan"),
    ])
    def test_non_finite_value_is_located_data_error(self, tmp_path, row, message):
        p = write(tmp_path, f"timestamp,Gh_Wm2,Dh_Wm2,Evg_lux,Evd_lux\n2009-07-01T12:00,{row}\n")
        with pytest.raises(DataError, match=f"^line 2: {message} is not a finite number$") as err:
            parse_weather_csv(p)
        assert err.value.line == 2

    def test_first_faulty_row_then_its_first_rule(self, tmp_path):
        p = write(tmp_path, "timestamp,Gh_Wm2,Dh_Wm2\n2009-07-01T12:00,500,100\n"
                            "2009-07-01T12:01,-5,600\n2009-07-01T12:00,1600,100\n")
        with pytest.raises(DataError,
                           match=r"^line 3: global irradiance -5.0 W/m\^2 out of \[0, 1500\]$"):
            parse_weather_csv(p)

    def test_utc_offset_is_located_parse_error(self, tmp_path):
        p = write(
            tmp_path,
            "timestamp,Gh_Wm2,Dh_Wm2\n2009-07-01T11:59,500,100\n2009-07-01T12:00+04:00,500,100\n",
        )
        with pytest.raises(ParseError, match="UTC offset") as err:
            parse_weather_csv(p)
        assert err.value.line == 3

    def test_illuminance_columns(self, tmp_path):
        p = write(
            tmp_path,
            "timestamp,Gh_Wm2,Dh_Wm2,Evg_lux,Evd_lux\n2009-03-21T12:00,500,100,49200,12000\n",
        )
        weather = parse_weather_csv(p)
        assert weather.ev_global.tolist() == [49200.0]
        assert weather.ev_diffuse.tolist() == [12000.0]

    def test_roundtrip_exact(self, tmp_path):
        src = write(
            tmp_path,
            "timestamp,Gh_Wm2,Dh_Wm2\n"
            "2009-03-21T12:00,500.25,100.125\n"
            "2009-03-21T12:01,501.5,99.875\n",
        )
        weather = parse_weather_csv(src)
        out = tmp_path / "again.csv"
        write_weather_csv(weather, out)
        assert same_weather(parse_weather_csv(out), weather)

    def test_roundtrip_with_illuminance(self, tmp_path):
        weather = WeatherSeries(
            [datetime(2009, 3, 21, 12, 0), datetime(2009, 3, 21, 12, 1)],
            [500.0, 400.0], [100.0, 90.0], [49200.0, 40000.0], [12000.0, 11000.0],
        )
        out = tmp_path / "w.csv"
        write_weather_csv(weather, out)
        assert same_weather(parse_weather_csv(out), weather)

    @pytest.mark.parametrize(
        "body,line",
        [
            ("not-a-time,500,100\n", 2),
            ("2009-03-21T12:00,abc,100\n", 2),
            ("2009-03-21T12:00,500\n", 2),
            ("2009-03-21T12:00,500,100,49200\n", 2),
            ("2009-03-21T12:00,500,100\n2009-03-21T12:00,500,100\n", 3),
            ("2009-03-21T12:01,500,100\n2009-03-21T12:00,500,100\n", 3),
            ("2009-03-21T12:00,-5,0\n", 2),
            ("2009-03-21T12:00,1600,100\n", 2),
        ],
    )
    def test_malformed_rows_are_located(self, tmp_path, body, line):
        p = write(tmp_path, "timestamp,Gh_Wm2,Dh_Wm2\n" + body)
        with pytest.raises(DataError) as err:
            parse_weather_csv(p)
        assert err.value.line == line

    def test_bad_header_is_line_one(self, tmp_path):
        p = write(tmp_path, "time,G,D\n2009-03-21T12:00,500,100\n")
        with pytest.raises(ParseError) as err:
            parse_weather_csv(p)
        assert err.value.line == 1

    def test_empty_file(self, tmp_path):
        p = write(tmp_path, "")
        with pytest.raises(ParseError):
            parse_weather_csv(p)


def tmy2_line(ts, ghi, dhi, gh_ill=9999, dh_ill=9999):
    """Encode one record of the fixed-width layout (subset fields only)."""
    return (
        " "
        + f"{ts.year % 100:02d}{ts.month:02d}{ts.day:02d}{ts.hour + 1:02d}"
        + f"{0:4d}{0:4d}"
        + f"{ghi:4d}A7"
        + f"{0:4d}A7"
        + f"{dhi:4d}A7"
        + f"{gh_ill:4d}A7"
        + f"{0:4d}A7"
        + f"{dh_ill:4d}A7"
        + f"{0:4d}A7"
    )


TMY2_HEADER = " 94185 SOUTHPORT ST   4 S  21 20 E  55 29    50"


class TestTmy2:
    def test_matches_csv_equivalent(self, tmp_path):
        ts = datetime(1985, 3, 21, 12, 0)
        t2 = write(
            tmp_path,
            TMY2_HEADER + "\n" + tmy2_line(ts, 500, 100, gh_ill=492, dh_ill=120) + "\n",
            name="site.tm2",
        )
        csv = write(
            tmp_path,
            "timestamp,Gh_Wm2,Dh_Wm2,Evg_lux,Evd_lux\n1985-03-21T12:00,500,100,49200,12000\n",
        )
        assert same_weather(parse_tmy2_subset(t2), parse_weather_csv(csv))

    def test_missing_illuminance_sentinel(self, tmp_path):
        ts = datetime(1985, 3, 21, 12, 0)
        t2 = write(tmp_path, TMY2_HEADER + "\n" + tmy2_line(ts, 500, 100) + "\n", name="s.tm2")
        weather = parse_tmy2_subset(t2)
        assert np.isnan(weather.ev_global).all() and np.isnan(weather.ev_diffuse).all()

    def test_truncated_line(self, tmp_path):
        t2 = write(tmp_path, TMY2_HEADER + "\n 8503211" + "\n", name="s.tm2")
        with pytest.raises(ParseError) as err:
            parse_tmy2_subset(t2)
        assert err.value.line == 2

    def test_hour_24_maps_to_23(self, tmp_path):
        line = tmy2_line(datetime(1985, 3, 21, 23, 0), 0, 0)
        t2 = write(tmp_path, TMY2_HEADER + "\n" + line + "\n", name="s.tm2")
        assert parse_tmy2_subset(t2).times.tolist() == [datetime(1985, 3, 21, 23, 0)]

    def test_nominal_year_applied_to_all_records(self, tmp_path):
        a = tmy2_line(datetime(1985, 1, 1, 12, 0), 100, 50)
        b = tmy2_line(datetime(1977, 2, 1, 12, 0), 100, 50)  # different source year
        t2 = write(tmp_path, TMY2_HEADER + "\n" + a + "\n" + b + "\n", name="s.tm2")
        weather = parse_tmy2_subset(t2)
        assert [t.year for t in weather.times.tolist()] == [1985, 1985]


    @pytest.mark.parametrize("hours,message", [
        ((12, 11), "line 3: timestamps not ascending at 1985-03-21T11:00:00"),
        ((12, 12), "line 3: duplicate timestamp 1985-03-21T12:00:00"),
    ])
    def test_unordered_records_are_located(self, tmp_path, hours, message):
        body = "\n".join(tmy2_line(datetime(1985, 3, 21, h, 0), 100, 50) for h in hours)
        t2 = write(tmp_path, TMY2_HEADER + "\n" + body + "\n", name="s.tm2")
        with pytest.raises(ParseError, match=f"^{message}$"):
            parse_tmy2_subset(t2)


class TestSeriesCsv:
    def test_basic(self, tmp_path):
        p = write(tmp_path, "timestamp,E_lux\n2009-03-21T12:00,123.5\n", name="s.csv")
        ts, v = parse_series_csv(p)
        assert ts.dtype == np.dtype("datetime64[us]")
        assert ts.tolist() == [datetime(2009, 3, 21, 12, 0)]
        assert v.tolist() == [123.5]

    def test_malformed(self, tmp_path):
        p = write(tmp_path, "timestamp,E_lux\n2009-03-21T12:00\n", name="s.csv")
        with pytest.raises(ParseError) as err:
            parse_series_csv(p)
        assert err.value.line == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_is_located_data_error(self, tmp_path, value):
        p = write(tmp_path, f"timestamp,E_lux\n2009-03-21T12:00,1\n2009-03-21T12:01,{value}\n",
                  name="s.csv")
        with pytest.raises(DataError, match=f"^line 3: value {value} is not a finite number$"):
            parse_series_csv(p)

    def test_utc_offset_is_located_parse_error(self, tmp_path):
        """The same located error as in the weather CSV."""
        p = write(tmp_path, "timestamp,E_lux\n2009-07-01T12:00+04:00,1\n", name="s.csv")
        with pytest.raises(ParseError, match="^line 2: timestamp '2009-07-01T12:00\\+04:00' "
                                             "has a UTC offset"):
            parse_series_csv(p)


class _Recorded(WeatherSeries):
    """A weather series that keeps the source lines it was built with."""

    def __init__(self, *columns, lines=None):
        super().__init__(*columns, lines=lines)
        self.source = np.asarray(lines)


def _outcome(read):
    """Every array a reader returns, as dtype and bytes; or its error's type,
    line and message."""
    try:
        result = read()
    except ValueError as exc:
        return type(exc), getattr(exc, "line", None), str(exc)
    if isinstance(result, WeatherSeries):
        result = (result.times, result.gh, result.dh, result.ev_global, result.ev_diffuse,
                  result.source)
    return [(a.dtype.str, a.tobytes()) for a in result]


def both_readers(path):
    """The outcome of the public reader and of the per-line reader on one
    file: the weather reader unless the header names a series."""
    weather = not path.read_bytes().startswith(b"timestamp,E_lux")
    public, rows = ((parse_weather_csv, sidelux_io._weather_rows) if weather
                    else (parse_series_csv, sidelux_io._series_rows))
    with mock.patch.object(sidelux_io, "WeatherSeries", _Recorded):
        return (_outcome(lambda: public(path)),
                _outcome(lambda: rows(path.read_text(encoding="utf-8").splitlines())))


def is_plain(path) -> bool:
    """Whether a file is read in array passes."""
    return sidelux_io._plain_table(path.read_bytes()) is not None


W3 = "timestamp,Gh_Wm2,Dh_Wm2\n"
W5 = "timestamp,Gh_Wm2,Dh_Wm2,Evg_lux,Evd_lux\n"
S2 = "timestamp,E_lux\n"
# Files the other tests read, as text: each is read the same by both paths.
EXISTING = [
    W3 + "2009-03-21T12:00,500,100\n",
    W3 + "2009-03-21T12:00,100,500\n",
    W3 + "2009-07-01T12:00,500,100\n2009-07-01T12:01,-5,600\n2009-07-01T12:00,1600,100\n",
    W3 + "2009-07-01T11:59,500,100\n2009-07-01T12:00+04:00,500,100\n",
    W5 + "2009-03-21T12:00,500,100,49200,12000\n",
    W3 + "2009-03-21T12:00,500.25,100.125\n2009-03-21T12:01,501.5,99.875\n",
    W3 + "2009-03-21T12:00:00,500.25,100.125\n2009-03-21T12:01:00,501.5,99.875\n",
    W5 + "2009-03-21T12:00:00,500.0,100.0,49200.0,12000.0\n"
         "2009-03-21T12:01:00,400.0,90.0,40000.0,11000.0\n",
    W5 + "2009-03-21T12:00,500.25,100.125,49200.5,12000.25\n"
         "2009-03-21T12:01,501.5,99.875,49300.0,11900.0\n",
    W5 + "1985-03-21T12:00,500,100,49200,12000\n",
    *(W5 + f"2009-07-01T12:00,{row}\n" for row in ("nan,0,49200,12000", "500,nan,49200,12000",
                                                   "500,100,inf,12000", "500,100,49200,nan")),
    *(W3 + body for body in ("not-a-time,500,100\n", "2009-03-21T12:00,abc,100\n",
                             "2009-03-21T12:00,500\n", "2009-03-21T12:00,500,100,49200\n",
                             "2009-03-21T12:00,500,100\n2009-03-21T12:00,500,100\n",
                             "2009-03-21T12:01,500,100\n2009-03-21T12:00,500,100\n",
                             "2009-03-21T12:00,-5,0\n", "2009-03-21T12:00,1600,100\n")),
    "time,G,D\n2009-03-21T12:00,500,100\n",
    "",
    S2 + "2009-03-21T12:00,123.5\n",
    S2 + "2009-03-21T12:00\n",
    *(S2 + f"2009-03-21T12:00,1\n2009-03-21T12:01,{v}\n" for v in ("nan", "inf", "-inf")),
    S2 + "2009-07-01T12:00+04:00,1\n",
    S2 + "".join(f"2009-03-21T10:{m:02d}:00,{100.0 + m}\n" for m in range(10)),
    S2 + "2009-03-21T10:00,100.0\n2009-03-21T10:01,nan\n2009-03-21T10:02,100.0\n",
    S2 + "2009-03-21T10:00,100.0\n2009-03-21T10:01+04:00,100.0\n2009-03-21T10:02,100.0\n",
]
ROW = "2009-07-01T12:00,500,100"
NEXT = "2009-07-01T12:01,500,100"
ADVERSARIAL = [
    # line ends and blank lines
    W3 + ROW + "\r\n" + NEXT + "\r\n",
    W3 + ROW + "\r" + NEXT + "\n",
    W3 + ROW + "\x85" + NEXT + "\n",
    W3 + ROW + "\u2028" + NEXT + "\n",
    W3 + ROW + "\x1c" + NEXT + "\n",
    W3 + ROW + "\n\n" + NEXT + "\n",
    W3 + ROW + "\n" + NEXT + "\n\n",
    W3 + ROW + "\n   \n" + NEXT + "\n",
    W3 + ROW + "\n" + NEXT,
    W3,
    W3.rstrip("\n"),
    "\n" + ROW + "\n",
    "\ufeff" + W3 + ROW + "\n",
    # other timestamp forms
    *(W3 + f"{stamp},500,100\n" for stamp in (
        "2009-07-01", "2009-07-01 12:00", "20090701T1200", "2009-07-01T12:00:00.5",
        "2009-07-01T12", "2009-07-01T12:00:00.000000", " 2009-07-01T12:00",
        "2009-07-01T12:00 ", "2009-07-01t12:00", "2009/07/01T12:00", "2009-07-01T12-00",
        "+009-07-01T12:00", "2009-07-01T1:000", "2009-07-01T12:0a")),
    W3 + ROW + "\n2009-07-01T12:01:00,500,100\n",
    W3 + "2009-07-01T12:00:00,500,100\n" + NEXT + "\n",
    # time-zone suffixes
    W3 + "2009-07-01T12:00Z,500,100\n",
    W3 + "2009-07-01T12:00+04:00,500,100\n",
    W3 + "2009-07-01T12:00:00-03:00,500,100\n",
    # impossible and edge dates and times
    *(W3 + f"{stamp},500,100\n" for stamp in (
        "2009-02-29T12:00", "2008-02-29T12:00", "1900-02-29T12:00", "2000-02-29T12:00",
        "2009-04-31T12:00", "2009-04-30T12:00", "2009-07-01T24:00", "2009-07-01T12:60",
        "2009-07-01T12:00:60", "2009-07-01T23:59:59", "0000-01-01T00:00", "0001-01-01T00:00",
        "9999-12-31T23:59", "2009-13-01T12:00", "2009-00-10T12:00", "2009-07-00T12:00",
        "2009-12-32T12:00", "1969-12-31T23:59", "1970-01-01T00:00")),
    # values
    *(W3 + f"2009-07-01T12:00,{gh},{dh}\n" for gh, dh in (
        ("1_000", "100"), (" 5 ", "1"), ("5", " 1"), ("nan", "1"), ("inf", "1"), ("1e400", "1"),
        ("500", "1e-400"), ("-0", "0"), ("+5", ".5"), ("5.", "1e0"), ("1E2", "5e+1"),
        ("1__0", "1"), ("0x10", "1"), ("abc", "1"), ("", "1"), ("5", ""), ("\t5", "1"),
        ("5\x00", "1"), ("\uff15", "1"), ("5\u00a0", "1"), ("0" * 40 + "5", "1"),
        ("Infinity", "1"), ("-nan", "1"), ("5 5", "1"))),
    W3 + ROW + ",\n",
    W3 + "2009-07-01T12:00,500,,100\n",
    W3 + "2009-07-01T12:00,500\n" + NEXT + ",7\n",
    W3 + ROW + "\n" + NEXT + ",\n",
    "timestamp, Gh_Wm2 ,Dh_Wm2\n" + ROW + "\n",
    "timestamp,Gh_Wm2\n2009-07-01T12:00,500\n",
    W5 + "2009-07-01T12:00,500,100,nan,1\n",
    W5 + "2009-07-01T12:00,500,100,1,-1\n",
    W5 + "2009-07-01T12:00,500,100,1\n",
    *(S2 + f"2009-07-01T12:00,{v}\n" for v in ("1_000", " 5 ", "nan", "inf", "-inf", "1e400",
                                               "-1e400", "", "x", "1,2", "5\x00")),
    S2 + "2009-07-01T12:00,1\n2009-07-01T12:01,nan\n2009-07-01T12:02,x\n",
    S2 + "2009-07-01T12:00,1\n2009-07-01T12:01,x\n2009-07-01T12:02,nan\n",
    S2 + "2009-07-01T12:00,nan\n2009-07-01T24:00,1\n",
    S2 + "2009-07-01T12:00,1\n2009-07-01T12:00,1\n2009-07-01T11:00,1\n",
    "timestamp,E_lux,x\n2009-07-01T12:00,1,2\n",
    "time,E_lux\n2009-07-01T12:00,1\n",
]
# Inputs of both shapes that must take the array path, so that the gate
# compares two readers and not one reader with itself.
PLAIN = [
    W3 + ROW + "\n" + NEXT + "\n",
    W3 + ROW + "\n" + NEXT,
    W3 + "2009-03-21T12:00:00,500.25,100.125\n2009-03-21T12:01:00,501.5,99.875\n",
    W5 + "2009-03-21T12:00,500.25,100.125,49200.5,12000.25\n",
    W3 + "2008-02-29T12:00,500,100\n2009-07-01T12:00,1_000, 5 \n",
    W3 + "2009-07-01T12:00,nan,inf\n",
    W3 + "2009-07-01T12:01,500,100\n2009-07-01T12:00,500,100\n",
    "time,G,D\n2009-03-21T12:00,500,100\n",
    S2 + "2009-03-21T10:00:00,100.0\n2009-03-21T10:01:00,101.0\n",
]


class TestArrayPath:
    """Plain files are read in array passes; the per-line reader is the
    reference and reads every other file."""

    @pytest.mark.parametrize("text", EXISTING + ADVERSARIAL,
                             ids=[f"existing{i}" for i in range(len(EXISTING))]
                             + [f"adversarial{i}" for i in range(len(ADVERSARIAL))])
    def test_both_readers_agree(self, tmp_path, text):
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode("utf-8"))
        public, rows = both_readers(path)
        assert public == rows

    @pytest.mark.parametrize("text", PLAIN, ids=[f"plain{i}" for i in range(len(PLAIN))])
    def test_plain_files_take_the_array_path(self, tmp_path, text):
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode("utf-8"))
        assert is_plain(path)

    @pytest.mark.parametrize("text", [ADVERSARIAL[0], ADVERSARIAL[5], W3 + "2009-07-01,500,100\n",
                                      W3 + "2009-02-29T12:00,500,100\n",
                                      W3 + "2009-07-01T12:00,abc,100\n"])
    def test_other_files_take_the_per_line_path(self, tmp_path, text):
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode("utf-8"))
        assert not is_plain(path)

    def test_a_day_of_minutes_is_read_the_same(self, tmp_path):
        path = overcast_day_csv(tmp_path / "day.csv")
        assert is_plain(path)
        public, rows = both_readers(path)
        assert public == rows and len(public[0][1]) == 1440 * 8

    def test_source_lines_count_from_two(self, tmp_path):
        path = write(tmp_path, W3 + ROW + "\n" + NEXT + "\n")
        with mock.patch.object(sidelux_io, "WeatherSeries", _Recorded):
            assert parse_weather_csv(path).source.tolist() == [2, 3]


@settings(max_examples=300, deadline=None)
@given(st.datetimes(datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59, 59, 999999)))
def test_epoch_micros_is_the_timedelta_quotient(ts):
    """The per-line readers' integer conversion equals the exact quotient
    ``(ts - 1970-01-01) // 1 µs`` it replaces, before 1970 too."""
    assert sidelux_io._epoch_micros(ts) == (ts - datetime(1970, 1, 1)) // timedelta(microseconds=1)


PERTURBING = "0123456789-:T ,.+eE_nafiZz\t\r\n\x00\x1c\x85\u2028\u00e9"


@st.composite
def plain_files(draw):
    """A plain weather (three or five columns) or series file, as lines."""
    kind = draw(st.sampled_from([W3, W5, S2]))
    seconds = draw(st.booleans())
    when = draw(st.datetimes(datetime(1, 1, 1), datetime(9998, 12, 31))).replace(microsecond=0)
    if not seconds:
        when = when.replace(second=0)
    form = draw(st.sampled_from(["{:.2f}", "{!r}", "{:g}", "{:.0f}", "{:.3e}"]))
    lines = [kind.rstrip("\n")]
    for _ in range(draw(st.integers(1, 8))):
        when += timedelta(minutes=draw(st.integers(1, 100_000)))
        gh = draw(st.floats(0.0, 1500.0))
        values = ([draw(st.floats(-1e6, 1e6))] if kind == S2 else
                  [gh, gh * draw(st.floats(0.0, 1.0))] + [draw(st.floats(0.0, 1e5))
                                                          for _ in range(2 * (kind == W5))])
        lines.append(",".join([when.isoformat(timespec="seconds" if seconds else "minutes"),
                               *(form.format(v) for v in values)]))
    return lines


@settings(max_examples=300, deadline=None)
@given(lines=plain_files(), data=st.data())
def test_one_perturbed_row_is_read_the_same_by_both_readers(tmp_path_factory, lines, data):
    path = tmp_path_factory.mktemp("perturbed") / "in.csv"
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    assert is_plain(path)
    public, rows = both_readers(path)
    assert public == rows
    row = data.draw(st.integers(1, len(lines) - 1))
    text = lines[row] + "\n"
    at = data.draw(st.integers(0, len(text) - 1))
    char = data.draw(st.sampled_from(PERTURBING))
    op = data.draw(st.sampled_from(["replace", "insert", "delete"]))
    text = text[:at] + {"replace": char, "insert": char + text[at], "delete": ""}[op] + text[at + 1:]
    path.write_bytes(("\n".join(lines[:row]) + "\n" + text
                      + "".join(line + "\n" for line in lines[row + 1:])).encode("utf-8"))
    public, rows = both_readers(path)
    assert public == rows


class TestBuilding:
    def test_canonical_values(self):
        b = parse_building(DATA / "reference_room.json")
        assert b.location.latitude == -21.34
        assert b.location.albedo == 0.7
        assert b.workplane_cell == 0.1
        assert b.workplane_height == 0.01
        assert b.room.optics.floor == 0.2
        assert b.room.optics.walls == 0.6
        ap = b.room.apertures[0]
        assert (ap.mg, ap.fr, ap.mf, ap.tau) == (0.8, 0.8, 0.9, 0.9)
        assert b.efficacy.kd == 120.0 and b.efficacy.kb == 93.0
        assert b.patch_scope == "patch"
        assert b.room.s_t == pytest.approx(13.65)

    def _patched(self, tmp_path, mutate):
        data = json.loads((DATA / "reference_room.json").read_text())
        mutate(data)
        p = tmp_path / "b.json"
        p.write_text(json.dumps(data), encoding="utf-8")
        return p

    def test_reflectance_out_of_range(self, tmp_path):
        def mutate(d):
            d["room"]["surfaces"][0]["reflectance"] = 1.2

        with pytest.raises(ConfigError) as err:
            parse_building(self._patched(tmp_path, mutate))
        assert "reflectance" in str(err.value)

    def test_window_on_no_wall(self, tmp_path):
        def mutate(d):
            d["room"]["apertures"][0]["vertices"] = [
                [1.45, 2.0, 1.0], [2.45, 2.0, 1.0], [2.45, 2.0, 2.0], [1.45, 2.0, 2.0]
            ]

        with pytest.raises(GeometryError):
            parse_building(self._patched(tmp_path, mutate))

    def test_missing_required_field(self, tmp_path):
        def mutate(d):
            del d["location"]["albedo"]

        with pytest.raises(ConfigError) as err:
            parse_building(self._patched(tmp_path, mutate))
        assert "albedo" in str(err.value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("path,name", [
        (("location", "lat"), "location.lat"),
        (("location", "lon"), "location.lon"),
        (("location", "tz"), "location.tz"),
        (("location", "albedo"), "location.albedo"),
        (("room", "height"), "room.height"),
        (("workplane", "cell"), "workplane.cell"),
        (("workplane", "height"), "workplane.height"),
        (("room", "apertures", 0, "tau_vitre"), "room.apertures[0].tau_vitre"),
        (("room", "floor_vertices", 2, 1), "room.floor_vertices[2].y"),
    ])
    def test_non_finite_number_names_its_field(self, tmp_path, path, name, value):
        def mutate(d):
            for key in path[:-1]:
                d = d[key]
            d[path[-1]] = value

        with pytest.raises(ConfigError,
                           match=rf"^{re.escape(name)}: {value} is not a finite number$"):
            parse_building(self._patched(tmp_path, mutate))

    @pytest.mark.parametrize("path,value,message", [
        ((), 5, r"building: expected an object"),
        (("room",), [1], r"room: expected an object"),
        (("location",), "north", r"location: expected an object"),
        (("room", "surfaces"), 5, r"room.surfaces: expected a list"),
        (("room", "surfaces"), [5], r"room.surfaces\[0\]: expected an object"),
        (("room", "apertures"), [3], r"room.apertures\[0\]: expected an object"),
        (("obstructions",), [7], r"obstructions\[0\]: expected an object"),
        (("efficacy",), 3, r"efficacy: expected an object"),
        (("room", "height"), 10**400, r"room.height: 10{400} is not a number"),
    ], ids=["top", "room", "location", "surfaces", "surface", "aperture", "obstruction",
            "efficacy", "huge-int"])
    def test_node_of_wrong_type_names_its_path(self, tmp_path, path, value, message):
        def mutate(d):
            for key in path[:-1]:
                d = d[key]
            d[path[-1]] = value

        p = self._patched(tmp_path, mutate) if path else tmp_path / "b.json"
        if not path:
            p.write_text(json.dumps(value), encoding="utf-8")
        with pytest.raises(ConfigError, match=f"^{message}$"):
            parse_building(p)

    @pytest.mark.parametrize("key,value,message", [
        ("lat", 100, "latitude 100.0 out of [-90, 90]"),
        ("lat", -90.5, "latitude -90.5 out of [-90, 90]"),
        ("lon", 181, "longitude 181.0 out of [-180, 180]"),
        ("albedo", 1.5, "albedo 1.5 out of [0, 1]"),
        ("albedo", -0.1, "albedo -0.1 out of [0, 1]"),
        ("tz", 1000, "timezone 1000.0 out of [-12, 14]"),
    ])
    def test_site_out_of_range_names_the_location(self, tmp_path, key, value, message):
        def mutate(d):
            d["location"][key] = value

        with pytest.raises(ConfigError, match=f"^location: {re.escape(message)}$"):
            parse_building(self._patched(tmp_path, mutate))

    @pytest.mark.parametrize("path,key,where", [
        ((), "patch_scop", "building"),
        (("location",), "timezone", "location"),
        (("room",), "width", "room"),
        (("room", "surfaces", 1), "colour", "room.surfaces[1]"),
        (("room", "apertures", 0), "tau_vitr", "room.apertures[0]"),
        (("obstructions", 0), "height", "obstructions[0]"),
        (("workplane",), "size", "workplane"),
        (("efficacy",), "kd", "efficacy"),
    ])
    def test_unknown_field_names_its_path(self, tmp_path, path, key, where):
        """A misspelt field is an error, not a silent default."""
        def mutate(d):
            d["obstructions"] = [{"vertices": [[-5, 6, 0], [10, 6, 0], [10, 6, 6], [-5, 6, 6]]}]
            for k in path:
                d = d[k]
            d[key] = 0.1

        with pytest.raises(ConfigError, match=rf"^{re.escape(where)}: unknown field '{key}'$"):
            parse_building(self._patched(tmp_path, mutate))

    def test_building_fields_are_pinned(self):
        """Every field a building file may set: 22 that hold values, 7 that
        hold objects. A new field fails this test, so the change that adds
        one has to edit this table and say why."""
        assert BUILDING_FIELDS == {
            "building": ("location", "room", "obstructions", "workplane", "efficacy",
                         "patch_scope"),
            "location": ("lat", "lon", "tz", "albedo"),
            "room": ("floor_vertices", "height", "surfaces", "apertures"),
            "room.surfaces[]": ("role", "reflectance"),
            "room.apertures[]": ("vertices", "tau_vitre", "MF", "FR", "MG", "FC"),
            "obstructions[]": ("vertices", "luminance_fraction"),
            "workplane": ("cell", "height"),
            "efficacy": ("mode", "Kd", "Kb"),
        }
        objects = len(BUILDING_FIELDS) - 1  # every object but the file is a field of another
        assert sum(map(len, BUILDING_FIELDS.values())) - objects == 22

    def test_duplicate_role_names_its_path(self, tmp_path):
        """A role listed twice is an error, not last-one-wins."""
        def mutate(d):
            d["room"]["surfaces"].append({"role": "floor", "reflectance": 0.3})

        with pytest.raises(ConfigError, match=r"^room\.surfaces\[3\]\.role: duplicate role 'floor'$"):
            parse_building(self._patched(tmp_path, mutate))

    @pytest.mark.parametrize("vertices,message", [
        ([[1.0, 2.0, 1.0], [2.0, 2.0, 1.0], [2.0, 2.0, 2.0], [1.0, 2.0, 2.0]],
         "aperture does not lie on any wall of the floor outline"),
        ([[0.0, 1.0, 2.0], [0.0, 2.0, 2.0], [0.0, 2.0, 3.0], [0.0, 1.0, 3.0]],
         "aperture extends beyond the wall height"),
        ([[1.45, 3.5, 1.0], [2.45, 3.5, 1.0], [2.45, 3.5, 2.0], [1.45, 3.5, 2.0]],
         "overlaps room.apertures[0] on the same wall"),
    ], ids=["off-wall", "too-tall", "overlap"])
    def test_misplaced_aperture_names_its_path(self, tmp_path, vertices, message):
        def mutate(d):
            d["room"]["apertures"].append({"vertices": vertices})

        with pytest.raises(GeometryError, match=rf"^room\.apertures\[1\]: {re.escape(message)}$"):
            parse_building(self._patched(tmp_path, mutate))

    @pytest.mark.parametrize("key,value,error,message", [
        ("height", 0.0, ConfigError, "room.height: 0.0 must be positive"),
        ("surfaces", [{"role": r, "reflectance": 1.0} for r in ("floor", "walls", "ceiling")],
         ConfigError, "room.surfaces: mean reflectance >= 0.99: inter-reflection diverges"),
        ("floor_vertices", [[0, 0, 0], [3.9, 0, 0], [3.9, 3.5, 1], [0, 3.5, 1]],
         GeometryError, "room.floor_vertices: floor polygon must be horizontal"),
    ], ids=["height", "reflectance", "tilted-floor"])
    def test_room_error_names_its_path(self, tmp_path, key, value, error, message):
        def mutate(d):
            d["room"][key] = value

        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            parse_building(self._patched(tmp_path, mutate))

    def test_bad_patch_scope(self, tmp_path):
        def mutate(d):
            d["patch_scope"] = "everywhere"

        with pytest.raises(ConfigError):
            parse_building(self._patched(tmp_path, mutate))

    def test_bad_json_is_parse_error(self, tmp_path):
        p = tmp_path / "b.json"
        p.write_text("{not json", encoding="utf-8")
        with pytest.raises(ParseError):
            parse_building(p)

    def test_obstruction_parsed(self, tmp_path):
        def mutate(d):
            d["obstructions"] = [{
                "vertices": [[-5, 6.0, 0], [10, 6.0, 0], [10, 6.0, 6], [-5, 6.0, 6]],
                "luminance_fraction": 0.3,
            }]

        b = parse_building(self._patched(tmp_path, mutate))
        assert len(b.room.obstructions) == 1
        assert b.room.obstructions[0].luminance_fraction == 0.3

    def test_bad_obstruction_fraction(self, tmp_path):
        def mutate(d):
            d["obstructions"] = [{
                "vertices": [[-5, 6.0, 0], [10, 6.0, 0], [10, 6.0, 6], [-5, 6.0, 6]],
                "luminance_fraction": 1.5,
            }]

        with pytest.raises(ConfigError):
            parse_building(self._patched(tmp_path, mutate))

    def test_l_shaped_floor_decomposed(self, tmp_path):
        def mutate(d):
            d["room"]["floor_vertices"] = [
                [0, 0, 0], [4, 0, 0], [4, 2, 0], [2, 2, 0], [2, 4, 0], [0, 4, 0]
            ]
            d["room"]["apertures"][0]["vertices"] = [
                [1.0, 0, 1.0], [2.0, 0, 1.0], [2.0, 0, 2.0], [1.0, 0, 2.0]
            ]

        b = parse_building(self._patched(tmp_path, mutate))
        assert len(b.room.parts) > 1
        assert b.room.s_t == pytest.approx(12.0)


class TestResultWriters:
    def test_field_file_block(self, tmp_path):
        grid = workplane_grid_for_parts(np.array([[(0, 0), (1, 0), (1, 1), (0, 1)]], dtype=float),
                                        0.0, 0.5, 0.0)
        path = tmp_path / "field.txt"
        write_field_file(path, grid, np.full(4, 100.0), "2009-03-21T12:00")
        text = path.read_text()
        lines = text.splitlines()
        assert lines[0] == "# 2 2 2009-03-21T12:00"
        assert lines[1] == "100.000 100.000"
        assert lines[2] == "100.000 100.000"

    def test_summary_and_determinism(self, tmp_path, coarse_sim):
        start = datetime(2009, 7, 15, 10, 0)
        weather = WeatherSeries([start + timedelta(minutes=m) for m in range(5)],
                                [300.0] * 5, [300.0] * 5)
        res = coarse_sim.run(weather, probes=[(1.95, 1.27)], field_at=[start])
        paths1 = write_results(res, tmp_path / "runA")
        paths2 = write_results(res, tmp_path / "runB")
        assert len(paths1) == 2
        summary = paths1[0].read_text().splitlines()
        assert summary[0] == "timestamp,E_out_G_lux,E_out_dif_lux,E_out_Dir_S_lux,S_TS_m2,E_glo_p1_lux"
        assert len(summary) == 6
        assert paths1[0].read_text() == paths2[0].read_text()
        assert paths1[1].read_text() == paths2[1].read_text()

    def test_summary_without_probes(self, tmp_path, coarse_sim):
        start = datetime(2009, 7, 15, 10, 0)
        res = coarse_sim.run(WeatherSeries([start], [300.0], [300.0]))
        paths = write_results(res, tmp_path / "run")
        header = paths[0].read_text().splitlines()[0]
        assert header == "timestamp,E_out_G_lux,E_out_dif_lux,E_out_Dir_S_lux,S_TS_m2"

    def test_summary_rows_match_per_value_format(self, tmp_path):
        """The summary is written one format operation per row and a block
        of rows at a time; its text is that of formatting every value on
        its own with six significant digits."""
        rng = np.random.default_rng(5)
        n = 9000
        start = datetime(2009, 7, 1, 0, 0, 30)
        values = rng.lognormal(4.0, 6.0, (n, 7)) * (rng.random((n, 7)) < 0.8)
        values[:12, 0] = [0.0, -0.0, 1e-12, 3.6e-12, 99999.95, 999999.5, 0.1 + 0.2,
                          123456789.0, 5e-324, 1e300, 12345.65, 0.5]
        result = PeriodResult(
            timestamps=np.datetime64(start, "us") + np.arange(n) * np.timedelta64(7, "m"),
            outdoor_global=values[:, 0], outdoor_diffuse=values[:, 1],
            outdoor_direct=values[:, 2], patch_area=values[:, 3],
            probe_points=((1.0, 1.0), (2.0, 2.0), (3.0, 3.0)), probe_names=("p1", "p2", "p3"),
            probe_global=values[:, 4:],
        )
        [path] = write_results(result, tmp_path / "run")
        lines = path.read_text(encoding="utf-8").split("\n")
        assert lines[0] == ("timestamp,E_out_G_lux,E_out_dif_lux,E_out_Dir_S_lux,S_TS_m2,"
                            "E_glo_p1_lux,E_glo_p2_lux,E_glo_p3_lux")
        assert lines[-1] == ""
        assert lines[1:-1] == [
            ",".join([ts.isoformat()] + [f"{v:#.6g}" for v in row])
            for ts, row in zip(result.timestamps.tolist(), values)
        ]

    @pytest.mark.parametrize("start", [datetime(2009, 7, 15, 10, 0, 30),
                                       datetime(2009, 7, 15, 10, 0, 30, 250)])
    def test_summary_timestamps_are_isoformat(self, tmp_path, coarse_sim, start):
        weather = WeatherSeries([start + timedelta(minutes=m) for m in range(4)],
                                [300.0] * 4, [300.0] * 4)
        [path] = write_results(coarse_sim.run(weather), tmp_path / "run")
        stamps = [line.split(",")[0] for line in path.read_text().splitlines()[1:]]
        assert stamps == [(start + timedelta(minutes=m)).isoformat() for m in range(4)]

    def test_mixed_missing_illuminance_rejected(self, tmp_path):
        weather = WeatherSeries([datetime(2009, 1, 1, 12), datetime(2009, 1, 1, 13)],
                                [100.0, 100.0], [50.0, 50.0], [10000.0, np.nan],
                                [6000.0, np.nan])
        with pytest.raises(DataError):
            write_weather_csv(weather, tmp_path / "w.csv")
