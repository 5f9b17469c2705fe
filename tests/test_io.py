import json
import re
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

from sidelux.errors import ConfigError, DataError, GeometryError, ParseError
from sidelux.daylight import PeriodResult
from sidelux.geometry import Polygon3, make_workplane_grid
from sidelux.io import (
    parse_building,
    parse_series_csv,
    parse_tmy2_subset,
    parse_weather_csv,
    write_field_file,
    write_results,
    write_weather_csv,
)
from sidelux.solar import WeatherRecord

DATA = Path(__file__).parent / "data"


def write(tmp_path, text, name="weather.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestWeatherCsv:
    def test_basic_row(self, tmp_path):
        p = write(tmp_path, "timestamp,Gh_Wm2,Dh_Wm2\n2009-03-21T12:00,500,100\n")
        recs = parse_weather_csv(p)
        assert len(recs) == 1
        assert recs[0].gh == 500.0 and recs[0].dh == 100.0
        assert recs[0].ev_global is None

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
        recs = parse_weather_csv(p)
        assert recs[0].ev_global == 49200.0
        assert recs[0].ev_diffuse == 12000.0

    def test_roundtrip_exact(self, tmp_path):
        src = write(
            tmp_path,
            "timestamp,Gh_Wm2,Dh_Wm2\n"
            "2009-03-21T12:00,500.25,100.125\n"
            "2009-03-21T12:01,501.5,99.875\n",
        )
        recs = parse_weather_csv(src)
        out = tmp_path / "again.csv"
        write_weather_csv(recs, out)
        assert parse_weather_csv(out) == recs

    def test_roundtrip_with_illuminance(self, tmp_path):
        recs = [
            WeatherRecord(datetime(2009, 3, 21, 12, 0), 500.0, 100.0, 49200.0, 12000.0),
            WeatherRecord(datetime(2009, 3, 21, 12, 1), 400.0, 90.0, 40000.0, 11000.0),
        ]
        out = tmp_path / "w.csv"
        write_weather_csv(recs, out)
        assert parse_weather_csv(out) == recs

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
        assert parse_tmy2_subset(t2) == parse_weather_csv(csv)

    def test_missing_illuminance_sentinel(self, tmp_path):
        ts = datetime(1985, 3, 21, 12, 0)
        t2 = write(tmp_path, TMY2_HEADER + "\n" + tmy2_line(ts, 500, 100) + "\n", name="s.tm2")
        recs = parse_tmy2_subset(t2)
        assert recs[0].ev_global is None and recs[0].ev_diffuse is None

    def test_truncated_line(self, tmp_path):
        t2 = write(tmp_path, TMY2_HEADER + "\n 8503211" + "\n", name="s.tm2")
        with pytest.raises(ParseError) as err:
            parse_tmy2_subset(t2)
        assert err.value.line == 2

    def test_hour_24_maps_to_23(self, tmp_path):
        line = tmy2_line(datetime(1985, 3, 21, 23, 0), 0, 0)
        t2 = write(tmp_path, TMY2_HEADER + "\n" + line + "\n", name="s.tm2")
        assert parse_tmy2_subset(t2)[0].timestamp == datetime(1985, 3, 21, 23, 0)

    def test_nominal_year_applied_to_all_records(self, tmp_path):
        a = tmy2_line(datetime(1985, 1, 1, 12, 0), 100, 50)
        b = tmy2_line(datetime(1977, 2, 1, 12, 0), 100, 50)  # different source year
        t2 = write(tmp_path, TMY2_HEADER + "\n" + a + "\n" + b + "\n", name="s.tm2")
        recs = parse_tmy2_subset(t2)
        assert [r.timestamp.year for r in recs] == [1985, 1985]


class TestSeriesCsv:
    def test_basic(self, tmp_path):
        p = write(tmp_path, "timestamp,E_lux\n2009-03-21T12:00,123.5\n", name="s.csv")
        ts, v = parse_series_csv(p)
        assert ts == [datetime(2009, 3, 21, 12, 0)]
        assert v[0] == 123.5

    def test_malformed(self, tmp_path):
        p = write(tmp_path, "timestamp,E_lux\n2009-03-21T12:00\n", name="s.csv")
        with pytest.raises(ParseError) as err:
            parse_series_csv(p)
        assert err.value.line == 2


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
        grid = make_workplane_grid(
            Polygon3([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)]), 0.5, 0.0
        )
        path = tmp_path / "field.txt"
        write_field_file(path, grid, np.full(4, 100.0), "2009-03-21T12:00")
        text = path.read_text()
        lines = text.splitlines()
        assert lines[0] == "# 2 2 2009-03-21T12:00"
        assert lines[1] == "100.000 100.000"
        assert lines[2] == "100.000 100.000"

    def test_summary_and_determinism(self, tmp_path, coarse_sim):
        start = datetime(2009, 7, 15, 10, 0)
        records = [
            WeatherRecord(start + timedelta(minutes=m), 300.0, 300.0) for m in range(5)
        ]
        res = coarse_sim.run(records, probes=[(1.95, 1.27)], field_at=[start])
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
        records = [WeatherRecord(start, 300.0, 300.0)]
        res = coarse_sim.run(records)
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
            timestamps=[start + timedelta(minutes=7 * i) for i in range(n)],
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
            for ts, row in zip(result.timestamps, values)
        ]

    def test_mixed_missing_illuminance_rejected(self, tmp_path):
        recs = [
            WeatherRecord(datetime(2009, 1, 1, 12), 100.0, 50.0, 10000.0, 6000.0),
            WeatherRecord(datetime(2009, 1, 1, 13), 100.0, 50.0),
        ]
        with pytest.raises(DataError):
            write_weather_csv(recs, tmp_path / "w.csv")
