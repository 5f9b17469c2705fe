from datetime import datetime, timedelta
from pathlib import Path

import pytest

from conftest import BUILDING_JSON, overcast_day_csv
from sidelux.cli import main


def series_csv(path, rows):
    lines = ["timestamp,E_lux"] + [f"{ts.isoformat()},{v}" for ts, v in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestSimulate:
    def test_one_overcast_day_minute_steps(self, tmp_path, building_file, capsys):
        weather = overcast_day_csv(tmp_path / "day.csv")
        out = tmp_path / "run"
        code = main([
            "simulate", "--building", str(building_file), "--weather", str(weather),
            "--out", str(out), "--probes", "1.95,1.27;1.95,2.27",
        ])
        assert code == 0
        lines = Path(f"{out}_summary.csv").read_text().splitlines()
        assert len(lines) == 1441  # header + one row per minute
        assert capsys.readouterr().err.strip()  # one-line run summary on stderr

    def test_field_at_writes_detail_file(self, tmp_path, building_file):
        weather = overcast_day_csv(tmp_path / "day.csv")
        out = tmp_path / "run"
        code = main([
            "simulate", "--building", str(building_file), "--weather", str(weather),
            "--out", str(out), "--field-at", "2009-03-21T12:00",
        ])
        assert code == 0
        field = Path(f"{out}_field_20090321T1200.txt")
        assert field.exists()
        assert field.read_text().startswith("# 7 7 2009-03-21T12:00")

    def test_missing_weather_file(self, tmp_path, building_file, capsys):
        code = main([
            "simulate", "--building", str(building_file),
            "--weather", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "run"),
        ])
        assert code == 2
        assert "weather file not found" in capsys.readouterr().err

    def test_tmy2_input_with_hourly_steps(self, tmp_path, building_file):
        from datetime import datetime as dt

        from test_io import TMY2_HEADER, tmy2_line

        lines = [TMY2_HEADER] + [
            tmy2_line(dt(1985, 3, 21, h, 0), 400, 150) for h in (10, 11, 12)
        ]
        weather = tmp_path / "site.tm2"
        weather.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "run"
        code = main([
            "simulate", "--building", str(building_file), "--weather", str(weather),
            "--out", str(out), "--step", "60",
        ])
        assert code == 0
        lines = Path(f"{out}_summary.csv").read_text().splitlines()
        assert len(lines) == 4  # header + three hourly rows

    def test_start_end_window(self, tmp_path, building_file):
        weather = overcast_day_csv(tmp_path / "day.csv")
        out = tmp_path / "run"
        code = main([
            "simulate", "--building", str(building_file), "--weather", str(weather),
            "--out", str(out), "--start", "2009-03-21T10:00", "--end", "2009-03-21T11:00",
        ])
        assert code == 0
        lines = Path(f"{out}_summary.csv").read_text().splitlines()
        assert len(lines) == 61


class TestValidate:
    def test_identical_series(self, tmp_path, capsys):
        t0 = datetime(2009, 3, 21, 10, 0)
        rows = [(t0 + timedelta(minutes=m), 100.0 + m) for m in range(10)]
        sim = series_csv(tmp_path / "sim.csv", rows)
        ref = series_csv(tmp_path / "ref.csv", rows)
        code = main(["validate", str(sim), str(ref)])
        assert code == 0
        out = capsys.readouterr().out
        assert "RMSD\t0" in out
        assert "RSD_pct\t100" in out

    def test_margin_mode_counts(self, tmp_path, capsys):
        t0 = datetime(2009, 3, 21, 10, 0)
        ref_rows = [(t0 + timedelta(minutes=m), 100.0) for m in range(4)]
        sim_rows = [
            (t0, 105.0), (t0 + timedelta(minutes=1), 95.0),
            (t0 + timedelta(minutes=2), 100.0), (t0 + timedelta(minutes=3), 140.0),
        ]
        sim = series_csv(tmp_path / "sim.csv", sim_rows)
        ref = series_csv(tmp_path / "ref.csv", ref_rows)
        code = main(["validate", str(sim), str(ref), "--mode", "margin", "--error", "0.15"])
        assert code == 0
        assert "RSD_pct\t75" in capsys.readouterr().out

    def test_require_rsd_gate(self, tmp_path, capsys):
        t0 = datetime(2009, 3, 21, 10, 0)
        ref_rows = [(t0 + timedelta(minutes=m), 100.0 + m) for m in range(4)]
        sim_rows = [(ts, v * 1.6) for ts, v in ref_rows]  # 60% error -> RSD 40
        sim = series_csv(tmp_path / "sim.csv", sim_rows)
        ref = series_csv(tmp_path / "ref.csv", ref_rows)
        code = main(["validate", str(sim), str(ref), "--require-rsd", "50"])
        assert code == 1
        assert "below required" in capsys.readouterr().err

    def test_timestamp_mismatch_without_resample(self, tmp_path, capsys):
        t0 = datetime(2009, 3, 21, 10, 0)
        sim = series_csv(tmp_path / "sim.csv", [(t0, 1.0)])
        ref = series_csv(tmp_path / "ref.csv", [(t0 + timedelta(minutes=1), 1.0)])
        code = main(["validate", str(sim), str(ref)])
        assert code == 2
        assert "mismatch" in capsys.readouterr().err

    def test_resample_hourly_aligns(self, tmp_path, capsys):
        t0 = datetime(2009, 3, 21, 10, 0)
        sim_rows = [(t0 + timedelta(minutes=m), 100.0) for m in range(60)]
        ref_rows = [(t0 + timedelta(minutes=2 * m), 110.0) for m in range(30)]
        sim = series_csv(tmp_path / "sim.csv", sim_rows)
        ref = series_csv(tmp_path / "ref.csv", ref_rows)
        code = main(["validate", str(sim), str(ref), "--resample", "hourly"])
        assert code == 0
        assert "RSD_pct\t90.9091" in capsys.readouterr().out

    def test_report_to_file(self, tmp_path):
        t0 = datetime(2009, 3, 21, 10, 0)
        rows = [(t0 + timedelta(minutes=m), 100.0 + m) for m in range(4)]
        sim = series_csv(tmp_path / "sim.csv", rows)
        ref = series_csv(tmp_path / "ref.csv", rows)
        report = tmp_path / "report.tsv"
        code = main(["validate", str(sim), str(ref), "--out", str(report), "--name", "cell_a"])
        assert code == 0
        assert "cell_a\t" in report.read_text()


class TestDfmap:
    def test_positive_everywhere(self, tmp_path, building_file):
        out = tmp_path / "df.txt"
        code = main(["dfmap", "--building", str(building_file), "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# 7 7 DF_pct"
        values = [float(v) for row in lines[1:] for v in row.split()]
        assert all(v > 0.0 for v in values)

    def test_glazing_scaling_and_dirt_factor_doubling(self, tmp_path, building_file):
        import json

        from sidelux.daylight import Simulator
        from sidelux.io import parse_building

        base = parse_building(building_file)
        data = json.loads(building_file.read_text())

        data["room"]["apertures"][0]["MF"] = 0.45
        half = tmp_path / "half.json"
        half.write_text(json.dumps(data), encoding="utf-8")
        halved = parse_building(half)

        data["room"]["apertures"][0]["MF"] = 0.9
        data["room"]["apertures"][0]["tau_vitre"] = 1e-6
        dark = tmp_path / "dark.json"
        dark.write_text(json.dumps(data), encoding="utf-8")
        darkened = parse_building(dark)

        sims = {
            name: Simulator(b.room, b.location, cell=0.5, workplane_height=0.01)
            for name, b in (("base", base), ("half", halved), ("dark", darkened))
        }
        import numpy as np

        ratio = sims["base"].df / sims["half"].df
        assert np.allclose(ratio, 2.0, rtol=1e-12)
        assert int(np.argmax(sims["base"].df)) == int(np.argmax(sims["half"].df))
        assert sims["dark"].df.max() < 1e-6


class TestLocalTime:
    """Timestamps are local civil time: the building's tz already fixes their
    offset, so one written with a UTC offset is an input error."""

    def test_weather_with_utc_offset_exits_2(self, tmp_path, building_file, capsys):
        weather = tmp_path / "w.csv"
        weather.write_text("timestamp,Gh_Wm2,Dh_Wm2\n2009-07-01T12:00+04:00,500,100\n",
                           encoding="utf-8")
        code = main(["simulate", "--building", str(building_file), "--weather", str(weather),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert "line 2: timestamp '2009-07-01T12:00+04:00' has a UTC offset" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--start", "--end", "--field-at"])
    def test_option_with_utc_offset_exits_2(self, tmp_path, building_file, capsys, flag):
        weather = overcast_day_csv(tmp_path / "day.csv")
        code = main(["simulate", "--building", str(building_file), "--weather", str(weather),
                     "--out", str(tmp_path / "run"), flag, "2009-03-21T12:00+04:00"])
        assert code == 2
        assert "has a UTC offset" in capsys.readouterr().err


class TestNonFiniteInput:
    def test_simulate_nan_diffuse_exits_2(self, tmp_path, building_file, capsys):
        weather = tmp_path / "w.csv"
        weather.write_text("timestamp,Gh_Wm2,Dh_Wm2\n2009-07-01T12:00,500,nan\n",
                           encoding="utf-8")
        code = main(["simulate", "--building", str(building_file), "--weather", str(weather),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert "line 2: diffuse irradiance nan is not a finite number" in capsys.readouterr().err
        assert not (tmp_path / "run_summary.csv").exists()

    def test_dfmap_nan_height_exits_2(self, tmp_path, capsys):
        building = tmp_path / "b.json"
        text = (BUILDING_JSON % {"cell": "0.5"}).replace('"height": 2.8', '"height": NaN')
        building.write_text(text, encoding="utf-8")
        out = tmp_path / "df.txt"
        code = main(["dfmap", "--building", str(building), "--out", str(out)])
        assert code == 2
        assert "room.height: nan is not a finite number" in capsys.readouterr().err
        assert not out.exists()


class TestUsageErrors:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_internal_building_error_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}", encoding="utf-8")
        code = main(["dfmap", "--building", str(bad), "--out", str(tmp_path / "x.txt")])
        assert code == 2
        assert "error:" in capsys.readouterr().err
