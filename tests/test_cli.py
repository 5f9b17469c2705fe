import argparse
import json
from datetime import datetime, timedelta
from pathlib import Path

import pytest

from conftest import BUILDING_JSON, overcast_day_csv
from sidelux.cli import build_parser, main


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

    @pytest.mark.parametrize("step,rows", [(7, 206), (60, 24)])
    def test_coarse_steps_on_minute_weather(self, tmp_path, building_file, step, rows):
        """Without --end the run stops at the last sample: 00:00 to 23:59
        in 7- or 60-minute steps."""
        weather = overcast_day_csv(tmp_path / "day.csv")
        out = tmp_path / "run"
        code = main([
            "simulate", "--building", str(building_file), "--weather", str(weather),
            "--out", str(out), "--step", str(step),
        ])
        assert code == 0
        lines = Path(f"{out}_summary.csv").read_text().splitlines()
        assert len(lines) == rows + 1
        assert lines[-1].startswith(f"2009-03-21T{(rows - 1) * step // 60:02d}:"
                                    f"{(rows - 1) * step % 60:02d}:00,")

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

    @pytest.mark.parametrize("flag,value,bounds", [
        ("--require-rsd", "nan", "[0, 100]"),
        ("--require-rsd", "-inf", "[0, 100]"),
        ("--require-rsd", "-1", "[0, 100]"),
        ("--require-rsd", "100.5", "[0, 100]"),
        ("--error", "nan", "[0, 1]"),
        ("--error", "inf", "[0, 1]"),
        ("--error", "-1", "[0, 1]"),
        ("--error", "1.5", "[0, 1]"),
    ])
    @pytest.mark.parametrize("mode", ["margin", "error"])
    def test_threshold_outside_its_range_exits_2(self, tmp_path, capsys, flag, value, bounds,
                                                   mode):
        """A NaN threshold would turn the gate off silently; every mode rejects it."""
        rows = [(datetime(2009, 3, 21, 10, 0), 100.0)]
        sim = series_csv(tmp_path / "sim.csv", rows)
        ref = series_csv(tmp_path / "ref.csv", rows)
        with pytest.raises(SystemExit) as err:
            main(["validate", str(sim), str(ref), "--mode", mode, f"{flag}={value}"])
        assert err.value.code == 2
        assert f"argument {flag}: {value} is not a number in {bounds}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--require-rsd", "0"), ("--require-rsd", "100"),
                                            ("--error", "0"), ("--error", "1")])
    def test_threshold_at_its_bounds_is_accepted(self, tmp_path, flag, value):
        rows = [(datetime(2009, 3, 21, 10, 0), 100.0)]
        sim = series_csv(tmp_path / "sim.csv", rows)
        ref = series_csv(tmp_path / "ref.csv", rows)
        assert main(["validate", str(sim), str(ref), "--mode", "margin", flag, value]) == 0

    def test_timestamp_mismatch_without_resample(self, tmp_path, capsys):
        t0 = datetime(2009, 3, 21, 10, 0)
        sim = series_csv(tmp_path / "sim.csv", [(t0, 1.0)])
        ref = series_csv(tmp_path / "ref.csv", [(t0 + timedelta(minutes=1), 1.0)])
        code = main(["validate", str(sim), str(ref)])
        assert code == 2
        assert "mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("text,message", [
        ("nan", "line 3: value nan is not a finite number"),
        ("2009-03-21T10:01+04:00", "line 3: timestamp '2009-03-21T10:01+04:00' has a UTC offset"),
    ])
    @pytest.mark.parametrize("resample", [[], ["--resample", "hourly"]])
    def test_bad_series_row_exits_2(self, tmp_path, capsys, text, message, resample):
        t0 = datetime(2009, 3, 21, 10, 0)
        ref = series_csv(tmp_path / "ref.csv", [(t0, 100.0), (t0 + timedelta(minutes=1), 100.0),
                                                (t0 + timedelta(minutes=2), 100.0)])
        row = f"2009-03-21T10:01,{text}" if text == "nan" else f"{text},100.0"
        sim = tmp_path / "sim.csv"
        sim.write_text(f"timestamp,E_lux\n2009-03-21T10:00,100.0\n{row}\n"
                       "2009-03-21T10:02,100.0\n", encoding="utf-8")
        code = main(["validate", str(sim), str(ref), "--mode", "margin", *resample])
        assert code == 2
        assert message in capsys.readouterr().err

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


def test_room_without_apertures_is_dark(tmp_path):
    """``room.apertures`` is optional: under a clear sky a room without
    windows has DF 0, no sun patch and no light at its probes and grid."""
    data = json.loads(BUILDING_JSON % {"cell": "0.5"})
    del data["room"]["apertures"]
    building = tmp_path / "b.json"
    building.write_text(json.dumps(data), encoding="utf-8")
    weather = tmp_path / "clear.csv"
    weather.write_text("timestamp,Gh_Wm2,Dh_Wm2\n" + "".join(
        f"2009-07-01T{h:02d}:00,600,150\n" for h in range(24)), encoding="utf-8")
    out = tmp_path / "run"
    assert main(["simulate", "--building", str(building), "--weather", str(weather),
                 "--out", str(out), "--step", "60", "--probes", "1.95,1.27;1.95,3.27",
                 "--field-at", "2009-07-01T12:00"]) == 0
    rows = [line.split(",") for line in Path(f"{out}_summary.csv").read_text().splitlines()[1:]]
    assert len(rows) == 24
    assert max(float(r[3]) for r in rows) > 0.0  # the sun shines outside
    assert all(float(v) == 0.0 for r in rows for v in r[4:])  # patch and both probes
    assert main(["dfmap", "--building", str(building), "--out", str(tmp_path / "df.txt")]) == 0
    for name in ("df.txt", "run_field_20090701T1200.txt"):
        lines = (tmp_path / name).read_text().splitlines()
        assert [float(v) for row in lines[1:] for v in row.split()] == [0.0] * 49


def test_settable_options_are_pinned():
    """Every argument of every subcommand (8 + 8 + 2). A new knob fails this
    test, so the change that adds one has to edit this list and say why."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert [a.dest for a in parser._actions if not isinstance(a, argparse._HelpAction)] == ["command"]
    got = {name: [a.option_strings[0] if a.option_strings else a.dest
                  for a in p._actions if not isinstance(a, argparse._HelpAction)]
           for name, p in sub.choices.items()}
    assert got == {
        "simulate": ["--building", "--weather", "--start", "--end", "--step", "--out",
                     "--field-at", "--probes"],
        "validate": ["sim", "reference", "--mode", "--error", "--resample", "--require-rsd",
                     "--name", "--out"],
        "dfmap": ["--building", "--out"],
    }


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


class TestWorkplaneHeight:
    """The workplane lies between the floor and the ceiling (2.8 m here)."""

    @pytest.mark.parametrize("height", [-1.0, 5.0])
    @pytest.mark.parametrize("command", ["simulate", "dfmap"])
    def test_outside_the_room_exits_2(self, tmp_path, capsys, command, height):
        data = json.loads(BUILDING_JSON % {"cell": "0.5"})
        data["workplane"]["height"] = height
        building = tmp_path / "b.json"
        building.write_text(json.dumps(data), encoding="utf-8")
        args = {"simulate": ["--weather", str(overcast_day_csv(tmp_path / "day.csv")),
                             "--out", str(tmp_path / "run"), "--probes", "1.95,1.27"],
                "dfmap": ["--out", str(tmp_path / "df.txt")]}[command]
        assert main([command, "--building", str(building), *args]) == 2
        err = capsys.readouterr().err
        assert f"workplane height {height} m must lie between the floor (0 m) and the ceiling (2.8 m)" in err
        assert list(tmp_path.glob("run*")) == [] and not (tmp_path / "df.txt").exists()

    @pytest.mark.parametrize("height", [0.0, 0.01, 2.8])
    def test_floor_to_ceiling_is_accepted(self, tmp_path, height):
        data = json.loads(BUILDING_JSON % {"cell": "0.5"})
        data["workplane"]["height"] = height
        building = tmp_path / "b.json"
        building.write_text(json.dumps(data), encoding="utf-8")
        assert main(["dfmap", "--building", str(building), "--out", str(tmp_path / "df.txt")]) == 0


class TestUsageErrors:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_building_node_of_wrong_type_exits_2(self, tmp_path, capsys):
        data = json.loads(BUILDING_JSON % {"cell": "0.5"})
        data["room"]["surfaces"] = [5]
        building = tmp_path / "b.json"
        building.write_text(json.dumps(data), encoding="utf-8")
        code = main(["dfmap", "--building", str(building), "--out", str(tmp_path / "df.txt")])
        assert code == 2
        assert "error: room.surfaces[0]: expected an object" in capsys.readouterr().err

    @pytest.mark.parametrize("step", ["0", "1000000000000000"])
    def test_step_out_of_range_exits_2(self, tmp_path, building_file, capsys, step):
        weather = overcast_day_csv(tmp_path / "w.csv")
        code = main(["simulate", "--building", str(building_file), "--weather", str(weather),
                     "--out", str(tmp_path / "run"), "--step", step])
        assert code == 2
        assert "error: step" in capsys.readouterr().err
        assert not (tmp_path / "run_summary.csv").exists()

    def test_internal_building_error_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}", encoding="utf-8")
        code = main(["dfmap", "--building", str(bad), "--out", str(tmp_path / "x.txt")])
        assert code == 2
        assert "error:" in capsys.readouterr().err
