#!/usr/bin/env python3
"""Simulate one clear day and one overcast day in the reference test cell.

Synthesizes minute-step weather, runs the simulation with five probe points
on the window centerline (first 0.23 m from the aperture, then every 0.5 m),
and writes summary CSVs, a noon field file, the daylight-factor map, plus a
per-probe series CSV ready for `sidelux validate`.

    python scripts/run_test_cell_day.py --out out/
"""

import argparse
import sys
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sidelux.io import parse_building, write_field_file, write_probe_series_csv, \
    write_results  # noqa: E402
from sidelux.solar import WeatherSeries  # noqa: E402

PROBES = [(1.95, 3.27), (1.95, 2.77), (1.95, 2.27), (1.95, 1.77), (1.95, 1.27)]


def day_weather(day: datetime, peak_gh: float, diffuse_fraction: float) -> WeatherSeries:
    minutes = np.arange(1440)
    x = (minutes - 360) / 720.0
    gh = peak_gh * np.where((x >= 0.0) & (x <= 1.0), np.maximum(0.0, np.sin(np.pi * x)), 0.0)
    times = np.datetime64(day, "us") + minutes * np.timedelta64(1, "m")
    return WeatherSeries(times, gh, diffuse_fraction * gh)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--building", default=str(Path(__file__).parent / "test_cell.json"))
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--day", default="2009-07-15", help="simulated date (winter: sun north)")
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    building = parse_building(args.building)
    sim = building.simulator()
    print(f"grid: {sim.grid.nu} x {sim.grid.nv} cells, {sim.grid.n_points} points")
    write_field_file(out / "df_map.txt", sim.grid, sim.df * 100.0, "DF_pct")

    day = datetime.fromisoformat(args.day)
    noon = day + timedelta(hours=12)
    cases = {
        "clear": day_weather(day, peak_gh=900.0, diffuse_fraction=0.3),
        "overcast": day_weather(day, peak_gh=350.0, diffuse_fraction=1.0),
    }
    for name, weather in cases.items():
        result = sim.run(weather, probes=PROBES, field_at=[noon])
        write_results(result, out / name)
        write_probe_series_csv(result, 0, out / f"{name}_probe1.csv")
        hourly = result.hourly()
        peak = hourly.probe_global.max(axis=0)
        print(f"{name}: patch area at noon {result.fields[noon].patch_area:.3f} m^2; "
              f"hourly probe peaks [lux]: " + ", ".join(f"{v:.0f}" for v in peak))
    print(f"outputs in {out}/")


if __name__ == "__main__":
    main()
