#!/usr/bin/env python3
"""Time a full-year minute-step simulation on the reference grid.

Daylight-factor precomputation is reported separately from the stepping
loop, since it runs once per geometry, and so are parsing the year's weather
CSV and writing the year's results (both in a temporary directory). Two
layers of the stepping are also timed on their own, in the stepping's
``BLOCK_STEPS`` blocks: the sun position of every step, and the sun patches
(``Simulator.beam``) of the steps with the sun up and a direct part.

    python scripts/benchmark_year.py [--cell 0.1] [--step 1]
"""

import argparse
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sidelux.daylight import BLOCK_STEPS  # noqa: E402
from sidelux.io import (  # noqa: E402
    parse_building, parse_weather_csv, write_results, write_weather_csv)
from sidelux.solar import WeatherSeries, outdoor_illuminance, sun_positions  # noqa: E402


def year_weather(year=2009) -> WeatherSeries:
    """A clear-sky-like year of minutes: a half sine from 06:00 to 18:00."""
    minutes = np.arange(525_600)
    x = (minutes % 1440 - 360) / 720.0
    gh = 900.0 * np.where((x >= 0.0) & (x <= 1.0), np.sin(np.pi * x), 0.0)
    times = np.datetime64(f"{year}-01-01", "us") + minutes * np.timedelta64(1, "m")
    return WeatherSeries(times, gh, 0.35 * gh)


def time_layers(sim, weather: WeatherSeries, step: int, probes) -> None:
    """Print the time per step of the sun position and of the sun patch."""
    times = weather.times[::step]
    t0 = time.perf_counter()
    suns = [sun_positions(times[i:i + BLOCK_STEPS], sim.location)
            for i in range(0, len(times), BLOCK_STEPS)]
    elapsed = time.perf_counter() - t0
    print(f"sun position: {len(times)} steps in {elapsed:.2f} s "
          f"({1e6 * elapsed / len(times):.2f} us/step)")

    altitude, _, direction = (np.concatenate(c) for c in zip(*suns))
    _, direct = outdoor_illuminance(altitude, weather.gh[::step], weather.dh[::step],
                                    sim.efficacy, weather.ev_global[::step],
                                    weather.ev_diffuse[::step])
    sunny = np.flatnonzero((altitude > 0.0) & (direct > 0.0))
    altitude, direction = altitude[sunny], direction[sunny]
    points = np.array(probes, dtype=float)
    t0 = time.perf_counter()
    for i in range(0, len(sunny), BLOCK_STEPS):
        sim.beam(altitude[i:i + BLOCK_STEPS], direction[i:i + BLOCK_STEPS], points)
    elapsed = time.perf_counter() - t0
    batches = -(-len(sunny) // BLOCK_STEPS)
    print(f"sun patch: {len(sunny)} sunny steps in {batches} batches in {elapsed:.2f} s "
          f"({1e6 * elapsed / max(len(sunny), 1):.2f} us/step)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--building", default=str(Path(__file__).parent / "test_cell.json"))
    parser.add_argument("--cell", type=float, default=0.1)
    parser.add_argument("--step", type=int, default=1)
    args = parser.parse_args()

    building = parse_building(args.building)
    building.workplane_cell = args.cell
    t0 = time.perf_counter()
    sim = building.simulator()
    t_df = time.perf_counter() - t0
    print(f"daylight-factor precompute: {sim.grid.n_points} points in {t_df:.2f} s")

    probes = [(1.95, 3.27), (1.95, 2.77), (1.95, 2.27), (1.95, 1.77), (1.95, 1.27)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "year.csv"
        write_weather_csv(year_weather(), path)
        t0 = time.perf_counter()
        weather = parse_weather_csv(path)
        elapsed = time.perf_counter() - t0
        n = len(weather)
        print(f"weather parse: {n} rows in {elapsed:.2f} s ({n / elapsed:.0f} rows/s)")

        t0 = time.perf_counter()
        result = sim.run(weather, step_minutes=args.step, probes=probes)
        elapsed = time.perf_counter() - t0
        n = len(result.timestamps)
        print(f"{n} steps on {sim.grid.n_points} points: {elapsed:.1f} s "
              f"({n / elapsed:.0f} steps/s)")
        time_layers(sim, weather, args.step, probes)

        t0 = time.perf_counter()
        write_results(result, Path(tmp) / "year")
        elapsed = time.perf_counter() - t0
    print(f"summary write: {n} rows in {elapsed:.2f} s ({n / elapsed:.0f} rows/s)")


if __name__ == "__main__":
    main()
