#!/usr/bin/env python3
"""Time a full-year minute-step simulation on the reference grid.

Daylight-factor precomputation is reported separately from the stepping
loop, since it runs once per geometry, and so are parsing the year's weather
CSV and writing the year's results (both in a temporary directory). Three
layers of the stepping are also timed on their own, in the stepping's
``BLOCK_STEPS`` blocks: the sun position (altitude) of every step, and of
the lit steps alone (those whose weather carries light), which is what the
stepping pays; and for the sunny steps, those with the sun up and a direct
part, the sun's direction and the sun patches (``Simulator.beam``). The
sun patches of the benchmark's L-shaped room (``perfbench/inputs.py``,
``L_ROOM``) are timed too, over every 3rd step with 5 of its probes, best
of 5 passes: its floor is cut into convex parts, so this is the layer
those parts weigh on.

    python scripts/benchmark_year.py [--cell 0.1] [--step 1]
"""

import argparse
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import inputs  # noqa: E402
from sidelux.daylight import BLOCK_STEPS, BeamKernel  # noqa: E402
from sidelux.io import (  # noqa: E402
    parse_building, parse_weather_csv, write_results, write_weather_csv)
from sidelux.solar import (  # noqa: E402
    WeatherSeries, outdoor_illuminance, sun_altitudes, sun_directions)


def year_weather(year=2009) -> WeatherSeries:
    """A clear-sky-like year of minutes: a half sine from 06:00 to 18:00."""
    minutes = np.arange(525_600)
    x = (minutes % 1440 - 360) / 720.0
    gh = 900.0 * np.where((x >= 0.0) & (x <= 1.0), np.sin(np.pi * x), 0.0)
    times = np.datetime64(f"{year}-01-01", "us") + minutes * np.timedelta64(1, "m")
    return WeatherSeries(times, gh, 0.35 * gh)


def sun_blocks(times: np.ndarray, location):
    """Altitude of the sun at ``times`` and the terms of its direction, in
    the stepping's ``BLOCK_STEPS`` blocks."""
    suns = [sun_altitudes(times[i:i + BLOCK_STEPS], location)
            for i in range(0, len(times), BLOCK_STEPS)]
    return (np.concatenate([altitude for altitude, _ in suns]),
            np.concatenate([terms for _, terms in suns], axis=1))


def lit(weather: WeatherSeries, stride: int, efficacy) -> np.ndarray:
    """Which of every ``stride``-th sample carries light as if the sun were
    up: the steps whose altitude the stepping works out."""
    diffuse, direct = outdoor_illuminance(True, weather.gh[::stride], weather.dh[::stride],
                                          efficacy, weather.ev_global[::stride],
                                          weather.ev_diffuse[::stride])
    return (diffuse.view(np.uint64) | direct.view(np.uint64)) != 0


def sunny(altitude, weather: WeatherSeries, stride: int, efficacy) -> np.ndarray:
    """The indices of every ``stride``-th sample with the sun up and a direct part."""
    _, direct = outdoor_illuminance(altitude > 0.0, weather.gh[::stride], weather.dh[::stride],
                                    efficacy, weather.ev_global[::stride],
                                    weather.ev_diffuse[::stride])
    return np.flatnonzero(direct > 0.0)


def sunny_suns(altitude, terms, up, location):
    """Altitude and direction of the sun at the steps ``up``, gathered and
    worked out in ``BLOCK_STEPS`` batches."""
    direction = [sun_directions(altitude[s], terms[:, s], location)[1]
                 for s in np.split(up, range(BLOCK_STEPS, len(up), BLOCK_STEPS))]
    return altitude[up], np.concatenate(direction)


def time_beam(beam: BeamKernel, altitude, direction, probes, repeats: int = 1) -> float:
    """The best of ``repeats`` passes of the beam over the suns, in
    ``BLOCK_STEPS`` batches."""
    points = np.array(probes, dtype=float)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for i in range(0, len(altitude), BLOCK_STEPS):
            beam(altitude[i:i + BLOCK_STEPS], direction[i:i + BLOCK_STEPS], points)
        best = min(best, time.perf_counter() - t0)
    return best


def time_layers(sim, weather: WeatherSeries, step: int, probes) -> None:
    """Print the time per step of the sun position, over every step and
    over the lit steps alone, which is what the stepping pays, and per sunny
    step of the sun's direction and of the sun patch."""
    times = weather.times[::step]
    t0 = time.perf_counter()
    altitude, terms = sun_blocks(times, sim.location)
    elapsed = time.perf_counter() - t0
    print(f"sun position: {len(times)} steps in {elapsed:.2f} s "
          f"({1e6 * elapsed / len(times):.2f} us/step)")

    is_lit = lit(weather, step, sim.efficacy)
    t0 = time.perf_counter()
    for i in range(0, len(times), BLOCK_STEPS):
        sun_altitudes(times[i:i + BLOCK_STEPS][is_lit[i:i + BLOCK_STEPS]], sim.location)
    elapsed = time.perf_counter() - t0
    n_lit = int(is_lit.sum())
    print(f"sun position (lit): {n_lit} of {len(times)} steps in {elapsed:.2f} s "
          f"({1e6 * elapsed / max(n_lit, 1):.2f} us/step)")

    up = sunny(altitude, weather, step, sim.efficacy)
    t0 = time.perf_counter()
    altitude, direction = sunny_suns(altitude, terms, up, sim.location)
    elapsed = time.perf_counter() - t0
    print(f"sun direction: {len(up)} sunny steps in {elapsed:.2f} s "
          f"({1e6 * elapsed / max(len(up), 1):.2f} us/step)")

    elapsed = time_beam(sim.beam, altitude, direction, probes)
    print(f"sun patch: {len(altitude)} sunny steps in {-(-len(altitude) // BLOCK_STEPS)} batches "
          f"in {elapsed:.2f} s ({1e6 * elapsed / max(len(altitude), 1):.2f} us/step)")


def time_l_room_beam(weather: WeatherSeries, step: int, tmp: Path) -> None:
    """Print the time per sunny step of the L-shaped room's sun patches."""
    path = tmp / "l_room.json"
    inputs.write_building(path, "l_room")
    building = parse_building(path)
    room = building.room
    altitude, terms = sun_blocks(weather.times[::3 * step], building.location)
    up = sunny(altitude, weather, 3 * step, building.efficacy)
    altitude, direction = sunny_suns(altitude, terms, up, building.location)
    beam = BeamKernel(room, room.floor_z + building.workplane_height)
    elapsed = time_beam(beam, altitude, direction, inputs.L_ROOM_PROBES[:5], repeats=5)
    per_step = 1e6 * elapsed / max(len(altitude), 1)
    print(f"L-room sun patch ({len(room.parts)} floor parts): {len(altitude)} sunny steps of "
          f"every 3rd step in {elapsed:.2f} s, best of 5 ({per_step:.2f} us/step)")


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
        time_l_room_beam(weather, args.step, Path(tmp))

        t0 = time.perf_counter()
        write_results(result, Path(tmp) / "year")
        elapsed = time.perf_counter() - t0
    print(f"summary write: {n} rows in {elapsed:.2f} s ({n / elapsed:.0f} rows/s)")


if __name__ == "__main__":
    main()
