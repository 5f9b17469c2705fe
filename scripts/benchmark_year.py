#!/usr/bin/env python3
"""Time a full-year minute-step simulation on the reference grid.

Daylight-factor precomputation is reported separately from the stepping
loop, since it runs once per geometry: the ``Simulator`` build of the test
cell and of the benchmark's L-shaped room (``perfbench/inputs.py``,
``L_ROOM``), whose re-entrant walls and obstructions the sky kernel cuts
around, best of 5 each, with the peak Python allocation (``tracemalloc``)
of one more build. The minor page faults (``ru_minflt``) of each first
build and of the stepping are printed next to their times: a phase that
reuses memory an earlier one freed takes fewer faults, so a smaller set-up
can move faults into the stepping. So are parsing the year's weather CSV
and writing the year's results (both in a temporary directory). Three
layers of the stepping are read from the run itself, which records the rows
and time of each call it makes (:func:`recorded`): the sun, per step; per
lit step (those whose weather carries light, the only ones for which the
run asks whether the sun is up) ``solar.sun_up``, in how many calls, with
how many exact altitudes are worked out in how many passes (``sun_up``'s
anchors and near-horizon steps, and one per sunny step for its position);
the sun's position, per sunny step (sun up, a direct part); and the sun
patches (``Simulator.beam``) of the sunny steps, per step and in how many
batches. The process's peak resident
memory is printed before and after the stepping, whose outdoor conversion
is one pass over the whole period; writing the year's weather CSV sets an
earlier peak, which the stepping may stay under. The sun patches of the
benchmark's L-shaped room (``perfbench/inputs.py``, ``L_ROOM``) are read the
same way, from 5 runs over every 3rd step with 5 of its probes, best of 5:
its floor is cut into convex parts, so this is the layer those parts weigh
on. The minor page faults of the first of those runs are printed after
them. Last, the same year with all its light diffuse (Dh = Gh) is stepped
on the test cell, whose lit steps take only ``solar.sun_up``: its stepping
time and its exact altitudes and passes are printed.

    python scripts/benchmark_year.py [--cell 0.1] [--step 1]
"""

import argparse
import resource
import sys
import tempfile
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import inputs  # noqa: E402
from sidelux import daylight, solar  # noqa: E402
from sidelux.io import (  # noqa: E402
    parse_building, parse_weather_csv, write_results, write_weather_csv)
from sidelux.solar import WeatherSeries  # noqa: E402


def year_weather(year=2009) -> WeatherSeries:
    """A clear-sky-like year of minutes: a half sine from 06:00 to 18:00."""
    minutes = np.arange(525_600)
    x = (minutes % 1440 - 360) / 720.0
    gh = 900.0 * np.where((x >= 0.0) & (x <= 1.0), np.sin(np.pi * x), 0.0)
    times = np.datetime64(f"{year}-01-01", "us") + minutes * np.timedelta64(1, "m")
    return WeatherSeries(times, gh, 0.35 * gh)


@contextmanager
def recorded(sim):
    """While the block runs, log the rows and seconds of each call that
    ``sim`` makes to ``sun_up`` (of every lit step), ``sun_positions`` (of
    the sunny steps), the exact altitude passes that both make and its beam
    (the ``BeamKernel`` call), as (rows, seconds) lists by name."""
    targets = {"sun_up": (daylight, "sun_up"), "position": (daylight, "sun_positions"),
               "exact": (solar, "sun_altitudes"), "beam": (sim, "beam")}
    originals = {name: getattr(*target) for name, target in targets.items()}
    calls = {name: [] for name in targets}

    def timed(name):
        def call(*args):
            t0 = time.perf_counter()
            out = originals[name](*args)
            calls[name].append((len(args[0]), time.perf_counter() - t0))
            return out
        return call

    try:
        for name, (owner, attr) in targets.items():
            setattr(owner, attr, timed(name))
        yield calls
    finally:
        for name, (owner, attr) in targets.items():
            setattr(owner, attr, originals[name])


def totals(log) -> tuple[int, float]:
    """Rows and seconds over the calls of one log."""
    return sum(rows for rows, _ in log), sum(seconds for _, seconds in log)


def minor_faults() -> int:
    """The process's minor page faults so far (``ru_minflt``)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def faulted(call):
    """Run ``call()``: what it returns, its seconds and its minor page faults."""
    faults = minor_faults()
    t0 = time.perf_counter()
    out = call()
    return out, time.perf_counter() - t0, minor_faults() - faults


def peak_rss_mb() -> float:
    """The process's peak resident memory so far (``ru_maxrss``, KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def counted(log, one: str, many: str) -> str:
    """How many calls one log holds, as ``1 call`` or ``2 calls``."""
    return f"{len(log)} {one if len(log) == 1 else many}"


def per_step(seconds: float, n: int) -> str:
    return f"{seconds:.2f} s ({1e6 * seconds / max(n, 1):.2f} us/step)"


def print_exact(calls, label: str = "") -> None:
    """Print how many exact altitudes the run worked out, against its lit
    steps, and in how many passes: a sunny step gets one for its position,
    on top of any of ``sun_up``'s."""
    n_exact, n_lit = totals(calls["exact"])[0], totals(calls["sun_up"])[0]
    print(f"{label}sun altitude (exact): {n_exact} of {n_lit} lit steps "
          f"in {counted(calls['exact'], 'pass', 'passes')}")


def print_layers(calls, n: int) -> None:
    """Print the sun per step of the run, ``sun_up`` per lit step, the exact
    altitudes, and per sunny step the sun's position and the sun patch."""
    n_lit, t_lit = totals(calls["sun_up"])
    n_sunny, t_position = totals(calls["position"])
    n_beam, t_beam = totals(calls["beam"])
    print(f"sun position: {n} steps in {per_step(t_lit + t_position, n)}")
    print(f"sun up (lit): {n_lit} of {n} steps in {counted(calls['sun_up'], 'call', 'calls')} "
          f"in {per_step(t_lit, n_lit)}")
    print_exact(calls)
    print(f"sun position (sunny): {n_sunny} sunny steps in {per_step(t_position, n_sunny)}")
    print(f"sun patch: {n_beam} sunny steps in {len(calls['beam'])} batches "
          f"in {per_step(t_beam, n_beam)}")


def built(path, cell: float, label: str):
    """The simulator of the building file at ``path`` on a grid of ``cell``
    m, built 5 times: print the best time of the build, its
    daylight-factor precompute, in ms, and the peak Python allocation of
    one more build, traced apart so the tracing slows no timed one. Returns
    the simulator, and the seconds and minor page faults of the first
    build."""
    building = parse_building(path)
    building.settings["cell"] = cell
    runs = []
    for _ in range(5):
        sim, *run = faulted(building.simulator)
        runs.append(run)
    tracemalloc.start()
    building.simulator()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    print(f"{label}daylight-factor precompute: {sim.grid.n_points} points in "
          f"{1e3 * min(seconds for seconds, _ in runs):.1f} ms, best of 5; "
          f"peak allocation {peak / 1e6:.2f} MB")
    return sim, *runs[0]


def time_l_room_beam(sim, weather: WeatherSeries, step: int) -> None:
    """Print the time per sunny step of the L-shaped room's sun patches,
    the best of 5 runs over every 3rd step, and the seconds and minor page
    faults of the first of those runs."""
    runs, stepping = [], []
    for _ in range(5):
        with recorded(sim) as calls:
            stepping.append(faulted(lambda: sim.run(weather, step_minutes=3 * step,
                                                    probes=inputs.L_ROOM_PROBES[:5]))[1:])
        runs.append(totals(calls["beam"]))
    n_sunny, best = min(runs, key=lambda run: run[1])
    print(f"L-room sun patch ({len(sim.room.parts)} floor parts): {n_sunny} sunny steps of "
          f"every 3rd step in {best:.2f} s, best of 5 ({1e6 * best / max(n_sunny, 1):.2f} us/step)")
    seconds, faults = stepping[0]
    print(f"L-room stepping: {faults} minor page faults in the first of the 5 runs "
          f"({seconds:.2f} s)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--building", default=str(Path(__file__).parent / "test_cell.json"))
    parser.add_argument("--cell", type=float, default=0.1)
    parser.add_argument("--step", type=int, default=1)
    args = parser.parse_args()

    probes = [(1.95, 3.27), (1.95, 2.77), (1.95, 2.27), (1.95, 1.77), (1.95, 1.27)]
    with tempfile.TemporaryDirectory() as tmp:
        inputs.write_building(Path(tmp) / "l_room.json", "l_room")
        (sim, build_s, build_faults), (l_sim, l_build_s, l_build_faults) = (
            built(path, args.cell, label)
            for path, label in ((args.building, ""), (Path(tmp) / "l_room.json", "L-room ")))

        path = Path(tmp) / "year.csv"
        write_weather_csv(year_weather(), path)
        t0 = time.perf_counter()
        weather = parse_weather_csv(path)
        elapsed = time.perf_counter() - t0
        n = len(weather)
        print(f"weather parse: {n} rows in {elapsed:.2f} s ({n / elapsed:.0f} rows/s)")

        before = peak_rss_mb()
        with recorded(sim) as calls:
            result, elapsed, faults = faulted(
                lambda: sim.run(weather, step_minutes=args.step, probes=probes))
        n = len(result.timestamps)
        print(f"{n} steps on {sim.grid.n_points} points: {elapsed:.1f} s "
              f"({n / elapsed:.0f} steps/s)")
        print(f"minor page faults: {build_faults} in the first build ({1e3 * build_s:.1f} ms), "
              f"{l_build_faults} in the L-room's ({1e3 * l_build_s:.1f} ms), "
              f"{faults} in the stepping ({elapsed:.1f} s)")
        print_layers(calls, n)
        print(f"peak RSS: {before:.1f} MB before stepping, {peak_rss_mb():.1f} MB after")
        time_l_room_beam(l_sim, weather, args.step)

        t0 = time.perf_counter()
        write_results(result, Path(tmp) / "year")
        elapsed = time.perf_counter() - t0
    print(f"summary write: {n} rows in {elapsed:.2f} s ({n / elapsed:.0f} rows/s)")

    diffuse = WeatherSeries(weather.times, weather.gh, weather.gh)
    with recorded(sim) as calls:
        _, elapsed, _ = faulted(lambda: sim.run(diffuse, step_minutes=args.step, probes=probes))
    print(f"all-diffuse year (Dh = Gh): {n} steps in {elapsed:.2f} s ({n / elapsed:.0f} steps/s)")
    print_exact(calls, "all-diffuse ")


if __name__ == "__main__":
    main()
