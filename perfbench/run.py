#!/usr/bin/env python3
"""sidelux benchmark: seeded workloads run through the ``sidelux`` CLI.

    python3 perfbench/run.py --workload sunlit_winter --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Each workload generates its inputs from the seed, runs its CLI commands in
fresh processes until ``--seconds`` have passed (at least twice), checks every
output, and prints its metrics. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced commands and prints the
per-layer metrics. The last line of standard output is the JSON result; a
record with the input fingerprints and the machine goes to
``.bench_results/``. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.dont_write_bytecode = True

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import physics  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CALL_TIMEOUT_S = 150.0

# name -> (unit, better); BENCHMARK.json declares the same names and bounds.
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "steps_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "df_max_abs_err": ("fraction", "lower"),
    "patch_area_max_abs_err": ("m2", "lower"),
}
_TIMED = ("daylight.compute_sun_patch", "geometry.project_polygon_along_direction",
          "geometry.clip_polygon", "solar.sun_position", "solar.reconstruct_illuminance")
PER_LAYER = {
    **{f"{label}.{kind}": unit for label in _TIMED
       for kind, unit in (("us_per_call", "us"), ("calls", "count"))},
    "daylight.compute_sun_patch.nonempty_ratio": "ratio",
    "daylight.compute_sun_patch.share_of_run": "ratio",
    "daylight.Simulator.run.self_s": "s",
    "io.parse_weather_csv.s": "s",
    "io.parse_weather_csv.rows_per_s": "1/s",
    "io.write_results.s": "s",
    "daylight.Simulator.init_s": "s",
    "daylight.df.points_per_s": "1/s",
    "geometry.workplane.s": "s",
    "io.parse_series_csv.s": "s",
    "metrics.resample_hourly.s": "s",
    "metrics.evaluate_pair.s": "s",
    "daylight.steps": "count",
    "daylight.dark_steps": "count",
    "daylight.sunfacing_steps": "count",
    "daylight.sunlit_steps": "count",
    "trace.overhead_s": "s",
}


@dataclass
class Simulation:
    """A ``sidelux simulate`` workload: building, probes, field instants
    (also the patch-reference instants) and a seeded weather generator."""

    building: str
    probes: list
    instants: list
    weather: object


@dataclass
class Validation:
    modes: tuple = ("margin", "error")
    error: float = 0.15


WORKLOADS = {
    "sunlit_winter": Simulation(
        "test_cell", inputs.TEST_CELL_PROBES, inputs.TEST_CELL_INSTANTS,
        lambda seed: inputs.clear_weather(seed, "2009-07-01", 7, inputs.TEST_CELL_INSTANTS)),
    "overcast_quarter": Simulation(
        "test_cell", inputs.TEST_CELL_PROBES, [], inputs.overcast_weather),
    "lroom_obstructed": Simulation(
        "l_room", inputs.L_ROOM_PROBES, inputs.L_ROOM_INSTANTS,
        lambda seed: inputs.clear_weather(seed, "2009-07-01", 4, inputs.L_ROOM_INSTANTS)),
    "validate_year": Validation(),
}
# Workloads whose own commands produce no reference instants read the accuracy
# metrics from one extra command on the test cell (one sunlit winter day).
ACCURACY_PROBE = Simulation(
    "test_cell", inputs.TEST_CELL_PROBES, inputs.TEST_CELL_INSTANTS,
    lambda seed: inputs.clear_weather(seed, "2009-07-01", 1, inputs.TEST_CELL_INSTANTS))


@dataclass
class Call:
    args: list
    traced: bool
    t_spawn: float
    wall_s: float
    rss_mb: float
    exit_code: int
    report: dict
    stderr: str
    errors: list = field(default_factory=list)
    scale: float = 1.0        # host-speed factor over the whole command

    def span_s(self, label: str, speed: HostSpeed) -> float:
        """The label's time in the command, each span scaled to the reference host."""
        return sum((t1 - t0) * speed.scale(t0, t1)
                   for name, t0, t1, _ in self.report.get("spans", []) if name == label)

    def span_start(self, label: str) -> float | None:
        starts = [t0 for name, t0, _, _ in self.report.get("spans", []) if name == label]
        return min(starts) if starts else None

    def stat(self, label: str, key: str) -> float:
        return self.report.get("stats", {}).get(label, {}).get(key, 0)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def spawn(argv: list, out: Path, err: Path) -> tuple[float, float, int, float]:
    """Run one process to completion; returns (start, wall s, exit code, peak
    RSS in MB). A process that outlives CALL_TIMEOUT_S is killed."""
    actions = [(os.POSIX_SPAWN_OPEN, fd, str(path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
               for fd, path in ((1, out), (2, err))]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, child_env(), file_actions=actions)
    watchdog = threading.Timer(CALL_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
    watchdog.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        watchdog.cancel()
    t1 = time.perf_counter()
    return t0, t1 - t0, os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0


def invoke(args: list, traced: bool, where: Path) -> Call:
    where.mkdir(parents=True, exist_ok=True)
    report = where / "trace.json"
    argv = [sys.executable, str(HERE / "launch.py"), str(report),
            "full" if traced else "phases", "--", *args]
    t0, wall, code, rss = spawn(argv, where / "stdout.txt", where / "stderr.txt")
    stderr = (where / "stderr.txt").read_text(encoding="utf-8", errors="replace")
    rep = json.loads(report.read_text(encoding="utf-8")) if report.exists() else {}
    call = Call(args, traced, t0, wall, rss, code, rep, stderr)
    if code != 0:
        call.errors.append(f"exit code {code}: {stderr.strip()[-300:]}")
    return call


# --------------------------------------------------------------------------
# Workload preparation: inputs, command lines and what each must produce.

@dataclass
class Prepared:
    commands: list            # functions: output dir -> CLI arguments
    check: object             # function: output dir of the first unit -> errors
    fingerprints: dict
    accuracy: object = None   # function: output dir -> (df err, patch err)
    counters: object = None   # function: output dir -> per-step counters
    rows: int = 0             # weather or series rows one command reads


def prepare_simulation(wl: Simulation, seed: int, work: Path, refs: dict) -> Prepared:
    work.mkdir(parents=True, exist_ok=True)
    building, weather = work / "building.json", work / "weather.csv"
    inputs.write_building(building, wl.building)
    minutes, gh, dh = wl.weather(seed)
    inputs.write_weather(weather, minutes, gh, dh)
    scene = physics.Scene(inputs.BUILDINGS[wl.building])
    loc = inputs.SITE
    alt, az = physics.sun_angles(minutes, loc["lat"], loc["lon"], loc["tz"])
    bound = physics.patch_area_bound(scene, physics.sun_direction(alt, az))
    exp = checks.Expected(timestamps=inputs.iso_minutes(minutes), night=alt < -1.0,
                          overcast=dh == gh, patch_bound=bound, n_probes=len(wl.probes))
    probes = ";".join(f"{x},{y}" for x, y in wl.probes)
    fields = [a for t in wl.instants for a in ("--field-at", t)]

    def command(out: Path) -> list:
        return ["simulate", "--building", str(building), "--weather", str(weather),
                "--out", str(out / "run"), "--probes", probes, *fields]

    def check(out: Path) -> list:
        try:
            s = checks.read_summary(out / "run_summary.csv")
        except (OSError, ValueError) as exc:
            return [f"summary unreadable: {exc}"]
        errors = checks.check_summary(s, exp)
        for t in wl.instants:
            path = out / f"run_field_{t.replace('-', '').replace(':', '')}.txt"
            errors += checks.check_field(path, t) if path.exists() else [f"missing {path.name}"]
        return errors

    def accuracy(out: Path) -> tuple[float, float]:
        """Each error is clamped from below at what the summary can resolve,
        so that rounding in the sixth digit reads as one constant: one unit of
        that digit for the printed patch area, and a relative 2 * ROUND for a
        daylight factor, the ratio of two printed numbers."""
        ref = refs[wl.building]
        s = checks.read_summary(out / "run_summary.csv")
        df, df_ref = checks.probe_daylight_factors(s, exp), np.array(ref["df"])
        rows = np.searchsorted(exp.timestamps, [t + ":00" for t in ref["instants"]])
        area, area_ref = s.patch[rows], np.array(ref["patch_area"])
        return (float(np.max(np.maximum(np.abs(df - df_ref), 2.0 * checks.ROUND * df_ref))),
                float(np.max(np.maximum(np.abs(area - area_ref),
                                        checks.printed_resolution(area_ref)))))

    def counters(out: Path) -> dict:
        s = checks.read_summary(out / "run_summary.csv")
        return {
            "daylight.steps": len(s.timestamps),
            "daylight.dark_steps": int(np.sum((s.e_global <= 0.0) & (s.e_direct <= 0.0))),
            "daylight.sunfacing_steps": int(np.sum((s.e_direct > 0.0) & (bound > 0.0))),
            "daylight.sunlit_steps": int(np.sum(s.patch > 0.0)),
        }

    prints = {p.name: inputs.sha256(p) for p in (building, weather)}
    return Prepared([command], check, prints, accuracy, counters, len(minutes))


def prepare_validation(wl: Validation, seed: int, work: Path) -> Prepared:
    work.mkdir(parents=True, exist_ok=True)
    sim_path, ref_path = work / "sim.csv", work / "ref.csv"
    minutes, ref, sim = inputs.validation_series(seed)
    inputs.write_series(sim_path, minutes, sim)
    inputs.write_series(ref_path, minutes, ref)
    hourly_sim = sim.reshape(-1, 60).mean(axis=1)
    hourly_ref = ref.reshape(-1, 60).mean(axis=1)
    expected = {m: checks.validation_indicators(hourly_sim, hourly_ref, m, wl.error)
                for m in wl.modes}

    def command_for(mode):
        def command(out: Path) -> list:
            return ["validate", str(sim_path), str(ref_path), "--mode", mode,
                    "--error", str(wl.error), "--resample", "hourly",
                    "--out", str(out / f"report_{mode}.txt")]
        return command

    def check(out: Path) -> list:
        errors = []
        for m in wl.modes:
            path = out / f"report_{m}.txt"
            if not path.exists():
                errors.append(f"missing {path.name}")
                continue
            errors += checks.check_report(path.read_text(encoding="utf-8"), expected[m], m)
        return errors

    prints = {p.name: inputs.sha256(p) for p in (sim_path, ref_path)}
    return Prepared([command_for(m) for m in wl.modes], check, prints, rows=len(minutes))


# --------------------------------------------------------------------------
# Measurement.

def output_hashes(out: Path) -> dict:
    """Digests of a unit's output files (each call's own logs sit in a subdirectory)."""
    return {p.name: inputs.sha256(p) for p in sorted(out.iterdir()) if p.is_file()}


def measure(prep: Prepared, seconds: float, trace: bool, work: Path) -> tuple[list, Path, HostSpeed]:
    """Run the workload's commands, unit after unit, for about ``seconds``
    (a unit starts only if it should end less than half a unit late) and at
    least twice, while sampling the host's speed; with ``trace``, units
    alternate between untraced and traced. Every unit's outputs must match
    the first unit's byte for byte, and the first unit's outputs must pass
    the checks. Returns the calls, the first unit's output directory and the
    host-speed samples."""
    calls, same = [], []
    first, first_hashes = work / "unit0", None
    units = 0
    with HostSpeed() as speed:
        start = time.perf_counter()
        while units < 2 or (time.perf_counter() - start) * (1.0 + 0.5 / units) < seconds:
            traced = trace and units % 2 == 1
            out = work / f"unit{units}"
            unit = [invoke(cmd(out), traced, out / f"call{k}")
                    for k, cmd in enumerate(prep.commands)]
            hashes = output_hashes(out)
            if first_hashes is None:
                first_hashes = hashes
            else:
                if hashes != first_hashes:
                    for c in unit:
                        c.errors.append("outputs differ from the first run on the same inputs")
                shutil.rmtree(out)
            calls.extend(unit)
            same.extend([hashes == first_hashes] * len(unit))
            units += 1
    for c in calls:
        c.scale = speed.scale(c.t_spawn, c.t_spawn + c.wall_s)
    errors = prep.check(first)
    for c, matched in zip(calls, same):
        if matched:
            c.errors.extend(errors)
    return calls, first, speed


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def end_to_end(kind, calls: list, prep: Prepared, accuracy: tuple, speed: HostSpeed) -> dict:
    """Medians over the commands; every timing is scaled to the reference host."""
    if isinstance(kind, Simulation):
        setup = [c.span_s("io.parse_building", speed) + c.span_s("daylight.Simulator.init", speed)
                 for c in calls]
        run_s = [c.span_s("daylight.Simulator.run", speed) for c in calls]
    else:
        # validate builds nothing: its set-up is the interpreter start and the
        # imports before the CLI's main runs
        setup = [(t - c.t_spawn) * speed.scale(c.t_spawn, t) for c in calls
                 if (t := c.span_start("cli.main")) is not None]
        run_s = [c.span_s("cli.main", speed) for c in calls]
    return {
        "wall_s": median(c.wall_s * c.scale for c in calls),
        "setup_s": median(setup),
        "steps_per_s": median(prep.rows / t for t in run_s if t > 0.0),
        "peak_rss_mb": median(c.rss_mb for c in calls),
        "df_max_abs_err": accuracy[0],
        "patch_area_max_abs_err": accuracy[1],
    }


_GRID = re.compile(r"(\d+) grid points")


def per_layer(calls: list, prep: Prepared, first_unit: Path) -> dict:
    traced = [c for c in calls if c.traced]
    plain = [c for c in calls if not c.traced]
    rows = []
    for c in traced:
        # every time is scaled to the reference host by the command's factor
        def seconds(label: str, key: str = "total_s") -> float:
            return c.stat(label, key) * c.scale

        m = {}
        for label in _TIMED:
            n = c.stat(label, "calls")
            m[f"{label}.calls"] = n
            m[f"{label}.us_per_call"] = seconds(label) / n * 1e6 if n else 0.0
        patch_calls = c.stat("daylight.compute_sun_patch", "calls")
        run_s = seconds("daylight.Simulator.run")
        m["daylight.compute_sun_patch.nonempty_ratio"] = (
            c.stat("daylight.compute_sun_patch", "truthy") / patch_calls if patch_calls else 0.0)
        m["daylight.compute_sun_patch.share_of_run"] = (
            seconds("daylight.compute_sun_patch") / run_s if run_s else 0.0)
        m["daylight.Simulator.run.self_s"] = seconds("daylight.Simulator.run", "self_s")
        parse_s = seconds("io.parse_weather_csv")
        m["io.parse_weather_csv.s"] = parse_s
        m["io.parse_weather_csv.rows_per_s"] = prep.rows / parse_s if parse_s else 0.0
        m["io.write_results.s"] = seconds("io.write_results")
        init_s = seconds("daylight.Simulator.init")
        grid_s = seconds("geometry.workplane")
        grid = _GRID.search(c.stderr)
        m["daylight.Simulator.init_s"] = init_s
        m["daylight.df.points_per_s"] = (
            int(grid.group(1)) / (init_s - grid_s) if grid and init_s > grid_s else 0.0)
        m["geometry.workplane.s"] = grid_s
        for label in ("io.parse_series_csv", "metrics.resample_hourly", "metrics.evaluate_pair"):
            m[f"{label}.s"] = seconds(label)
        rows.append(m)
    metrics = {k: median(r[k] for r in rows) for k in rows[0]}
    counts = prep.counters(first_unit) if prep.counters else {}
    for k in ("daylight.steps", "daylight.dark_steps", "daylight.sunfacing_steps",
              "daylight.sunlit_steps"):
        metrics[k] = counts.get(k, 0)
    # each traced unit against the untraced one just before it, so that both
    # sides of a difference saw the same machine
    metrics["trace.overhead_s"] = median(t.wall_s * t.scale - p.wall_s * p.scale
                                         for p, t in zip(plain, traced))
    return metrics


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__}


def load_refs() -> dict:
    refs = json.loads((HERE / "refs.json").read_text(encoding="utf-8"))
    for name, probes, instants in (("test_cell", inputs.TEST_CELL_PROBES, inputs.TEST_CELL_INSTANTS),
                                   ("l_room", inputs.L_ROOM_PROBES, inputs.L_ROOM_INSTANTS)):
        if [tuple(p) for p in refs[name]["probes"]] != probes or refs[name]["instants"] != instants:
            raise SystemExit(f"refs.json does not match the {name} probes and instants; "
                             "regenerate it with make_refs.py")
    return refs


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    refs = load_refs()
    work = ROOT / ".bench_work" / f"{name}-{seed}-{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        if isinstance(wl, Simulation):
            prep = prepare_simulation(wl, seed, work / "inputs", refs)
        else:
            prep = prepare_validation(wl, seed, work / "inputs")
        # load the interpreter and the package from disk once before timing
        spawn([sys.executable, "-c", "import sidelux.cli"], work / "warm.out", work / "warm.err")
        calls, first, speed = measure(prep, seconds, trace, work)
        extra = []
        if trace:
            metrics = per_layer(calls, prep, first)
            declared = PER_LAYER
        else:
            source, out, source_calls = prep, first, calls
            if not (isinstance(wl, Simulation) and wl.instants):
                source = prepare_simulation(ACCURACY_PROBE, seed, work / "accuracy_inputs", refs)
                out = work / "accuracy"
                extra = [invoke(source.commands[0](out), False, out / "call0")]
                extra[0].errors += source.check(out)
                source_calls = extra
                prep.fingerprints.update({f"accuracy/{k}": v for k, v in source.fingerprints.items()})
            nan = float("nan")
            accuracy = (nan, nan) if any(c.errors for c in source_calls) else source.accuracy(out)
            metrics = end_to_end(wl, calls, prep, accuracy, speed)
            declared = {k: u for k, (u, _) in END_TO_END.items()}
        everything = calls + extra
        failed = sum(1 for c in everything if c.errors)
        correct = failed == 0 and all(np.isfinite(v) for v in metrics.values())
        result = {
            "correct": bool(correct),
            "attempted": len(everything),
            "failed": failed,
            "metrics": {k: {"value": float(metrics[k]), "unit": declared[k]} for k in declared},
        }
        record = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "result": result, "inputs_sha256": prep.fingerprints, "machine": machine(),
            "calls": [{"args": c.args, "traced": c.traced, "wall_s": c.wall_s, "scale": c.scale,
                       "rss_mb": c.rss_mb,
                       "exit_code": c.exit_code, "errors": c.errors, "report": c.report}
                      for c in everything],
        }
        results = ROOT / ".bench_results"
        results.mkdir(exist_ok=True)
        (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
            json.dumps(record, indent=1), encoding="utf-8")
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_record(record: dict) -> None:
    result = record["result"]
    status = "ok" if result["correct"] else "FAILED"
    print(f"{record['workload']} seed={record['seed']} trace={record['trace']}: "
          f"{result['attempted']} CLI commands, {result['failed']} failed, output checks {status}")
    for name, m in result["metrics"].items():
        print(f"  {name:<54} {m['value']:>14.6g} {m['unit']}")
    for c in record["calls"]:
        for e in c["errors"][:3]:
            print(f"  check: {e}")
    for fname, digest in record["inputs_sha256"].items():
        print(f"  input {fname} sha256 {digest}")
    print("  machine " + ", ".join(f"{k} {v}" for k, v in record["machine"].items()))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "sidelux" / "cli.py").is_file():
        print(f"no sidelux source under {SRC}: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_record(record)
        print(json.dumps(record["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
