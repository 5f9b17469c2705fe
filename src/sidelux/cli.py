"""Batch command-line front end.

Subcommands:
  simulate  - run a period simulation and write the summary CSV (plus
              optional per-instant field files)
  validate  - compare a simulated series CSV against a reference series CSV
              and emit the validation report
  dfmap     - write the weather-independent daylight-factor field (percent)

Exit codes: 0 success, 1 reliability below a requested threshold, 2 input
error, 3 internal error. Diagnostics go to stderr; data goes to files or
stdout.
"""

from __future__ import annotations

import argparse
import sys
import time
from datetime import datetime
from pathlib import Path

import numpy as np

from .errors import DataError
from .io import (
    parse_building,
    parse_series_csv,
    parse_tmy2_subset,
    parse_weather_csv,
    write_field_file,
    write_results,
)
from .metrics import SeriesPair, evaluate_pair, resample_hourly


def _parse_ts(text: str) -> datetime:
    try:
        return datetime.fromisoformat(text)
    except ValueError:
        raise DataError(f"bad timestamp {text!r} (expected ISO-8601)") from None


def _number_in(lo: float, hi: float):
    """An argparse type: a number in [lo, hi], so NaN and infinities fail."""
    def number(text: str) -> float:
        value = float(text)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"{text} is not a number in [{lo:g}, {hi:g}]")
        return value
    return number


def _parse_probes(text: str) -> list[tuple[float, float]]:
    probes = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise DataError(f"bad probe {chunk!r} (expected x,y)")
        try:
            probes.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise DataError(f"bad probe {chunk!r} (expected x,y)") from None
    return probes


def _load_weather(path: str):
    p = Path(path)
    if p.suffix.lower() in (".tm2", ".tmy2"):
        return parse_tmy2_subset(p)
    return parse_weather_csv(p)


def _cmd_simulate(args) -> int:
    building = parse_building(args.building)
    weather = _load_weather(args.weather)
    sim = building.simulator()
    start = _parse_ts(args.start) if args.start else None
    end = _parse_ts(args.end) if args.end else None
    probes = _parse_probes(args.probes) if args.probes else []
    field_at = [_parse_ts(t) for t in args.field_at or []]
    t0 = time.perf_counter()
    result = sim.run(
        weather, start=start, end=end, step_minutes=args.step,
        probes=probes, field_at=field_at,
    )
    t1 = time.perf_counter()
    paths = write_results(result, args.out)
    t2 = time.perf_counter()
    print(
        f"{sim.grid.n_points} grid points, {len(result.timestamps)} steps, "
        f"{t1 - t0:.2f} s stepping, {t2 - t1:.2f} s write; "
        f"wrote {', '.join(str(p) for p in paths)}",
        file=sys.stderr,
    )
    return 0


def _cmd_validate(args) -> int:
    ts_sim, v_sim = parse_series_csv(args.sim)
    ts_ref, v_ref = parse_series_csv(args.reference)
    if args.resample == "hourly" and np.array_equal(ts_sim, ts_ref):
        # the same raw stamps: one grouping by hour serves both series
        ts_sim, v_sim, v_ref = resample_hourly(ts_sim, v_sim, v_ref)
        ts_ref = ts_sim
    elif args.resample == "hourly":
        ts_sim, v_sim = resample_hourly(ts_sim, v_sim)
        ts_ref, v_ref = resample_hourly(ts_ref, v_ref)
    if not np.array_equal(ts_sim, ts_ref):
        # the first position where the stamps differ, or where one series ends
        n = min(len(ts_sim), len(ts_ref))
        i = int(np.argmin(np.append(ts_sim[:n] == ts_ref[:n], False)))
        stamps = ", ".join(f"{name} has {ts[i].item().isoformat() if i < len(ts) else 'none'}"
                           for name, ts in (("simulated", ts_sim), ("reference", ts_ref)))
        hint = "" if args.resample else " (consider --resample hourly)"
        raise DataError("timestamp mismatch between simulated and reference series at "
                        f"position {i + 1}: {stamps}{hint}")
    report = evaluate_pair(SeriesPair(v_sim, v_ref), args.error if args.mode == "margin" else None)
    name = args.name or Path(args.sim).stem
    table = report.to_table(name=name)
    if args.out == "-":
        sys.stdout.write(table)
    else:
        Path(args.out).write_text(table, encoding="utf-8")
    if args.require_rsd is not None and report.rsd_pct < args.require_rsd:
        print(
            f"RSD {report.rsd_pct:.2f}% below required {args.require_rsd:.2f}%",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_dfmap(args) -> int:
    building = parse_building(args.building)
    sim = building.simulator()
    write_field_file(args.out, sim.grid, sim.df * 100.0, "DF_pct")
    print(f"{sim.grid.n_points} grid points; wrote {args.out}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sidelux",
        description="Workplane daylighting simulation and validation, batch only.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a period simulation")
    sim.add_argument("--building", required=True, help="building JSON path")
    sim.add_argument("--weather", required=True, help="weather CSV or TMY2 path")
    sim.add_argument("--start", help="first step (ISO-8601, default: first record)")
    sim.add_argument("--end", help="end of the run, exclusive (default: through the last record)")
    sim.add_argument("--step", type=int, default=1, help="step in minutes (default 1)")
    sim.add_argument("--out", required=True, help="output path prefix")
    sim.add_argument("--field-at", action="append", metavar="TS",
                     help="emit a detailed field file at this instant (repeatable)")
    sim.add_argument("--probes", help="probe positions as 'x,y;x,y;...'")
    sim.set_defaults(func=_cmd_simulate)

    val = sub.add_parser("validate", help="compare simulated vs reference series")
    val.add_argument("sim", help="simulated series CSV (timestamp,value)")
    val.add_argument("reference", help="reference series CSV (timestamp,value)")
    val.add_argument("--mode", choices=["margin", "error"], default="error")
    val.add_argument("--error", type=_number_in(0.0, 1.0), default=0.15,
                     help="total error fraction for margin mode (default 0.15)")
    val.add_argument("--resample", choices=["hourly"],
                     help="average both series per clock hour before comparing")
    val.add_argument("--require-rsd", type=_number_in(0.0, 100.0), default=None, metavar="PCT",
                     help="exit 1 when the reliability falls below this percentage")
    val.add_argument("--name", help="test name in the report (default: sim file stem)")
    val.add_argument("--out", default="-", help="report path ('-' for stdout)")
    val.set_defaults(func=_cmd_validate)

    dfm = sub.add_parser("dfmap", help="write the daylight-factor field")
    dfm.add_argument("--building", required=True, help="building JSON path")
    dfm.add_argument("--out", required=True, help="field file path")
    dfm.set_defaults(func=_cmd_dfmap)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # every sidelux error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
