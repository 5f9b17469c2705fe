"""Outside-in tracing of the ``sidelux`` package.

The tracer rebinds public functions and methods to timing wrappers in the
benchmark's own process; the package itself is not edited. A function that
was imported by name into another module (``from .geometry import
clip_polygon``) is rebound there too, so calls through either name are seen.

Every wrapped call adds to its label's count, total time and self time (total
minus the time of wrapped calls made inside it). Labels listed as phases also
keep each span (label, start, end, parent label). ``restore`` puts every
original back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# label -> (module, attribute path). The labels are the per-layer metric
# prefixes; each name is public and on the CLI's path.
TARGETS = {
    "cli.main": ("sidelux.cli", "main"),
    "io.parse_building": ("sidelux.io", "parse_building"),
    "io.parse_weather_csv": ("sidelux.io", "parse_weather_csv"),
    "io.parse_series_csv": ("sidelux.io", "parse_series_csv"),
    "io.write_results": ("sidelux.io", "write_results"),
    "solar.sun_position": ("sidelux.solar", "sun_position"),
    "solar.reconstruct_illuminance": ("sidelux.solar", "reconstruct_illuminance"),
    "geometry.workplane": ("sidelux.geometry", "workplane_grid_for_parts"),
    "geometry.project_polygon_along_direction": ("sidelux.geometry",
                                                 "project_polygon_along_direction"),
    "geometry.clip_polygon": ("sidelux.geometry", "clip_polygon"),
    "daylight.Simulator.init": ("sidelux.daylight", "Simulator.__init__"),
    "daylight.Simulator.run": ("sidelux.daylight", "Simulator.run"),
    "daylight.compute_sun_patch": ("sidelux.daylight", "compute_sun_patch"),
    "metrics.resample_hourly": ("sidelux.metrics", "resample_hourly"),
    "metrics.evaluate_pair": ("sidelux.metrics", "evaluate_pair"),
}
# The few once-per-command spans the untraced runs keep, for set-up time and
# stepping rate; four timer pairs per command cost nothing measurable.
PHASES = ("cli.main", "io.parse_building", "daylight.Simulator.init", "daylight.Simulator.run")
# Labels whose truthy results are counted (a non-empty sun patch is truthy).
COUNT_TRUTHY = ("daylight.compute_sun_patch",)


class Tracer:
    def __init__(self, targets: dict = TARGETS):
        self.targets = targets
        self.stats: dict[str, list] = {}   # label -> [calls, total_s, self_s, truthy]
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self._stack: list[list] = []       # [label, child time] of open calls
        self._restore: list[tuple] = []

    def install(self) -> "Tracer":
        for label, (modname, path) in self.targets.items():
            try:
                owner = importlib.import_module(modname)
                *outer, name = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = vars(owner)[name]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(label)
                continue
            self.stats[label] = [0, 0.0, 0.0, 0]
            wrapped = self._wrap(label, original)
            if isinstance(owner, type):
                owners = [(owner, name)]
            else:
                owners = [(module, alias) for modname, module in list(sys.modules.items())
                          if modname == "sidelux" or modname.startswith("sidelux.")
                          for alias, value in list(vars(module).items()) if value is original]
            for where, alias in owners:
                self._restore.append((where, alias, original))
                setattr(where, alias, wrapped)
        return self

    def restore(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _wrap(self, label: str, fn):
        stats = self.stats[label]
        stack = self._stack
        clock = time.perf_counter
        keep_span = label in PHASES
        count_truthy = label in COUNT_TRUTHY

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [label, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                if keep_span:
                    self.spans.append((label, t0, t1, stack[-1][0] if stack else None))
            if count_truthy and result:
                stats[3] += 1
            return result

        return wrapper

    def report(self) -> dict:
        return {
            "stats": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2], "truthy": v[3]}
                      for k, v in self.stats.items()},
            "spans": self.spans,
            "absent": self.absent,
        }
