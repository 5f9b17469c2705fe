#!/usr/bin/env python3
"""Regenerate refs.json, the frozen accuracy references.

    python3 perfbench/make_refs.py

For each reference building it computes, with the benchmark's own ray-cast
math (physics.py, which imports nothing from sidelux), the daylight factor
at the workload's probes and the sun-patch area at its field instants. Walls,
windows and obstructions all occlude. Each value is computed twice, at a
step of CELLS Gauss cells per window side and at half that step, and the
largest change is recorded so the references can be shown to be converged.
"""

import json
from pathlib import Path

import numpy as np

import inputs
import physics

HERE = Path(__file__).resolve().parent
CELLS = 128   # Gauss cells per window side for the coarser DF pass


def reference(name: str, probes, instants) -> dict:
    scene = physics.Scene(inputs.BUILDINGS[name])
    loc = inputs.SITE
    df = []
    df_change = 0.0
    for x, y in probes:
        p = (x, y, scene.plane_z)
        coarse = physics.daylight_factor(scene, p, CELLS)
        fine = physics.daylight_factor(scene, p, 2 * CELLS)
        df.append(fine)
        df_change = max(df_change, abs(fine - coarse))
    alt, az = physics.sun_angles(physics.to_minutes(instants), loc["lat"], loc["lon"], loc["tz"])
    area = []
    area_change = 0.0
    for d in physics.sun_direction(alt, az):
        coarse = physics.patch_area(scene, d, split=1)
        fine = physics.patch_area(scene, d, split=2)
        area.append(fine)
        area_change = max(area_change, abs(fine - coarse))
    return {
        "probes": [list(p) for p in probes],
        "df": df,
        "instants": list(instants),
        "patch_area": area,
        "df_window_cells": 2 * CELLS,
        "df_max_change_when_halving_step": df_change,
        "patch_area_max_change_when_halving_step": area_change,
    }


def main() -> None:
    refs = {
        "test_cell": reference("test_cell", inputs.TEST_CELL_PROBES, inputs.TEST_CELL_INSTANTS),
        "l_room": reference("l_room", inputs.L_ROOM_PROBES, inputs.L_ROOM_INSTANTS),
    }
    (HERE / "refs.json").write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({k: {m: v[m] for m in v if "change" in m} for k, v in refs.items()}))


if __name__ == "__main__":
    np.seterr(all="raise", under="ignore")
    main()
