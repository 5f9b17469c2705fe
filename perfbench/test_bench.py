"""Self-tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

import json
import os
import re
import shutil
import subprocess
import sys
import time
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def benchmark_json() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_names_are_valid_and_match_benchmark_json():
    spec = benchmark_json()
    names = [*run.WORKLOADS, *run.END_TO_END, *run.PER_LAYER]
    assert all(NAME.fullmatch(n) for n in names)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_tracer_counts_calls_and_restores_originals():
    import sidelux.daylight
    import sidelux.geometry
    import sidelux.solar

    clip = sidelux.geometry.clip_polygon
    init = vars(sidelux.daylight.Simulator)["__init__"]
    targets = dict(tracer.TARGETS, **{"geometry.gone": ("sidelux.geometry", "no_such_function")})
    t = tracer.Tracer(targets).install()
    try:
        assert t.absent == ["geometry.gone"]
        assert sidelux.daylight.clip_polygon is not clip
        assert sidelux.geometry.clip_polygon is sidelux.daylight.clip_polygon
        assert vars(sidelux.daylight.Simulator)["__init__"] is not init
        loc = sidelux.solar.GeoLocation(-21.34, 55.48, 4.0)
        sidelux.solar.sun_position(datetime(2009, 7, 1, 12), loc)
    finally:
        t.restore()
    assert t.report()["stats"]["solar.sun_position"]["calls"] == 1
    assert sidelux.geometry.clip_polygon is clip
    assert sidelux.daylight.clip_polygon is clip
    assert vars(sidelux.daylight.Simulator)["__init__"] is init


def test_host_speed_scales_by_the_mean_kernel_time_in_the_interval():
    speed = hostspeed.HostSpeed()
    speed.starts = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    speed.cpu_s = [9.0, 1.0, 2.0, 3.0, 9.0, 9.0]
    factor = (hostspeed.REFERENCE_S / 2.0) ** hostspeed.SENSITIVITY
    assert speed.scale(0.5, 3.5) == pytest.approx(factor)
    # an interval with too few samples takes the ones nearest its middle
    assert speed.scale(2.1, 2.2) == pytest.approx(factor)
    cpus = os.sched_getaffinity(0)
    with hostspeed.HostSpeed() as live:
        assert len(os.sched_getaffinity(0)) == 1
        time.sleep(0.1)
    assert os.sched_getaffinity(0) == cpus
    assert len(live.starts) >= 2 and not live._thread.is_alive()
    assert live.scale(live.starts[0], live.starts[-1]) > 0.0


def _summary_and_expectation():
    ts = np.array([f"2009-07-01T{h:02d}:00:00" for h in range(4)])
    s = checks.Summary(
        timestamps=ts,
        e_global=np.array([0.0, 30000.0, 60000.0, 20000.0]),
        e_diffuse=np.array([0.0, 30000.0, 10000.0, 20000.0]),
        e_direct=np.array([0.0, 0.0, 50000.0, 0.0]),
        patch=np.array([0.0, 0.0, 0.5, 0.0]),
        probes=np.array([[0.0], [600.0], [3000.0], [400.0]]),
    )
    exp = checks.Expected(timestamps=ts, night=np.array([True, False, False, False]),
                          overcast=np.array([True, True, False, True]),
                          patch_bound=np.array([0.0, 1.0, 1.0, 1.0]), n_probes=1)
    return s, exp


def test_checks_accept_a_valid_summary_and_reject_a_broken_decomposition():
    s, exp = _summary_and_expectation()
    assert checks.check_summary(s, exp) == []
    s.e_global[2] = 61000.0
    assert any("E_out_G" in e for e in checks.check_summary(s, exp))


def test_checks_reject_a_patch_beyond_the_window_image_and_an_inconsistent_probe():
    s, exp = _summary_and_expectation()
    s.patch[2] = 1.5
    s.probes[3, 0] = 500.0
    errors = checks.check_summary(s, exp)
    assert any("larger than" in e for e in errors)
    assert any("DF_probe" in e for e in errors)


def test_accuracy_errors_below_the_printed_resolution_read_as_that_resolution():
    assert checks.printed_resolution(np.array([0.2023715, 0.983, 1.005, 0.0])).tolist() == \
        pytest.approx([1e-6, 1e-6, 1e-5, 0.0], rel=1e-12)


def test_a_failing_command_is_an_error(tmp_path):
    call = run.invoke(["simulate", "--building", str(tmp_path / "missing.json"),
                       "--weather", "x.csv", "--out", str(tmp_path / "o")], False, tmp_path)
    assert call.exit_code == 2
    assert call.errors and "exit code 2" in call.errors[0]


def test_the_same_seed_gives_the_same_fingerprint(tmp_path):
    digests = []
    for k, seed in enumerate((7, 7, 8)):
        p = tmp_path / f"w{k}.csv"
        inputs.write_weather(p, *inputs.clear_weather(seed, "2009-07-01", 1,
                                                      inputs.TEST_CELL_INSTANTS))
        digests.append(inputs.sha256(p))
    assert digests[0] == digests[1] != digests[2]
    # pinned, so a change to the generator (or to numpy's random streams)
    # shows up as a changed input rather than as a change in the engine
    assert digests[0] == "8b2e2cbafff49e4a00ca619af15cc2601499ef4f402962ed1a13dddd812550d4"


def test_the_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sunlit_winter",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert p.stdout == ""


@pytest.mark.parametrize("name", ["test_cell", "l_room"])
def test_references_match_the_workload_inputs(name):
    refs = run.load_refs()[name]
    assert len(refs["df"]) == len(refs["probes"])
    assert len(refs["patch_area"]) == len(refs["instants"])
