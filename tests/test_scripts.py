"""Smoke runs of the scripts under ``scripts/`` with small arguments."""

import re
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args, cwd):
    done = subprocess.run([sys.executable, str(SCRIPTS / name), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_run_test_cell_day(tmp_path):
    out = run_script("run_test_cell_day.py", "--out", str(tmp_path / "out"), cwd=tmp_path)
    assert "clear: patch area at noon" in out and "overcast:" in out
    for name in ("df_map.txt", "clear_summary.csv", "overcast_summary.csv",
                 "clear_probe1.csv", "clear_field_20090715T1200.txt"):
        assert (tmp_path / "out" / name).is_file(), name
    summary = (tmp_path / "out" / "clear_summary.csv").read_text().splitlines()
    assert len(summary) == 1441 and summary[-1].startswith("2009-07-15T23:59:00,")
    probe = (tmp_path / "out" / "clear_probe1.csv").read_text().splitlines()
    assert probe[0] == "timestamp,E_glo_lux" and probe[1].startswith("2009-07-15T00:00:00,")


def test_benchmark_year_hourly_steps(tmp_path):
    out = run_script("benchmark_year.py", "--step", "60", "--cell", "0.3", cwd=tmp_path)
    assert "8760 steps" in out
    for label, points in (("", 143), ("L-room ", 300)):
        df = re.search(rf"^{label}daylight-factor precompute: (\d+) points in \d+\.\d ms, "
                       r"best of 5; peak allocation (\d+\.\d\d) MB$", out, re.M)
        assert df and int(df[1]) == points and float(df[2]) > 0.0
    assert re.search(r"^minor page faults: \d+ in the first build \(\d+\.\d ms\), \d+ in the "
                     r"L-room's \(\d+\.\d ms\), \d+ in the stepping \(\d+\.\d s\)$", out, re.M)
    rss = re.search(r"^peak RSS: (\d+\.\d) MB before stepping, (\d+\.\d) MB after$", out, re.M)
    assert rss and float(rss[2]) >= float(rss[1]) > 0.0
    assert re.search(r"^weather parse: 525600 rows in \d+\.\d\d s \(\d+ rows/s\)$", out, re.M)
    assert re.search(r"^summary write: 8760 rows in \d+\.\d\d s \(\d+ rows/s\)$", out, re.M)
    assert re.search(r"^sun position: 8760 steps in \d+\.\d\d s \(\d+\.\d\d us/step\)$", out, re.M)
    lit = re.search(r"^sun up \(lit\): (\d+) of 8760 steps in (\d+) calls? in \d+\.\d\d s "
                    r"\(\d+\.\d\d us/step\)$", out, re.M)
    sunny = re.search(r"^sun patch: (\d+) sunny steps in (\d+) batches in \d+\.\d\d s "
                      r"\(\d+\.\d\d us/step\)$", out, re.M)
    # the counts of the year's clear half-sine days at the test cell's site
    assert sunny and int(sunny[1]) == 4249 and int(sunny[2]) == 2
    assert lit and int(lit[1]) == 4380 and int(lit[2]) == 1  # one sun_up call per run
    # an hour apart, every lit step is an anchor of sun_up: one exact pass over them;
    # in the clear year each sunny step gets one more exact altitude for its position,
    # one pass per beam batch
    for label, exact, passes in (("", 4380 + 4249, 3), ("all-diffuse ", 4380, 1)):
        counts = re.search(rf"^{label}sun altitude \(exact\): (\d+) of (\d+) lit steps "
                           r"in (\d+) pass(?:es)?$", out, re.M)
        assert counts and tuple(map(int, counts.groups())) == (exact, 4380, passes)
    assert re.search(r"^all-diffuse year \(Dh = Gh\): 8760 steps in \d+\.\d\d s \(\d+ steps/s\)$",
                     out, re.M)
    position = re.search(r"^sun position \(sunny\): (\d+) sunny steps in \d+\.\d\d s "
                         r"\(\d+\.\d\d us/step\)$", out, re.M)
    assert position and position[1] == sunny[1]
    l_room = re.search(r"^L-room sun patch \(2 floor parts\): (\d+) sunny steps of every 3rd step "
                       r"in \d+\.\d\d s, best of 5 \(\d+\.\d\d us/step\)$", out, re.M)
    assert l_room and int(l_room[1]) == 1342
    assert re.search(r"^L-room stepping: \d+ minor page faults in the first of the 5 runs "
                     r"\(\d+\.\d\d s\)$", out, re.M)
