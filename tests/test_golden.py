"""Golden outputs: the sha256 of every file the CLI writes for the two
benchmark buildings of ``perfbench/inputs.py``.

Per building: ``simulate`` over 2 clear days of minutes with the building's
probes and two ``--field-at`` instants (the summary and both field files),
and ``dfmap``. The CLI writes 6 significant digits, which can hide a move
in the last bits, so the raw bits of the beam are pinned as well: one
sha256 per building of ``BeamKernel``'s areas and lit masks over a year of
suns. A change that moves any output byte must edit the digest here and
say in CHANGES.md why the output moved.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_same_bits
from sidelux.cli import main
from sidelux.daylight import BLOCK_STEPS, BeamKernel
from sidelux.io import parse_building
from sidelux.solar import sun_positions

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import inputs  # noqa: E402

SEED = 7
DAYS = 2

CASES = {
    "test_cell": (inputs.TEST_CELL_PROBES, inputs.TEST_CELL_INSTANTS[:2]),
    "l_room": (inputs.L_ROOM_PROBES, inputs.L_ROOM_INSTANTS[:2]),
}

GOLDEN = {
    "test_cell": {
        "df.txt": "ef182b4b55fad337fe25896e9f31099b5e489df5f56641684123aefc7447e531",
        "run_field_20090701T0900.txt":
            "d1fbd8005923c0fe3abaf3fa9b6f65098e392e56e029e72f244e04d249637e22",
        "run_field_20090701T1200.txt":
            "af958877ad6f481f5811be926d68480f580ccf2f2dd0696c8235798f974542bb",
        "run_summary.csv": "63801996121a86697a2d540289da3f2c79f73972840bd6f2313ea0ab166e5716",
    },
    "l_room": {
        "df.txt": "24c57542bbc666506852833fd980967cb388cdda55e40f16a2a560bf20f827c4",
        "run_field_20090701T0900.txt":
            "0591c6a90e2d90b7918c4051bf0c3787b1e670417ac81fe97b1a3c9e05dd5c67",
        "run_field_20090701T1100.txt":
            "185a1117d622336db27b38c851911419cbd1562f9ecaa859ad21975aab138498",
        "run_summary.csv": "29ca3c1d94d6e2ca08eb4e7d15c5cf26c87ce14a12a3b1efb4a79f39403ad5df",
    },
}


BEAM_BITS = {
    "test_cell": "b82c5791213832d3b7a51cbcc395f2f06a36afd126faca807c6b3767f6b6db43",
    "l_room": "72bb5a134a26ed9553f11e3cde44c78c3f9801e41763d25c1e273ac4bea9e8bb",
}


def outputs(tmp_path: Path, name: str) -> dict[str, str]:
    probes, instants = CASES[name]
    building, weather = tmp_path / "building.json", tmp_path / "weather.csv"
    inputs.write_building(building, name)
    inputs.write_weather(weather, *inputs.clear_weather(SEED, "2009-07-01", DAYS, instants))
    fields = [a for t in instants for a in ("--field-at", t)]
    assert main(["simulate", "--building", str(building), "--weather", str(weather),
                 "--out", str(tmp_path / "run"),
                 "--probes", ";".join(f"{x},{y}" for x, y in probes), *fields]) == 0
    assert main(["dfmap", "--building", str(building), "--out", str(tmp_path / "df.txt")]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(tmp_path.iterdir()) if p.name not in (building.name, weather.name)}


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden_digests(tmp_path, name):
    assert outputs(tmp_path, name) == GOLDEN[name]


def year_of_suns(tmp_path: Path, name: str):
    """The building's ``BeamKernel``, its probes (N, 2) and its sun
    directions over every 7th minute of 2009 with the sun up. The
    directions are rounded to float32, so nothing here hangs on the last
    bits of the platform's trigonometry; the beam itself uses only
    + - * / and sqrt."""
    probes, _ = CASES[name]
    building = tmp_path / "building.json"
    inputs.write_building(building, name)
    description = parse_building(building)
    kernel = BeamKernel(description.room, description.room.floor_z
                        + description.settings["workplane_height"])
    times = np.arange("2009-01-01", "2010-01-01", np.timedelta64(7, "m"), dtype="datetime64[us]")
    altitude, _, direction = sun_positions(times, description.location)
    direction = direction[altitude > 0.0].astype(np.float32).astype(float)
    return kernel, np.array(probes, dtype=float), direction


def beam_bits(tmp_path: Path, name: str) -> str:
    """sha256 of the beam's areas and lit masks at the building's probes
    over :func:`year_of_suns`, in batches of ``BLOCK_STEPS`` steps, the
    most ``Simulator.run`` hands over."""
    kernel, probes, direction = year_of_suns(tmp_path, name)
    digest = hashlib.sha256()
    for i in range(0, len(direction), BLOCK_STEPS):
        areas, lit = kernel(direction[i:i + BLOCK_STEPS], probes)
        digest.update(areas.tobytes())
        digest.update(lit.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_beam_bits_match_golden_digests(tmp_path, name):
    assert beam_bits(tmp_path, name) == BEAM_BITS[name]


def test_beam_bits_do_not_depend_on_the_batch(tmp_path):
    """On the L room, whose clipped images come in many widths, each sun's
    areas and lit mask are the same bits in one batch of the whole year,
    in batches of 37 and alone, so ``Simulator.run`` may cut its sunny
    steps into batches anywhere. Alone only every 25th sun, to keep the
    test short (a call costs about the same for one sun as for 37)."""
    kernel, probes, direction = year_of_suns(tmp_path, "l_room")
    areas, lit = kernel(direction, probes)
    batches = [kernel(direction[i:i + 37], probes) for i in range(0, len(direction), 37)]
    assert_same_bits(np.concatenate([a for a, _ in batches]), areas)
    assert np.array_equal(np.concatenate([m for _, m in batches]), lit)
    for i in range(0, len(direction), 25):
        one_area, one_lit = kernel(direction[i:i + 1], probes)
        assert_same_bits(one_area[0], areas[i])
        assert np.array_equal(one_lit[0], lit[i])
    assert lit.any() and (areas > 0.0).all(axis=1).any()  # both windows cast patches
