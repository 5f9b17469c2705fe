"""The public names of the ``sidelux`` package and ``Simulator``'s public methods."""

import ast
import dataclasses
import inspect
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

import sidelux
from conftest import TROPICAL_SITE, assert_same_bits, make_canonical_room


def bound_names() -> list[str]:
    """The public names ``sidelux/__init__.py`` binds on purpose: what it
    imports, assigns and defines (not the submodules its imports load)."""
    names = []
    for node in ast.parse(Path(sidelux.__file__).read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
    return sorted(n for n in names if not n.startswith("_"))


def test_public_names_are_pinned():
    """Every public name of the package. A name added or removed fails this
    test, so the change that makes it has to edit this list and say why."""
    assert bound_names() == [
        "Aperture", "ConfigError", "DFBreakdown", "DataError", "DegenerateMeshError",
        "EfficacyModel", "GeoLocation", "GeometryError", "GridMesh", "IlluminanceField",
        "MetricError", "Obstruction", "OutdoorIlluminance", "ParseError", "PeriodResult",
        "Polygon3", "Room", "SeriesPair", "Simulator", "SolarState", "SurfaceOptics",
        "ValidationReport", "WeatherSeries", "clip_polygon",
        "daylight_factor", "decompose_convex", "df_from_components", "evaluate_pair",
        "io", "mbd", "r2", "reconstruct_illuminance",
        "relative_errors", "resample_hourly", "rmsd", "rsd", "sun_position",
    ]
    assert all(hasattr(sidelux, name) for name in bound_names())


def test_result_members_are_pinned():
    """A run's outputs are its columns and a field holds only what it adds
    over the grid: no timestamp, outdoor conditions, sun or probe names
    that repeat the caller's input or the run's columns."""
    def names(cls):
        return [f.name for f in dataclasses.fields(cls)]

    assert names(sidelux.PeriodResult) == [
        "timestamps", "outdoor_global", "outdoor_diffuse", "outdoor_direct", "patch_area",
        "probe_global", "fields",
    ]
    assert names(sidelux.IlluminanceField) == [
        "grid", "df", "e_diffuse", "e_direct", "e_global", "patch_area",
    ]


def test_simulator_methods_are_pinned():
    """``Simulator``'s public methods and their parameters (without
    ``self``): ``evaluate`` takes the columns a run passes."""
    methods = {name: list(inspect.signature(fn).parameters)[1:]
               for name, fn in vars(sidelux.Simulator).items()
               if callable(fn) and not name.startswith("_")}
    assert methods == {
        "evaluate": ["direction", "e_global", "e_direct"],
        "run": ["weather", "start", "end", "step_minutes", "probes", "field_at"],
        "step": ["when", "gh", "dh", "ev_global", "ev_diffuse"],
    }


def test_validation_api_is_pinned():
    """A series pair holds only the two series, and the reliability
    reading has one knob, the error fraction that ``rsd`` and
    ``evaluate_pair`` take as ``margin``."""
    assert [f.name for f in dataclasses.fields(sidelux.SeriesPair)] == ["sim", "ref"]
    for fn in (sidelux.rsd, sidelux.evaluate_pair):
        assert list(inspect.signature(fn).parameters) == ["pair", "margin"]


def test_evaluate_a_batch_is_its_instants_one_at_a_time():
    """``evaluate`` over a batch of sunny, dark and overcast instants gives,
    bit for bit, what it gives for each instant alone. A direction that
    points up casts nothing, whatever the direct part."""
    sim = sidelux.Simulator(make_canonical_room(), TROPICAL_SITE, cell=0.25)
    noon, morning, night = (sidelux.sun_position(datetime(2009, 7, 15, h), TROPICAL_SITE)
                            for h in (12, 9, 1))
    direction = np.array([noon.direction, night.direction, morning.direction, (0.0, 0.0, 1.0),
                          morning.direction])
    e_global = np.array([60000.0, 0.0, 12000.0, 38000.0, 50000.0])
    e_direct = np.array([45000.0, 0.0, 0.0, 30000.0, 30000.0])
    batch = sim.evaluate(direction, e_global, e_direct)
    assert len(batch) == 5
    for j, fld in enumerate(batch):
        alone = sim.evaluate(direction[[j]], e_global[[j]], e_direct[[j]])[0]
        assert alone.patch_area == fld.patch_area
        for attr in ("df", "e_diffuse", "e_direct", "e_global"):
            assert_same_bits(getattr(alone, attr), getattr(fld, attr))
    assert batch[0].patch_area > 0.0 and batch[4].patch_area > 0.0
    assert not batch[1].e_global.any()
    up = batch[3]
    assert up.patch_area == 0.0 and not up.e_direct.any()
    for got in (up.e_diffuse, up.e_global):
        assert_same_bits(got, sim.df * 38000.0)


@pytest.mark.parametrize("direction,e_global,e_direct,message", [
    ([(0.0, 0.0, -1.0)] * 2, [1.0, 2.0, 3.0], [0.0, 0.0, 1.0], "sun directions"),
    ([(0.0, 0.0, -1.0)] * 2, [1.0, 2.0], [0.0], "sun directions"),
    ((0.0, 0.0, -1.0), [1.0], [0.0], "sun directions"),
    ([(0.0, -1.0)], [1.0], [0.0], "sun directions"),
    ([(0.0, 0.0, -1.0)], [1000.0], [-1.0], "0 <= e_direct <= e_global"),
    ([(0.0, 0.0, -1.0)], [1000.0], [2000.0], "0 <= e_direct <= e_global"),
    ([(0.0, 0.0, -1.0)], [float("nan")], [0.0], "0 <= e_direct <= e_global"),
])
def test_evaluate_rejects_a_batch_that_does_not_line_up(direction, e_global, e_direct, message):
    """Every instant needs one sun direction and both illuminances, with
    0 <= E_direct <= E_global: a batch whose arrays do not line up would
    give some instants no beam, so it is refused."""
    sim = sidelux.Simulator(make_canonical_room(), TROPICAL_SITE, cell=0.5)
    with pytest.raises(sidelux.DataError, match=message):
        sim.evaluate(direction, e_global, e_direct)


INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize("direction,e_global,message", [
    ((0.0, 0.0, 0.0), 1000.0, "finite, non-zero length"),
    ((0.0, 1e-300, -1e-300), 1000.0, "finite, non-zero length"),  # its squares underflow to 0
    ((0.0, 1e200, -1e200), 1000.0, "finite, non-zero length"),  # its squares overflow
    ((0.0, INF, -1.0), 1000.0, "finite, non-zero length"),
    ((0.0, -1.0, NAN), 1000.0, "finite, non-zero length"),
    ((0.0, 0.0, -1.0), INF, "must be finite"),
])
def test_evaluate_refuses_a_degenerate_direction_or_an_infinite_light(direction, e_global, message):
    """The beam divides each direction by its length, and a field scales
    E_global: a direction of zero or non-finite computed length, or an
    infinite E_global, is refused before any arithmetic warns or a field
    comes back with no beam or no finite value. The unit directions a run
    passes are always accepted."""
    sim = sidelux.Simulator(make_canonical_room(), TROPICAL_SITE, cell=0.5)
    with pytest.raises(sidelux.DataError, match=message):
        sim.evaluate([direction], [e_global], [500.0])


def test_no_module_imports_a_name_it_never_uses():
    """Every name a module of the package imports is read in that module:
    the unused-import rule of a linter, in the standard library.
    ``__init__.py`` imports to export. The one exception is
    ``daylight.clip_polygon``, which perfbench's tracer self-test rebinds
    in that module."""
    unused = []
    for path in sorted(Path(sidelux.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{path.stem}.{bound}" for alias in node.names
                           if (bound := alias.asname or alias.name.split(".")[0]) not in read]
    assert unused == ["daylight.clip_polygon"]


def test_no_module_binds_a_private_name_it_never_reads():
    """Every private name (one leading ``_``) that a module of the package
    binds at module level, as a function, class or constant, is read in
    that module: a helper whose last caller went is deleted with it, not
    left for a test to keep alive."""
    unread = []
    for path in sorted(Path(sidelux.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound += [t.id for t in targets if isinstance(t, ast.Name)]
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{path.stem}.{name}" for name in bound
                   if name.startswith("_") and not name.startswith("__") and name not in read]
    assert unread == []


def test_every_module_parses_as_python_3_10():
    """``pyproject.toml`` declares Python 3.10 or later: every module of the
    package parses with the 3.10 grammar. This checks the grammar only;
    the library calls each module makes are not checked against 3.10 or
    the oldest numpy the project declares."""
    for path in sorted(Path(sidelux.__file__).parent.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
