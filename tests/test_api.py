"""The public names of the ``sidelux`` package."""

import ast
import dataclasses
from pathlib import Path

import sidelux


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
        "ValidationReport", "WeatherSeries", "build_margins", "clip_polygon",
        "daylight_factor", "decompose_convex", "df_from_components", "evaluate_pair",
        "internally_reflected_component", "io", "mbd", "r2", "reconstruct_illuminance",
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
