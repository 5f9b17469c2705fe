"""The public names of the ``sidelux`` package."""

import ast
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
