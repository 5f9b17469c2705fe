"""Indoor daylighting on a meshed horizontal workplane from sidelight
apertures, plus the validation metrics to judge it."""

from . import io
from .daylight import (
    Aperture,
    DFBreakdown,
    IlluminanceField,
    Obstruction,
    PeriodResult,
    Room,
    Simulator,
    SurfaceOptics,
    daylight_factor,
    df_from_components,
)
from .errors import (
    ConfigError,
    DataError,
    DegenerateMeshError,
    GeometryError,
    MetricError,
    ParseError,
)
from .geometry import (
    GridMesh,
    Polygon3,
    clip_polygon,
    decompose_convex,
)
from .metrics import (
    SeriesPair,
    ValidationReport,
    evaluate_pair,
    mbd,
    r2,
    relative_errors,
    resample_hourly,
    rmsd,
    rsd,
)
from .solar import (
    EfficacyModel,
    GeoLocation,
    OutdoorIlluminance,
    SolarState,
    WeatherSeries,
    reconstruct_illuminance,
    sun_position,
)

__version__ = "0.1.0"
