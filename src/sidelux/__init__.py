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
    SunPatch,
    SurfaceOptics,
    compute_sun_patch,
    daylight_factor,
    df_from_components,
    diffuse_at_point,
    direct_at_point,
    externally_reflected_component,
    internally_reflected_component,
    sky_component,
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
    make_workplane_grid,
    point_in_polygon,
    project_polygon_along_direction,
)
from .metrics import (
    SeriesPair,
    ValidationReport,
    build_margins,
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
    WeatherRecord,
    reconstruct_illuminance,
    sun_position,
)

__version__ = "0.1.0"
