"""Daylight-factor components, sun-patch geometry and per-point workplane
illuminance.

The diffuse side rests on the standard overcast-sky daylight factor: the sky
component (SC) and externally-reflected component (ERC) are numerical
integrals of the CIE overcast luminance distribution L(gamma) proportional to
(1 + 2 sin gamma)/3 over the aperture's spherical projection, and the
internally-reflected component (IRC) uses the split-flux average formula.
The direct side projects each aperture along the sun direction onto the
workplane to form the sun patch; points inside it receive the transmitted
beam, and the patch also feeds a floor-reflected diffuse term proportional
to its share of the floor area.

Per point p, with outdoor global/diffuse/direct horizontal illuminances:

    E_diffuse(p) = DF(p) * E_global + [p in patch scope] * E_direct * rho_floor * S_patch / S_floor
    E_direct(p)  = [p in patch] * E_direct * tau_glazing
    E(p)         = E_diffuse(p) + E_direct(p)

All evaluation functions are deterministic and side-effect free; the field
loop is embarrassingly parallel over grid points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta

import numpy as np

from .errors import ConfigError, DataError, GeometryError
from .geometry import (
    BOUNDARY_TOL,
    EMPTY_AREA,
    PARALLEL_TOL,
    PLANARITY_TOL,
    GridMesh,
    Polygon3,
    clip_rings,
    decompose_convex,
    signed_ring_areas,
    point_in_polygon,
    points_in_polygon_mask,
    project_polygon_along_direction,
    clip_polygon,
    workplane_grid_for_parts,
)
from .solar import LOCAL_TIME, EfficacyModel, GeoLocation, OutdoorIlluminance, SolarState, \
    WeatherRecord, outdoor_illuminance, reconstruct_illuminance, sun_position, sun_positions

# Horizontal illuminance of the full CIE overcast dome for unit zenith
# luminance: integral of (1+2 sin g)/3 * sin g over the hemisphere = 7*pi/9.
OVERCAST_DOME = 7.0 * math.pi / 9.0

ANGULAR_STEP = 0.5                  # degrees, sky integration resolution
DEFAULT_LUMINANCE_FRACTION = 0.2    # obstruction luminance relative to the sky it hides
UNOBSTRUCTED_C = 39.0               # split-flux obstruction coefficient, clear horizon
PATCH_SCOPES = ("patch", "room")
BLOCK_STEPS = 512                   # timesteps per array pass of Simulator.run


@dataclass(frozen=True)
class SurfaceOptics:
    """Interior reflectances per surface role."""

    floor: float
    walls: float
    ceiling: float

    def __post_init__(self):
        for name, v in (("floor", self.floor), ("walls", self.walls), ("ceiling", self.ceiling)):
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} reflectance {v} out of [0, 1]")


@dataclass(frozen=True, eq=False)
class Aperture:
    """A vertical glazed opening.

    ``tau`` is the glazing light transmission; it both scales the
    transmitted beam and acts as the glass factor of the daylight factor.
    ``mf``/``fr``/``mg`` are the dirt, frame and site-activity correction
    factors; ``fc`` corrects the internally-reflected part for remoteness.
    """

    polygon: Polygon3
    tau: float = 0.9
    mf: float = 1.0
    fr: float = 1.0
    mg: float = 1.0
    fc: float = 1.0

    def __post_init__(self):
        if abs(float(self.polygon.normal[2])) > PLANARITY_TOL:
            raise GeometryError("aperture polygon must be vertical")
        if not self.polygon.is_convex:
            raise GeometryError("aperture polygon must be convex")
        for name, v in (("tau", self.tau), ("mf", self.mf), ("fr", self.fr),
                        ("mg", self.mg), ("fc", self.fc)):
            if not 0.0 < v <= 1.0:
                raise ConfigError(f"aperture factor {name}={v} out of (0, 1]")

    @property
    def area(self) -> float:
        return self.polygon.area


@dataclass(frozen=True, eq=False)
class Obstruction:
    """External vertical obstruction with a luminance expressed as a
    fraction of the sky luminance it hides."""

    polygon: Polygon3
    luminance_fraction: float = DEFAULT_LUMINANCE_FRACTION

    def __post_init__(self):
        if abs(float(self.polygon.normal[2])) > PLANARITY_TOL:
            raise GeometryError("obstruction polygon must be vertical")
        if not 0.0 <= self.luminance_fraction <= 1.0:
            raise ConfigError(
                f"luminance fraction {self.luminance_fraction} out of [0, 1]"
            )


@dataclass(eq=False)
class Room:
    """A closed room: horizontal floor outline (convex or L-shaped), flat
    ceiling at ``height`` above it, apertures on the walls."""

    floor: Polygon3
    height: float
    optics: SurfaceOptics
    apertures: tuple[Aperture, ...] = ()
    obstructions: tuple[Obstruction, ...] = ()

    def __post_init__(self):
        if not self.height > 0.0:
            raise ConfigError(f"room height {self.height} must be positive")
        if abs(abs(float(self.floor.normal[2])) - 1.0) > PLANARITY_TOL:
            raise GeometryError("floor polygon must be horizontal")
        xy = self.floor.coords[:, :2]
        if signed_ring_areas(xy[None], xy[0])[0] < 0.0:  # make it counter-clockwise from above
            self.floor = Polygon3(self.floor.coords[::-1])
        self.apertures = tuple(self.apertures)
        self.obstructions = tuple(self.obstructions)
        self.parts: list[Polygon3] = decompose_convex(self.floor)
        self.floor_z = float(self.floor.coords[:, 2].mean())
        self.s_t = self.floor.area
        self._aperture_outward = [self._wall_outward_for(ap) for ap in self.apertures]

    def _wall_outward_for(self, ap: Aperture) -> np.ndarray:
        pts = self.floor.coords
        n = len(pts)
        lo = self.floor_z - PLANARITY_TOL
        hi = self.floor_z + self.height + PLANARITY_TOL
        apts = ap.polygon.coords
        if apts[:, 2].min() < lo or apts[:, 2].max() > hi:
            raise GeometryError("aperture extends beyond the wall height")
        for i in range(n):
            a, b = pts[i], pts[(i + 1) % n]
            e = b - a
            length = float(np.linalg.norm(e[:2]))
            if length < 1e-12:
                continue
            ex, ey = e[0] / length, e[1] / length
            outward = np.array([ey, -ex, 0.0])
            off = (apts - a) @ outward
            if float(np.abs(off).max()) > PLANARITY_TOL:
                continue
            s = (apts[:, 0] - a[0]) * ex + (apts[:, 1] - a[1]) * ey
            if s.min() < -PLANARITY_TOL or s.max() > length + PLANARITY_TOL:
                continue
            return outward
        raise GeometryError("aperture does not lie on any wall of the floor outline")

    def aperture_outward(self, index: int) -> np.ndarray:
        return self._aperture_outward[index]

    @property
    def perimeter(self) -> float:
        pts = self.floor.coords
        return float(np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1).sum())

    def contains(self, point) -> bool:
        p = np.asarray(point, dtype=float)
        if not self.floor_z - PLANARITY_TOL <= p[2] <= self.floor_z + self.height + PLANARITY_TOL:
            return False
        mask = points_in_polygon_mask(
            np.array([p[0]]), np.array([p[1]]), self.floor.coords[:, :2]
        )
        return bool(mask[0])

    def workplane(self, cell: float, height: float = 0.01) -> GridMesh:
        return workplane_grid_for_parts(self.parts, cell, height)


@dataclass(frozen=True)
class DFBreakdown:
    """Daylight-factor components for one point and one aperture, all as
    fractions: df = (sc + erc + irc*fc) * mf * fr * gl * mg."""

    sc: float
    erc: float
    irc: float
    df: float


def df_from_components(sc: float, erc: float, irc: float, fc: float,
                       mf: float, fr: float, gl: float, mg: float) -> float:
    """Assemble the daylight factor from its components and corrections."""
    return (sc + erc + irc * fc) * mf * fr * gl * mg


def _sky_integral(point, window: Polygon3 | None, obstructions=()) -> tuple[float, float]:
    """Numerically integrate the overcast-sky luminance over the sky
    directions seen through ``window`` (or the full dome when None).

    Returns (sc, erc): the unobstructed fraction and the fraction re-emitted
    by obstructions, both normalized by the full-dome horizontal illuminance.
    """
    p = np.asarray(point, dtype=float)
    h = math.radians(ANGULAR_STEP)

    if window is None:
        g_lo, g_hi = 1e-9, math.pi / 2.0
        f_lo, f_hi = -math.pi, math.pi
        ref = 0.0
        step_g = step_f = h
    else:
        # sample the window boundary to bound its spherical projection
        bpts = []
        V = window.coords
        for i in range(len(V)):
            a, b = V[i], V[(i + 1) % len(V)]
            ts = np.linspace(0.0, 1.0, 97)[:-1]
            bpts.append(a + ts[:, None] * (b - a))
        bpts = np.vstack(bpts)
        dirs = bpts - p
        r = np.linalg.norm(dirs, axis=1)
        if r.min() < 1e-9:
            raise GeometryError("point lies on the aperture polygon")
        gam = np.arcsin(np.clip(dirs[:, 2] / r, -1.0, 1.0))
        phi = np.arctan2(dirs[:, 0], dirs[:, 1])
        cen = window.centroid - p
        ref = math.atan2(cen[0], cen[1])
        dphi = (phi - ref + math.pi) % (2.0 * math.pi) - math.pi
        if gam.max() <= 1e-9:
            return 0.0, 0.0
        ext_g = max(float(gam.max() - gam.min()), 1e-6)
        ext_f = max(float(dphi.max() - dphi.min()), 1e-6)
        step_g = min(h, ext_g / 6.0)
        step_f = min(h, ext_f / 6.0)
        g_lo = max(1e-9, float(gam.min()) - 4.0 * step_g)
        g_hi = min(math.pi / 2.0, float(gam.max()) + 4.0 * step_g)
        f_lo = float(dphi.min()) - 4.0 * step_f
        f_hi = float(dphi.max()) + 4.0 * step_f
        if f_hi - f_lo >= 2.0 * math.pi:
            f_lo, f_hi = -math.pi, math.pi
        if g_hi <= g_lo:
            return 0.0, 0.0

    ng = max(1, int(math.ceil((g_hi - g_lo) / step_g)))
    nf = max(1, int(math.ceil((f_hi - f_lo) / step_f)))
    dg = (g_hi - g_lo) / ng
    df_ = (f_hi - f_lo) / nf
    gam = g_lo + (np.arange(ng) + 0.5) * dg
    phi = ref + f_lo + (np.arange(nf) + 0.5) * df_
    gam, phi = np.meshgrid(gam, phi, indexing="ij")
    gam = gam.ravel()
    phi = phi.ravel()
    sin_g = np.sin(gam)
    cos_g = np.cos(gam)
    d = np.column_stack((np.sin(phi) * cos_g, np.cos(phi) * cos_g, sin_g))
    weight = (1.0 + 2.0 * sin_g) / 3.0 * sin_g * cos_g * dg * df_

    if window is None:
        through = np.ones(len(d), dtype=bool)
        t_win = np.zeros(len(d))
    else:
        n_w = window.normal
        denom = d @ n_w
        with np.errstate(divide="ignore", invalid="ignore"):
            t_win = ((window.coords[0] - p) @ n_w) / denom
        hit = np.isfinite(t_win) & (t_win > 1e-9)
        through = np.zeros(len(d), dtype=bool)
        if hit.any():
            x = p + t_win[hit, None] * d[hit]
            x2 = window.to_plane_2d(x)
            through[hit] = points_in_polygon_mask(
                x2[:, 0], x2[:, 1], window._verts2d, boundary_tol=0.0
            )
        t_win = np.where(through, t_win, 0.0)

    blocked_fraction = np.zeros(len(d))
    t_best = np.full(len(d), np.inf)
    for obs in obstructions:
        n_o = obs.polygon.normal
        denom = d @ n_o
        with np.errstate(divide="ignore", invalid="ignore"):
            t_o = ((obs.polygon.coords[0] - p) @ n_o) / denom
        cand = np.isfinite(t_o) & (t_o > 1e-9) & through & (t_o > t_win - 1e-9)
        if not cand.any():
            continue
        x = p + t_o[cand, None] * d[cand]
        x2 = obs.polygon.to_plane_2d(x)
        inside = points_in_polygon_mask(x2[:, 0], x2[:, 1], obs.polygon._verts2d, boundary_tol=0.0)
        idx = np.flatnonzero(cand)[inside]
        closer = t_o[idx] < t_best[idx]
        idx = idx[closer]
        blocked_fraction[idx] = obs.luminance_fraction
        t_best[idx] = t_o[idx]

    blocked = np.isfinite(t_best) & (t_best < np.inf)
    sc = float(weight[through & ~blocked].sum()) / OVERCAST_DOME
    erc = float((weight * blocked_fraction)[through & blocked].sum()) / OVERCAST_DOME
    return sc, erc


def sky_component(point, aperture, obstructions=(), room: Room | None = None) -> float:
    """Fraction of the unobstructed overcast-dome horizontal illuminance
    received at ``point`` directly from sky visible through the aperture.

    ``aperture`` may be an :class:`Aperture`, a bare :class:`Polygon3`, or
    None for the hypothetical full-dome view (which yields 1.0).
    """
    if room is not None and not room.contains(point):
        raise ValueError("point lies outside the room")
    poly = aperture.polygon if isinstance(aperture, Aperture) else aperture
    return _sky_integral(point, poly, obstructions)[0]


def externally_reflected_component(point, aperture, obstructions,
                                   room: Room | None = None) -> float:
    """Same integration as :func:`sky_component`, but over sky directions
    hidden by obstructions, each weighted by its luminance fraction."""
    if room is not None and not room.contains(point):
        raise ValueError("point lies outside the room")
    poly = aperture.polygon if isinstance(aperture, Aperture) else aperture
    return _sky_integral(point, poly, obstructions)[1]


def split_flux_irc(window_area: float, total_area: float, mean_reflectance: float,
                   lower_reflectance: float, upper_reflectance: float,
                   obstruction_coefficient: float = UNOBSTRUCTED_C) -> float:
    """Split-flux average internally-reflected component, as a fraction.

    ``lower_reflectance`` averages floor and walls below the window
    mid-height, ``upper_reflectance`` ceiling and walls above it.
    """
    if mean_reflectance >= 0.99:
        raise ConfigError("mean reflectance >= 0.99: inter-reflection diverges")
    return (
        0.85 * window_area / (total_area * (1.0 - mean_reflectance))
        * (obstruction_coefficient * lower_reflectance + 5.0 * upper_reflectance)
        / 100.0
    )


def _obstruction_coefficient(room: Room, ap: Aperture) -> float:
    """Clear-horizon coefficient reduced linearly to zero as the mean
    obstruction elevation (seen from the window center) reaches 80 deg."""
    if not room.obstructions:
        return UNOBSTRUCTED_C
    wc = ap.polygon.centroid
    angles = []
    for obs in room.obstructions:
        oc = obs.polygon.centroid
        top = float(obs.polygon.coords[:, 2].max())
        horiz = float(np.hypot(oc[0] - wc[0], oc[1] - wc[1]))
        angles.append(max(0.0, math.degrees(math.atan2(top - wc[2], max(horiz, 1e-9)))))
    mean_angle = sum(angles) / len(angles)
    return UNOBSTRUCTED_C * max(0.0, 1.0 - min(mean_angle, 80.0) / 80.0)


def internally_reflected_component(room: Room, ap: Aperture) -> float:
    """Internally-reflected component for one aperture from the room's
    surface areas and reflectances."""
    s_t = room.s_t
    a_walls = room.perimeter * room.height
    total = 2.0 * s_t + a_walls
    mid = float(ap.polygon.coords[:, 2].mean()) - room.floor_z
    mid = min(max(mid, 0.0), room.height)
    a_lower = room.perimeter * mid
    a_upper = a_walls - a_lower
    o = room.optics
    r_mean = (o.floor * s_t + o.ceiling * s_t + o.walls * a_walls) / total
    r_lower = (o.floor * s_t + o.walls * a_lower) / (s_t + a_lower)
    r_upper = (o.ceiling * s_t + o.walls * a_upper) / (s_t + a_upper)
    c = _obstruction_coefficient(room, ap)
    return split_flux_irc(ap.area, total, r_mean, r_lower, r_upper, c)


def daylight_factor(point, room: Room, ap: Aperture) -> DFBreakdown:
    """Daylight factor (as a fraction) at a point for one aperture."""
    if not room.contains(point):
        raise ValueError("point lies outside the room")
    sc, erc = _sky_integral(point, ap.polygon, room.obstructions)
    irc = internally_reflected_component(room, ap)
    df = df_from_components(sc, erc, irc, ap.fc, ap.mf, ap.fr, ap.tau, ap.mg)
    return DFBreakdown(sc=sc, erc=erc, irc=irc, df=df)


@dataclass(frozen=True, eq=False)
class SunPatch:
    """Sunlit region on the workplane: the aperture projected along the sun
    direction and clipped to the floor. May consist of several convex
    pieces when the floor was decomposed."""

    pieces: tuple[Polygon3, ...]
    area: float

    @classmethod
    def empty(cls) -> "SunPatch":
        return cls((), 0.0)

    def __bool__(self) -> bool:
        return self.area > 0.0

    def contains(self, point) -> bool:
        return any(point_in_polygon(point, piece) for piece in self.pieces)


def compute_sun_patch(room: Room, ap: Aperture, sun: SolarState, plane_z: float) -> SunPatch:
    """Project an aperture along the sun direction onto the plane
    z = ``plane_z`` and clip the image against the floor.

    Empty when the sun is below the horizon or behind the aperture's wall.
    """
    if sun.altitude <= 0.0:
        return SunPatch.empty()
    outward = room.aperture_outward(room.apertures.index(ap))
    d = sun.direction
    if float(d @ outward) >= -1e-9:
        return SunPatch.empty()
    img = project_polygon_along_direction(ap.polygon, d, plane_z)
    if img is None:
        return SunPatch.empty()
    pieces = []
    area = 0.0
    for part in room.parts:
        piece = clip_polygon(img, part.at_z(plane_z))
        if piece is not None:
            pieces.append(piece)
            area += piece.area
    if not pieces:
        return SunPatch.empty()
    return SunPatch(tuple(pieces), area)


class BeamKernel:
    """The sun patches of all apertures for a batch of sun directions.

    Per step and aperture it projects the window along the sun direction d
    onto the plane z = ``plane_z``, clips the image against every convex
    floor part (:func:`~sidelux.geometry.clip_rings`) and tests which of the
    given points the image covers. The rules are those of
    :func:`compute_sun_patch`: a patch needs the sun above the horizon,
    d . n_out < -1e-9, |d_z| > PARALLEL_TOL and no vertex projected
    backwards; pieces of at most EMPTY_AREA count as empty, and the pieces'
    areas are summed over the floor parts.
    """

    def __init__(self, room: Room, plane_z: float):
        self.plane_z = plane_z
        n_vert = max((len(ap.polygon.coords) for ap in room.apertures), default=3)
        # shorter rings repeat their last vertex: a zero-length edge adds nothing
        self.windows = np.empty((len(room.apertures), n_vert, 3))
        for k, ap in enumerate(room.apertures):
            c = ap.polygon.coords
            self.windows[k, :len(c)] = c
            self.windows[k, len(c):] = c[-1]
        self.outward = np.array(
            [room.aperture_outward(k) for k in range(len(room.apertures))]
        ).reshape(-1, 3)
        self.parts = []
        for part in room.parts:
            v2 = part.coords[:, :2]
            self.parts.append(v2 if signed_ring_areas(v2[None], v2[0])[0] > 0.0 else v2[::-1])

    def __call__(self, altitude: np.ndarray, direction: np.ndarray,
                 points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Patch area per step and aperture, shape (B, K), and whether each
        of the (N, 2) ``points`` lies in each non-empty patch, (B, K, N)."""
        n_steps, n_ap = len(altitude), len(self.windows)
        areas = np.zeros((n_steps, n_ap))
        lit = np.zeros((n_steps, n_ap, len(points)), dtype=bool)
        d = direction / np.sqrt(np.sum(direction * direction, axis=1))[:, None]
        facing = np.sum(direction[:, None, :] * self.outward[None], axis=2) < -1e-9
        ok = facing & ((altitude > 0.0) & (np.abs(d[:, 2]) > PARALLEL_TOL))[:, None]
        b, k = np.nonzero(ok)
        win = self.windows[k]
        t = (self.plane_z - win[:, :, 2]) / d[b, 2][:, None]
        forward = np.all(t >= -1e-9, axis=1)
        b, k, win, t = b[forward], k[forward], win[forward], t[forward]
        images = win[:, :, :2] + t[:, :, None] * d[b][:, None, :2]

        area = np.zeros(len(b))
        for part in self.parts:
            piece = np.abs(signed_ring_areas(clip_rings(images, part), part.mean(axis=0)))
            area = area + np.where(piece > EMPTY_AREA, piece, 0.0)
        areas[b, k] = area

        sunlit = area > 0.0
        if len(points) and sunlit.any():
            a = images[sunlit]
            e = np.roll(a, -1, axis=1) - a
            orient = np.sign(signed_ring_areas(a, a[:, 0]))
            cross = (e[:, :, 0, None] * (points[None, None, :, 1] - a[:, :, 1, None])
                     - e[:, :, 1, None] * (points[None, None, :, 0] - a[:, :, 0, None]))
            lit[b[sunlit], k[sunlit]] = np.all(
                cross * orient[:, None, None] >= -BOUNDARY_TOL, axis=1)
        return areas, lit


def diffuse_at_point(point, df: float, outdoor: OutdoorIlluminance, patch: SunPatch | None,
                     room: Room, scope: str = "patch") -> float:
    """Diffuse illuminance at a point: the daylight-factor part plus, when a
    sun patch exists, the floor-reflected patch contribution."""
    if room.s_t <= 0.0:
        raise ConfigError("room floor area is zero")
    value = df * outdoor.e_global
    if (
        patch is not None
        and patch.area > 0.0
        and outdoor.e_direct > 0.0
        and (scope == "room" or patch.contains(point))
    ):
        value += outdoor.e_direct * room.optics.floor * patch.area / room.s_t
    return value


def direct_at_point(point, patch: SunPatch | None, outdoor: OutdoorIlluminance,
                    ap: Aperture) -> float:
    """Transmitted beam illuminance: nonzero only inside the sun patch."""
    if patch is None or patch.area <= 0.0 or outdoor.e_direct <= 0.0:
        return 0.0
    return outdoor.e_direct * ap.tau if patch.contains(point) else 0.0


@dataclass(eq=False)
class IlluminanceField:
    """Per-point illuminances over the workplane grid for one instant."""

    grid: GridMesh
    timestamp: datetime | None
    outdoor: OutdoorIlluminance
    sun: SolarState | None
    df: np.ndarray
    e_diffuse: np.ndarray
    e_direct: np.ndarray
    e_global: np.ndarray
    patch_area: float


@dataclass(eq=False)
class PeriodResult:
    """Time series produced by a period simulation: outdoor conditions,
    total patch area and workplane illuminance at the probe points, plus
    full fields at explicitly requested instants."""

    timestamps: list[datetime]
    outdoor_global: np.ndarray
    outdoor_diffuse: np.ndarray
    outdoor_direct: np.ndarray
    patch_area: np.ndarray
    probe_points: tuple[tuple[float, float], ...]
    probe_names: tuple[str, ...]
    probe_global: np.ndarray
    fields: dict[datetime, IlluminanceField] = field(default_factory=dict)

    def hourly(self) -> "PeriodResult":
        """Average the minute series into clock hours (fields left as-is)."""
        from .metrics import resample_hourly

        hours, og = resample_hourly(self.timestamps, self.outdoor_global)
        _, od = resample_hourly(self.timestamps, self.outdoor_diffuse)
        _, ob = resample_hourly(self.timestamps, self.outdoor_direct)
        _, pa = resample_hourly(self.timestamps, self.patch_area)
        cols = []
        for j in range(self.probe_global.shape[1]):
            cols.append(resample_hourly(self.timestamps, self.probe_global[:, j])[1])
        probe = np.column_stack(cols) if cols else np.zeros((len(hours), 0))
        return PeriodResult(
            timestamps=hours,
            outdoor_global=og,
            outdoor_diffuse=od,
            outdoor_direct=ob,
            patch_area=pa,
            probe_points=self.probe_points,
            probe_names=self.probe_names,
            probe_global=probe,
            fields=dict(self.fields),
        )


_EPOCH = datetime(1970, 1, 1)
_MICROSECOND = timedelta(microseconds=1)


class _WeatherColumns:
    """Weather records as columns: irradiances (and, when asked for, the
    measured illuminances) in the records' order, plus a lookup from a
    timestamp to its record, the last one when a timestamp repeats."""

    def __init__(self, records: list[WeatherRecord], with_illuminance: bool):
        n = len(records)
        try:
            micros = np.fromiter(((r.timestamp - _EPOCH) // _MICROSECOND for r in records),
                                 np.int64, n)
        except TypeError:  # an offset-aware timestamp cannot be subtracted from a naive one
            raise DataError(f"weather timestamps must be naive datetimes; {LOCAL_TIME}") from None
        self.gh = np.fromiter((r.gh for r in records), float, n)
        self.dh = np.fromiter((r.dh for r in records), float, n)
        self.measured = self.ev_global = self.ev_diffuse = None
        if with_illuminance:
            self.measured = np.fromiter(
                (r.ev_global is not None and r.ev_diffuse is not None for r in records), bool, n)
            self.ev_global = np.fromiter((r.ev_global or 0.0 for r in records), float, n)
            self.ev_diffuse = np.fromiter((r.ev_diffuse or 0.0 for r in records), float, n)
        times = micros.astype("datetime64[us]")
        order = np.argsort(times, kind="stable")
        ordered = times[order]
        last = np.ones(n, dtype=bool)
        last[:-1] = ordered[1:] != ordered[:-1]
        self._times = ordered[last]
        self._source = order[last]

    def rows(self, times: np.ndarray) -> np.ndarray:
        """Record index for each timestamp; a timestamp without a record is
        an error naming the first one."""
        pos = np.minimum(np.searchsorted(self._times, times), len(self._times) - 1)
        found = self._times[pos] == times
        if not found.all():
            missing = times[np.argmin(found)].astype(datetime)
            raise DataError(f"no weather record for {missing.isoformat()}")
        return self._source[pos]

    def outdoor(self, rows: np.ndarray, altitude: np.ndarray,
                eff: EfficacyModel) -> tuple[np.ndarray, np.ndarray]:
        """Outdoor diffuse and direct illuminance for the given records."""
        ev = (None,) * 3 if self.measured is None else (
            self.measured[rows], self.ev_global[rows], self.ev_diffuse[rows])
        return outdoor_illuminance(altitude, self.gh[rows], self.dh[rows], eff, *ev)


def _naive(when: datetime) -> datetime:
    if when.tzinfo is not None:
        raise DataError(f"timestamp {when.isoformat()} has a UTC offset; {LOCAL_TIME}")
    return when


class Simulator:
    """Workplane illuminance engine for one room.

    The daylight-factor field depends on geometry only, so it is computed
    once at construction and reused for every timestep; per step only the
    outdoor conversion and the sun-patch geometry change. Periods are
    stepped in blocks of ``BLOCK_STEPS`` timesteps, each block as a few
    array passes, so the working arrays depend on the block size, not on
    the period.
    """

    def __init__(self, room: Room, location: GeoLocation, cell: float = 0.1,
                 workplane_height: float = 0.01, efficacy: EfficacyModel | None = None,
                 patch_scope: str = "patch"):
        if patch_scope not in PATCH_SCOPES:
            raise ConfigError(f"patch scope must be one of {PATCH_SCOPES}")
        self.room = room
        self.location = location
        self.efficacy = efficacy if efficacy is not None else EfficacyModel()
        self.patch_scope = patch_scope
        self.grid = room.workplane(cell, workplane_height)
        self.beam = BeamKernel(room, self.grid.plane_z)
        self._irc = [internally_reflected_component(room, ap) for ap in room.apertures]
        self.df = self._df_for_points(self.grid.points)

    def _df_for_points(self, points: np.ndarray) -> np.ndarray:
        total = np.zeros(len(points))
        for k, ap in enumerate(self.room.apertures):
            sc = np.empty(len(points))
            erc = np.empty(len(points))
            for i, p in enumerate(points):
                sc[i], erc[i] = _sky_integral(p, ap.polygon, self.room.obstructions)
            total = total + (sc + erc + self._irc[k] * ap.fc) * ap.mf * ap.fr * ap.tau * ap.mg
        return total

    def _illuminance(self, altitude: np.ndarray, direction: np.ndarray, e_global: np.ndarray,
                     e_direct: np.ndarray, points: np.ndarray, df: np.ndarray):
        """Total patch area per step and diffuse and direct illuminance at
        ``points`` (shape (steps, points)) for a batch of steps; the beam
        terms need the sun above the horizon and a direct component."""
        e_dif = df[None, :] * e_global[:, None]
        e_dir = np.zeros_like(e_dif)
        area = np.zeros(len(altitude))
        sunny = np.flatnonzero((altitude > 0.0) & (e_direct > 0.0))
        if len(sunny) == 0:
            return area, e_dif, e_dir
        areas, lit = self.beam(altitude[sunny], direction[sunny], points[:, :2])
        ed = e_direct[sunny]
        dif, dirc, total = e_dif[sunny], e_dir[sunny], area[sunny]
        for k, ap in enumerate(self.room.apertures):
            term = ed * self.room.optics.floor * areas[:, k] / self.room.s_t
            if self.patch_scope == "patch":
                dif = dif + term[:, None] * lit[:, k]
            else:
                dif = dif + term[:, None]
            dirc = dirc + lit[:, k] * (ed * ap.tau)[:, None]
            total = total + areas[:, k]
        e_dif[sunny], e_dir[sunny], area[sunny] = dif, dirc, total
        return area, e_dif, e_dir

    def evaluate(self, outdoor: OutdoorIlluminance, sun: SolarState | None,
                 timestamp: datetime | None = None) -> IlluminanceField:
        """Field over the workplane grid for given outdoor conditions."""
        altitude = np.array([sun.altitude if sun is not None else 0.0])
        direction = (sun.direction if sun is not None else np.zeros(3)).reshape(1, 3)
        area, e_dif, e_dir = self._illuminance(
            altitude, direction, np.array([outdoor.e_global]), np.array([outdoor.e_direct]),
            self.grid.points, self.df,
        )
        return IlluminanceField(
            grid=self.grid,
            timestamp=timestamp,
            outdoor=outdoor,
            sun=sun,
            df=self.df,
            e_diffuse=e_dif[0],
            e_direct=e_dir[0],
            e_global=e_dif[0] + e_dir[0],
            patch_area=float(area[0]),
        )

    def step(self, record: WeatherRecord) -> IlluminanceField:
        """Field for one weather record."""
        sun = sun_position(record.timestamp, self.location)
        outdoor = reconstruct_illuminance(record, sun, self.efficacy)
        return self.evaluate(outdoor, sun, record.timestamp)

    def _probe_df(self, probes: tuple[tuple[float, float], ...]):
        pts = np.array([(x, y, self.grid.plane_z) for x, y in probes], dtype=float).reshape(-1, 3)
        for p in pts:
            if not self.room.contains(p):
                raise ConfigError(f"probe ({p[0]}, {p[1]}) lies outside the room")
        return pts, self._df_for_points(pts)

    def run(self, records, start: datetime | None = None, end: datetime | None = None,
            step_minutes: int = 1, probes=(), field_at=(), hourly: bool = False) -> PeriodResult:
        """Step over [start, end) and collect probe series.

        ``records`` may come in any order; when a timestamp repeats, the
        last record wins. They must cover every step; a missing timestamp
        is an error. ``start`` defaults to the first record's timestamp and
        ``end`` to one step past the last record's. Full fields are built
        only for the instants listed in ``field_at``.
        """
        if step_minutes < 1:
            raise ConfigError("step must be at least one minute")
        records = list(records)
        if not records:
            raise DataError("empty weather series")
        start = _naive(records[0].timestamp if start is None else start)
        if end is None:
            end = records[-1].timestamp + timedelta(minutes=step_minutes)
        end = _naive(end)
        step = timedelta(minutes=step_minutes)
        probes = tuple((float(x), float(y)) for x, y in probes)
        probe_names = tuple(f"p{i + 1}" for i in range(len(probes)))
        probe_pts, probe_df = self._probe_df(probes)

        weather = _WeatherColumns(records, self.efficacy.mode == "passthrough")
        n = max(0, -((start - end) // step))
        times = np.datetime64(start, "us") + np.arange(n) * np.timedelta64(step)
        rows = weather.rows(times)
        if n == 0:
            raise DataError("empty simulation period (end must be after start)")

        outdoor_global, outdoor_diffuse, outdoor_direct, patch_area = np.empty((4, n))
        probe_global = np.empty((n, len(probes)))
        for i in range(0, n, BLOCK_STEPS):
            block = slice(i, i + BLOCK_STEPS)
            altitude, _, direction = sun_positions(times[block], self.location)
            diffuse, direct = weather.outdoor(rows[block], altitude, self.efficacy)
            e_global = diffuse + direct
            outdoor_global[block], outdoor_diffuse[block], outdoor_direct[block] = \
                e_global, diffuse, direct
            patch_area[block], e_dif, e_dir = self._illuminance(
                altitude, direction, e_global, direct, probe_pts, probe_df)
            probe_global[block] = e_dif + e_dir

        fields: dict[datetime, IlluminanceField] = {}
        missing = []
        for when in set(field_at):
            k, rest = divmod(_naive(when) - start, step)
            if rest or not 0 <= k < n:
                missing.append(when)
                continue
            sun = sun_position(when, self.location)
            outdoor = OutdoorIlluminance(
                float(outdoor_global[k]), float(outdoor_diffuse[k]), float(outdoor_direct[k]))
            fields[when] = self.evaluate(outdoor, sun, when)
        if missing:
            raise DataError(
                "field requested at instants not visited by the stepping: "
                + ", ".join(ts.isoformat() for ts in sorted(missing))
            )
        result = PeriodResult(
            timestamps=times.tolist(),
            outdoor_global=outdoor_global,
            outdoor_diffuse=outdoor_diffuse,
            outdoor_direct=outdoor_direct,
            patch_area=patch_area,
            probe_points=probes,
            probe_names=probe_names,
            probe_global=probe_global,
            fields=fields,
        )
        return result.hourly() if hourly else result
