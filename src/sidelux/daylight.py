"""Daylight-factor components, the sun patch and per-point workplane
illuminance.

The diffuse side rests on the standard overcast-sky daylight factor: the sky
component (SC) and externally-reflected component (ERC) integrate the CIE
overcast luminance distribution L(gamma) proportional to (1 + 2 sin gamma)/3
over the part of the window a point sees, cut into convex pieces by the
point's horizon, the room's other walls and the obstructions beyond the
window (:class:`SkyKernel`), and the internally-reflected component (IRC)
uses the split-flux average formula.
The direct side projects every aperture along the sun direction onto the
workplane and clips the image to the floor, for a batch of steps at once
(:class:`BeamKernel`); that is the sun patch. Points inside it receive the
transmitted beam, and the patch also feeds a floor-reflected diffuse term
proportional to its share of the floor area.

Per point p, with outdoor global/diffuse/direct horizontal illuminances:

    E_diffuse(p) = DF(p) * E_global + [p in patch scope] * E_direct * rho_floor * S_patch / S_floor
    E_direct(p)  = [p in patch] * E_direct * tau_glazing
    E(p)         = E_diffuse(p) + E_direct(p)

All evaluation functions are deterministic and side-effect free. The full
fields of a run are one batched pass over their instants and the grid
points, through the same kernel as the probes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import datetime

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
    split_rings,
    stack_rings,
    points_in_convex_rings,
    project_polygon_along_direction,
    ring_sums,
    trim_rings,
    clip_polygon,  # not used here: perfbench's tracer self-test rebinds it in this module
    workplane_grid_for_parts,
)
from .metrics import resample_hourly
from .solar import EfficacyModel, GeoLocation, SolarState, WeatherSeries, check_years, \
    local_time, outdoor_illuminance, sun_positions, sun_up

# Horizontal illuminance of the full CIE overcast dome for unit zenith
# luminance: integral of (1+2 sin g)/3 * sin g over the hemisphere = 7*pi/9.
OVERCAST_DOME = 7.0 * math.pi / 9.0

CHUNK_POINTS = 4096                 # points per array pass of the sky integral: a typical
                                    # room's grid in one pass, about 1.5 kB a point behind
                                    # two obstructions
DEFAULT_LUMINANCE_FRACTION = 0.2    # obstruction luminance relative to the sky it hides
UNOBSTRUCTED_C = 39.0               # split-flux obstruction coefficient, clear horizon
PATCH_SCOPES = ("patch", "room")
BLOCK_STEPS = 4096                  # lit steps per beam chunk of Simulator.run: its sunny
                                    # steps get one sun_positions call and one beam batch


@dataclass(frozen=True)
class SurfaceOptics:
    """Interior reflectances per surface role; an error starts with the
    building-file path ``room.surfaces: ``, as :class:`Room`'s do."""

    floor: float
    walls: float
    ceiling: float

    def __post_init__(self):
        for name, v in (("floor", self.floor), ("walls", self.walls), ("ceiling", self.ceiling)):
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"room.surfaces: {name} reflectance {v} out of [0, 1]")


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


@dataclass(frozen=True, eq=False)
class Obstruction:
    """External vertical obstruction with a luminance expressed as a
    fraction of the sky luminance it hides. ``parts`` is its convex
    decomposition (:func:`decompose_convex`), a (P, W, 3) batch of its own
    vertices, worked out once here."""

    polygon: Polygon3
    luminance_fraction: float = DEFAULT_LUMINANCE_FRACTION
    parts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if abs(float(self.polygon.normal[2])) > PLANARITY_TOL:
            raise GeometryError("obstruction polygon must be vertical")
        if not 0.0 <= self.luminance_fraction <= 1.0:
            raise ConfigError(
                f"luminance fraction {self.luminance_fraction} out of [0, 1]"
            )
        object.__setattr__(self, "parts", decompose_convex(self.polygon))


@dataclass(eq=False)
class Room:
    """A closed room: horizontal floor outline (convex or L-shaped), flat
    ceiling at ``height`` above it, apertures on the walls. The outline is
    stored counter-clockwise from above and without the vertices where it
    goes straight on (within PLANARITY_TOL), so each wall is one straight
    run of it, and a window may span a vertex of the given outline.

    Its derived geometry is worked out once, at construction: ``parts`` are
    the plan rings (P, W, 2) of the floor's convex parts
    (:func:`decompose_convex`), counter-clockwise from above; ``perimeter``
    sums the floor's edges, the plan segments of its walls. Per aperture,
    from the wall found to hold it: ``outward`` (K, 3), that wall's outward
    unit normal; ``casters``, what can hide it (:func:`_casters`: the
    re-entrant walls on the room side of its plane, the obstruction parts
    beyond it; a wall whose line has every floor vertex on its room side,
    within PLANARITY_TOL, is an edge of the floor's convex hull, which no
    sight line from the room to a window crosses, so a convex room has no
    wall casters);
    ``sky``, its :class:`SkyKernel` behind those casters; ``irc``, its
    internally-reflected component (:func:`split_flux_irc`), which needs a
    mean reflectance below 0.99 to converge. Two may share an edge but not
    overlap. An error starts with the building-file path it is about, such
    as ``room.height: `` or ``room.apertures[k]: ``."""

    floor: Polygon3
    height: float
    optics: SurfaceOptics
    apertures: tuple[Aperture, ...] = ()
    obstructions: tuple[Obstruction, ...] = ()

    def __post_init__(self):
        if not self.height > 0.0:
            raise ConfigError(f"room.height: {self.height} must be positive")
        if abs(abs(float(self.floor.normal[2])) - 1.0) > PLANARITY_TOL:
            raise GeometryError("room.floor_vertices: floor polygon must be horizontal")
        xy = self.floor.coords[:, :2]
        if signed_ring_areas(xy[None], xy[0])[0] < 0.0:  # make it counter-clockwise from above
            self.floor = Polygon3(self.floor.coords[::-1])
        self.apertures = tuple(self.apertures)
        self.obstructions = tuple(self.obstructions)
        plan = self.floor.coords[:, :2]
        run = np.roll(plan, -1, axis=0) - plan
        length = np.linalg.norm(run, axis=1)
        if (length < 1e-12).any():  # Polygon3's rule for duplicate vertices, in plan
            raise GeometryError("room.floor_vertices: consecutive floor vertices coincide in plan")
        # a wall is a straight run of the outline: drop each vertex where the
        # outline goes on in its direction, off it by at most PLANARITY_TOL
        back, back_length = np.roll(run, 1, axis=0), np.roll(length, 1)
        turn = back[:, 0] * run[:, 1] - back[:, 1] * run[:, 0]
        corner = ((np.abs(turn) > PLANARITY_TOL * (back_length + length))
                  | ((back * run).sum(axis=1) <= 0.0))
        if not corner.all():
            self.floor = Polygon3(self.floor.coords[corner])
            plan = self.floor.coords[:, :2]
        edges = np.stack((plan, np.roll(plan, -1, axis=0)), axis=1)  # walls: (n, 2 ends, 2)
        run = edges[:, 1] - edges[:, 0]
        length = np.linalg.norm(run, axis=1)
        self.parts = decompose_convex(self.floor)[:, :, :2]
        self.floor_z = float(self.floor.coords[:, 2].mean())
        self.s_t = self.floor.area
        self.perimeter = float(length.sum())
        along = run / length[:, None]
        normal = np.column_stack((along[:, 1], -along[:, 0]))  # outward
        # a wall whose line has the whole floor on its room side, an edge of the
        # floor's convex hull, cannot come between a point in the room and a window
        beyond = ((plan[None] - edges[:, None, 0]) * normal[:, None]).sum(axis=2).max(axis=1)
        inner = beyond > PLANARITY_TOL
        walls = [self._wall_of(k, ap.polygon, edges, along, normal, length)
                 for k, ap in enumerate(self.apertures)]
        for j, (wall, ring) in enumerate(walls):
            for i, (other, clip) in enumerate(walls[:j]):
                if other == wall and abs(signed_ring_areas(clip_rings(ring[None], clip),
                                                           clip[0])[0]) > EMPTY_AREA:
                    raise GeometryError(f"room.apertures[{j}]: overlaps room.apertures[{i}] "
                                        "on the same wall")
        held = np.array([wall for wall, _ in walls], dtype=int)
        self.outward = np.column_stack((normal[held], np.zeros(len(held))))
        self.casters = tuple(_casters(ap.polygon, outward,
                                      edges[inner & (np.arange(len(edges)) != wall)],
                                      self.obstructions)
                             for ap, outward, wall in zip(self.apertures, self.outward, held))
        self.sky = tuple(SkyKernel(ap.polygon, outward, casters, self.obstructions)
                         for ap, outward, casters in zip(self.apertures, self.outward, self.casters))
        a_walls = self.perimeter * self.height
        total = 2.0 * self.s_t + a_walls
        o = self.optics
        r_mean = (o.floor * self.s_t + o.ceiling * self.s_t + o.walls * a_walls) / total
        if self.apertures and r_mean >= 0.99:
            raise ConfigError("room.surfaces: mean reflectance >= 0.99: inter-reflection diverges")
        self.irc = tuple(self._irc(ap, a_walls, total, r_mean) for ap in self.apertures)

    def _wall_of(self, k: int, window: Polygon3, edges, along, normal,
                 length) -> tuple[int, np.ndarray]:
        """Index of the first floor edge of ``edges`` (n, 2 ends, 2), with
        unit directions ``along``, outward unit normals ``normal`` and
        lengths ``length``, whose wall holds aperture ``k``'s ``window``,
        and the window's ring in (along-wall, z) coordinates,
        counter-clockwise."""
        lo = self.floor_z - PLANARITY_TOL
        hi = self.floor_z + self.height + PLANARITY_TOL
        apts = window.coords
        if apts[:, 2].min() < lo or apts[:, 2].max() > hi:
            raise GeometryError(f"room.apertures[{k}]: aperture extends beyond the wall height")
        rel = apts[None, :, :2] - edges[:, None, 0]  # (n, V, 2)
        off = np.abs((rel * normal[:, None]).sum(axis=2)).max(axis=1)
        s = (rel * along[:, None]).sum(axis=2)
        held = np.flatnonzero((off <= PLANARITY_TOL) & (s.min(axis=1) >= -PLANARITY_TOL)
                              & (s.max(axis=1) <= length + PLANARITY_TOL))
        if not len(held):
            raise GeometryError(f"room.apertures[{k}]: aperture does not lie on any wall of the "
                                "floor outline")
        ring = np.column_stack((s[held[0]], apts[:, 2]))
        ccw = signed_ring_areas(ring[None], ring[0])[0] > 0.0
        return int(held[0]), ring if ccw else ring[::-1]

    def _irc(self, ap: Aperture, a_walls: float, total: float, r_mean: float) -> float:
        """Internally-reflected component of ``ap`` from the room's wall
        area, total area and mean reflectance, with the walls split at the
        window's mid-height between the floor below and the ceiling above."""
        mid = float(ap.polygon.coords[:, 2].mean()) - self.floor_z
        mid = min(max(mid, 0.0), self.height)
        a_lower = self.perimeter * mid
        a_upper = a_walls - a_lower
        o = self.optics
        r_lower = (o.floor * self.s_t + o.walls * a_lower) / (self.s_t + a_lower)
        r_upper = (o.ceiling * self.s_t + o.walls * a_upper) / (self.s_t + a_upper)
        return split_flux_irc(ap.polygon.area, total, r_mean, r_lower, r_upper,
                              _obstruction_coefficient(self, ap))

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Which of the (N, 3) ``points`` lie in the room: over a floor part
        (edges within BOUNDARY_TOL included) and from floor to ceiling
        (within PLANARITY_TOL)."""
        p = np.asarray(points, dtype=float).reshape(-1, 3)
        return ((self.floor_z - PLANARITY_TOL <= p[:, 2])
                & (p[:, 2] <= self.floor_z + self.height + PLANARITY_TOL)
                & points_in_convex_rings(p[:, :2], self.parts).any(axis=0))


def _window_plane(window: Polygon3, outward) -> tuple[np.ndarray, np.ndarray]:
    """A point of a vertical ``window``'s plane, at z = 0, and the plane's
    horizontal unit normal along ``outward``."""
    n = np.array([outward[0], outward[1], 0.0])
    return np.array([*window.coords[0, :2], 0.0]), n / np.linalg.norm(n)


def _casters(window: Polygon3, outward, walls, obstructions):
    """What can hide a vertical ``window`` from the points in front of it,
    the one rule for every kernel: a wall only on the room side of the
    window's plane (``outward`` points away from the room), an obstruction
    only beyond it; :class:`Room` passes only its re-entrant walls, those
    off the floor's convex hull. Returns the plan segments ``walls``
    (M, 2, 2) cut to the room side, the convex parts (P, W, 3) of the
    ``obstructions`` cut to the far side (:func:`trim_rings`, padded as it
    pads), and each part's obstruction index (P,); what has nothing on its
    side is left out."""
    origin, normal = _window_plane(window, outward)
    walls = np.asarray(walls, dtype=float).reshape(-1, 2, 2)
    g = -((walls - origin[:2]) @ normal[:2])  # (M, 2 ends), >= 0 on the room side
    with np.errstate(divide="ignore", invalid="ignore"):
        s = g[:, 0] / (g[:, 0] - g[:, 1])  # where the wall crosses the plane
        cut = walls[:, :1] + s[:, None, None] * (walls[:, 1:] - walls[:, :1])
    # a wall with no length on the room side, wholly beyond or touching at one end, is left out
    kept = np.where(g[:, 0] < 0.0, s, 0.0) < np.where(g[:, 1] < 0.0, s, 1.0)
    parts, owner = [np.empty((0, 1, 3))], []
    for j, obs in enumerate(obstructions):
        beyond = trim_rings(obs.parts, (obs.parts - origin) @ normal)
        beyond = beyond[beyond.any(axis=(1, 2))]  # zeros where nothing lies beyond the plane
        parts.append(beyond)
        owner += [j] * len(beyond)
    return (np.where((g < 0.0)[..., None], cut, walls)[kept], stack_rings(*parts),
            np.array(owner, dtype=int))


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


class SkyKernel:
    """Sky and externally reflected components of one vertical window at a
    batch of points, in chunks of ``CHUNK_POINTS``: a typical room's grid
    takes one array pass, a larger one works in bounded slices.

    For each point the window is cut into convex pieces that each see one
    thing, behind the ``casters`` that ``Room`` works out once per window
    (:func:`_casters`: its re-entrant walls and the obstruction parts beyond
    it; a bare window has none, and a convex room no walls). The window is
    clipped at the point's horizon, once per distinct height, as the
    horizon hangs on nothing else. The strips that the walls hide are cut
    away: walls are full height and the window vertical, so each strip is
    bounded by vertical lines found in plan view. The rest is clipped by
    the central projection, from the point onto the window plane, of every
    obstruction part, one ring per piece, keeping the overlap and the slabs
    around it; where two projections overlap, a line on the window divides
    the overlap between them by which obstruction is nearer
    (``obstructions`` are the ones the parts' indices name). A piece that
    sees sky adds to the SC, one that sees an obstruction adds to the ERC
    at that obstruction's luminance fraction.

    Over a piece, L(g) sin(g) = (sin g + 2 sin^2 g)/3 integrates exactly
    from the piece's corners, seen as unit vectors from the point. With
    m = a x b and theta the angle of each edge a -> b, the first moment of
    sin g is -1/2 sum theta m_z/|m| (Lambert's formula), and the second is
    Omega/3 - 1/3 sum m_z (a_z + b_z)/(1 + a.b) (Arvo's axial moment), where
    Omega is the piece's solid angle. Both are normalized by OVERCAST_DOME.
    """

    def __init__(self, window: Polygon3, outward, casters=((), (), ()), obstructions=()):
        # window coordinates (u, z) map to origin + u along + z ez
        self.origin, self.normal = _window_plane(window, outward)
        self.along = np.array([self.normal[1], -self.normal[0], 0.0])  # (along, normal, z) right-handed
        ring = np.column_stack(((window.coords - self.origin) @ self.along, window.coords[:, 2]))
        self.ring = ring if signed_ring_areas(ring[None], ring[0])[0] > 0.0 else ring[::-1]
        walls, self.parts, self.owner = casters
        self.walls = np.asarray(walls, dtype=float).reshape(-1, 2, 2)
        self.luminance = np.array([o.luminance_fraction for o in obstructions])
        self.planes = np.array([(*o.polygon.normal, o.polygon.normal @ o.polygon.coords[0])
                                for o in obstructions]).reshape(-1, 4)

    def __call__(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(sc, erc) at each of the (N, 3) ``points``."""
        points = np.asarray(points, dtype=float).reshape(-1, 3)
        sc, erc = np.zeros((2, len(points)))
        for i in range(0, len(points), CHUNK_POINTS):
            chunk = points[i:i + CHUNK_POINTS]
            rings, owner, cls, (u, h, z) = self._pieces(chunk)
            value = _piece_integrals(rings, u[owner], h[owner], z[owner])
            sky = cls < 0
            sc[i:i + len(chunk)] = np.bincount(owner[sky], value[sky], minlength=len(chunk))
            erc[i:i + len(chunk)] = np.bincount(owner[~sky], value[~sky] * self.luminance[cls[~sky]],
                                                minlength=len(chunk))
        return sc, erc

    def _pieces(self, p: np.ndarray):
        """The pieces of the window seen from the points ``p``: their rings
        (Q, W, 2) in (along-wall, z) window coordinates, counter-clockwise;
        the index of the point each belongs to; what each sees (-1 sky, j
        obstruction j); and per point its along-wall coordinate, distance in
        front of the window plane and height."""
        # per point, by elementwise products: a matrix product (BLAS) would
        # round a row differently with the rows around it
        rel = p - self.origin
        h = -np.sum(rel * self.normal, axis=1)
        u = np.sum(rel * self.along, axis=1)
        z = p[:, 2]
        on_plane = np.abs(h) < BOUNDARY_TOL
        if points_in_convex_rings(np.column_stack((u, z))[on_plane], self.ring[None]).any():
            raise GeometryError("point lies on the aperture polygon")
        live = np.flatnonzero(h >= BOUNDARY_TOL)  # only points in front of the window see through it
        pl, hl, ul, zl = p[live], h[live], u[live], z[live]

        # the sky above the horizon, which hangs on the height alone: one cut per height
        heights, level = np.unique(zl, return_inverse=True)
        sky = trim_rings(np.broadcast_to(self.ring, (len(heights),) + self.ring.shape),
                         self.ring[None, :, 1] - heights[:, None])
        owner = np.flatnonzero((signed_ring_areas(sky, sky[:, 0]) > 0.0)[level])
        rings = sky[level[owner]]

        lo, hi = self._wall_shadows(pl, hl, ul)
        for k in np.flatnonzero((lo < hi).any(axis=0)):
            cut = lo[owner, k] < hi[owner, k]
            r, o = rings[cut], owner[cut]
            beyond, before = split_rings(r, r[:, :, 0] - lo[o, k][:, None])
            after = trim_rings(beyond, beyond[:, :, 0] - hi[o, k][:, None])
            # only the rows the cut made can be empty: the rest have passed _nonempty
            made, o = _nonempty(stack_rings(before, after), np.concatenate((o, o)))
            rings, owner = stack_rings(rings[~cut], made), np.concatenate((owner[~cut], o))

        cls = np.full(len(owner), -1)
        for ring3, j in zip(self.parts, self.owner):
            rings, owner, cls = self._cut_by_part(rings, owner, cls, ring3, j, pl, hl, ul, zl)
        return rings, live[owner], cls, (u, h, z)

    def _wall_shadows(self, p, h, u) -> tuple[np.ndarray, np.ndarray]:
        """Per point and wall, the span [lo, hi] of the window's along-wall
        coordinate that the wall hides (lo >= hi where it hides nothing).
        Only the part of a wall between the point and the window line can
        hide anything: the walls are cut to the room side of that line once
        (:func:`_casters`), and here to the side ahead of the point; the
        ends of what is left project from the point onto the line."""
        rx = self.walls[None, :, :, 0] - p[:, None, None, 0]     # (n, K, 2 ends)
        ry = self.walls[None, :, :, 1] - p[:, None, None, 1]
        depth = rx * self.normal[0] + ry * self.normal[1]
        side = rx * self.along[0] + ry * self.along[1]
        g0, g1 = depth[..., 0], depth[..., 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            s = g0 / (g0 - g1)
        s_lo = np.where(g0 < 0.0, np.where(g1 < 0.0, np.inf, s), 0.0)
        s_hi = np.where(g1 < 0.0, np.where(g0 < 0.0, -np.inf, s), 1.0)
        ends = []
        with np.errstate(divide="ignore", invalid="ignore"):
            for s in (s_lo, s_hi):
                d = np.maximum(depth[..., 0] + s * (depth[..., 1] - depth[..., 0]), 0.0)
                lateral = side[..., 0] + s * (side[..., 1] - side[..., 0])
                ends.append(u[:, None] + h[:, None] * (lateral / d))
        lo = np.maximum(np.fmin(*ends), self.ring[:, 0].min())
        hi = np.minimum(np.fmax(*ends), self.ring[:, 0].max())
        hidden = (s_lo < s_hi) & ~np.isnan(ends[0]) & ~np.isnan(ends[1])
        return np.where(hidden, lo, 0.0), np.where(hidden, hi, 0.0)

    def _cut_by_part(self, rings, owner, cls, ring3, j, p, h, u, z):
        """Clip the pieces by the central projection of one obstruction part
        onto the window plane (:func:`clip_rings`, both outputs): the slabs
        cut off keep their class, the overlap goes to obstruction j where j
        is nearer. A slab's zero rows, where its edge cut nothing off, are
        dropped before the stack, and only the rows the clip made are tested
        for area: the pieces it passes by whole have passed
        :func:`_nonempty` before."""
        qx, qy, qz = (ring3[None, :, i] - p[:, None, i] for i in range(3))
        scale = h[:, None] / (qx * self.normal[0] + qy * self.normal[1])
        proj = np.stack((u[:, None] + scale * (qx * self.along[0] + qy * self.along[1]),
                         z[:, None] + scale * qz), axis=-1)
        area = signed_ring_areas(proj, proj[:, 0])
        proj = np.where((area < 0.0)[:, None, None], proj[:, ::-1], proj)
        cut = (area != 0.0)[owner]
        o, c = owner[cut], cls[cut]
        r, outside = clip_rings(rings[cut], proj[o], outside=True)
        behind = (c >= 0) & (c != j)  # overlap with another obstruction's projection
        nearer_j, nearer_other = split_rings(r[behind], self._nearer(j, c[behind], o[behind], r[behind], p))
        oo, ob = o[~behind], o[behind]
        sliced = [slab.any(axis=(1, 2)) for slab in outside]  # zeros where the edge cut nothing off
        made, o, c = _nonempty(
            stack_rings(*(slab[s] for slab, s in zip(outside, sliced)),
                        r[~behind], nearer_j, nearer_other),
            np.concatenate([o[s] for s in sliced] + [oo, ob, ob]),
            np.concatenate([c[s] for s in sliced] + [np.full(len(oo) + len(ob), j), c[behind]]))
        return (stack_rings(rings[~cut], made), np.concatenate((owner[~cut], o)),
                np.concatenate((cls[~cut], c)))

    def _nearer(self, j, other, owner, rings, p) -> np.ndarray:
        """At each vertex of the pieces, a value that is positive where
        obstruction j is nearer than obstruction ``other`` along the ray
        from the point through the window: the ray meets plane k at
        t = A_k / D_k, with A_k = c_k - n_k.p and D_k = n_k.(x - p)."""
        pts = p[owner]
        x = (self.origin[None, None, :] + rings[:, :, :1] * self.along
             + rings[:, :, 1:] * np.array([0.0, 0.0, 1.0]))
        nj, ni = self.planes[j, :3], self.planes[other, :3]
        a_j = self.planes[j, 3] - np.sum(pts * nj, axis=1)
        a_i = self.planes[other, 3] - np.sum(pts * ni, axis=1)
        d_j = np.sum((x - pts[:, None]) * nj, axis=2)
        d_i = np.sum((x - pts[:, None]) * ni[:, None], axis=2)
        side = np.sign(a_i * a_j)[:, None] * (a_i[:, None] * d_j - a_j[:, None] * d_i)
        # coplanar obstructions: give the overlap to j
        return np.where(np.all(side == 0.0, axis=1)[:, None], 1.0, side)


def _nonempty(rings: np.ndarray, *columns: np.ndarray):
    """Keep the rings of positive area, with the matching entries of each column."""
    keep = signed_ring_areas(rings, rings[:, 0]) > 0.0
    return (rings[keep],) + tuple(c[keep] for c in columns)


def _piece_integrals(rings, u, h, z) -> np.ndarray:
    """Integral of L(g) sin(g) over the solid angle of each counter-clockwise
    piece on the window plane, seen from a point at along-wall coordinate
    ``u``, height ``z`` and distance ``h`` in front of the plane, over
    OVERCAST_DOME. Each coordinate of the corners' unit vectors (a) and of
    the next corner's (b) is its own (Q, W) plane."""
    ax = rings[:, :, 0] - u[:, None]
    az = rings[:, :, 1] - z[:, None]
    length = np.sqrt(ax * ax + h[:, None] * h[:, None] + az * az)
    ax, ay, az = ax / length, h[:, None] / length, az / length
    bx, by, bz = (np.roll(c, -1, axis=1) for c in (ax, ay, az))
    mx, my, mz = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx  # m = a x b
    sin = np.sqrt(mx * mx + my * my + mz * mz)
    cos = ax * bx + ay * by + az * bz
    with np.errstate(divide="ignore", invalid="ignore"):
        turn = np.where(sin > 0.0, np.arctan2(sin, cos) / sin, 0.0)
    first = -0.5 * ring_sums(turn * mz)
    g = ax * ax[:, :1] + ay * ay[:, :1] + az * az[:, :1]
    fan = np.arctan2(ax[:, :1] * mx[:, 1:-1] + ay[:, :1] * my[:, 1:-1] + az[:, :1] * mz[:, 1:-1],
                     1.0 + g[:, 1:-1] + cos[:, 1:-1] + g[:, 2:])
    omega = np.abs(2.0 * ring_sums(fan))
    second = (omega - ring_sums(mz * (az + bz) / (1.0 + cos))) / 3.0
    return (first + 2.0 * second) / (3.0 * OVERCAST_DOME)


def _aperture_index(room: Room, ap: Aperture) -> int:
    """Index of ``ap`` in the room's apertures, matched by identity."""
    for k, own in enumerate(room.apertures):
        if ap is own:
            return k
    raise ValueError("aperture is not one of the room's apertures")


def split_flux_irc(window_area: float, total_area: float, mean_reflectance: float,
                   lower_reflectance: float, upper_reflectance: float,
                   obstruction_coefficient: float = UNOBSTRUCTED_C) -> float:
    """Split-flux average internally-reflected component, as a fraction.

    ``lower_reflectance`` averages floor and walls below the window
    mid-height, ``upper_reflectance`` ceiling and walls above it. It
    diverges as ``mean_reflectance`` reaches 1; :class:`Room` refuses a
    mean of 0.99 or more.
    """
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


def daylight_factor(point, room: Room, ap: Aperture) -> DFBreakdown:
    """Daylight factor (as a fraction) at a point for one of the room's apertures."""
    p = np.asarray(point, dtype=float).reshape(1, 3)
    if not room.contains(p)[0]:
        raise ValueError("point lies outside the room")
    k = _aperture_index(room, ap)
    sc, erc = (float(c[0]) for c in room.sky[k](p))
    irc = room.irc[k]
    df = df_from_components(sc, erc, irc, ap.fc, ap.mf, ap.fr, ap.tau, ap.mg)
    return DFBreakdown(sc=sc, erc=erc, irc=irc, df=df)


class BeamKernel:
    """The sun patches of all apertures for a batch of sun directions.

    Each window is cut once, at construction, to its part above the plane
    z = ``plane_z`` (:func:`trim_rings`): only that part casts light onto
    the plane, and a window wholly below it becomes a zero row, which casts
    nothing. Per step and aperture the cut window slides along the unit sun
    direction d (from the sun toward the ground) onto the plane and the
    image is clipped against every convex floor part (``Room.parts``). A
    window casts a patch only when the light enters through it (d . n_out <
    -1e-9, n_out its wall's outward normal in ``Room.outward``) and comes
    down, d_z < -PARALLEL_TOL: the direction alone decides, as d_z < 0
    exactly when the sun is above the horizon. A clipped piece of at most
    EMPTY_AREA counts as empty; the patch area sums the pieces. A point is
    lit when the patch is non-empty and the point is in the (convex) image,
    within BOUNDARY_TOL metres of its edges included
    (:func:`points_in_convex_rings`). Nothing shades the beam: other walls
    and obstructions do not cut the image.

    :meth:`Simulator.run` calls it once per chunk of ``BLOCK_STEPS`` lit
    steps, on that chunk's sunny steps; the clip cuts only the images that
    a floor part's edge divides.
    """

    def __init__(self, room: Room, plane_z: float):
        self.room = room
        self.plane_z = plane_z
        # the empty batch leads, so a room without windows gets one of shape (0, 1, 3)
        windows = stack_rings(np.empty((0, 1, 3)),
                              *(ap.polygon.coords[None] for ap in room.apertures))
        self.windows = trim_rings(windows, windows[:, :, 2] - plane_z)

    def __call__(self, direction: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Patch area per step and aperture, shape (B, K), for the (B, 3)
        sun ``direction``, and whether each of the (N, 2) ``points`` lies
        in each non-empty patch, (B, K, N)."""
        n_steps, n_ap = len(direction), len(self.windows)
        areas = np.zeros((n_steps, n_ap))
        lit = np.zeros((n_steps, n_ap, len(points)), dtype=bool)
        d = direction / np.sqrt(np.sum(direction * direction, axis=1))[:, None]
        facing = np.sum(direction[:, None, :] * self.room.outward[None], axis=2) < -1e-9
        ok = facing & (d[:, 2] < -PARALLEL_TOL)[:, None]
        b, k = np.nonzero(ok)
        images = project_polygon_along_direction(self.windows[k], d[b], self.plane_z)

        area = np.zeros(len(b))
        for part in self.room.parts:
            piece = np.abs(signed_ring_areas(clip_rings(images, part), part.mean(axis=0)))
            area = area + np.where(piece > EMPTY_AREA, piece, 0.0)
        areas[b, k] = area

        sunlit = area > 0.0
        lit[b[sunlit], k[sunlit]] = points_in_convex_rings(points, images[sunlit])
        return areas, lit


def compute_sun_patch(room: Room, ap: Aperture, sun: SolarState, plane_z: float) -> float:
    """Sun patch area (m^2) of one aperture for one sun position on the plane
    z = ``plane_z``: a batch of one through :class:`BeamKernel`."""
    areas, _ = BeamKernel(room, plane_z)(sun.direction[None], np.zeros((0, 2)))
    return float(areas[0, _aperture_index(room, ap)])


@dataclass(eq=False)
class IlluminanceField:
    """Per-point illuminances over the workplane grid for one instant and
    its total sun-patch area; the instant, outdoor conditions and sun are
    the caller's (a run's ``fields`` key and columns)."""

    grid: GridMesh
    df: np.ndarray
    e_diffuse: np.ndarray
    e_direct: np.ndarray
    e_global: np.ndarray
    patch_area: float


@dataclass(eq=False)
class PeriodResult:
    """Time series produced by a period simulation on ``datetime64[us]`` step
    times: outdoor conditions, total patch area and workplane illuminance at
    the probe points, one column per probe in the order given, plus full
    fields at explicitly requested instants."""

    timestamps: np.ndarray
    outdoor_global: np.ndarray
    outdoor_diffuse: np.ndarray
    outdoor_direct: np.ndarray
    patch_area: np.ndarray
    probe_global: np.ndarray
    fields: dict[datetime, IlluminanceField] = field(default_factory=dict)

    def hourly(self) -> "PeriodResult":
        """Average the series into clock hours (fields left as-is); one
        grouping by hour serves every column."""
        hours, outdoor_global, outdoor_diffuse, outdoor_direct, patch_area, *probe = (
            resample_hourly(self.timestamps, self.outdoor_global, self.outdoor_diffuse,
                            self.outdoor_direct, self.patch_area, *self.probe_global.T))
        return PeriodResult(
            timestamps=hours,
            outdoor_global=outdoor_global,
            outdoor_diffuse=outdoor_diffuse,
            outdoor_direct=outdoor_direct,
            patch_area=patch_area,
            probe_global=np.column_stack(probe) if probe else np.empty((len(hours), 0)),
            fields=dict(self.fields),
        )


class Simulator:
    """Workplane illuminance engine for one room.

    The daylight-factor field depends on geometry only, so it is computed
    once at construction and reused for every timestep; per step only the
    outdoor conversion and the sun-patch geometry change. A period's
    weather is read as slices when the steps are the weather's own
    consecutive rows and looked up row by row otherwise; the outdoor
    conversion is one array pass over the whole period, so its temporaries
    grow with it. :meth:`run` alone decides which steps are lit, dark and
    sunny. The lit steps are those whose weather carries light; every other
    step is dark whatever the sun does. One :func:`~sidelux.solar.sun_up`
    call over all the lit steps tells which have the sun down, and those
    are zeroed; then the DF term of every step is written in one product.
    The sunny steps, those left with a direct part, alone get a sun
    position: in chunks of ``BLOCK_STEPS`` lit steps, a chunk's sunny steps
    get one :func:`~sidelux.solar.sun_positions` call and go to the
    :class:`BeamKernel` as one batch, whose beam terms :meth:`_illuminance`
    adds onto their DF term. A run's columns are the one copy
    of its outputs: :meth:`evaluate` builds its fields from them and the sun
    directions of their steps, as it builds any caller's. The field at a
    given sun and outdoor diffuse and direct illuminance::

        sim.evaluate(sun_position(when, loc).direction[None], [diffuse + direct], [direct])[0]
    """

    def __init__(self, room: Room, location: GeoLocation, cell: float = 0.1,
                 workplane_height: float = 0.01, efficacy: EfficacyModel | None = None,
                 patch_scope: str = "patch"):
        if patch_scope not in PATCH_SCOPES:
            raise ConfigError(f"patch_scope: must be one of {PATCH_SCOPES}, got {patch_scope!r}")
        self.room = room
        self.location = location
        self.efficacy = efficacy if efficacy is not None else EfficacyModel()
        self.patch_scope = patch_scope
        if not cell > 0.0:  # NaN too
            raise ConfigError(f"workplane.cell: {cell} must be positive")
        if not 0.0 <= workplane_height <= room.height:
            raise ConfigError(f"workplane.height: {workplane_height} m must lie between the "
                              f"floor (0 m) and the ceiling ({room.height} m)")
        self.grid = workplane_grid_for_parts(room.parts, room.floor_z, cell, workplane_height)
        self.beam = BeamKernel(room, self.grid.plane_z)
        self.df = self._df_for_points(self.grid.points)

    def _df_for_points(self, points: np.ndarray) -> np.ndarray:
        total = np.zeros(len(points))
        for ap, sky, irc in zip(self.room.apertures, self.room.sky, self.room.irc):
            sc, erc = sky(points)
            total = total + df_from_components(sc, erc, irc, ap.fc, ap.mf, ap.fr, ap.tau, ap.mg)
        return total

    def _illuminance(self, direction: np.ndarray, e_direct: np.ndarray, points: np.ndarray,
                     e_dif: np.ndarray):
        """Total patch area per step and diffuse and direct illuminance at
        ``points`` (shape (steps, points)) for a batch of sunny steps: each
        window's beam terms added onto ``e_dif``, the caller's DF term. The
        ``direction`` alone rules out a sun at or below the horizon."""
        areas, lit = self.beam(direction, points[:, :2])
        e_dir = np.zeros_like(e_dif)
        area = np.zeros(len(direction))
        for k, ap in enumerate(self.room.apertures):
            term = e_direct * self.room.optics.floor * areas[:, k] / self.room.s_t
            e_dif = e_dif + term[:, None] * (lit[:, k] | (self.patch_scope == "room"))
            e_dir = e_dir + lit[:, k] * (e_direct * ap.tau)[:, None]
            area = area + areas[:, k]
        return area, e_dif, e_dir

    def evaluate(self, direction: np.ndarray, e_global: np.ndarray,
                 e_direct: np.ndarray) -> list[IlluminanceField]:
        """Fields over the workplane grid at n instants, the DF term of all
        and one :meth:`_illuminance` pass over those with a direct part,
        from their sun directions (n, 3), from the sun toward the ground,
        each of finite, non-zero length, and finite outdoor horizontal
        illuminance (n,) with 0 <= e_direct <= e_global. A direction that
        does not point down (the sun at or below the horizon) casts nothing,
        whatever the direct part."""
        direction, e_global, e_direct = map(np.asarray, (direction, e_global, e_direct))
        n = direction.shape[:1]
        if direction.shape != n + (3,) or e_global.shape != n or e_direct.shape != n:
            raise DataError("evaluate takes (n, 3) sun directions and (n,) illuminances")
        if not (np.isfinite(e_global) & (0.0 <= e_direct) & (e_direct <= e_global)).all():
            raise DataError("illuminances must be finite and satisfy 0 <= e_direct <= e_global")
        with np.errstate(over="ignore"):  # the norm as the beam works it out
            norm = np.sqrt(np.sum(direction * direction, axis=1))
        if not ((norm > 0.0) & (norm < np.inf)).all():
            raise DataError("sun directions must have a finite, non-zero length")
        e_dif = self.df[None, :] * e_global[:, None]
        e_dir = np.zeros_like(e_dif)
        area = np.zeros(len(direction))
        sunny = np.flatnonzero(e_direct > 0.0)
        if len(sunny):
            area[sunny], e_dif[sunny], e_dir[sunny] = self._illuminance(
                direction[sunny], e_direct[sunny], self.grid.points, e_dif[sunny])
        return [IlluminanceField(grid=self.grid, df=self.df, e_diffuse=e_dif[j],
                                 e_direct=e_dir[j], e_global=e_dif[j] + e_dir[j],
                                 patch_area=float(area[j]))
                for j in range(len(direction))]

    def step(self, when: datetime, gh: float, dh: float, ev_global: float | None = None,
             ev_diffuse: float | None = None) -> IlluminanceField:
        """Field for one weather sample: a one-sample :meth:`run`, so the
        sample is validated as a one-sample series."""
        series = WeatherSeries([when], [gh], [dh], [ev_global], [ev_diffuse])
        return self.run(series, field_at=[when]).fields[when]

    def _probe_df(self, probes):
        pts = np.array([(x, y, self.grid.plane_z) for x, y in probes], dtype=float).reshape(-1, 3)
        finite = np.isfinite(pts).all(axis=1)
        if not finite.all():  # before the room is asked, which cannot place it
            x, y, _ = pts[np.argmin(finite)]
            raise ConfigError(f"probe ({x}, {y}) is not a finite point")
        outside = np.flatnonzero(~self.room.contains(pts))
        if len(outside):
            x, y, _ = pts[outside[0]]
            raise ConfigError(f"probe ({x}, {y}) lies outside the room")
        return pts, self._df_for_points(pts)

    def run(self, weather: WeatherSeries, start: datetime | None = None,
            end: datetime | None = None, step_minutes: int = 1, probes=(),
            field_at=()) -> PeriodResult:
        """Step from ``start`` (default: the first sample) up to ``end``,
        exclusive, or without ``end`` through the last sample, and collect
        probe series.

        Every step needs a sample at its exact time; a missing one is an
        error. Full fields are built only for the instants listed in
        ``field_at``, keyed by them; each must be a step of the period,
        which is checked before any step is taken. The probe columns
        follow the order of ``probes``.
        """
        if not isinstance(step_minutes, (int, np.integer)):
            raise ConfigError(f"step of {step_minutes!r} minutes is not a whole number of minutes")
        if step_minutes < 1:
            raise ConfigError("step must be at least one minute")
        if step_minutes > np.iinfo(np.int64).max // 60_000_000:  # microseconds must fit int64
            raise ConfigError(f"step of {step_minutes} minutes is too long")
        if len(weather) == 0:
            raise DataError("empty weather series")
        first = weather.times[0] if start is None else np.datetime64(local_time(start), "us")
        # without an end, up to and including the last sample
        end = weather.times[-1] + 1 if end is None else np.datetime64(local_time(end), "us")
        step = np.timedelta64(step_minutes * 60_000_000, "us")
        n = int(-((first - end) // step))
        if n <= 0:
            raise DataError("empty simulation period (end must be after start)")
        probe_pts, probe_df = self._probe_df(probes)

        times = first + np.arange(n) * step
        # when the steps are the weather's own rows r0 ... r0 + n - 1, the period's
        # columns are slices; otherwise each step's row is looked up and gathered
        r0 = int(np.searchsorted(weather.times, first))
        rows = None
        if not np.array_equal(weather.times[r0:r0 + n], times):
            rows = np.minimum(np.searchsorted(weather.times, times), len(weather) - 1)
            found = weather.times[rows] == times
            if not found.all():
                missing = times[np.argmin(found)].astype(datetime)
                raise DataError(f"no weather record for {missing.isoformat()}")

        field_at = sorted(map(local_time, set(field_at)))
        field_steps, off_step = np.divmod(np.array(field_at, "datetime64[us]") - first, step)
        missing = [when for when, k, rest in zip(field_at, field_steps, off_step)
                   if rest or not 0 <= k < n]
        if missing:
            raise DataError("field requested at instants not visited by the stepping: "
                            + ", ".join(ts.isoformat() for ts in missing))

        # only the lit steps ask for the sun, but every step must be in range
        check_years(times)
        r = slice(r0, r0 + n) if rows is None else rows
        outdoor_diffuse, outdoor_direct = outdoor_illuminance(
            weather.gh[r], weather.dh[r], self.efficacy, weather.ev_global[r], weather.ev_diffuse[r])
        # only the lit steps, those with light as if the sun were up (-0.0 too,
        # whose sign the sun keeps), ask whether the sun is up: any other step is +0.0
        # whether the sun is up or not; the lit ones with the sun down are zeroed.
        # Found first, so its temporaries are freed before the outputs are made
        lit = np.flatnonzero((outdoor_diffuse.view(np.uint64) | outdoor_direct.view(np.uint64)) != 0)
        outdoor_global = outdoor_diffuse + outdoor_direct
        dark = lit[~sun_up(times[lit], self.location)]
        outdoor_global[dark] = outdoor_diffuse[dark] = outdoor_direct[dark] = 0.0
        # the DF term of every step, probe by probe; + 0.0, as a sunny step adds its
        # direct term: a -0.0 product reads 0.0
        probe_global = np.multiply(probe_df[:, None], outdoor_global[None, :])
        probe_global += 0.0
        probe_global = probe_global.T
        patch_area = np.zeros(n)
        # the dark steps are zeroed, so a direct part means the sun is up; a beam batch
        # is the sunny steps of one chunk of BLOCK_STEPS lit steps
        sunny = np.flatnonzero(outdoor_direct[lit] > 0.0)  # as positions among the lit steps
        chunks = np.searchsorted(sunny, np.arange(BLOCK_STEPS, len(lit), BLOCK_STEPS))
        for steps in np.split(lit[sunny], chunks):
            if len(steps):  # an overcast chunk has none, and an empty pass costs too
                _, _, direction = sun_positions(times[steps], self.location)
                patch_area[steps], e_dif, e_dir = self._illuminance(
                    direction, outdoor_direct[steps], probe_pts, probe_global[steps])
                probe_global[steps] = e_dif + e_dir

        fields = []
        if field_at:  # a pass over no stamp still costs
            _, _, direction = sun_positions(times[field_steps], self.location)
            fields = self.evaluate(direction, outdoor_global[field_steps],
                                   outdoor_direct[field_steps])
        return PeriodResult(
            timestamps=times,
            outdoor_global=outdoor_global,
            outdoor_diffuse=outdoor_diffuse,
            outdoor_direct=outdoor_direct,
            patch_area=patch_area,
            probe_global=probe_global,
            fields=dict(zip(field_at, fields)),
        )
