"""Independent physics for the benchmark: sun position, the bound on the
sun-patch area, and the ray-cast references for the daylight factor and the
sun-patch area.

Nothing here imports ``sidelux``. Buildings are the plain dictionaries the
CLI reads as JSON (see ``inputs.py``), so the benchmark's checks and its
frozen references rest on their own math only. Axes: x East, y North, z up.
"""

from __future__ import annotations

import math

import numpy as np

OVERCAST_DOME = 7.0 * math.pi / 9.0   # horizontal illuminance of the CIE overcast dome
UNOBSTRUCTED_C = 39.0                 # split-flux obstruction coefficient, clear horizon
_J2000_MIN = np.datetime64("2000-01-01T12:00", "m").astype(np.int64)


# --------------------------------------------------------------------------
# Sun position (Astronomical Almanac low-precision form), vectorized.

def sun_angles(minutes: np.ndarray, lat: float, lon: float, tz: float):
    """Altitude and azimuth in degrees (azimuth clockwise from North) for
    local civil times given as minutes since the Unix epoch."""
    m = np.asarray(minutes, dtype=np.int64)
    days = (m - _J2000_MIN) / 1440.0 - tz / 24.0
    mean_long = np.radians((280.460 + 0.9856474 * days) % 360.0)
    mean_anom = np.radians((357.528 + 0.9856003 * days) % 360.0)
    ecl_long = mean_long + np.radians(1.915 * np.sin(mean_anom) + 0.020 * np.sin(2.0 * mean_anom))
    obliq = np.radians(23.439 - 0.0000004 * days)
    decl = np.arcsin(np.sin(obliq) * np.sin(ecl_long))
    ra = np.arctan2(np.cos(obliq) * np.sin(ecl_long), np.cos(ecl_long))
    eqtime = 4.0 * np.degrees((mean_long - ra + math.pi) % (2.0 * math.pi) - math.pi)
    hours = (m % 1440) / 60.0
    tst = hours * 60.0 + eqtime + 4.0 * lon - 60.0 * tz
    ha = np.radians(tst / 4.0 - 180.0)
    phi = math.radians(lat)
    sin_alt = np.clip(
        math.sin(phi) * np.sin(decl) + math.cos(phi) * np.cos(decl) * np.cos(ha), -1.0, 1.0
    )
    alt = np.degrees(np.arcsin(sin_alt))
    az = np.degrees(np.arctan2(
        np.sin(ha) * np.cos(decl),
        np.cos(ha) * np.cos(decl) * math.sin(phi) - np.sin(decl) * math.cos(phi),
    )) + 180.0
    return alt, az % 360.0


def sun_direction(alt_deg, az_deg) -> np.ndarray:
    """Unit vectors from the sun toward the ground, shape (n, 3)."""
    h = np.radians(alt_deg)
    a = np.radians(az_deg)
    ch = np.cos(h)
    return np.column_stack((-np.sin(a) * ch, -np.cos(a) * ch, -np.sin(h)))


def to_minutes(iso_timestamps) -> np.ndarray:
    return np.array(iso_timestamps, dtype="datetime64[m]").astype(np.int64)


# --------------------------------------------------------------------------
# Building geometry from the JSON dictionary.

class Scene:
    """The parts of a building the references need: floor ring (counter-
    clockwise), wall height, windows with their wall index and outward
    normal, and obstruction polygons."""

    def __init__(self, building: dict):
        room = building["room"]
        floor = np.array(room["floor_vertices"], dtype=float)
        ring = floor[:, :2]
        if _signed_area(ring) < 0.0:
            ring = ring[::-1]
        self.ring = ring
        self.floor_z = float(floor[:, 2].mean())
        self.height = float(room["height"])
        refl = {s["role"]: float(s["reflectance"]) for s in room["surfaces"]}
        self.rho_floor, self.rho_walls, self.rho_ceiling = refl["floor"], refl["walls"], refl["ceiling"]
        self.plane_z = self.floor_z + float(building["workplane"].get("height", 0.01))
        self.windows = [_Window(a, ring) for a in room["apertures"]]
        self.obstructions = [
            (np.array(o["vertices"], dtype=float), float(o.get("luminance_fraction", 0.2)))
            for o in building.get("obstructions", [])
        ]
        for w in self.windows:
            # every sight line leaving a window must stay clear of the
            # building itself, so only the room's inside can occlude it
            if np.any(_orient(ring[w.wall], ring[(w.wall + 1) % len(ring)], ring) < -1e-9):
                raise ValueError("windows must sit on walls of the floor's convex hull")

    @property
    def floor_area(self) -> float:
        return _signed_area(self.ring)

    @property
    def perimeter(self) -> float:
        return float(np.linalg.norm(np.roll(self.ring, -1, axis=0) - self.ring, axis=1).sum())

    def irc(self, w: "_Window") -> float:
        """Split-flux internally reflected component of one window."""
        s_t = self.floor_area
        a_walls = self.perimeter * self.height
        total = 2.0 * s_t + a_walls
        mid = min(max(float(w.verts[:, 2].mean()) - self.floor_z, 0.0), self.height)
        a_lower = self.perimeter * mid
        a_upper = a_walls - a_lower
        r_mean = (self.rho_floor * s_t + self.rho_ceiling * s_t + self.rho_walls * a_walls) / total
        r_lower = (self.rho_floor * s_t + self.rho_walls * a_lower) / (s_t + a_lower)
        r_upper = (self.rho_ceiling * s_t + self.rho_walls * a_upper) / (s_t + a_upper)
        c = UNOBSTRUCTED_C
        if self.obstructions:
            wc = w.verts.mean(axis=0)
            angles = []
            for verts, _ in self.obstructions:
                oc = verts.mean(axis=0)
                horiz = max(math.hypot(oc[0] - wc[0], oc[1] - wc[1]), 1e-9)
                angles.append(max(0.0, math.degrees(math.atan2(verts[:, 2].max() - wc[2], horiz))))
            c = UNOBSTRUCTED_C * max(0.0, 1.0 - min(sum(angles) / len(angles), 80.0) / 80.0)
        return 0.85 * w.area / (total * (1.0 - r_mean)) * (c * r_lower + 5.0 * r_upper) / 100.0


class _Window:
    def __init__(self, ap: dict, ring: np.ndarray):
        self.verts = np.array(ap["vertices"], dtype=float)
        self.tau = float(ap.get("tau_vitre", 0.9))
        self.factor = (float(ap.get("MF", 1.0)) * float(ap.get("FR", 1.0)) * self.tau
                       * float(ap.get("MG", 1.0)))
        self.fc = float(ap.get("FC", 1.0))
        n = len(ring)
        for i in range(n):
            a, b = ring[i], ring[(i + 1) % n]
            e = (b - a) / np.linalg.norm(b - a)
            outward = np.array([e[1], -e[0], 0.0])
            if np.abs((self.verts[:, :2] - a) @ outward[:2]).max() < 1e-6:
                self.wall, self.outward = i, outward
                break
        else:
            raise ValueError("window does not lie on a wall")
        c = self.verts
        self.area = 0.5 * float(np.linalg.norm(
            np.cross(c - c.mean(axis=0), np.roll(c - c.mean(axis=0), -1, axis=0)).sum(axis=0)))


def _signed_area(ring: np.ndarray) -> float:
    x, y = ring[:, 0], ring[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _orient(a, b, q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    return (b[0] - a[0]) * (q[..., 1] - a[1]) - (b[1] - a[1]) * (q[..., 0] - a[0])


# --------------------------------------------------------------------------
# Patch-area bound used by the output checks.

def patch_area_bound(scene: Scene, d: np.ndarray) -> np.ndarray:
    """Sum over sun-facing windows of A_win * |d . n_w| / |d_z|: the area of
    the windows' images on a horizontal plane, which no sun patch exceeds."""
    bound = np.zeros(len(d))
    up = d[:, 2] < -1e-12
    for w in scene.windows:
        dn = d @ w.outward
        facing = up & (dn < 0.0)
        bound[facing] += w.area * np.abs(dn[facing]) / np.abs(d[facing, 2])
    return bound


# --------------------------------------------------------------------------
# Daylight-factor reference: composite Gauss-Legendre over each window's
# surface, one ray per node, occluded by the room's walls and shaded (ERC) by
# obstructions.

_GL_X, _GL_W = np.polynomial.legendre.leggauss(2)


def _window_nodes(w: _Window, cells: int):
    """Nodes and area weights of a composite 2-point Gauss rule on a
    parallelogram window (corner, two edges)."""
    c0 = w.verts[0]
    e1 = w.verts[1] - c0
    e2 = w.verts[-1] - c0
    edges = np.arange(cells)
    u = ((edges[:, None] + 0.5 + 0.5 * _GL_X[None, :]) / cells).ravel()
    wu = np.tile(0.5 * _GL_W, cells) / cells
    uu, vv = np.meshgrid(u, u, indexing="ij")
    ww = np.outer(wu, wu).ravel()
    pts = c0 + uu.ravel()[:, None] * e1 + vv.ravel()[:, None] * e2
    if np.abs(np.cross(e1, e2)).sum() == 0.0 or not np.allclose(c0 + e1 + e2, w.verts[2]):
        raise ValueError("reference windows must be parallelograms listed corner by corner")
    return pts, ww * np.linalg.norm(np.cross(e1, e2))


def _crosses_walls(scene: Scene, p: np.ndarray, x: np.ndarray, skip: int) -> np.ndarray:
    """True where the plan segment p -> x properly crosses a wall other than
    the one with index ``skip``."""
    ring = scene.ring
    n = len(ring)
    hit = np.zeros(len(x), dtype=bool)
    p2 = p[:2]
    x2 = x[:, :2]
    for i in range(n):
        if i == skip:
            continue
        a, b = ring[i], ring[(i + 1) % n]
        s_p = _orient(a, b, p2)
        s_x = _orient(a, b, x2)
        t_a = (x2[:, 0] - p2[0]) * (a[1] - p2[1]) - (x2[:, 1] - p2[1]) * (a[0] - p2[0])
        t_b = (x2[:, 0] - p2[0]) * (b[1] - p2[1]) - (x2[:, 1] - p2[1]) * (b[0] - p2[0])
        hit |= (s_p * s_x < 0.0) & (t_a * t_b < 0.0)
    return hit


def _ray_polygon_t(p: np.ndarray, dirs: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """Distance along each unit ray from p to a planar convex polygon, inf
    where the ray misses."""
    c = verts.mean(axis=0)
    nrm = np.cross(verts[1] - verts[0], verts[2] - verts[0])
    nrm /= np.linalg.norm(nrm)
    denom = dirs @ nrm
    with np.errstate(divide="ignore", invalid="ignore"):
        t = ((c - p) @ nrm) / denom
    ok = np.isfinite(t) & (t > 1e-9)
    x = p + np.where(ok, t, 0.0)[:, None] * dirs
    inside = np.ones(len(dirs), dtype=bool)
    m = len(verts)
    for i in range(m):
        a, b = verts[i], verts[(i + 1) % m]
        inside &= np.cross(b - a, x - a) @ nrm >= 0.0
    return np.where(ok & inside, t, np.inf)


def daylight_factor(scene: Scene, point, cells: int) -> float:
    """Daylight factor (fraction) at a workplane point, with the sky and
    externally reflected components integrated over each window."""
    p = np.asarray(point, dtype=float)
    total = 0.0
    for w in scene.windows:
        x, wa = _window_nodes(w, cells)
        vec = x - p
        r = np.linalg.norm(vec, axis=1)
        dirs = vec / r[:, None]
        sin_g = dirs[:, 2]
        cos_w = np.abs(dirs @ w.outward)
        f = np.where(sin_g > 0.0, (1.0 + 2.0 * sin_g) / 3.0 * sin_g * cos_w / r**2, 0.0) * wa
        seen = ~_crosses_walls(scene, p, x, w.wall)
        t_best = np.full(len(x), np.inf)
        frac = np.zeros(len(x))
        for verts, lum in scene.obstructions:
            t = _ray_polygon_t(p, dirs, verts)
            nearer = (t > r) & (t < t_best)
            t_best[nearer] = t[nearer]
            frac[nearer] = lum
        blocked = np.isfinite(t_best)
        sc = float(f[seen & ~blocked].sum()) / OVERCAST_DOME
        erc = float((f * frac)[seen & blocked].sum()) / OVERCAST_DOME
        total += (sc + erc + scene.irc(w) * w.fc) * w.factor
    return total


# --------------------------------------------------------------------------
# Sun-patch reference: exact scanline integration of the lit length.
#
# On a horizontal line of the workplane the lit set is the floor, intersected
# with the union over windows of (points whose ray toward the sun passes the
# window) minus (points whose ray hits a wall or an obstruction). Each of
# those sets is a polygon's parallel projection onto the workplane, so the lit
# length is piecewise linear in y with kinks only at vertex heights and at
# crossings of two projected edges. Integrating each piece with a two-point
# Gauss rule is exact.

def _clip_above(verts: np.ndarray, z: float) -> np.ndarray | None:
    out = []
    m = len(verts)
    for i in range(m):
        a, b = verts[i], verts[(i + 1) % m]
        ia, ib = a[2] >= z, b[2] >= z
        if ia:
            out.append(a)
        if ia != ib:
            t = (z - a[2]) / (b[2] - a[2])
            q = a + t * (b - a)
            q[2] = z
            out.append(q)
    return np.array(out) if len(out) >= 3 else None


def _project(verts: np.ndarray, d: np.ndarray, z: float) -> np.ndarray | None:
    part = _clip_above(verts, z)
    if part is None:
        return None
    s = (z - part[:, 2]) / d[2]
    return (part + s[:, None] * d)[:, :2]


def _line_intervals(ring: np.ndarray, y: float) -> list[tuple[float, float]]:
    xs = []
    m = len(ring)
    for i in range(m):
        (ax, ay), (bx, by) = ring[i], ring[(i + 1) % m]
        if (ay > y) != (by > y):
            xs.append(ax + (y - ay) * (bx - ax) / (by - ay))
    xs.sort()
    return [(xs[i], xs[i + 1]) for i in range(0, len(xs) - 1, 2) if xs[i + 1] > xs[i]]


def _union(ivs):
    out = []
    for a, b in sorted(ivs):
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


def _subtract(ivs, cut):
    out = []
    for a, b in ivs:
        pieces = [(a, b)]
        for c, e in cut:
            pieces = [q for lo, hi in pieces
                      for q in ((lo, min(hi, c)), (max(lo, e), hi)) if q[1] > q[0]]
        out.extend(pieces)
    return out


def _intersect(p, q):
    out = []
    for a, b in p:
        for c, e in q:
            lo, hi = max(a, c), min(b, e)
            if hi > lo:
                out.append((lo, hi))
    return out


def _edge_crossing_ys(rings) -> list[float]:
    edges = []
    for ring in rings:
        m = len(ring)
        edges.extend((ring[i], ring[(i + 1) % m]) for i in range(m))
    ys = []
    for i in range(len(edges)):
        a, b = edges[i]
        for j in range(i + 1, len(edges)):
            c, e = edges[j]
            r = b - a
            s = e - c
            den = r[0] * s[1] - r[1] * s[0]
            if abs(den) < 1e-15:
                continue
            t = ((c[0] - a[0]) * s[1] - (c[1] - a[1]) * s[0]) / den
            u = ((c[0] - a[0]) * r[1] - (c[1] - a[1]) * r[0]) / den
            if 0.0 < t < 1.0 and 0.0 < u < 1.0:
                ys.append(a[1] + t * r[1])
    return ys


def patch_area(scene: Scene, d: np.ndarray, split: int = 1) -> float:
    """Sunlit workplane area (m^2) for the sun direction ``d`` (from the sun
    toward the ground). ``split`` subdivides every linear piece; the result
    does not depend on it beyond rounding."""
    d = np.asarray(d, dtype=float)
    if d[2] >= 0.0:
        return 0.0
    z = scene.plane_z
    ring = scene.ring
    n = len(ring)
    walls = [
        np.array([[*ring[i], scene.floor_z], [*ring[(i + 1) % n], scene.floor_z],
                  [*ring[(i + 1) % n], scene.floor_z + scene.height],
                  [*ring[i], scene.floor_z + scene.height]])
        for i in range(n)
    ]
    lit_by = []
    for w in scene.windows:
        if float(d @ w.outward) >= 0.0:
            continue
        img = _project(w.verts, d, z)
        if img is None:
            continue
        shadows = [_project(walls[i], d, z) for i in range(n) if i != w.wall]
        shadows += [_project(v, d, z) for v, _ in scene.obstructions]
        lit_by.append((img, [s for s in shadows if s is not None and abs(_signed_area(s)) > 0.0]))
    if not lit_by:
        return 0.0
    rings = [ring] + [img for img, _ in lit_by] + [s for _, sh in lit_by for s in sh]
    ys = {float(y) for r in rings for y in r[:, 1]}
    ys.update(_edge_crossing_ys(rings))
    lo, hi = float(ring[:, 1].min()), float(ring[:, 1].max())
    knots = np.array(sorted(y for y in ys if lo < y < hi) + [lo, hi])
    knots = np.unique(knots)
    if split > 1:
        knots = np.unique(np.concatenate(
            [np.linspace(a, b, split + 1) for a, b in zip(knots[:-1], knots[1:])]))
    area = 0.0
    for a, b in zip(knots[:-1], knots[1:]):
        for gx, gw in zip(_GL_X, _GL_W):
            y = 0.5 * (a + b) + 0.5 * (b - a) * gx
            lit = []
            for img, shadows in lit_by:
                cut = _union([iv for s in shadows for iv in _line_intervals(s, y)])
                lit.extend(_subtract(_line_intervals(img, y), cut))
            length = sum(hi_ - lo_ for lo_, hi_ in _intersect(_line_intervals(ring, y), _union(lit)))
            area += 0.5 * (b - a) * gw * length
    return area
