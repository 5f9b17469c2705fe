"""Planar-polygon kernel: 3-D polygons, directional projection, convex
clipping, point containment and workplane meshing.

Coordinates are metric with z up. Everything is a pure function of its
inputs (or a read-only method), so all operations are safe to call
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DegenerateMeshError, GeometryError

PLANARITY_TOL = 1e-6   # m: how far vertices may sit off their common plane
PARALLEL_TOL = 1e-9    # dot-product threshold for grazing directions
BOUNDARY_TOL = 1e-9    # m: points this close to an edge count as inside
CLIP_TOL = 1e-12       # clip-side test: vertices this far outside a clip edge are kept
EMPTY_AREA = 1e-12     # m^2: clipped pieces this small count as empty


class Polygon3:
    """Planar polygon with at least three vertices and a well-defined normal.

    ``coords`` is the validated, read-only (n, 3) vertex array, a copy of the
    input in its given order; the unit normal follows the right-hand rule
    around that order. Construction rejects non-finite coordinates, duplicate
    consecutive vertices, collinear rings, vertices off their common plane
    (by more than ``PLANARITY_TOL``) and self-intersections.
    """

    def __init__(self, vertices):
        try:
            pts = np.array(vertices, dtype=float)
        except (TypeError, ValueError):
            raise GeometryError("vertices must be [x, y, z] coordinates") from None
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise GeometryError(f"vertices must form an (n, 3) array, got shape {pts.shape}")
        if len(pts) < 3:
            raise GeometryError("a polygon needs at least three vertices")
        if not np.isfinite(pts).all():
            raise GeometryError("non-finite vertex coordinates")
        pts.flags.writeable = False
        self.coords = pts
        edges = np.roll(pts, -1, axis=0) - pts
        if np.any(np.linalg.norm(edges, axis=1) < 1e-12):
            raise GeometryError("duplicate consecutive vertices")
        centered = pts - pts.mean(axis=0)
        newell = np.cross(centered, np.roll(centered, -1, axis=0)).sum(axis=0)
        nrm = float(np.linalg.norm(newell))
        scale = max(1.0, float(np.abs(centered).max()))
        if nrm <= 1e-12 * scale * scale:
            raise GeometryError("degenerate polygon (collinear vertices)")
        self.normal = newell / nrm
        if float(np.abs((pts - pts[0]) @ self.normal).max()) > PLANARITY_TOL:
            raise GeometryError("polygon vertices are not coplanar")
        self.area = nrm / 2.0
        # orthonormal in-plane axes (u, v) with u along the first edge
        u = edges[0] / np.linalg.norm(edges[0])
        self.basis = (u, np.cross(self.normal, u))
        self._verts2d = self.to_plane_2d(pts)
        if _ring_self_intersects(self._verts2d):
            raise GeometryError("self-intersecting polygon")

    @cached_property
    def centroid(self) -> np.ndarray:
        return self.coords.mean(axis=0)

    def to_plane_2d(self, points: np.ndarray) -> np.ndarray:
        """Express 3-D points in this polygon's in-plane (u, v) frame."""
        u, v = self.basis
        rel = np.atleast_2d(points) - self.coords[0]
        return np.column_stack((rel @ u, rel @ v))

    def from_plane_2d(self, pts2: np.ndarray) -> np.ndarray:
        u, v = self.basis
        pts2 = np.atleast_2d(pts2)
        return self.coords[0] + pts2[:, :1] * u + pts2[:, 1:2] * v

    @cached_property
    def is_convex(self) -> bool:
        v2 = self._verts2d
        e = np.roll(v2, -1, axis=0) - v2
        cross = e[:, 0] * np.roll(e, -1, axis=0)[:, 1] - e[:, 1] * np.roll(e, -1, axis=0)[:, 0]
        tol = 1e-12 * max(1.0, float(np.abs(v2).max()) ** 2)
        return bool(np.all(cross >= -tol) or np.all(cross <= tol))

    def at_z(self, z: float) -> "Polygon3":
        """Copy of a horizontal polygon moved to the plane z = ``z``."""
        pts = self.coords.copy()
        pts[:, 2] = z
        return Polygon3(pts)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Polygon3({len(self.coords)} vertices, area={self.area:.4g} m^2)"


def _orient(a, b, c) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _ring_self_intersects(v2: np.ndarray) -> bool:
    n = len(v2)
    scale = max(1.0, float(np.abs(v2).max()))
    eps = 1e-12 * scale * scale
    for i in range(n):
        a1, a2 = v2[i], v2[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue  # adjacent edges share a vertex by design
            b1, b2 = v2[j], v2[(j + 1) % n]
            d1 = _orient(a1, a2, b1)
            d2 = _orient(a1, a2, b2)
            d3 = _orient(b1, b2, a1)
            d4 = _orient(b1, b2, a2)
            if ((d1 > eps and d2 < -eps) or (d1 < -eps and d2 > eps)) and (
                (d3 > eps and d4 < -eps) or (d3 < -eps and d4 > eps)
            ):
                return True
            if abs(d1) <= eps and abs(d2) <= eps and abs(d3) <= eps and abs(d4) <= eps:
                # collinear edges: overlap means the ring folds onto itself
                lo1, hi1 = sorted((a1 @ (a2 - a1), a2 @ (a2 - a1)))
                lo2, hi2 = sorted((b1 @ (a2 - a1), b2 @ (a2 - a1)))
                if min(hi1, hi2) - max(lo1, lo2) > eps:
                    return True
    return False


def project_polygon_along_direction(poly: Polygon3, direction, plane_z: float) -> Polygon3 | None:
    """Slide each vertex along ``direction`` until it reaches the horizontal
    plane z = ``plane_z``.

    Returns None when the direction is (near) parallel to the plane, when the
    projection would have to travel backwards (the plane lies "behind" the
    polygon along the direction), or when the image collapses to a sliver.
    """
    d = np.asarray(direction, dtype=float)
    nrm = float(np.linalg.norm(d))
    if nrm == 0.0:
        raise ValueError("projection direction must be non-zero")
    d = d / nrm
    if abs(d[2]) <= PARALLEL_TOL:
        return None
    pts = poly.coords
    t = (plane_z - pts[:, 2]) / d[2]
    if np.any(t < -1e-9):
        return None
    img = pts + t[:, None] * d
    img[:, 2] = plane_z
    try:
        return Polygon3(img)
    except GeometryError:
        return None


def clip_polygon(subject: Polygon3, clip: Polygon3) -> Polygon3 | None:
    """Intersection of two coplanar polygons (Sutherland-Hodgman).

    The clip polygon must be convex; the subject may be any simple polygon.
    Returns None for an empty intersection.
    """
    if abs(abs(float(subject.normal @ clip.normal)) - 1.0) > 1e-9:
        raise GeometryError("polygons are not coplanar (normals differ)")
    if abs(float((subject.coords[0] - clip.coords[0]) @ clip.normal)) > PLANARITY_TOL:
        raise GeometryError("polygons are not coplanar (planes offset)")
    if not clip.is_convex:
        raise GeometryError("clip polygon must be convex")

    subj2 = clip.to_plane_2d(subject.coords)
    clip2 = clip._verts2d
    if signed_ring_areas(clip2[None], clip2[0])[0] < 0.0:
        clip2 = clip2[::-1]

    out = [tuple(p) for p in subj2]
    m = len(clip2)
    for i in range(m):
        ax, ay = clip2[i]
        bx, by = clip2[(i + 1) % m]
        ex, ey = bx - ax, by - ay
        inp = out
        out = []
        if not inp:
            return None
        sx, sy = inp[-1]
        s_in = ex * (sy - ay) - ey * (sx - ax) >= -CLIP_TOL
        for px, py in inp:
            p_in = ex * (py - ay) - ey * (px - ax) >= -CLIP_TOL
            if p_in:
                if not s_in:
                    out.append(_edge_line_isect(sx, sy, px, py, ax, ay, ex, ey))
                out.append((px, py))
            elif s_in:
                out.append(_edge_line_isect(sx, sy, px, py, ax, ay, ex, ey))
            sx, sy, s_in = px, py, p_in

    pts = _dedupe_ring(out)
    if len(pts) < 3:
        return None
    lifted = clip.from_plane_2d(np.array(pts))
    try:
        result = Polygon3(lifted)
    except GeometryError:
        return None
    if result.area <= EMPTY_AREA:
        return None
    return result


def clip_rings(rings: np.ndarray, clip_ccw: np.ndarray) -> np.ndarray:
    """Clip a batch of convex 2-D rings, shape (R, W, 2), against one convex
    counter-clockwise ring with Sutherland-Hodgman, as :func:`clip_polygon`
    does for one polygon (same side test and edge intersection).

    Every pass keeps the rows at one common width: a row with fewer vertices
    repeats its last one, a zero-length edge that adds no area, and a row
    clipped away is all zeros.
    """
    m = len(clip_ccw)
    rows = np.arange(len(rings))[:, None]
    for i in range(m):
        ax, ay = clip_ccw[i]
        bx, by = clip_ccw[(i + 1) % m]
        ex, ey = bx - ax, by - ay
        px, py = rings[:, :, 0], rings[:, :, 1]
        side = ex * (py - ay) - ey * (px - ax)
        p_in = side >= -CLIP_TOL
        s_in = np.roll(p_in, 1, axis=1)
        crossing = p_in != s_in
        # intersection of each crossing edge s -> p with the clip line
        sx, sy = np.roll(px, 1, axis=1), np.roll(py, 1, axis=1)
        dx, dy = px - sx, py - sy
        denom = ex * dy - ey * dx
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.clip(-np.roll(side, 1, axis=1) / denom, 0.0, 1.0)
        t = np.where(denom == 0.0, 0.5, t)
        # per input vertex: the intersection (if any), then the vertex (if inside)
        n_out = crossing.astype(np.intp) + p_in
        first = np.cumsum(n_out, axis=1) - n_out
        count = first[:, -1] + n_out[:, -1]
        width = max(int(count.max(initial=0)), 1)
        out = np.zeros((len(rings), width, 2))
        r = np.broadcast_to(rows, crossing.shape)
        out[r[crossing], first[crossing]] = np.stack(
            (sx + t * dx, sy + t * dy), axis=-1)[crossing]
        out[r[p_in], first[p_in] + crossing[p_in]] = rings[p_in]
        pad = np.minimum(np.arange(width), np.maximum(count - 1, 0)[:, None])
        rings = out[rows, pad]
    return rings


def signed_ring_areas(rings: np.ndarray, origin) -> np.ndarray:
    """Shoelace areas (positive counter-clockwise) of a batch of 2-D rings,
    shape (R, W, 2), taken about ``origin``, one point or one per ring: a
    point near the rings keeps the cross products small, so a sliver's area
    is not buried in cancellation noise."""
    rel = rings - np.asarray(origin, dtype=float)[..., None, :]
    x, y = rel[:, :, 0], rel[:, :, 1]
    return 0.5 * np.sum(x * np.roll(y, -1, axis=1) - np.roll(x, -1, axis=1) * y, axis=1)


def _edge_line_isect(sx, sy, px, py, ax, ay, ex, ey):
    dx, dy = px - sx, py - sy
    denom = ex * dy - ey * dx
    if denom == 0.0:
        t = 0.5
    else:
        t = -(ex * (sy - ay) - ey * (sx - ax)) / denom
        t = min(max(t, 0.0), 1.0)
    return (sx + t * dx, sy + t * dy)


def _dedupe_ring(pts: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    out: list[tuple[float, float]] = []
    for p in pts:
        if out and abs(p[0] - out[-1][0]) < 1e-12 and abs(p[1] - out[-1][1]) < 1e-12:
            continue
        out.append(p)
    while len(out) > 1 and abs(out[0][0] - out[-1][0]) < 1e-12 and abs(out[0][1] - out[-1][1]) < 1e-12:
        out.pop()
    return out


def point_in_polygon(point, poly: Polygon3) -> bool:
    """Closed-region containment test for one point on the polygon's plane
    (see :func:`points_in_polygon_mask`)."""
    p = np.asarray(point, dtype=float)
    if abs(float((p - poly.coords[0]) @ poly.normal)) > PLANARITY_TOL:
        raise GeometryError("point does not lie on the polygon's plane")
    q = poly.to_plane_2d(p)
    return bool(points_in_polygon_mask(q[:, 0], q[:, 1], poly._verts2d)[0])


def points_in_polygon_mask(px: np.ndarray, py: np.ndarray, v2: np.ndarray,
                           boundary_tol: float = BOUNDARY_TOL) -> np.ndarray:
    """Even-odd containment of 2-D points in the ring ``v2``: horizontal
    edges are skipped, and points within ``boundary_tol`` of an edge count
    as inside."""
    inside = np.zeros(px.shape, dtype=bool)
    n = len(v2)
    for i in range(n):
        ax, ay = v2[i]
        bx, by = v2[(i + 1) % n]
        cond = (ay > py) != (by > py)
        if by != ay:
            x_int = ax + (py - ay) * (bx - ax) / (by - ay)
            inside ^= cond & (px < x_int)
    if boundary_tol > 0.0:
        on_edge = np.zeros(px.shape, dtype=bool)
        tol2 = boundary_tol**2
        for i in range(n):
            a = v2[i]
            b = v2[(i + 1) % n]
            ab = b - a
            denom = float(ab @ ab)
            if denom == 0.0:
                continue
            t = np.clip(((px - a[0]) * ab[0] + (py - a[1]) * ab[1]) / denom, 0.0, 1.0)
            dx = px - (a[0] + t * ab[0])
            dy = py - (a[1] + t * ab[1])
            on_edge |= dx * dx + dy * dy <= tol2
        inside |= on_edge
    return inside


@dataclass(eq=False)
class GridMesh:
    """Axis-aligned mesh of cell centers on a horizontal workplane.

    ``points`` holds only centers that fall inside the floor (its full
    bounding-box grid is nu x nv cells); ``cells`` gives each kept center's
    (iu, iv) index into that full grid.
    """

    du: float
    dv: float
    nu: int
    nv: int
    height: float
    plane_z: float
    points: np.ndarray
    cells: np.ndarray

    def __post_init__(self):
        if self.nu < 1 or self.nv < 1 or len(self.points) < 1:
            raise DegenerateMeshError("mesh has no cells")

    @property
    def n_points(self) -> int:
        return len(self.points)

    def full_matrix(self, values: np.ndarray, fill: float = 0.0) -> np.ndarray:
        """Scatter per-point values into the (nv, nu) bounding-box matrix."""
        out = np.full((self.nv, self.nu), fill, dtype=float)
        out[self.cells[:, 1], self.cells[:, 0]] = values
        return out


def make_workplane_grid(floor: Polygon3, cell: float, height: float) -> GridMesh:
    """Mesh a horizontal convex floor with square cells of side ``cell``;
    the resulting plane sits ``height`` meters above the floor."""
    if not floor.is_convex:
        raise GeometryError("floor polygon must be convex (decompose it first)")
    return workplane_grid_for_parts((floor,), cell, height)


def workplane_grid_for_parts(parts: Sequence[Polygon3], cell: float, height: float) -> GridMesh:
    """Like :func:`make_workplane_grid` for a floor already split into
    convex parts (cell centers are kept when inside any part)."""
    if cell <= 0.0:
        raise ValueError("cell size must be positive")
    if not parts:
        raise GeometryError("no floor parts given")
    zs = []
    for part in parts:
        if abs(abs(float(part.normal[2])) - 1.0) > PLANARITY_TOL:
            raise GeometryError("floor parts must be horizontal")
        zs.append(float(part.coords[:, 2].mean()))
    floor_z = zs[0]
    if max(abs(z - floor_z) for z in zs) > PLANARITY_TOL:
        raise GeometryError("floor parts do not share a plane")

    allc = np.vstack([p.coords for p in parts])
    xmin, ymin = allc[:, 0].min(), allc[:, 1].min()
    xmax, ymax = allc[:, 0].max(), allc[:, 1].max()
    # 1e-6 slack so spans that are exact multiples of the cell size survive
    # floating-point division (3.9 / 0.1 must give 39 cells, not 38)
    nu = int((xmax - xmin) / cell + 1e-6)
    nv = int((ymax - ymin) / cell + 1e-6)
    if nu < 1 or nv < 1:
        raise DegenerateMeshError(
            f"cell {cell} m does not fit in a {xmax - xmin:.3g} x {ymax - ymin:.3g} m floor"
        )
    xs = xmin + (np.arange(nu) + 0.5) * cell
    ys = ymin + (np.arange(nv) + 0.5) * cell
    iu, iv = np.meshgrid(np.arange(nu), np.arange(nv), indexing="ij")
    px = xs[iu.ravel()]
    py = ys[iv.ravel()]

    keep = np.zeros(px.shape, dtype=bool)
    for part in parts:
        v2 = part.coords[:, :2]
        keep |= points_in_polygon_mask(px, py, v2)
    if not keep.any():
        raise DegenerateMeshError("no cell center falls inside the floor")

    plane_z = floor_z + height
    pts = np.column_stack((px[keep], py[keep], np.full(int(keep.sum()), plane_z)))
    cells = np.column_stack((iu.ravel()[keep], iv.ravel()[keep])).astype(int)
    return GridMesh(
        du=cell,
        dv=cell,
        nu=nu,
        nv=nv,
        height=height,
        plane_z=plane_z,
        points=pts,
        cells=cells,
    )


def decompose_convex(poly: Polygon3) -> list[Polygon3]:
    """Split a simple polygon into convex pieces (ear clipping).

    Convex input comes back unchanged as a single piece; non-convex rings
    (L-shaped floors) become triangles.
    """
    if poly.is_convex:
        return [poly]
    v2 = poly._verts2d
    order = list(range(len(v2)))
    if signed_ring_areas(v2[None], v2[0])[0] < 0.0:
        order.reverse()
    tris: list[list[int]] = []
    idx = order[:]
    guard = 0
    while len(idx) > 3:
        guard += 1
        if guard > 10000:
            raise GeometryError("cannot decompose polygon into convex parts")
        found = False
        n = len(idx)
        for k in range(n):
            i0, i1, i2 = idx[k - 1], idx[k], idx[(k + 1) % n]
            a, b, c = v2[i0], v2[i1], v2[i2]
            if _orient(a, b, c) <= 1e-12:
                continue  # reflex or collinear corner: not an ear
            ear_ok = True
            for j in idx:
                if j in (i0, i1, i2):
                    continue
                q = v2[j]
                if (
                    _orient(a, b, q) >= -1e-12
                    and _orient(b, c, q) >= -1e-12
                    and _orient(c, a, q) >= -1e-12
                ):
                    ear_ok = False
                    break
            if ear_ok:
                tris.append([i0, i1, i2])
                idx.pop(k)
                found = True
                break
        if not found:
            raise GeometryError("cannot decompose polygon into convex parts")
    tris.append(idx)
    pieces = []
    for tri in tris:
        pts3 = poly.from_plane_2d(v2[tri])
        pieces.append(Polygon3(pts3))
    return pieces
