"""Planar-polygon kernel: 3-D polygons, directional projection, convex
clipping, point containment and workplane meshing.

Convex rings are cut in batches of one common width, a short row repeating
its last vertex (:func:`stack_rings`). There is one cut: :func:`split_rings`
divides each ring along the zero line of an affine function given at its
vertices, and :func:`trim_rings` keeps only its side where that function
is not negative; :func:`clip_rings` makes it along each edge of a convex clip
ring, shared or one per row, and returns the inner side and, if asked, the
slabs cut off; :func:`clip_polygon` is :func:`clip_rings` on a batch of
one. All three go through :func:`_cut_rings`, which runs the Sutherland-Hodgman
pass only on the rows a line divides and copies or zeros the rest, with
the bits of the full pass over every row. There is one containment test on
the same batches:
:func:`points_in_convex_rings` counts a point inside a convex ring when it
lies on the inner side of every edge line or within BOUNDARY_TOL metres of
it. This module alone decides what an empty ring does: a row that a cut
leaves nothing of is all zeros and stays so through a clip's later edges,
a ring of zero area holds no point, and an edge of no length cuts nothing
off; so callers pass rings and clips padded or clipped away as they come.
:class:`Polygon3` is the one validated input type; what is derived from
it is a ring batch. :func:`decompose_convex` gives a polygon's convex parts
as a batch of its own vertices, its ear triangles merged by Hertel and
Mehlhorn's rule (two for an L), so a non-convex outline (an L-shaped floor,
an obstruction) is cut and tested through its parts; ``Room`` and
``Obstruction`` work these out once, at construction, and every consumer
reads them as they are.

Coordinates are metric with z up. Everything is a pure function of its
inputs (or a read-only method), so all operations are safe to call
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateMeshError, GeometryError

PLANARITY_TOL = 1e-6   # m: how far vertices may sit off their common plane
PARALLEL_TOL = 1e-9    # dot-product threshold for grazing directions
BOUNDARY_TOL = 1e-9    # m: points this close to an edge count as inside
EMPTY_AREA = 1e-12     # m^2: clipped pieces this small count as empty


class Polygon3:
    """Planar polygon with at least three vertices and a well-defined normal.

    ``coords`` is the validated, read-only (n, 3) vertex array, a copy of the
    input in its given order; the unit normal follows the right-hand rule
    around that order. Construction rejects non-finite coordinates, duplicate
    consecutive vertices, collinear rings, vertices off their common plane
    (by more than ``PLANARITY_TOL``) and self-intersections, folds included:
    a ring whose edges overlap, as two consecutive edges do when the second
    runs back along the first.
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
        newell = ring_sums(np.cross(centered, np.roll(centered, -1, axis=0)).T)
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

    @cached_property
    def is_convex(self) -> bool:
        v2 = self._verts2d
        e = np.roll(v2, -1, axis=0) - v2
        cross = e[:, 0] * np.roll(e, -1, axis=0)[:, 1] - e[:, 1] * np.roll(e, -1, axis=0)[:, 0]
        tol = 1e-12 * max(1.0, float(np.abs(v2).max()) ** 2)
        return bool(np.all(cross >= -tol) or np.all(cross <= tol))

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
                # collinear edges: overlap means the ring folds onto itself, as
                # two consecutive edges do when the second runs back along the first
                lo1, hi1 = sorted((a1 @ (a2 - a1), a2 @ (a2 - a1)))
                lo2, hi2 = sorted((b1 @ (a2 - a1), b2 @ (a2 - a1)))
                if min(hi1, hi2) - max(lo1, lo2) > eps:
                    return True
    return False


def project_polygon_along_direction(rings: np.ndarray, directions: np.ndarray,
                                    plane_z: float) -> np.ndarray:
    """Slide every vertex of a batch of 3-D rings, shape (R, W, 3), along its
    ring's direction (R, 3) until it reaches the plane z = ``plane_z``: the
    plan images (R, W, 2). A vertex below the plane slides backwards, so a
    caller that wants the light's image cuts its rings at the plane first."""
    t = (plane_z - rings[:, :, 2]) / directions[:, 2][:, None]
    return rings[:, :, :2] + t[:, :, None] * directions[:, None, :2]


def clip_polygon(subject: Polygon3, clip: Polygon3) -> Polygon3 | None:
    """Intersection of two coplanar convex polygons: :func:`clip_rings` on
    a batch of one in the clip polygon's plane. Returns None for an empty
    intersection, one of at most EMPTY_AREA or one too thin for
    :class:`Polygon3`.
    """
    if abs(abs(float(subject.normal @ clip.normal)) - 1.0) > 1e-9:
        raise GeometryError("polygons are not coplanar (normals differ)")
    if abs(float((subject.coords[0] - clip.coords[0]) @ clip.normal)) > PLANARITY_TOL:
        raise GeometryError("polygons are not coplanar (planes offset)")
    if not clip.is_convex:
        raise GeometryError("clip polygon must be convex")
    if not subject.is_convex:
        raise GeometryError("subject polygon must be convex (decompose it first)")

    clip2 = clip._verts2d
    if signed_ring_areas(clip2[None], clip2[0])[0] < 0.0:
        clip2 = clip2[::-1]
    ring = clip_rings(clip.to_plane_2d(subject.coords)[None], clip2)[0]
    if abs(signed_ring_areas(ring[None], clip2[0])[0]) <= EMPTY_AREA:
        return None
    # drop the padding and cut points that coincide with their predecessor
    ring = ring[np.linalg.norm(ring - np.roll(ring, 1, axis=0), axis=1) >= 1e-12]
    u, v = clip.basis
    try:
        return Polygon3(clip.coords[0] + ring[:, :1] * u + ring[:, 1:2] * v)
    except GeometryError:
        return None


def clip_rings(rings: np.ndarray, clips: np.ndarray, outside: bool = False):
    """Clip a batch of convex 2-D rings (R, W, 2) against convex
    counter-clockwise rings, one shared (M, 2) or one per row (R, M, 2), by
    :func:`split_rings`' cut along each clip edge. Returns the inner side,
    padded as :func:`stack_rings` pads, and with ``outside`` also the M
    slabs cut off, one batch per edge. A row that an edge clips away is all
    zeros and takes no part in the later edges' passes, so its slabs there
    are zeros too; a batch of such rows comes back as width-1 zeros. An
    edge of no length, as in a clip padded as :func:`stack_rings` pads,
    keeps every row whole and cuts off an empty slab.
    """
    edges = np.roll(clips, -1, axis=-2) - clips
    cuts = np.any(edges != 0.0, axis=-1)  # an edge of no length cuts nothing off
    alive = np.ones((len(rings), 1), dtype=bool)
    slabs = []
    for i in range(clips.shape[-2]):
        a, e = clips[..., i, None, :], edges[..., i, None, :]
        side = e[..., 0] * (rings[:, :, 1] - a[..., 1]) - e[..., 1] * (rings[:, :, 0] - a[..., 0])
        keep = (side >= 0.0) & alive
        if outside:
            rings, slab = _cut_rings(rings, side, keep, (side <= 0.0) & alive & cuts[..., i, None])
            slabs.append(slab)
        else:
            rings = _cut_rings(rings, side, keep)[0]
        alive = keep.any(axis=1, keepdims=True)
    return (rings, slabs) if outside else rings


def _cut_rings(rings: np.ndarray, side: np.ndarray, *keeps: np.ndarray) -> list[np.ndarray]:
    """Per mask in ``keeps``, the part of each ring that :func:`_emit_rings`
    keeps when the batch is cut along the zero line of ``side``, with its
    values and width. Only the rows that some mask keeps in part go through
    :func:`_cuts` and :func:`_emit_rings`: a row that a mask keeps whole has
    no crossing edge, so it comes back as it is, padded as
    :func:`stack_rings` pads, and a row that it keeps nothing of comes back
    as zeros (the trivial accept and reject of Cohen-Sutherland clipping),
    only as wide as the other rows need, width 1 if none."""
    width = rings.shape[1]
    counts = [np.count_nonzero(keep, axis=1) for keep in keeps]
    cut = np.any([(c > 0) & (c < width) for c in counts], axis=0)
    sub = rings[cut]
    if len(sub):
        cuts, crossing = _cuts(sub, side[cut])
    parts = []
    for keep, count in zip(keeps, counts):
        part = _emit_rings(sub, cuts, crossing, keep[cut]) if len(sub) else sub[:, :1]
        whole = count == width
        out = np.zeros((len(rings), max(part.shape[1], width if whole.any() else 1),
                        rings.shape[2]))
        for rows, kept in ((whole, rings[whole]), (cut, part)):
            if len(kept):  # padded as stack_rings pads
                out[rows, :kept.shape[1]], out[rows, kept.shape[1]:] = kept, kept[:, -1:]
        parts.append(out)
    return parts


def _cuts(rings: np.ndarray, side: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each edge of a batch of rings crosses the zero of the affine
    function whose value at every vertex is ``side``: per vertex, the
    crossing point of the edge that ends there, and whether that edge
    crosses (its ends strictly on opposite sides)."""
    prev = np.roll(side, 1, axis=1)
    crossing = ((prev > 0.0) & (side < 0.0)) | ((prev < 0.0) & (side > 0.0))
    start = np.roll(rings, 1, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(crossing, prev / (prev - side), 0.0)
    return start + t[..., None] * (rings - start), crossing


def _emit_rings(rings: np.ndarray, cuts: np.ndarray, crossing: np.ndarray,
                keep: np.ndarray) -> np.ndarray:
    """One Sutherland-Hodgman output pass over a batch of rings: per input
    vertex, the cut point of the edge that ends there (where ``crossing``),
    then the vertex itself (where ``keep``). Rows are padded to one width
    by repeating their last vertex; a row with nothing kept is all zeros.
    :func:`_cut_rings` gives it only the rows a line divides."""
    n_out = crossing.astype(np.intp) + keep
    first = np.cumsum(n_out, axis=1) - n_out
    count = first[:, -1] + n_out[:, -1]
    width = max(int(count.max(initial=0)), 1)
    out = np.zeros((len(rings), width, rings.shape[2]))
    rows = np.arange(len(rings))[:, None]
    r = np.broadcast_to(rows, crossing.shape)
    out[r[crossing], first[crossing]] = cuts[crossing]
    out[r[keep], first[keep] + crossing[keep]] = rings[keep]
    pad = np.minimum(np.arange(width), np.maximum(count - 1, 0)[:, None])
    return out[rows, pad]


def stack_rings(*batches: np.ndarray) -> np.ndarray:
    """Concatenate batches of rings, shape (R_i, W_i, D), padding each row
    to the widest W_i by repeating its last vertex, the padding every ring
    batch here uses: a zero-length edge adds no area and crosses no line."""
    width = max(r.shape[1] for r in batches)
    return np.concatenate([np.concatenate((r, np.repeat(r[:, -1:], width - r.shape[1], axis=1)),
                                          axis=1) for r in batches])


def split_rings(rings: np.ndarray, side: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cut a batch of convex rings, shape (R, W, D), each by its own line (or
    plane), given as the value ``side`` (R, W) of an affine function at every
    vertex. This is the package's one convex cut. Returns the parts where
    side >= 0 and where side <= 0, padded as :func:`stack_rings` pads; a
    vertex with side == 0 goes to both, so a ring with an edge on the line
    comes back whole on its side and as that edge alone, of zero area, on
    the other."""
    return tuple(_cut_rings(rings, side, side >= 0.0, side <= 0.0))


def trim_rings(rings: np.ndarray, side: np.ndarray) -> np.ndarray:
    """The side where side >= 0 of :func:`split_rings`' cut, the same bits
    and width, for a caller that throws the other side away: only the rows
    that this side keeps in part go through the cut."""
    return _cut_rings(rings, side, side >= 0.0)[0]


def ring_sums(terms: np.ndarray) -> np.ndarray:
    """Per row of ``terms`` (R, W), one term per vertex or edge of a ring,
    their sum from the first to the last, the one way a ring's terms are
    summed here. A ring padded as :func:`stack_rings` pads adds exact zeros
    before its closing edge, so its sum does not depend on its batch's
    width; ``np.sum`` pairs the terms of a row 8 or more wide."""
    total = np.zeros(len(terms))
    for column in terms.T:
        total += column
    return total


def signed_ring_areas(rings: np.ndarray, origin) -> np.ndarray:
    """Shoelace areas (positive counter-clockwise) of a batch of 2-D rings,
    shape (R, W, 2), taken about ``origin``, one point or one per ring: a
    point near the rings keeps the cross products small, so a sliver's area
    is not buried in cancellation noise. Summed by :func:`ring_sums`, an
    area, and every sign and emptiness test on it, hangs on its ring alone."""
    rel = rings - np.asarray(origin, dtype=float)[..., None, :]
    x, y = rel[:, :, 0], rel[:, :, 1]
    return 0.5 * ring_sums(x * np.roll(y, -1, axis=1) - np.roll(x, -1, axis=1) * y)


def points_in_convex_rings(points: np.ndarray, rings: np.ndarray) -> np.ndarray:
    """Which of the 2-D ``points`` (N, 2) lie in each convex ring of a batch
    (R, W, 2) of either orientation, padded as :func:`stack_rings` pads:
    a point is inside when its signed distance to every edge line is at
    least -BOUNDARY_TOL metres. A ring of zero area (all zeros, a point or
    a segment) holds no point, not even one on it; an edge of no length
    constrains nothing. Returns (R, N); one pass per edge keeps the working
    memory at one (R, N) mask."""
    area = signed_ring_areas(rings, rings[:, 0])
    sign = np.where(area < 0.0, -1.0, 1.0)[:, None]
    inside = np.repeat(area[:, None] != 0.0, len(points), axis=1)  # an empty ring holds nothing
    for a, b in zip(rings.transpose(1, 0, 2), np.roll(rings, -1, axis=1).transpose(1, 0, 2)):
        ex, ey = (b - a).T[:, :, None]
        cross = ex * (points[:, 1] - a[:, 1, None]) - ey * (points[:, 0] - a[:, 0, None])
        inside &= sign * cross >= -BOUNDARY_TOL * np.hypot(ex, ey)
    return inside


@dataclass(eq=False)
class GridMesh:
    """Axis-aligned mesh of cell centers on a horizontal workplane.

    ``points`` holds only centers that fall inside the floor (its full
    bounding-box grid is nu x nv cells); ``cells`` gives each kept center's
    (iu, iv) index into that full grid.
    """

    nu: int
    nv: int
    plane_z: float
    points: np.ndarray
    cells: np.ndarray

    @property
    def n_points(self) -> int:
        return len(self.points)

    def full_matrix(self, values: np.ndarray) -> np.ndarray:
        """Scatter per-point values into the (nv, nu) bounding-box matrix,
        zero at the cells outside the floor."""
        out = np.zeros((self.nv, self.nu))
        out[self.cells[:, 1], self.cells[:, 0]] = values
        return out


def workplane_grid_for_parts(parts: np.ndarray, floor_z: float, cell: float,
                             height: float) -> GridMesh:
    """Mesh a horizontal floor at z = ``floor_z``, given as the plan rings
    (P, W, 2) of its convex parts such as ``Room.parts``, with square cells
    of side ``cell``; a cell center is kept when inside any part, and the
    plane sits ``height`` meters above the floor."""
    xmin, ymin = parts[:, :, 0].min(), parts[:, :, 1].min()
    xmax, ymax = parts[:, :, 0].max(), parts[:, :, 1].max()
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
    xy = np.column_stack((xs[iu.ravel()], ys[iv.ravel()]))

    keep = points_in_convex_rings(xy, parts).any(axis=0)
    if not keep.any():
        raise DegenerateMeshError("no cell center falls inside the floor")

    plane_z = floor_z + height
    pts = np.column_stack((xy[keep], np.full(int(keep.sum()), plane_z)))
    cells = np.column_stack((iu.ravel()[keep], iv.ravel()[keep])).astype(int)
    return GridMesh(nu=nu, nv=nv, plane_z=plane_z, points=pts, cells=cells)


def decompose_convex(poly: Polygon3) -> np.ndarray:
    """The convex parts of a simple polygon as a (P, W, 3) batch of its own
    vertices, padded as :func:`stack_rings` pads, each part in the
    polygon's order (counter-clockwise about its normal). A convex polygon
    is one part. Any other is ear-clipped into triangles, and the
    Hertel-Mehlhorn merge then drops, in the order the ears were cut, every
    diagonal whose removal leaves both its ends convex: at most 2r + 1
    parts for r reflex vertices, and two for an L-shaped floor.
    """
    if poly.is_convex:
        return poly.coords[None]
    v2 = poly._verts2d  # counter-clockwise: the normal follows the vertex order
    idx = list(range(len(v2)))
    parts: list[list[int]] = []
    while len(idx) > 3:
        corners = ([idx[k - 1], idx[k], idx[(k + 1) % len(idx)]] for k in range(len(idx)))
        # an ear: a convex corner whose triangle holds no other vertex
        ears = [ear for ear in corners if _orient(*v2[ear]) > 1e-12 and not points_in_convex_rings(
            v2[[j for j in idx if j not in ear]], v2[ear][None]).any()]
        if not ears:
            raise GeometryError("cannot decompose polygon into convex parts")
        # the ear with the shortest diagonal, the first one in a tie: an L's
        # longest, across its bounding box, would leave it three parts
        ear = min(ears, key=lambda e: float(np.sum((v2[e[2]] - v2[e[0]]) ** 2)))
        parts.append(ear)
        idx.remove(ear[1])
    parts.append(idx)
    for a, _, b in parts[:-1]:  # each ear's diagonal b -> a; the rest of the polygon runs a -> b
        p = next(i for i, part in enumerate(parts) if _has_edge(part, b, a))
        q = next(i for i, part in enumerate(parts) if _has_edge(part, a, b))
        first, second = _starting_at(parts[p], a), _starting_at(parts[q], b)  # a..b, b..a
        if (_orient(*v2[[second[-2], a, first[1]]]) > 1e-12
                and _orient(*v2[[first[-2], b, second[1]]]) > 1e-12):
            parts[p] = first + second[1:-1]
            del parts[q]
    return stack_rings(*(poly.coords[part][None] for part in parts))


def _has_edge(part: list[int], a: int, b: int) -> bool:
    """Whether ``b`` follows ``a`` around the ring of vertex indices ``part``."""
    return a in part and part[(part.index(a) + 1) % len(part)] == b


def _starting_at(part: list[int], a: int) -> list[int]:
    """The ring of vertex indices ``part`` turned to start at ``a``."""
    k = part.index(a)
    return part[k:] + part[:k]
