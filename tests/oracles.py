"""Independent reference computations used to freeze or cross-check
expected values. Nothing here imports the package's geometry or daylight
internals: each oracle carries its own math.
"""

import math

import numpy as np


def rect_frame(origin, e1, e2):
    origin = np.asarray(origin, dtype=float)
    e1 = np.asarray(e1, dtype=float)
    e2 = np.asarray(e2, dtype=float)
    n = np.cross(e1, e2)
    n = n / np.linalg.norm(n)
    return origin, e1, e2, n


def _ray_hits_rect(p, dirs, frame):
    origin, e1, e2, n = frame
    denom = dirs @ n
    with np.errstate(divide="ignore", invalid="ignore"):
        t = ((origin - p) @ n) / denom
    hit = np.isfinite(t) & (t > 1e-9)
    x = p + t[:, None] * dirs
    l1 = float(e1 @ e1)
    l2 = float(e2 @ e2)
    s1 = (x - origin) @ e1 / l1
    s2 = (x - origin) @ e2 / l2
    hit &= (s1 >= 0.0) & (s1 <= 1.0) & (s2 >= 0.0) & (s2 <= 1.0)
    return hit, np.where(hit, t, np.inf)


def mc_sky_fractions(point, window_rect, obstruction_rects=(), n=1_200_000, seed=0):
    """Monte-Carlo estimate of the sky and externally-reflected fractions.

    Uniform solid-angle sampling of the sky hemisphere under the overcast
    luminance (1 + 2 sin g)/3; the same samples estimate the full-dome
    denominator, so the ratio converges fast. ``window_rect`` is
    (corner, edge1, edge2); obstructions add a luminance fraction each.
    """
    p = np.asarray(point, dtype=float)
    rng = np.random.default_rng(seed)
    sin_g = rng.uniform(0.0, 1.0, n)  # sin(elevation) is uniform over solid angle
    phi = rng.uniform(0.0, 2.0 * math.pi, n)
    cos_g = np.sqrt(1.0 - sin_g**2)
    dirs = np.column_stack((np.sin(phi) * cos_g, np.cos(phi) * cos_g, sin_g))
    weight = (1.0 + 2.0 * sin_g) / 3.0 * sin_g

    through, t_win = _ray_hits_rect(p, dirs, rect_frame(*window_rect))
    fraction = np.zeros(n)
    t_best = np.full(n, np.inf)
    for corner, e1, e2, frac in obstruction_rects:
        hit, t_o = _ray_hits_rect(p, dirs, rect_frame(corner, e1, e2))
        cand = hit & through & (t_o > t_win) & (t_o < t_best)
        fraction[cand] = frac
        t_best[cand] = t_o[cand]
    blocked = np.isfinite(t_best) & (t_best < np.inf)

    total = weight.sum()
    sc = float(weight[through & ~blocked].sum() / total)
    erc = float((weight * fraction)[through & blocked].sum() / total)
    return sc, erc


def _orient2(a, b, q):
    q = np.asarray(q, dtype=float)
    return (b[0] - a[0]) * (q[..., 1] - a[1]) - (b[1] - a[1]) * (q[..., 0] - a[0])


def walls_other_than(floor_ring, window_rect):
    """The plan wall segments of a floor ring, shape (K, 2, 2), leaving out
    the walls on the window's line."""
    ring = np.asarray(floor_ring, dtype=float)
    corner = np.asarray(window_rect[0], dtype=float)[:2]
    edge = np.asarray(window_rect[1], dtype=float)[:2]
    tip = corner + edge
    walls = []
    for i in range(len(ring)):
        a, b = ring[i], ring[(i + 1) % len(ring)]
        if abs(_orient2(corner, tip, a)) > 1e-9 or abs(_orient2(corner, tip, b)) > 1e-9:
            walls.append((a, b))
    return np.array(walls).reshape(-1, 2, 2)


def sight_classes(point, targets, walls, obstruction_rects=()):
    """What the ray from ``point`` through each window point in ``targets``
    meets beyond it: -2 nothing (the target is not above the point's horizon,
    or the plan segment to it properly crosses one of ``walls``), -1 sky,
    j the nearest obstruction rectangle j (corner, edge1, edge2, fraction)."""
    p = np.asarray(point, dtype=float)
    x = np.asarray(targets, dtype=float)
    vec = x - p
    r = np.linalg.norm(vec, axis=1)
    dirs = vec / r[:, None]
    cls = np.full(len(x), -1)
    t_best = np.full(len(x), np.inf)
    for j, (corner, e1, e2, _) in enumerate(obstruction_rects):
        with np.errstate(invalid="ignore"):  # rays parallel to the rectangle miss it
            hit, t = _ray_hits_rect(p, dirs, rect_frame(corner, e1, e2))
        nearer = hit & (t > r) & (t < t_best)
        cls[nearer] = j
        t_best[nearer] = t[nearer]
    hidden = dirs[:, 2] <= 0.0
    d = x[:, :2] - p[:2]
    for a, b in walls:
        crosses = _orient2(a, b, p[:2]) * _orient2(a, b, x[:, :2]) < 0.0
        straddles = ((d[:, 0] * (a[1] - p[1]) - d[:, 1] * (a[0] - p[0]))
                     * (d[:, 0] * (b[1] - p[1]) - d[:, 1] * (b[0] - p[0]))) < 0.0
        hidden |= crosses & straddles
    cls[hidden] = -2
    return cls


def ray_cast_sky(point, window_rect, walls, obstruction_rects=(), cells=64):
    """Sky and externally reflected components, as fractions of the
    overcast dome, of a vertical rectangular window (corner, horizontal
    edge1, vertical edge2): a composite two-point Gauss rule on cells x
    cells cells over the part of the window above the point's horizon, one
    ray per node, integrating (1 + 2 sin g)/3 sin g cos(theta_w)/r^2 dA."""
    p = np.asarray(point, dtype=float)
    corner, e1, e2, n = rect_frame(*window_rect)
    if e1[2] != 0.0 or e2[0] != 0.0 or e2[1] != 0.0 or e2[2] <= 0.0:
        raise ValueError("window edges must be horizontal, then vertical upwards")
    bottom = min(max((p[2] - corner[2]) / e2[2], 0.0), 1.0)
    g = 0.5 / math.sqrt(3.0)
    s = ((np.arange(cells)[:, None] + np.array([0.5 - g, 0.5 + g])[None]) / cells).ravel()
    su, sv = np.meshgrid(s, bottom + (1.0 - bottom) * s, indexing="ij")
    x = corner + su.ravel()[:, None] * e1 + sv.ravel()[:, None] * e2
    node_area = (1.0 - bottom) * float(np.linalg.norm(np.cross(e1, e2))) / (2 * cells) ** 2
    vec = x - p
    r = np.linalg.norm(vec, axis=1)
    sin_g = vec[:, 2] / r
    cos_w = np.abs(vec @ n) / r
    f = (1.0 + 2.0 * sin_g) / 3.0 * sin_g * cos_w / r**2 * node_area / (7.0 * math.pi / 9.0)
    cls = sight_classes(p, x, walls, obstruction_rects)
    sc = float(f[cls == -1].sum())
    erc = sum(float(f[cls == j].sum()) * rect[3] for j, rect in enumerate(obstruction_rects))
    return sc, erc


def split_flux_irc_reference(floor_ring, height, rho, window_rect, floor_z=0.0,
                             obstruction_rects=()):
    """Split-flux internally reflected component of one window:
    0.85 W / (A (1 - R)) (C R_fw + 5 R_cw) / 100, with C = 39 reduced
    linearly to 0 as the mean obstruction elevation seen from the window
    centre reaches 80 degrees."""
    ring = np.asarray(floor_ring, dtype=float)
    floor = shoelace_area(ring)
    perimeter = float(np.linalg.norm(np.roll(ring, -1, axis=0) - ring, axis=1).sum())
    rho_floor, rho_walls, rho_ceiling = rho
    walls = perimeter * height
    total = 2.0 * floor + walls
    corner, e1, e2, _ = rect_frame(*window_rect)
    centre = corner + 0.5 * (e1 + e2)
    below = perimeter * min(max(float(centre[2]) - floor_z, 0.0), height)
    above = walls - below
    r_mean = (rho_floor * floor + rho_ceiling * floor + rho_walls * walls) / total
    r_low = (rho_floor * floor + rho_walls * below) / (floor + below)
    r_up = (rho_ceiling * floor + rho_walls * above) / (floor + above)
    c = 39.0
    if obstruction_rects:
        angles = []
        for o_corner, o1, o2, _ in obstruction_rects:
            o_corner, o1, o2 = (np.asarray(v, dtype=float) for v in (o_corner, o1, o2))
            o_centre = o_corner + 0.5 * (o1 + o2)
            top = max(o_corner[2], (o_corner + o1)[2], (o_corner + o2)[2], (o_corner + o1 + o2)[2])
            horiz = max(math.hypot(o_centre[0] - centre[0], o_centre[1] - centre[1]), 1e-9)
            angles.append(max(0.0, math.degrees(math.atan2(top - centre[2], horiz))))
        c = 39.0 * max(0.0, 1.0 - min(sum(angles) / len(angles), 80.0) / 80.0)
    area = float(np.linalg.norm(np.cross(e1, e2)))
    return 0.85 * area / (total * (1.0 - r_mean)) * (c * r_low + 5.0 * r_up) / 100.0


def ray_cast_daylight_factor(point, room, cells=64):
    """Daylight factor of a room given as plain data: ``floor`` (n, 2) plan
    ring at ``floor_z``, ``height``, ``rho`` (floor, walls, ceiling),
    ``windows`` as (rect, (tau, mf, fr, mg, fc)) and ``obstructions`` as
    rectangles with a luminance fraction. Each window's sky and externally
    reflected components come from :func:`ray_cast_sky`."""
    total = 0.0
    for rect, (tau, mf, fr, mg, fc) in room["windows"]:
        walls = walls_other_than(room["floor"], rect)
        sc, erc = ray_cast_sky(point, rect, walls, room["obstructions"], cells)
        irc = split_flux_irc_reference(room["floor"], room["height"], room["rho"], rect,
                                       room["floor_z"], room["obstructions"])
        total += (sc + erc + irc * fc) * mf * fr * tau * mg
    return total


def _even_odd_mask(px, py, ring):
    inside = np.zeros(px.shape, dtype=bool)
    m = len(ring)
    for i in range(m):
        ax, ay = ring[i]
        bx, by = ring[(i + 1) % m]
        cond = (ay > py) != (by > py)
        if by != ay:
            xi = ax + (py - ay) * (bx - ax) / (by - ay)
            inside ^= cond & (px < xi)
    return inside


def _line_intervals(ring, y):
    """The intervals of the horizontal line at height ``y`` inside a simple
    ring (even-odd)."""
    a, b = ring, np.roll(ring, -1, axis=0)
    cross = (a[:, 1] > y) != (b[:, 1] > y)
    xs = np.sort(a[cross, 0] + (y - a[cross, 1]) * (b[cross, 0] - a[cross, 0])
                 / (b[cross, 1] - a[cross, 1]))
    return xs.reshape(-1, 2)


def overlap_area(ring_a, ring_b):
    """Exact area of the intersection of two simple 2-D polygons by
    scanlines: the overlap length of a horizontal line is linear in y
    between the vertex heights and the heights where an edge of one ring
    crosses an edge of the other, so the midpoint rule on each such slab is
    exact."""
    a = np.asarray(ring_a, dtype=float)
    b = np.asarray(ring_b, dtype=float)
    p, r = a[:, None], (np.roll(a, -1, axis=0) - a)[:, None]
    q, s = b[None], (np.roll(b, -1, axis=0) - b)[None]
    den = r[..., 0] * s[..., 1] - r[..., 1] * s[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = ((q[..., 0] - p[..., 0]) * s[..., 1] - (q[..., 1] - p[..., 1]) * s[..., 0]) / den
        u = ((q[..., 0] - p[..., 0]) * r[..., 1] - (q[..., 1] - p[..., 1]) * r[..., 0]) / den
        y_cross = p[..., 1] + t * r[..., 1]
    crossing = (t > 0.0) & (t < 1.0) & (u > 0.0) & (u < 1.0)
    lo = max(a[:, 1].min(), b[:, 1].min())
    hi = min(a[:, 1].max(), b[:, 1].max())
    ys = np.concatenate((a[:, 1], b[:, 1], y_cross[crossing], [lo, hi]))
    ys = np.unique(ys[(ys >= lo) & (ys <= hi)])
    area = 0.0
    for y0, y1 in zip(ys[:-1], ys[1:]):
        y = 0.5 * (y0 + y1)
        for a0, a1 in _line_intervals(a, y):
            for b0, b1 in _line_intervals(b, y):
                area += (y1 - y0) * max(0.0, min(a1, b1) - max(a0, b0))
    return area


def shoelace_area(ring):
    ring = np.asarray(ring, dtype=float)
    x, y = ring[:, 0], ring[:, 1]
    return abs(0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)))


def beam_image(floor, window, d, plane_z):
    """Plan ring of the part above the plane z = ``plane_z`` of a vertical
    convex window (m, 3), slid along the sun direction ``d`` (from the sun
    toward the ground) onto that plane, or None when no beam passes the
    window onto the floor.

    The conventions the engine states for the beam: the light must enter the
    room through the window (d . n_out < -1e-9, with n_out the horizontal
    normal pointing away from the ``floor`` ring), the sun must be above the
    horizon and not grazing (d_z < -1e-9 for unit d), and only the part of
    the window at z >= plane_z casts light onto the plane."""
    d = np.asarray(d, dtype=float) / np.linalg.norm(d)
    w = np.asarray(window, dtype=float)
    floor = np.asarray(floor, dtype=float)
    n = np.cross(w[1] - w[0], w[2] - w[0])
    n = np.array([n[0], n[1]]) / np.hypot(n[0], n[1])
    centre = w[:, :2].mean(axis=0)
    step = centre + 1e-3 * n
    if _even_odd_mask(step[:1], step[1:], floor)[0]:
        n = -n
    if d[:2] @ n >= -1e-9 or d[2] >= -1e-9:
        return None
    above = []
    for a, b in zip(w, np.roll(w, -1, axis=0)):
        if a[2] >= plane_z:
            above.append(a)
        if (a[2] >= plane_z) != (b[2] >= plane_z):
            above.append(a + (plane_z - a[2]) / (b[2] - a[2]) * (b - a))
    if len(above) < 3:
        return None
    w = np.array(above)
    t = (plane_z - w[:, 2]) / d[2]
    return w[:, :2] + t[:, None] * d[:2]


def beam_patch(floor, window, d, plane_z, points=()):
    """The sun patch of one window on the plane z = ``plane_z``: the exact
    area of (image of :func:`beam_image`) intersected with the floor ring,
    zero when it is at most 1e-12 m^2, and whether each (x, y) point lies
    in both (even-odd, boundary undecided) while the patch is non-empty.
    Nothing shades the beam."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    image = beam_image(floor, window, d, plane_z)
    area = 0.0 if image is None else overlap_area(image, floor)
    if area <= 1e-12:
        return 0.0, np.zeros(len(points), dtype=bool)
    px, py = points[:, 0], points[:, 1]
    return area, _even_odd_mask(px, py, image) & _even_odd_mask(px, py, np.asarray(floor))


def rasterized_overlap_area(ring_a, ring_b, res=0.001):
    """Area of the intersection of two simple 2-D polygons by counting
    cell centers of a ``res``-sized raster inside both."""
    ring_a = np.asarray(ring_a, dtype=float)
    ring_b = np.asarray(ring_b, dtype=float)
    lo = np.maximum(ring_a.min(axis=0), ring_b.min(axis=0)) - res
    hi = np.minimum(ring_a.max(axis=0), ring_b.max(axis=0)) + res
    if np.any(hi <= lo):
        return 0.0
    xs = np.arange(lo[0] + res / 2.0, hi[0], res)
    ys = np.arange(lo[1] + res / 2.0, hi[1], res)
    if len(xs) == 0 or len(ys) == 0:
        return 0.0
    px, py = np.meshgrid(xs, ys)
    px = px.ravel()
    py = py.ravel()
    inside = _even_odd_mask(px, py, ring_a) & _even_odd_mask(px, py, ring_b)
    return float(inside.sum()) * res * res


def loop_metrics(sim, ref, margin=0.15):
    """Spreadsheet-style plain-Python recomputation of every indicator,
    with the reliability read both ways: from the mean absolute relative
    error, and as the share of points within ``margin``*|ref| of ref."""
    n = len(sim)
    mean = sum(ref) / n
    sum_sq = sum((s - r) ** 2 for s, r in zip(sim, ref))
    rmsd = math.sqrt(sum_sq / n) / mean
    mbd = sum(s - r for s, r in zip(sim, ref)) / (n * mean) * 100.0
    denom = sum((r - mean) ** 2 for r in ref)
    r2_printed = sum_sq / denom
    eps = [(s - r) / abs(r) for s, r in zip(sim, ref) if r != 0.0]
    eps_mean = sum(eps) / len(eps)
    eps_mean_abs = sum(abs(e) for e in eps) / len(eps)
    inside = sum(1 for s, r in zip(sim, ref) if abs(s - r) <= margin * abs(r))
    return {
        "rmsd": rmsd,
        "mbd_pct": mbd,
        "r2_printed": r2_printed,
        "r2_standard": 1.0 - r2_printed,
        "eps_mean": eps_mean,
        "eps_mean_abs": eps_mean_abs,
        "n_excluded": n - len(eps),
        "rsd_error": min(100.0, max(0.0, 100.0 - eps_mean_abs * 100.0)),
        "rsd_margin": inside / n * 100.0,
    }


def full_pass_emission(rings, side, keep):
    """The convex cut's reference: one Sutherland-Hodgman output pass over
    every row of a batch of rings (R, W, D) cut along the zero line of the
    affine function whose value at each vertex is ``side`` (R, W). Per input
    vertex, the crossing point of the edge that ends there (where its ends
    lie strictly on opposite sides), then the vertex itself (where
    ``keep``). Rows are padded to one width by repeating their last vertex;
    a row with nothing kept is all zeros."""
    prev = np.roll(side, 1, axis=1)
    crossing = ((prev > 0.0) & (side < 0.0)) | ((prev < 0.0) & (side > 0.0))
    start = np.roll(rings, 1, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(crossing, prev / (prev - side), 0.0)
    cuts = start + t[..., None] * (rings - start)
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


def full_pass_split(rings, side):
    """Both sides of :func:`full_pass_emission`'s cut: side >= 0, side <= 0."""
    return full_pass_emission(rings, side, side >= 0.0), full_pass_emission(rings, side, side <= 0.0)


def full_pass_clip(rings, clips, outside=False):
    """Clip a batch of convex 2-D rings (R, W, 2) along each edge of convex
    counter-clockwise clip rings, one shared (M, 2) or one per row (R, M, 2),
    by full passes: the inner side, and with ``outside`` the M slabs cut off.
    A row that an edge cuts away keeps nothing at the later edges, and an
    edge of no length (a padded clip) cuts no slab off."""
    edges = np.roll(clips, -1, axis=-2) - clips
    alive = np.ones((len(rings), 1), dtype=bool)
    slabs = []
    for i in range(clips.shape[-2]):
        a, e = clips[..., i, None, :], edges[..., i, None, :]
        side = e[..., 0] * (rings[:, :, 1] - a[..., 1]) - e[..., 1] * (rings[:, :, 0] - a[..., 0])
        inner = (side >= 0.0) & alive
        if outside:
            length = np.hypot(e[..., 0], e[..., 1])
            slabs.append(full_pass_emission(rings, side, (side <= 0.0) & alive & (length > 0.0)))
        rings = full_pass_emission(rings, side, inner)
        alive = inner.any(axis=1)[:, None]
    return (rings, slabs) if outside else rings


def one_pass_sun_positions(times, latitude, longitude, timezone):
    """Sun altitude, azimuth (degrees) and direction from the sun toward the
    ground for local civil ``datetime64`` stamps, all in one pass: the
    Astronomical Almanac's low-precision formula as ``solar`` wrote it before
    its altitude and direction became two passes, with the calendar casts
    for the year check and the time of day. The batched passes must give
    these bits."""
    t = np.asarray(times, dtype="datetime64[us]")
    years = t.astype("datetime64[Y]").astype(np.int64) + 1970
    bad = (years < 1950) | (years > 2100)
    if bad.any():
        raise ValueError(f"timestamp year {int(years[np.argmax(bad)])} outside supported range")
    days = (t - np.datetime64("2000-01-01T12:00:00", "us")).astype(np.int64) / 1e6 / 86400.0 \
        - timezone / 24.0
    mean_long = np.radians((280.460 + 0.9856474 * days) % 360.0)
    mean_anom = np.radians((357.528 + 0.9856003 * days) % 360.0)
    ecl_long = mean_long + np.radians(
        1.915 * np.sin(mean_anom) + 0.020 * np.sin(2.0 * mean_anom)
    )
    obliq = np.radians(23.439 - 0.0000004 * days)
    decl = np.arcsin(np.sin(obliq) * np.sin(ecl_long))
    ra = np.arctan2(np.cos(obliq) * np.sin(ecl_long), np.cos(ecl_long))
    eqtime = 4.0 * np.degrees((mean_long - ra + math.pi) % (2.0 * math.pi) - math.pi)
    us = (t - t.astype("datetime64[D]")).astype(np.int64)
    hours = (us // 3_600_000_000 + (us // 60_000_000 % 60) / 60.0
             + (us // 1_000_000 % 60) / 3600.0 + (us % 1_000_000) / 3.6e9)
    tst = hours * 60.0 + eqtime + 4.0 * longitude - 60.0 * timezone
    ha = np.radians(tst / 4.0 - 180.0)
    phi = math.radians(latitude)
    sin_alt = math.sin(phi) * np.sin(decl) + math.cos(phi) * np.cos(decl) * np.cos(ha)
    altitude = np.degrees(np.arcsin(np.clip(sin_alt, -1.0, 1.0)))
    azimuth = (np.degrees(np.arctan2(
        np.sin(ha) * np.cos(decl),
        np.cos(ha) * np.cos(decl) * math.sin(phi) - np.sin(decl) * math.cos(phi))) + 180.0) % 360.0
    h, a = np.radians(altitude), np.radians(azimuth)
    direction = np.stack((-np.sin(a) * np.cos(h), -np.cos(a) * np.cos(h), -np.sin(h)), axis=-1)
    return altitude, azimuth, direction
