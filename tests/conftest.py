import numpy as np
import pytest

from sidelux.daylight import Aperture, Obstruction, Room, Simulator, SurfaceOptics
from sidelux.geometry import Polygon3
from sidelux.solar import GeoLocation

_acceptance: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        _acceptance[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for nodeid in sorted(_acceptance):
        name = nodeid.split("::")[-1]
        outcome = _acceptance[nodeid]
        terminalreporter.write_line(f"{name}: {'PASS' if outcome == 'passed' else outcome.upper()}")


def make_canonical_room(window_wall: str = "north") -> Room:
    """The reference test room: 3.9 x 3.5 m floor, one 1 m^2 window."""
    floor = Polygon3([(0, 0, 0), (3.9, 0, 0), (3.9, 3.5, 0), (0, 3.5, 0)])
    if window_wall == "north":
        win = Polygon3([(1.45, 3.5, 1.0), (2.45, 3.5, 1.0), (2.45, 3.5, 2.0), (1.45, 3.5, 2.0)])
    else:
        win = Polygon3([(1.45, 0.0, 1.0), (2.45, 0.0, 1.0), (2.45, 0.0, 2.0), (1.45, 0.0, 2.0)])
    return Room(
        floor=floor,
        height=2.8,
        optics=SurfaceOptics(floor=0.2, walls=0.6, ceiling=0.6),
        apertures=(Aperture(win, tau=0.9, mf=0.9, fr=0.8, mg=0.8),),
    )


def assert_same_bits(got: np.ndarray, expected: np.ndarray) -> None:
    """The two arrays hold the same bits: dtype, shape and every byte."""
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


TROPICAL_SITE = GeoLocation(latitude=-21.34, longitude=55.48, timezone=4.0, albedo=0.7)


@pytest.fixture(scope="session")
def canonical_room() -> Room:
    return make_canonical_room()


@pytest.fixture(scope="session")
def canonical_sim(canonical_room) -> Simulator:
    """Full-resolution simulator (0.1 m cells, 1365 grid points)."""
    return Simulator(canonical_room, TROPICAL_SITE, cell=0.1, workplane_height=0.01)


@pytest.fixture(scope="session")
def coarse_sim() -> Simulator:
    """Cheap simulator (0.5 m cells) for tests that only need the shape."""
    return Simulator(make_canonical_room(), TROPICAL_SITE, cell=0.5, workplane_height=0.01)


BUILDING_JSON = """{
  "location": {"lat": -21.34, "lon": 55.48, "tz": 4, "albedo": 0.7},
  "room": {
    "floor_vertices": [[0, 0, 0], [3.9, 0, 0], [3.9, 3.5, 0], [0, 3.5, 0]],
    "height": 2.8,
    "surfaces": [
      {"role": "floor", "reflectance": 0.2},
      {"role": "walls", "reflectance": 0.6},
      {"role": "ceiling", "reflectance": 0.6}
    ],
    "apertures": [
      {
        "vertices": [[1.45, 3.5, 1.0], [2.45, 3.5, 1.0], [2.45, 3.5, 2.0], [1.45, 3.5, 2.0]],
        "tau_vitre": 0.9, "MF": 0.9, "FR": 0.8, "MG": 0.8, "FC": 1.0
      }
    ]
  },
  "obstructions": [],
  "workplane": {"cell": %(cell)s, "height": 0.01},
  "efficacy": {"mode": "constant", "Kd": 120, "Kb": 93},
  "patch_scope": "patch"
}
"""


@pytest.fixture
def building_file(tmp_path):
    """Write the canonical building JSON (coarse grid for speed) to disk."""
    path = tmp_path / "building.json"
    path.write_text(BUILDING_JSON % {"cell": "0.5"}, encoding="utf-8")
    return path


def same_weather(a, b) -> bool:
    """Two weather series hold the same samples (NaN equal to NaN)."""
    return all(np.array_equal(getattr(a, c), getattr(b, c), equal_nan=c != "times")
               for c in ("times", "gh", "dh", "ev_global", "ev_diffuse"))


def overcast_day_csv(path, day="2009-03-21", gh=200.0):
    lines = ["timestamp,Gh_Wm2,Dh_Wm2"]
    for minute in range(1440):
        h, m = divmod(minute, 60)
        lines.append(f"{day}T{h:02d}:{m:02d},{gh},{gh}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def random_room(rng: np.random.Generator) -> tuple[Room, GeoLocation]:
    """A random rectangular room with one window on a random wall."""
    w = rng.uniform(3.0, 6.0)
    d = rng.uniform(3.0, 6.0)
    h = rng.uniform(2.5, 3.2)
    floor = Polygon3([(0, 0, 0), (w, 0, 0), (w, d, 0), (0, d, 0)])
    wall = rng.integers(0, 4)
    ww = rng.uniform(0.8, 2.0)
    wh = rng.uniform(0.8, 1.4)
    sill = rng.uniform(0.8, 1.2)
    along = w if wall in (0, 2) else d
    x0 = rng.uniform(0.1, along - ww - 0.1)
    if wall == 0:
        pts = [(x0, 0, sill), (x0 + ww, 0, sill), (x0 + ww, 0, sill + wh), (x0, 0, sill + wh)]
    elif wall == 2:
        pts = [(x0, d, sill), (x0 + ww, d, sill), (x0 + ww, d, sill + wh), (x0, d, sill + wh)]
    elif wall == 1:
        pts = [(w, x0, sill), (w, x0 + ww, sill), (w, x0 + ww, sill + wh), (w, x0, sill + wh)]
    else:
        pts = [(0, x0, sill), (0, x0 + ww, sill), (0, x0 + ww, sill + wh), (0, x0, sill + wh)]
    room = Room(
        floor=floor,
        height=h,
        optics=SurfaceOptics(
            floor=rng.uniform(0.15, 0.3),
            walls=rng.uniform(0.5, 0.7),
            ceiling=rng.uniform(0.6, 0.8),
        ),
        apertures=(Aperture(Polygon3(pts), tau=rng.uniform(0.7, 0.95)),),
    )
    loc = GeoLocation(
        latitude=float(rng.uniform(-45, 45)),
        longitude=float(rng.uniform(-30, 60)),
        timezone=0.0,
    )
    return room, loc


def random_l_room(rng: np.random.Generator, any_wall: bool = False) -> Room:
    """A random L-shaped room (a rectangle with one corner notched out,
    turned by a random quarter turn) with one window on a random wall of
    its convex hull, so the re-entrant walls hide it from part of the
    floor. With ``any_wall`` the window's wall is any of the six, so a
    window on one of the two re-entrant walls has the building's other
    wing beyond its plane."""
    w, d = rng.uniform(4.0, 8.0, 2)
    wn, dn = w * rng.uniform(0.35, 0.65), d * rng.uniform(0.35, 0.65)
    ring = np.array([(0, 0), (w, 0), (w, d - dn), (w - wn, d - dn), (w - wn, d), (0, d)])
    hull_walls = (0, 1, 4, 5)
    i = int(rng.integers(0, 6)) if any_wall else hull_walls[rng.integers(0, 4)]
    a, b = ring[i], ring[(i + 1) % 6]
    length = float(np.linalg.norm(b - a))
    width = rng.uniform(0.6, min(2.0, length - 0.2))
    start = rng.uniform(0.1, length - width - 0.1)
    e = (b - a) / length
    h = rng.uniform(2.5, 3.2)
    sill = rng.uniform(0.5, 1.2)
    head = min(sill + rng.uniform(0.6, 1.4), h - 0.1)
    p0, p1 = a + start * e, a + (start + width) * e
    win = [(*p0, sill), (*p1, sill), (*p1, head), (*p0, head)]
    turn = np.array([[0, -1], [1, 0]])
    k = int(rng.integers(0, 4))
    rot = np.linalg.matrix_power(turn, k)
    ring = ring @ rot.T
    win = [(*(rot @ np.array(v[:2])), v[2]) for v in win]
    return Room(
        floor=Polygon3([(x, y, 0.0) for x, y in ring]),
        height=h,
        optics=SurfaceOptics(floor=rng.uniform(0.15, 0.3), walls=rng.uniform(0.5, 0.7),
                             ceiling=rng.uniform(0.6, 0.8)),
        apertures=(Aperture(Polygon3(win), tau=rng.uniform(0.7, 0.95)),),
    )


def with_obstructions(room: Room, rng: np.random.Generator, count: int) -> Room:
    """The room with ``count`` random vertical rectangular obstructions in
    front of its first window, turned up to 60 degrees from the wall and
    kept at least 0.3 m beyond the window plane; two of them usually
    overlap as seen through the window."""
    ap = room.apertures[0]
    n = room.outward[0]
    along = np.array([n[1], -n[0], 0.0])
    centre = ap.polygon.centroid
    plane = float(centre @ n)
    obstructions = []
    while len(obstructions) < count:
        angle = np.radians(rng.uniform(-60.0, 60.0))
        axis = np.cos(angle) * along + np.sin(angle) * n
        mid = centre + rng.uniform(1.0, 8.0) * n + rng.uniform(-3.0, 3.0) * along
        half = 0.5 * rng.uniform(2.0, 10.0)
        a, b = mid - half * axis, mid + half * axis
        if min(a @ n, b @ n) - plane < 0.3:
            continue
        top = rng.uniform(1.0, 8.0)
        obstructions.append(Obstruction(
            Polygon3([(a[0], a[1], 0.0), (b[0], b[1], 0.0), (b[0], b[1], top), (a[0], a[1], top)]),
            float(rng.uniform(0.1, 0.5))))
    return Room(floor=room.floor, height=room.height, optics=room.optics,
                apertures=room.apertures, obstructions=tuple(obstructions))
