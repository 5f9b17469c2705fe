import re
import warnings
from datetime import datetime, timedelta

import numpy as np
import pytest

from conftest import TROPICAL_SITE, make_canonical_room
from oracles import (beam_image, beam_patch, mc_sky_fractions, overlap_area,
                     rasterized_overlap_area, shoelace_area)
from sidelux.errors import ConfigError, DataError, GeometryError
from sidelux.daylight import (
    Aperture,
    BeamKernel,
    Obstruction,
    Room,
    Simulator,
    SkyKernel,
    SurfaceOptics,
    _casters,
    compute_sun_patch,
    daylight_factor,
    df_from_components,
    split_flux_irc,
)
from sidelux.geometry import Polygon3, workplane_grid_for_parts
from sidelux.solar import EfficacyModel, SolarState, WeatherSeries, reconstruct_illuminance, \
    sun_position

WINDOW = Polygon3([(1.5, 0, 0.8), (2.5, 0, 0.8), (2.5, 0, 1.8), (1.5, 0, 1.8)])
WINDOW_RECT = ((1.5, 0.0, 0.8), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0))
P_INSIDE = np.array([2.0, 1.0, 0.8])


def bare_sky(point, window=WINDOW, obstructions=()):
    """(sc, erc) at one point of a bare window in the plane y = 0, seen
    from y > 0: its outward normal points to -y, away from the point."""
    outward = (0.0, -1.0, 0.0)
    casters = _casters(window, outward, (), obstructions)
    sc, erc = SkyKernel(window, outward, casters, obstructions)(point)
    return sc[0], erc[0]


class TestSkyComponent:
    def test_vanishing_aperture(self):
        tiny = Polygon3([(2.0, 0, 1.0), (2.001, 0, 1.0), (2.001, 0, 1.001), (2.0, 0, 1.001)])
        assert bare_sky(P_INSIDE, tiny)[0] == pytest.approx(0.0, abs=1e-4)

    def test_against_monte_carlo(self):
        sc, _ = bare_sky(P_INSIDE)
        sc_mc, _ = mc_sky_fractions(P_INSIDE, WINDOW_RECT)
        assert sc == pytest.approx(sc_mc, abs=0.02)

    def test_point_outside_room_rejected(self):
        room = make_canonical_room("south")
        with pytest.raises(ValueError, match="^point lies outside the room$"):
            daylight_factor((10.0, 10.0, 0.5), room, room.apertures[0])


OBSTRUCTION_FULL = Obstruction(
    Polygon3([(-20, -1.0, 0), (20, -1.0, 0), (20, -1.0, 40), (-20, -1.0, 40)]), 0.2
)
OBSTRUCTION_PART = Obstruction(
    Polygon3([(0.0, -1.0, 0), (4.0, -1.0, 0), (4.0, -1.0, 2.0), (0.0, -1.0, 2.0)]), 0.2
)


class TestExternallyReflected:
    def test_no_obstruction_zero(self):
        assert bare_sky(P_INSIDE)[1] == 0.0

    def test_full_cover_equals_fraction_of_sc(self):
        sc_open, _ = bare_sky(P_INSIDE)
        sc, erc = bare_sky(P_INSIDE, obstructions=(OBSTRUCTION_FULL,))
        assert erc == pytest.approx(0.2 * sc_open, rel=1e-9)
        assert sc == pytest.approx(0.0, abs=1e-12)

    def test_zero_fraction_gives_zero(self):
        obs = Obstruction(OBSTRUCTION_FULL.polygon, 0.0)
        assert bare_sky(P_INSIDE, obstructions=(obs,))[1] == 0.0

    def test_partial_cover_against_monte_carlo(self):
        _, erc = bare_sky(P_INSIDE, obstructions=(OBSTRUCTION_PART,))
        _, erc_mc = mc_sky_fractions(
            P_INSIDE,
            WINDOW_RECT,
            obstruction_rects=[((0.0, -1.0, 0.0), (4.0, 0.0, 0.0), (0.0, 0.0, 2.0), 0.2)],
        )
        assert erc == pytest.approx(erc_mc, abs=0.02)


class TestInternallyReflected:
    def test_substitution(self):
        irc = split_flux_irc(1.0, 50.0, 0.5, 0.3, 0.7, 39.0)
        assert irc == pytest.approx(0.005168, rel=1e-9)

    def test_zero_reflectance_zero(self):
        room = Room(
            floor=Polygon3([(0, 0, 0), (4, 0, 0), (4, 4, 0), (0, 4, 0)]),
            height=2.5,
            optics=SurfaceOptics(0.0, 0.0, 0.0),
            apertures=(Aperture(WINDOW),),
        )
        assert room.irc[0] == 0.0

    def test_linear_in_window_area(self):
        small = split_flux_irc(1.0, 60.0, 0.5, 0.3, 0.7)
        large = split_flux_irc(2.0, 60.0, 0.5, 0.3, 0.7)
        assert large == pytest.approx(2.0 * small, rel=1e-12)

    def test_divergent_reflectance_rejected(self):
        """The split-flux IRC diverges as the mean reflectance reaches 1:
        ``Room`` refuses a mean of 0.99 or more when it has a window to
        compute the IRC for, and accepts the same surfaces without one."""
        floor = Polygon3([(0, 0, 0), (4, 0, 0), (4, 4, 0), (0, 4, 0)])
        optics = SurfaceOptics(0.995, 0.995, 0.995)
        with pytest.raises(ConfigError) as err:
            Room(floor=floor, height=2.5, optics=optics, apertures=(Aperture(WINDOW),))
        assert str(err.value) == "room.surfaces: mean reflectance >= 0.99: inter-reflection diverges"
        assert Room(floor=floor, height=2.5, optics=optics).irc == ()

    def test_obstruction_reduces_coefficient(self):
        base = make_canonical_room("south")
        tall = Obstruction(
            Polygon3([(-5, -2, 0), (10, -2, 0), (10, -2, 8), (-5, -2, 8)]), 0.2
        )
        shaded = Room(
            floor=base.floor, height=base.height, optics=base.optics,
            apertures=base.apertures, obstructions=(tall,),
        )
        assert shaded.irc[0] < base.irc[0]


class TestDaylightFactor:
    def test_substitution(self):
        df = df_from_components(0.02, 0.005, 0.01, 1.0, 0.9, 0.8, 0.9, 0.8)
        assert df == pytest.approx(0.018144, rel=1e-12)

    def test_identity_factors(self):
        df = df_from_components(0.02, 0.005, 0.01, 1.0, 1.0, 1.0, 1.0, 1.0)
        assert df == pytest.approx(0.035, rel=1e-12)

    def test_correction_factor_product(self):
        # the reference configuration (MG=FR=0.8, MF=0.9) scales the
        # identity-factor value by 0.576 for the same glazing
        base = df_from_components(0.03, 0.0, 0.005, 1.0, 1.0, 1.0, 0.9, 1.0)
        scaled = df_from_components(0.03, 0.0, 0.005, 1.0, 0.9, 0.8, 0.9, 0.8)
        assert scaled == pytest.approx(0.576 * base, rel=1e-12)

    def test_breakdown_consistent(self, canonical_room):
        p = (1.95, 2.8, 0.01)
        b = daylight_factor(p, canonical_room, canonical_room.apertures[0])
        ap = canonical_room.apertures[0]
        assert b.df == pytest.approx(
            df_from_components(b.sc, b.erc, b.irc, ap.fc, ap.mf, ap.fr, ap.tau, ap.mg),
            rel=1e-12,
        )
        assert b.sc > 0.0 and b.irc > 0.0

    def test_monotone_decrease_along_centerline(self, canonical_room):
        # evaluated at sill height, where the window is seen face-on and the
        # sky component dominates; at slab level a high sill makes the window
        # nearly edge-on close to the wall, so the profile genuinely peaks
        # a short distance into the room instead (confirmed by Monte-Carlo)
        ap = canonical_room.apertures[0]
        distances = [0.23, 0.73, 1.23, 1.73, 2.23]
        values = [
            daylight_factor((1.95, 3.5 - d, 1.0), canonical_room, ap).df for d in distances
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_slab_level_profile_decreases_beyond_near_wall_peak(self, canonical_room):
        ap = canonical_room.apertures[0]
        distances = [0.73, 1.23, 1.73, 2.23, 2.73]
        values = [
            daylight_factor((1.95, 3.5 - d, 0.01), canonical_room, ap).df for d in distances
        ]
        assert all(a > b for a, b in zip(values, values[1:]))


def square_room(window: Polygon3) -> Room:
    floor = Polygon3([(0, 0, 0), (4, 0, 0), (4, 4, 0), (0, 4, 0)])
    return Room(floor=floor, height=2.8, optics=SurfaceOptics(0.2, 0.6, 0.6),
                apertures=(Aperture(window),))


SOUTH_WINDOW = Polygon3([(1.5, 0, 1), (2.5, 0, 1), (2.5, 0, 2), (1.5, 0, 2)])
SUN_45_SOUTH = SolarState.from_angles(45.0, 180.0)


class TestSunPatch:
    def test_night_empty(self):
        room = make_canonical_room("south")
        sun = SolarState.from_angles(-5.0, 180.0)
        assert compute_sun_patch(room, room.apertures[0], sun, 0.0) == 0.0

    def test_sun_behind_wall_empty(self):
        room = make_canonical_room("south")  # window faces -y (south)
        sun = SolarState.from_angles(45.0, 0.0)  # sun due north
        assert compute_sun_patch(room, room.apertures[0], sun, 0.0) == 0.0
        # a window on the re-entrant wall x = 2 of an L faces the notch; with
        # the sun behind that wall its image lands on the floor's other wing
        ell = Polygon3([(0, 0, 0), (4, 0, 0), (4, 2, 0), (2, 2, 0), (2, 4, 0), (0, 4, 0)])
        win = Polygon3([(2, 2.5, 0.8), (2, 3.5, 0.8), (2, 3.5, 1.8), (2, 2.5, 1.8)])
        room = Room(floor=ell, height=2.5, optics=SurfaceOptics(0.2, 0.6, 0.6),
                    apertures=(Aperture(win),))
        sun = SolarState.from_angles(30.0, 330.0)  # light heads south-south-east, out through x = 2
        t = (0.01 - win.coords[:, 2:]) / sun.direction[2]
        image = win.coords[:, :2] + t * sun.direction[:2]
        assert overlap_area(image, ell.coords[:, :2]) > 0.1
        assert compute_sun_patch(room, room.apertures[0], sun, 0.01) == 0.0

    def test_analytic_45_degree_case(self):
        """The beam reaches exactly the grid points of the 1 m^2 patch
        spanning x 1.5-2.5 and y 1-2."""
        sim = Simulator(square_room(SOUTH_WINDOW), TROPICAL_SITE, cell=0.25, workplane_height=0.0)
        fld = sim.evaluate(SUN_45_SOUTH.direction[None], [60000.0], [60000.0])[0]
        assert fld.patch_area == pytest.approx(1.0, abs=1e-6)
        x, y = sim.grid.points[:, 0], sim.grid.points[:, 1]
        inside = (x > 1.5) & (x < 2.5) & (y > 1.0) & (y < 2.0)
        assert inside.sum() == 16
        assert np.array_equal(fld.e_direct > 0.0, inside)

    def test_low_sun_clipped_against_raster_oracle(self, canonical_room):
        room = canonical_room  # window on y=3.5 facing north
        sun = SolarState.from_angles(20.0, 0.0)
        plane_z = 0.01
        floor = room.floor.coords[:, :2]
        img = beam_image(floor, room.apertures[0].polygon.coords, sun.direction, plane_z)
        area = compute_sun_patch(room, room.apertures[0], sun, plane_z)
        assert 0.0 < area < shoelace_area(img)
        assert area <= room.s_t + 1e-9
        assert area == pytest.approx(rasterized_overlap_area(img, floor, res=0.002), abs=0.01)
        assert area == pytest.approx(overlap_area(img, floor), abs=1e-12)

    def test_patch_bound_over_random_suns(self, canonical_room):
        rng = np.random.default_rng(11)
        suns = [SolarState.from_angles(float(rng.uniform(-10, 85)), float(rng.uniform(0, 360)))
                for _ in range(40)]
        areas = BeamKernel(canonical_room, 0.01)(np.array([s.direction for s in suns]),
                                                  np.zeros((0, 2)))[0]
        assert np.all((areas >= 0.0) & (areas <= canonical_room.s_t + 1e-9))


class TestLShapedRoom:
    def room(self):
        ell = Polygon3([(0, 0, 0), (4, 0, 0), (4, 2, 0), (2, 2, 0), (2, 4, 0), (0, 4, 0)])
        win = Polygon3([(1.0, 0, 0.8), (2.0, 0, 0.8), (2.0, 0, 1.8), (1.0, 0, 1.8)])
        return Room(floor=ell, height=2.5, optics=SurfaceOptics(0.2, 0.6, 0.6),
                    apertures=(Aperture(win),))

    def test_grid_covers_only_l(self):
        room = self.room()
        g = workplane_grid_for_parts(room.parts, room.floor_z, 0.5, 0.01)
        assert (g.nu, g.nv) == (8, 8)
        assert g.n_points == 48  # 64 bounding-box centers minus the notch

    def test_patch_clipped_to_l(self):
        room = self.room()
        sun = SolarState.from_angles(25.0, 180.0)
        floor = room.floor.coords[:, :2]
        img = beam_image(floor, room.apertures[0].polygon.coords, sun.direction, 0.01)
        area = compute_sun_patch(room, room.apertures[0], sun, 0.01)
        assert area == pytest.approx(rasterized_overlap_area(img, floor, res=0.002), abs=0.01)
        assert area == pytest.approx(overlap_area(img, floor), abs=1e-12)


class TestRoomValidation:
    def test_aperture_off_wall_rejected(self):
        floor = Polygon3([(0, 0, 0), (4, 0, 0), (4, 4, 0), (0, 4, 0)])
        win = Polygon3([(1.5, 1.0, 0.8), (2.5, 1.0, 0.8), (2.5, 1.0, 1.8), (1.5, 1.0, 1.8)])
        with pytest.raises(GeometryError):
            Room(floor=floor, height=2.5, optics=SurfaceOptics(0.2, 0.6, 0.6),
                 apertures=(Aperture(win),))

    def test_aperture_above_wall_rejected(self):
        floor = Polygon3([(0, 0, 0), (4, 0, 0), (4, 4, 0), (0, 4, 0)])
        win = Polygon3([(1.5, 0, 2.0), (2.5, 0, 2.0), (2.5, 0, 3.0), (1.5, 0, 3.0)])
        with pytest.raises(GeometryError):
            Room(floor=floor, height=2.5, optics=SurfaceOptics(0.2, 0.6, 0.6),
                 apertures=(Aperture(win),))

    def test_non_vertical_aperture_rejected(self):
        tilted = Polygon3([(0, 0, 1), (1, 0, 1), (1, 1, 2), (0, 1, 2)])
        with pytest.raises(GeometryError):
            Aperture(tilted)

    def test_zero_factor_rejected(self):
        with pytest.raises(ConfigError):
            Aperture(WINDOW, tau=0.0)

    @pytest.mark.parametrize("height", [0.0, -1.0, float("nan")])
    def test_height_not_positive_rejected(self, height):
        floor = Polygon3([(0, 0, 0), (4, 0, 0), (4, 4, 0), (0, 4, 0)])
        with pytest.raises(ConfigError, match="must be positive"):
            Room(floor=floor, height=height, optics=SurfaceOptics(0.2, 0.6, 0.6))


class TestPointFormulas:
    """The three terms at the points of a 0.5 m grid in a 4 m x 4 m room
    (rho_floor 0.2, tau 0.9) whose south window casts the 1 m^2 patch
    x 1.5-2.5, y 1-2 under a 45-degree sun; four grid points lie in it."""

    @pytest.fixture(scope="class")
    def sim(self):
        return Simulator(square_room(SOUTH_WINDOW), TROPICAL_SITE, cell=0.5)

    @staticmethod
    def in_patch(sim):
        x, y = sim.grid.points[:, 0], sim.grid.points[:, 1]
        inside = (x > 1.5) & (x < 2.5) & (y > 1.0) & (y < 2.0)
        assert inside.sum() == 4
        return inside

    def test_diffuse_without_patch(self, sim):
        fld = sim.evaluate([(0.0, 0.0, 1.0)], [10000.0], [0.0])[0]  # no sun: up casts nothing
        assert np.array_equal(fld.e_diffuse, sim.df * 10000.0)

    def test_diffuse_with_patch_term(self, sim):
        # the patch adds E_direct * rho_floor * S_patch / S_floor on top of
        # the daylight-factor base DF * (E_diffuse + E_direct)
        fld = sim.evaluate(SUN_45_SOUTH.direction[None], [10000.0 + 50000.0], [50000.0])[0]
        inside = self.in_patch(sim)
        base = sim.df * 60000.0
        np.testing.assert_allclose(fld.e_diffuse[inside] - base[inside],
                                   50000.0 * 0.2 * 1.0 / 16.0, rtol=1e-9)
        assert np.array_equal(fld.e_diffuse[~inside], base[~inside])

    def test_diffuse_overcast_no_patch_term(self, sim):
        fld = sim.evaluate(SUN_45_SOUTH.direction[None], [10000.0], [0.0])[0]
        assert fld.patch_area == 0.0
        assert np.array_equal(fld.e_diffuse, sim.df * 10000.0)

    def test_diffuse_outside_patch_scope_room(self, sim):
        e_global = 10000.0 + 50000.0
        outside = ~self.in_patch(sim)
        room_sim = Simulator(sim.room, TROPICAL_SITE, cell=0.5, patch_scope="room")
        v_patch = sim.evaluate(SUN_45_SOUTH.direction[None], [e_global], [50000.0])[0].e_diffuse
        v_room = room_sim.evaluate(SUN_45_SOUTH.direction[None], [e_global], [50000.0])[0].e_diffuse
        assert np.array_equal(v_patch[outside], sim.df[outside] * e_global)
        assert np.all(v_room[outside] > v_patch[outside])

    def test_direct_inside_patch(self, sim):
        fld = sim.evaluate(SUN_45_SOUTH.direction[None], [60000.0], [60000.0])[0]
        np.testing.assert_allclose(fld.e_direct[self.in_patch(sim)], 54000.0, rtol=1e-12)

    def test_direct_outside_patch(self, sim):
        fld = sim.evaluate(SUN_45_SOUTH.direction[None], [60000.0], [60000.0])[0]
        assert not fld.e_direct[~self.in_patch(sim)].any()

    def test_direct_empty_patch(self, sim):
        behind = SolarState.from_angles(45.0, 0.0)
        fld = sim.evaluate(behind.direction[None], [60000.0], [60000.0])[0]
        assert fld.patch_area == 0.0 and not fld.e_direct.any()


class TestSimulate:
    def test_night_all_zero(self, coarse_sim):
        fld = coarse_sim.step(datetime(2009, 7, 15, 1, 0), 0.0, 0.0)
        assert not fld.e_global.any()
        assert not fld.e_diffuse.any()
        assert not fld.e_direct.any()

    def test_overcast_regime(self, coarse_sim):
        fld = coarse_sim.step(datetime(2009, 7, 15, 10, 0), 300.0, 300.0)
        assert fld.patch_area == 0.0
        assert not fld.e_direct.any()
        e_global = coarse_sim.efficacy.kd * 300.0
        assert np.allclose(fld.e_global, coarse_sim.df * e_global, rtol=1e-12, atol=0)

    def test_clear_noon_manual_recomputation(self, canonical_sim):
        sim = canonical_sim
        when = datetime(2009, 7, 15, 10, 0)
        fld = sim.step(when, 600.0, 150.0)
        assert fld.patch_area > 0.0
        ap = sim.room.apertures[0]
        sun = sun_position(when, sim.location)
        out = reconstruct_illuminance(sun, 600.0, 150.0, sim.efficacy)
        area, lit = beam_patch(sim.room.floor.coords[:, :2], ap.polygon.coords, sun.direction,
                               sim.grid.plane_z, sim.grid.points[:, :2])
        assert area == pytest.approx(fld.patch_area, abs=1e-12)
        rng = np.random.default_rng(3)
        picks = np.concatenate((rng.choice(np.flatnonzero(lit), size=3, replace=False),
                                rng.choice(np.flatnonzero(~lit), size=3, replace=False)))
        for i in picks:
            e_dif = sim.df[i] * out.e_global + lit[i] * out.e_direct * sim.room.optics.floor \
                * area / sim.room.s_t
            e_dir = lit[i] * out.e_direct * ap.tau
            assert fld.e_diffuse[i] == pytest.approx(e_dif, rel=1e-9)
            assert fld.e_direct[i] == pytest.approx(e_dir, rel=1e-9)
            assert fld.e_global[i] == pytest.approx(e_dif + e_dir, rel=1e-9)

    def test_decomposition_bitwise(self, canonical_sim):
        fld = canonical_sim.step(datetime(2009, 7, 15, 10, 0), 600.0, 150.0)
        assert np.array_equal(fld.e_global, fld.e_diffuse + fld.e_direct)

    def test_df_field_reused_between_steps(self, coarse_sim):
        a = coarse_sim.step(datetime(2009, 7, 15, 10, 0), 300.0, 300.0)
        b = coarse_sim.step(datetime(2009, 7, 16, 10, 0), 500.0, 100.0)
        assert a.df is b.df

    def test_patch_scope_room_spreads_term(self):
        room = make_canonical_room()
        sim_patch = Simulator(room, TROPICAL_SITE, cell=0.5, patch_scope="patch")
        sim_room = Simulator(room, TROPICAL_SITE, cell=0.5, patch_scope="room")
        sample = (datetime(2009, 7, 15, 10, 0), 600.0, 150.0)
        f_patch = sim_patch.step(*sample)
        f_room = sim_room.step(*sample)
        assert f_patch.patch_area > 0.0
        assert np.all(f_room.e_diffuse >= f_patch.e_diffuse - 1e-12)
        assert f_room.e_diffuse.sum() > f_patch.e_diffuse.sum()

    def test_linearity(self, canonical_sim):
        when = datetime(2009, 7, 15, 10, 0)
        base = canonical_sim.step(when, 600.0, 150.0)
        sun = sun_position(when, canonical_sim.location)
        outdoor = reconstruct_illuminance(sun, 600.0, 150.0, canonical_sim.efficacy)
        for lam in (0.5, 2.0, 10.0):
            diffuse, direct = lam * outdoor.e_diffuse, lam * outdoor.e_direct
            scaled = canonical_sim.evaluate(sun.direction[None], [diffuse + direct], [direct])[0]
            assert np.allclose(scaled.e_global, lam * base.e_global, rtol=1e-9)
            assert np.allclose(scaled.e_diffuse, lam * base.e_diffuse, rtol=1e-9)
            assert np.allclose(scaled.e_direct, lam * base.e_direct, rtol=1e-9)


class TestMultiAperture:
    FLOOR = Polygon3([(0, 0, 0), (4, 0, 0), (4, 4, 0), (0, 4, 0)])
    W1 = Polygon3([(0.5, 4, 1.0), (1.5, 4, 1.0), (1.5, 4, 2.0), (0.5, 4, 2.0)])
    W2 = Polygon3([(2.5, 4, 1.0), (3.5, 4, 1.0), (3.5, 4, 2.0), (2.5, 4, 2.0)])

    def sims(self):
        optics = SurfaceOptics(0.2, 0.6, 0.6)

        def build(apertures):
            room = Room(floor=self.FLOOR, height=2.8, optics=optics, apertures=apertures)
            return Simulator(room, TROPICAL_SITE, cell=0.5, workplane_height=0.01)

        return (
            build((Aperture(self.W1), Aperture(self.W2))),
            build((Aperture(self.W1),)),
            build((Aperture(self.W2),)),
        )

    def test_df_and_field_sum_over_apertures(self):
        both, only1, only2 = self.sims()
        assert np.allclose(both.df, only1.df + only2.df, rtol=1e-9)
        sample = (datetime(2009, 7, 15, 10, 0), 600.0, 150.0)
        fb, f1, f2 = both.step(*sample), only1.step(*sample), only2.step(*sample)
        assert fb.patch_area == pytest.approx(f1.patch_area + f2.patch_area, rel=1e-9)
        assert fb.patch_area > 0.0
        assert np.allclose(fb.e_direct, f1.e_direct + f2.e_direct, rtol=1e-9)
        assert np.allclose(fb.e_diffuse, f1.e_diffuse + f2.e_diffuse, rtol=1e-9)
        assert np.array_equal(fb.e_global, fb.e_diffuse + fb.e_direct)

    def room(self, *windows):
        return Room(floor=self.FLOOR, height=2.8, optics=SurfaceOptics(0.2, 0.6, 0.6),
                    apertures=tuple(Aperture(w) for w in windows))

    def test_separate_windows_on_one_wall_are_accepted(self):
        assert len(self.room(self.W1, self.W2).outward) == 2

    def test_windows_sharing_an_edge_are_accepted(self):
        right = Polygon3([(1.5, 4, 1.0), (2.5, 4, 1.0), (2.5, 4, 2.0), (1.5, 4, 2.0)])
        above = Polygon3([(1.5, 4, 2.0), (0.5, 4, 2.0), (0.5, 4, 2.6), (1.5, 4, 2.6)])
        assert len(self.room(self.W1, right, above).outward) == 3

    @pytest.mark.parametrize("second", [
        W1,
        Polygon3([(0.5, 4, 2.0), (0.5, 4, 1.0), (1.5, 4, 1.0), (1.5, 4, 2.0)]),  # same, reordered
        Polygon3([(1.0, 4, 1.5), (2.0, 4, 1.5), (2.0, 4, 2.5), (1.0, 4, 2.5)]),
        Polygon3([(0.8, 4, 1.2), (1.2, 4, 1.2), (1.2, 4, 1.6), (0.8, 4, 1.6)]),  # inside W1
    ], ids=["identical", "reversed", "partly", "nested"])
    def test_overlapping_windows_are_rejected(self, second):
        """A window listed twice would count its sky and its beam twice."""
        with pytest.raises(GeometryError,
                           match=r"^room\.apertures\[2\]: overlaps room\.apertures\[0\] "
                                 r"on the same wall$"):
            self.room(self.W1, self.W2, second)


@pytest.mark.parametrize("x,y0,y1", [(6, 4, 5), (3, 1, 2)], ids=["beyond-x6", "beyond-x3"])
def test_window_on_a_wall_line_but_off_the_wall_is_rejected(x, y0, y1):
    """On the L floor a window must lie within a floor edge, not just on its
    line (a window on the re-entrant wall x = 3, y 4-5, is in test_sky)."""
    floor = Polygon3([(0, 0, 0), (6, 0, 0), (6, 3, 0), (3, 3, 0), (3, 6, 0), (0, 6, 0)])
    window = Polygon3([(x, y0, 0.9), (x, y1, 0.9), (x, y1, 2.1), (x, y0, 2.1)])
    with pytest.raises(GeometryError, match=r"^room\.apertures\[0\]: aperture does not lie on "
                                            r"any wall of the floor outline$"):
        Room(floor=floor, height=2.8, optics=SurfaceOptics(0.2, 0.6, 0.6),
             apertures=(Aperture(window),))


class TestObstructedRoom:
    def test_obstruction_lowers_daylight_factor(self):
        base = make_canonical_room("south")
        wall = Obstruction(
            Polygon3([(-5, -2, 0), (10, -2, 0), (10, -2, 6), (-5, -2, 6)]), 0.2
        )
        shaded = Room(
            floor=base.floor, height=base.height, optics=base.optics,
            apertures=base.apertures, obstructions=(wall,),
        )
        p = (1.95, 1.0, 0.01)
        open_df = daylight_factor(p, base, base.apertures[0])
        shaded_df = daylight_factor(p, shaded, shaded.apertures[0])
        assert shaded_df.erc > 0.0
        assert shaded_df.sc < open_df.sc
        assert shaded_df.df < open_df.df


def minute_weather(start, minutes, gh, dh):
    times = np.datetime64(start, "us") + np.arange(minutes) * np.timedelta64(1, "m")
    return WeatherSeries(times, np.full(minutes, gh), np.full(minutes, dh))


class TestPeriod:
    PROBES = [(1.95, 3.27), (1.95, 2.77), (1.95, 2.27), (1.95, 1.77), (1.95, 1.27)]

    def test_constant_overcast_probes_constant(self, coarse_sim):
        start = datetime(2009, 7, 15, 10, 0)
        res = coarse_sim.run(minute_weather(start, 120, 300.0, 300.0), probes=self.PROBES)
        assert res.probe_global.shape == (120, 5)
        for j in range(5):
            col = res.probe_global[:, j]
            assert col.max() == pytest.approx(col.min(), rel=1e-12)

    def test_hourly_averaging(self, coarse_sim):
        start = datetime(2009, 7, 15, 10, 0)
        res = coarse_sim.run(minute_weather(start, 120, 300.0, 300.0), probes=self.PROBES[:1])
        hourly = res.hourly()
        assert len(hourly.timestamps) == 2
        assert hourly.probe_global[0, 0] == pytest.approx(res.probe_global[:60, 0].mean())

    def test_full_day_hourly_gives_24_rows(self, coarse_sim):
        start = datetime(2009, 7, 15, 0, 0)
        res = coarse_sim.run(minute_weather(start, 1440, 300.0, 300.0), probes=self.PROBES[:2])
        res = res.hourly()
        assert len(res.timestamps) == 24
        assert res.probe_global.shape == (24, 2)

    def test_hourly_without_probes_keeps_an_empty_probe_column_set(self, coarse_sim):
        res = coarse_sim.run(minute_weather(datetime(2009, 7, 15, 10, 0), 120, 300.0, 300.0))
        assert res.hourly().probe_global.shape == (2, 0)

    def test_passthrough_efficacy_uses_measured_values(self):
        room = make_canonical_room()
        sim = Simulator(room, TROPICAL_SITE, cell=0.5,
                        efficacy=EfficacyModel(mode="passthrough"))
        when = datetime(2009, 7, 15, 11, 0)
        res = sim.run(WeatherSeries([when], [300.0], [300.0], [25000.0], [25000.0]),
                      field_at=[when])
        assert res.outdoor_global[0] == pytest.approx(25000.0)
        assert res.outdoor_direct[0] == 0.0
        assert np.allclose(res.fields[when].e_global, sim.df * 25000.0, rtol=1e-12)

    def test_missing_record_named(self, coarse_sim):
        start = datetime(2009, 7, 15, 10, 0)
        weather = minute_weather(start, 30, 300.0, 300.0)
        keep = np.arange(30) != 10
        weather = WeatherSeries(weather.times[keep], weather.gh[keep], weather.dh[keep])
        with pytest.raises(DataError) as err:
            coarse_sim.run(weather, start=start, end=start + timedelta(minutes=30))
        assert "10:10" in str(err.value)

    def test_field_snapshot(self, coarse_sim):
        start = datetime(2009, 7, 15, 10, 0)
        when = start + timedelta(minutes=5)
        res = coarse_sim.run(minute_weather(start, 10, 300.0, 300.0), field_at=[when])
        assert set(res.fields) == {when}
        fld = res.fields[when]
        assert np.array_equal(fld.e_global, fld.e_diffuse + fld.e_direct)

    def test_probe_outside_room_rejected(self, coarse_sim):
        start = datetime(2009, 7, 15, 10, 0)
        with pytest.raises(ConfigError):
            coarse_sim.run(minute_weather(start, 5, 300.0, 300.0), probes=[(50.0, 50.0)])

    @pytest.mark.parametrize("probe", [(np.inf, 1.0), (1.0, -np.inf), (np.nan, 1.0)])
    def test_probe_off_every_finite_point_rejected(self, coarse_sim, probe):
        """Refused by the probe rule, before any array pass can warn."""
        start = datetime(2009, 7, 15, 10, 0)
        x, y = probe
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=rf"^probe \({x}, {y}\) is not a finite point$"):
                coarse_sim.run(minute_weather(start, 5, 300.0, 300.0), probes=[(1.0, 1.0), probe])

    @pytest.mark.parametrize("probes,bad", [
        ([(1.0, 2.0, 0.5)], (1.0, 2.0, 0.5)),
        ([1.95, 2.0], 1.95),
        ([(1.0, 1.0), ("x", 2.0)], ("x", 2.0)),
        (["12"], "12"),
    ], ids=["three-numbers", "bare-numbers", "not-a-number", "text"])
    def test_a_probe_that_is_not_an_xy_pair_is_rejected(self, coarse_sim, probes, bad):
        """Refused by the probe rule, naming the probe, not by unpacking."""
        start = datetime(2009, 7, 15, 10, 0)
        with pytest.raises(ConfigError,
                           match=rf"^probe {re.escape(repr(bad))} is not an \(x, y\) pair$"):
            coarse_sim.run(minute_weather(start, 5, 300.0, 300.0), probes=probes)

    def test_empty_period_rejected(self, coarse_sim):
        start = datetime(2009, 7, 15, 10, 0)
        with pytest.raises(DataError):
            coarse_sim.run(minute_weather(start, 5, 300.0, 300.0), start=start, end=start)
