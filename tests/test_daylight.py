from datetime import datetime, timedelta

import numpy as np
import pytest

from conftest import TROPICAL_SITE, make_canonical_room
from oracles import mc_sky_fractions, rasterized_overlap_area
from sidelux.errors import ConfigError, DataError, GeometryError
from sidelux.daylight import (
    Aperture,
    Obstruction,
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
    split_flux_irc,
)
from sidelux.geometry import Polygon3, project_polygon_along_direction
from sidelux.solar import EfficacyModel, OutdoorIlluminance, SolarState, WeatherRecord

WINDOW = Polygon3([(1.5, 0, 0.8), (2.5, 0, 0.8), (2.5, 0, 1.8), (1.5, 0, 1.8)])
WINDOW_RECT = ((1.5, 0.0, 0.8), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0))
P_INSIDE = np.array([2.0, 1.0, 0.8])


class TestSkyComponent:
    def test_full_dome_view_is_one(self):
        assert sky_component(np.zeros(3), None) == pytest.approx(1.0, abs=2e-3)

    def test_vanishing_aperture(self):
        tiny = Polygon3([(2.0, 0, 1.0), (2.001, 0, 1.0), (2.001, 0, 1.001), (2.0, 0, 1.001)])
        assert sky_component(P_INSIDE, tiny) == pytest.approx(0.0, abs=1e-4)

    def test_against_monte_carlo(self):
        sc = sky_component(P_INSIDE, WINDOW)
        sc_mc, _ = mc_sky_fractions(P_INSIDE, WINDOW_RECT)
        assert sc == pytest.approx(sc_mc, abs=0.02)

    def test_point_outside_room_rejected(self):
        room = make_canonical_room("south")
        with pytest.raises(ValueError):
            sky_component((10.0, 10.0, 0.5), room.apertures[0], room=room)


OBSTRUCTION_FULL = Obstruction(
    Polygon3([(-20, -1.0, 0), (20, -1.0, 0), (20, -1.0, 40), (-20, -1.0, 40)]), 0.2
)
OBSTRUCTION_PART = Obstruction(
    Polygon3([(0.0, -1.0, 0), (4.0, -1.0, 0), (4.0, -1.0, 2.0), (0.0, -1.0, 2.0)]), 0.2
)


class TestExternallyReflected:
    def test_no_obstruction_zero(self):
        assert externally_reflected_component(P_INSIDE, WINDOW, ()) == 0.0

    def test_full_cover_equals_fraction_of_sc(self):
        sc_open = sky_component(P_INSIDE, WINDOW)
        erc = externally_reflected_component(P_INSIDE, WINDOW, (OBSTRUCTION_FULL,))
        assert erc == pytest.approx(0.2 * sc_open, rel=1e-9)
        assert sky_component(P_INSIDE, WINDOW, (OBSTRUCTION_FULL,)) == pytest.approx(0.0, abs=1e-12)

    def test_zero_fraction_gives_zero(self):
        obs = Obstruction(OBSTRUCTION_FULL.polygon, 0.0)
        assert externally_reflected_component(P_INSIDE, WINDOW, (obs,)) == 0.0

    def test_partial_cover_against_monte_carlo(self):
        erc = externally_reflected_component(P_INSIDE, WINDOW, (OBSTRUCTION_PART,))
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
        assert internally_reflected_component(room, room.apertures[0]) == 0.0

    def test_linear_in_window_area(self):
        small = split_flux_irc(1.0, 60.0, 0.5, 0.3, 0.7)
        large = split_flux_irc(2.0, 60.0, 0.5, 0.3, 0.7)
        assert large == pytest.approx(2.0 * small, rel=1e-12)

    def test_divergent_reflectance_rejected(self):
        with pytest.raises(ConfigError):
            split_flux_irc(1.0, 50.0, 0.995, 0.9, 0.9)

    def test_obstruction_reduces_coefficient(self):
        base = make_canonical_room("south")
        tall = Obstruction(
            Polygon3([(-5, -2, 0), (10, -2, 0), (10, -2, 8), (-5, -2, 8)]), 0.2
        )
        shaded = Room(
            floor=base.floor, height=base.height, optics=base.optics,
            apertures=base.apertures, obstructions=(tall,),
        )
        assert internally_reflected_component(shaded, shaded.apertures[0]) < \
            internally_reflected_component(base, base.apertures[0])


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


class TestSunPatch:
    def test_night_empty(self):
        room = make_canonical_room("south")
        sun = SolarState.from_angles(-5.0, 180.0)
        patch = compute_sun_patch(room, room.apertures[0], sun, 0.0)
        assert patch.area == 0.0 and not patch

    def test_sun_behind_wall_empty(self):
        room = make_canonical_room("south")  # window faces -y (south)
        sun = SolarState.from_angles(45.0, 0.0)  # sun due north
        patch = compute_sun_patch(room, room.apertures[0], sun, 0.0)
        assert patch.area == 0.0

    def test_analytic_45_degree_case(self):
        floor = Polygon3([(0, 0, 0), (4, 0, 0), (4, 4, 0), (0, 4, 0)])
        win = Polygon3([(1.5, 0, 1), (2.5, 0, 1), (2.5, 0, 2), (1.5, 0, 2)])
        room = Room(floor=floor, height=2.8, optics=SurfaceOptics(0.2, 0.6, 0.6),
                    apertures=(Aperture(win),))
        sun = SolarState.from_angles(45.0, 180.0)
        patch = compute_sun_patch(room, room.apertures[0], sun, 0.0)
        assert patch.area == pytest.approx(1.0, abs=1e-6)
        ys = np.vstack([p.coords for p in patch.pieces])[:, 1]
        assert ys.min() == pytest.approx(1.0, abs=1e-6)
        assert ys.max() == pytest.approx(2.0, abs=1e-6)

    def test_low_sun_clipped_against_raster_oracle(self, canonical_room):
        room = canonical_room  # window on y=3.5 facing north
        sun = SolarState.from_angles(20.0, 0.0)
        plane_z = 0.01
        ap = room.apertures[0]
        img = project_polygon_along_direction(ap.polygon, sun.direction, plane_z)
        patch = compute_sun_patch(room, ap, sun, plane_z)
        assert 0.0 < patch.area < img.area
        assert patch.area <= room.s_t + 1e-9
        oracle = rasterized_overlap_area(
            img.coords[:, :2], room.floor.coords[:, :2], res=0.002
        )
        assert patch.area == pytest.approx(oracle, abs=0.01)

    def test_patch_bound_over_random_suns(self, canonical_room):
        rng = np.random.default_rng(11)
        ap = canonical_room.apertures[0]
        for _ in range(40):
            sun = SolarState.from_angles(
                float(rng.uniform(-10, 85)), float(rng.uniform(0, 360))
            )
            patch = compute_sun_patch(canonical_room, ap, sun, 0.01)
            assert 0.0 <= patch.area <= canonical_room.s_t + 1e-9


class TestLShapedRoom:
    def room(self):
        ell = Polygon3([(0, 0, 0), (4, 0, 0), (4, 2, 0), (2, 2, 0), (2, 4, 0), (0, 4, 0)])
        win = Polygon3([(1.0, 0, 0.8), (2.0, 0, 0.8), (2.0, 0, 1.8), (1.0, 0, 1.8)])
        return Room(floor=ell, height=2.5, optics=SurfaceOptics(0.2, 0.6, 0.6),
                    apertures=(Aperture(win),))

    def test_grid_covers_only_l(self):
        room = self.room()
        g = room.workplane(0.5, 0.01)
        assert (g.nu, g.nv) == (8, 8)
        assert g.n_points == 48  # 64 bounding-box centers minus the notch

    def test_patch_clipped_to_l(self):
        room = self.room()
        sun = SolarState.from_angles(25.0, 180.0)
        ap = room.apertures[0]
        img = project_polygon_along_direction(ap.polygon, sun.direction, 0.01)
        patch = compute_sun_patch(room, ap, sun, 0.01)
        oracle = rasterized_overlap_area(
            img.coords[:, :2], room.floor.coords[:, :2], res=0.002
        )
        assert patch.area == pytest.approx(oracle, abs=0.01)


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


UNIT_PATCH = SunPatch(
    (Polygon3([(1.0, 1.0, 0.01), (2.0, 1.0, 0.01), (2.0, 2.0, 0.01), (1.0, 2.0, 0.01)]),),
    1.0,
)


class TestPointFormulas:
    def test_diffuse_without_patch(self, canonical_room):
        out = OutdoorIlluminance.from_components(10000.0, 0.0)
        v = diffuse_at_point((1.5, 1.5, 0.01), 0.02, out, None, canonical_room)
        assert v == pytest.approx(200.0, rel=1e-12)

    def test_diffuse_with_patch_term(self, canonical_room):
        # the patch adds E_direct * rho_floor * S_patch / S_floor on top of
        # the daylight-factor base (checked in isolation via the difference,
        # since global = diffuse + direct ties the base to E_direct as well)
        out = OutdoorIlluminance.from_components(10000.0, 50000.0)
        p = (1.5, 1.5, 0.01)
        with_patch = diffuse_at_point(p, 0.02, out, UNIT_PATCH, canonical_room)
        base = diffuse_at_point(p, 0.02, out, None, canonical_room)
        assert base == pytest.approx(0.02 * 60000.0, rel=1e-12)
        assert with_patch - base == pytest.approx(50000.0 * 0.2 * 1.0 / 13.65, rel=1e-12)
        assert with_patch - base == pytest.approx(732.6, abs=0.05)

    def test_diffuse_overcast_no_patch_term(self, canonical_room):
        out = OutdoorIlluminance.from_components(10000.0, 0.0)
        v = diffuse_at_point((1.5, 1.5, 0.01), 0.02, out, UNIT_PATCH, canonical_room)
        assert v == pytest.approx(200.0, rel=1e-12)

    def test_diffuse_outside_patch_scope_room(self, canonical_room):
        out = OutdoorIlluminance.from_components(10000.0, 50000.0)
        outside = (3.5, 3.0, 0.01)
        v_patch = diffuse_at_point(outside, 0.02, out, UNIT_PATCH, canonical_room, "patch")
        v_room = diffuse_at_point(outside, 0.02, out, UNIT_PATCH, canonical_room, "room")
        assert v_patch == pytest.approx(0.02 * out.e_global, rel=1e-12)
        assert v_room > v_patch

    def test_direct_inside_patch(self, canonical_room):
        out = OutdoorIlluminance.from_components(0.0, 60000.0)
        ap = canonical_room.apertures[0]
        assert direct_at_point((1.5, 1.5, 0.01), UNIT_PATCH, out, ap) == pytest.approx(54000.0)

    def test_direct_outside_patch(self, canonical_room):
        out = OutdoorIlluminance.from_components(0.0, 60000.0)
        ap = canonical_room.apertures[0]
        assert direct_at_point((3.5, 3.0, 0.01), UNIT_PATCH, out, ap) == 0.0

    def test_direct_empty_patch(self, canonical_room):
        out = OutdoorIlluminance.from_components(0.0, 60000.0)
        ap = canonical_room.apertures[0]
        assert direct_at_point((1.5, 1.5, 0.01), SunPatch.empty(), out, ap) == 0.0


class TestSimulate:
    def test_night_all_zero(self, coarse_sim):
        fld = coarse_sim.step(WeatherRecord(datetime(2009, 7, 15, 1, 0), 0.0, 0.0))
        assert not fld.e_global.any()
        assert not fld.e_diffuse.any()
        assert not fld.e_direct.any()

    def test_overcast_regime(self, coarse_sim):
        fld = coarse_sim.step(WeatherRecord(datetime(2009, 7, 15, 10, 0), 300.0, 300.0))
        assert fld.patch_area == 0.0
        assert not fld.e_direct.any()
        assert np.allclose(fld.e_global, coarse_sim.df * fld.outdoor.e_global, rtol=1e-12, atol=0)

    def test_clear_noon_manual_recomputation(self, canonical_sim):
        sim = canonical_sim
        fld = sim.step(WeatherRecord(datetime(2009, 7, 15, 10, 0), 600.0, 150.0))
        assert fld.patch_area > 0.0
        ap = sim.room.apertures[0]
        patch = compute_sun_patch(sim.room, ap, fld.sun, sim.grid.plane_z)
        assert patch.area == pytest.approx(fld.patch_area, abs=1e-12)
        rng = np.random.default_rng(3)
        for i in rng.choice(sim.grid.n_points, size=5, replace=False):
            p = sim.grid.points[i]
            e_dif = diffuse_at_point(p, sim.df[i], fld.outdoor, patch, sim.room, sim.patch_scope)
            e_dir = direct_at_point(p, patch, fld.outdoor, ap)
            assert fld.e_diffuse[i] == pytest.approx(e_dif, rel=1e-9)
            assert fld.e_direct[i] == pytest.approx(e_dir, rel=1e-9)
            assert fld.e_global[i] == pytest.approx(e_dif + e_dir, rel=1e-9)

    def test_decomposition_bitwise(self, canonical_sim):
        fld = canonical_sim.step(WeatherRecord(datetime(2009, 7, 15, 10, 0), 600.0, 150.0))
        assert np.array_equal(fld.e_global, fld.e_diffuse + fld.e_direct)

    def test_df_field_reused_between_steps(self, coarse_sim):
        a = coarse_sim.step(WeatherRecord(datetime(2009, 7, 15, 10, 0), 300.0, 300.0))
        b = coarse_sim.step(WeatherRecord(datetime(2009, 7, 16, 10, 0), 500.0, 100.0))
        assert a.df is b.df

    def test_patch_scope_room_spreads_term(self):
        room = make_canonical_room()
        sim_patch = Simulator(room, TROPICAL_SITE, cell=0.5, patch_scope="patch")
        sim_room = Simulator(room, TROPICAL_SITE, cell=0.5, patch_scope="room")
        rec = WeatherRecord(datetime(2009, 7, 15, 10, 0), 600.0, 150.0)
        f_patch = sim_patch.step(rec)
        f_room = sim_room.step(rec)
        assert f_patch.patch_area > 0.0
        assert np.all(f_room.e_diffuse >= f_patch.e_diffuse - 1e-12)
        assert f_room.e_diffuse.sum() > f_patch.e_diffuse.sum()

    def test_linearity(self, canonical_sim):
        rec = WeatherRecord(datetime(2009, 7, 15, 10, 0), 600.0, 150.0)
        base = canonical_sim.step(rec)
        for lam in (0.5, 2.0, 10.0):
            scaled = canonical_sim.evaluate(base.outdoor.scaled(lam), base.sun)
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
        rec = WeatherRecord(datetime(2009, 7, 15, 10, 0), 600.0, 150.0)
        fb, f1, f2 = both.step(rec), only1.step(rec), only2.step(rec)
        assert fb.patch_area == pytest.approx(f1.patch_area + f2.patch_area, rel=1e-9)
        assert fb.patch_area > 0.0
        assert np.allclose(fb.e_direct, f1.e_direct + f2.e_direct, rtol=1e-9)
        assert np.allclose(fb.e_diffuse, f1.e_diffuse + f2.e_diffuse, rtol=1e-9)
        assert np.array_equal(fb.e_global, fb.e_diffuse + fb.e_direct)


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


def minute_records(start, minutes, gh, dh):
    return [
        WeatherRecord(start + timedelta(minutes=m), gh, dh) for m in range(minutes)
    ]


class TestPeriod:
    PROBES = [(1.95, 3.27), (1.95, 2.77), (1.95, 2.27), (1.95, 1.77), (1.95, 1.27)]

    def test_constant_overcast_probes_constant(self, coarse_sim):
        start = datetime(2009, 7, 15, 10, 0)
        res = coarse_sim.run(minute_records(start, 120, 300.0, 300.0), probes=self.PROBES)
        assert res.probe_global.shape == (120, 5)
        for j in range(5):
            col = res.probe_global[:, j]
            assert col.max() == pytest.approx(col.min(), rel=1e-12)

    def test_hourly_averaging(self, coarse_sim):
        start = datetime(2009, 7, 15, 10, 0)
        res = coarse_sim.run(minute_records(start, 120, 300.0, 300.0), probes=self.PROBES[:1])
        hourly = res.hourly()
        assert len(hourly.timestamps) == 2
        assert hourly.probe_global[0, 0] == pytest.approx(res.probe_global[:60, 0].mean())

    def test_full_day_hourly_gives_24_rows(self, coarse_sim):
        start = datetime(2009, 7, 15, 0, 0)
        res = coarse_sim.run(
            minute_records(start, 1440, 300.0, 300.0), probes=self.PROBES[:2], hourly=True
        )
        assert len(res.timestamps) == 24
        assert res.probe_global.shape == (24, 2)

    def test_passthrough_efficacy_uses_measured_values(self):
        room = make_canonical_room()
        sim = Simulator(room, TROPICAL_SITE, cell=0.5,
                        efficacy=EfficacyModel(mode="passthrough"))
        rec = WeatherRecord(datetime(2009, 7, 15, 11, 0), 300.0, 300.0, 25000.0, 25000.0)
        fld = sim.step(rec)
        assert fld.outdoor.e_global == pytest.approx(25000.0)
        assert fld.outdoor.e_direct == 0.0
        assert np.allclose(fld.e_global, sim.df * 25000.0, rtol=1e-12)

    def test_missing_record_named(self, coarse_sim):
        start = datetime(2009, 7, 15, 10, 0)
        records = minute_records(start, 30, 300.0, 300.0)
        del records[10]
        with pytest.raises(DataError) as err:
            coarse_sim.run(records, start=start, end=start + timedelta(minutes=30))
        assert "10:10" in str(err.value)

    def test_field_snapshot(self, coarse_sim):
        start = datetime(2009, 7, 15, 10, 0)
        when = start + timedelta(minutes=5)
        res = coarse_sim.run(minute_records(start, 10, 300.0, 300.0), field_at=[when])
        assert set(res.fields) == {when}
        fld = res.fields[when]
        assert np.array_equal(fld.e_global, fld.e_diffuse + fld.e_direct)

    def test_probe_outside_room_rejected(self, coarse_sim):
        start = datetime(2009, 7, 15, 10, 0)
        with pytest.raises(ConfigError):
            coarse_sim.run(minute_records(start, 5, 300.0, 300.0), probes=[(50.0, 50.0)])

    def test_empty_period_rejected(self, coarse_sim):
        start = datetime(2009, 7, 15, 10, 0)
        with pytest.raises(DataError):
            coarse_sim.run(minute_records(start, 5, 300.0, 300.0), start=start, end=start)
