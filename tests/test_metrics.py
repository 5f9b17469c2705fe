from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import loop_metrics
from sidelux.errors import MetricError
from sidelux.daylight import PeriodResult
from sidelux.metrics import (
    SeriesPair,
    evaluate_pair,
    mbd,
    r2,
    relative_errors,
    resample_hourly,
    rmsd,
    rsd,
)


def pair(sim, ref):
    return SeriesPair(np.asarray(sim, dtype=float), np.asarray(ref, dtype=float))


class TestRmsd:
    def test_identical_zero(self):
        assert rmsd(pair([100, 200], [100, 200])) == 0.0

    def test_hand_case(self):
        assert rmsd(pair([100, 200], [110, 190])) == pytest.approx(10.0 / 150.0, abs=1e-12)

    def test_constant_offset(self):
        ref = np.array([100.0, 150.0, 250.0])
        assert rmsd(pair(ref + 7.0, ref)) == pytest.approx(7.0 / ref.mean(), rel=1e-12)

    def test_zero_mean_undefined(self):
        with pytest.raises(MetricError):
            rmsd(pair([1.0, -1.0], [1.0, -1.0]))

    def test_negative_reference_normalizes_by_its_magnitude(self):
        # sqrt((1 + 0.25) / 2) over |-5.5|, not over -5.5
        assert rmsd(pair([-4.0, -6.5], [-5.0, -6.0])) == pytest.approx(0.14374, abs=1e-5)


class TestMbd:
    def test_identical(self):
        assert mbd(pair([5, 6], [5, 6])) == 0.0

    def test_uniform_overestimate(self):
        ref = np.array([100.0, 200.0, 300.0])
        assert mbd(pair(ref * 1.1, ref)) == pytest.approx(10.0, rel=1e-12)

    def test_symmetric_cancellation(self):
        assert mbd(pair([110.0, 90.0], [100.0, 100.0])) == 0.0

    def test_negative_reference_keeps_the_sign_of_the_bias(self):
        # sims above a negative reference overestimate: 0.5 / (2 * |-5.5|)
        assert mbd(pair([-4.0, -6.5], [-5.0, -6.0])) == pytest.approx(4.54545, abs=1e-5)

    def test_zero_mean_undefined(self):
        with pytest.raises(MetricError):
            mbd(pair([1.0, -1.0], [1.0, -1.0]))


class TestR2:
    def test_identical(self):
        printed, standard = r2(pair([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]))
        assert printed == 0.0 and standard == 1.0

    def test_model_equals_mean(self):
        ref = [100.0, 200.0]
        printed, standard = r2(pair([150.0, 150.0], ref))
        assert printed == pytest.approx(1.0, rel=1e-12)
        assert standard == pytest.approx(0.0, abs=1e-12)

    def test_constant_reference_undefined(self):
        with pytest.raises(MetricError):
            r2(pair([1.0, 2.0], [5.0, 5.0]))


class TestRelativeErrors:
    def test_single_point(self):
        err = relative_errors(pair([110.0], [100.0]))
        assert err.values[0] == pytest.approx(0.10, abs=1e-15)
        assert err.mean == pytest.approx(0.10, abs=1e-15)

    def test_identical_zero(self):
        err = relative_errors(pair([1.0, 2.0], [1.0, 2.0]))
        assert err.mean == 0.0 and err.mean_abs == 0.0

    def test_sign_cancellation_vs_magnitude(self):
        err = relative_errors(pair([90.0, 110.0], [100.0, 100.0]))
        assert err.mean == pytest.approx(0.0, abs=1e-15)
        assert err.mean_abs == pytest.approx(0.10, abs=1e-15)

    def test_zero_references_excluded_and_counted(self):
        err = relative_errors(pair([50.0, 110.0], [0.0, 100.0]))
        assert err.n_excluded == 1
        assert err.mean == pytest.approx(0.10, abs=1e-15)

    def test_all_zero_references_undefined(self):
        with pytest.raises(MetricError):
            relative_errors(pair([1.0, 1.0], [0.0, 0.0]))


class TestRsd:
    def test_margin_counting(self):
        p = pair([105.0, 95.0, 100.0, 130.0], [100.0] * 4)
        assert rsd(p, 0.1) == 75.0

    def test_margin_all_inside(self):
        p = pair([100.0, 200.0], [100.0, 200.0])
        assert rsd(p, 0.15) == 100.0

    def test_margin_band_about_a_negative_reference(self):
        # the band is e*|ref| either side, as the error reading divides by |ref|
        p = pair([-5.0, -5.75, -4.25, -5.8, -4.2, 5.0], [-5.0] * 6)
        assert rsd(p, 0.15) == 50.0

    def test_error_mode_definition(self):
        # mean absolute relative error of 32.7% leaves 67.3% reliability
        sims = [100.0 * (1.0 + s * 0.327) for s in (1, -1, 1, -1)]
        p = pair(sims, [100.0] * 4)
        assert rsd(p) == pytest.approx(67.3, abs=1e-12)

    def test_error_mode_clamped(self):
        p = pair([500.0], [100.0])  # 400% error
        assert rsd(p) == 0.0

    @pytest.mark.parametrize("e", [1.5, -0.1, float("nan")])
    def test_error_fraction_out_of_range(self, e):
        with pytest.raises(ValueError, match=rf"error fraction {e} out of \[0, 1\]"):
            rsd(pair([1.0], [1.0]), e)
        with pytest.raises(ValueError, match="error fraction"):
            evaluate_pair(pair([1.0, 2.0], [1.0, 2.0]), e)


class TestBuildMargins:
    """The band that ``rsd`` builds about each reference from an error
    fraction e: ref*(1 - e) to ref*(1 + e), ends included."""

    def test_fifteen_percent(self):
        p = pair([850.0, 1150.0, 849.99, 1150.01], [1000.0] * 4)
        assert rsd(p, 0.15) == 50.0

    def test_zero_error_collapses(self):
        p = pair([123.0, np.nextafter(123.0, 0.0), np.nextafter(123.0, 200.0)], [123.0] * 3)
        assert rsd(p, 0.0) == pytest.approx(100.0 / 3.0, abs=1e-12)

    def test_zero_reference(self):
        # a zero reference is inside only at 0, whatever the fraction
        p = pair([0.0, 5e-324, -5e-324, 1.0], [0.0] * 4)
        assert rsd(p, 0.15) == 25.0
        assert rsd(p, 1.0) == 25.0


@pytest.mark.parametrize("sim,ref,message", [
    ([[1.0, 2.0]], [1.0, 2.0], "series must be one-dimensional"),
    ([1.0, 2.0], 3.0, "series must be one-dimensional"),
    ([1.0, 2.0], [1.0], "series must have equal, non-zero length"),
    ([], [], "series must have equal, non-zero length"),
], ids=["two-dimensional", "scalar", "unequal", "empty"])
def test_series_pair_shape_errors(sim, ref, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        SeriesPair(sim, ref)


class TestResampleHourly:
    def test_constant_hour(self):
        t0 = datetime(2009, 3, 21, 10, 0)
        ts = [t0 + timedelta(minutes=m) for m in range(60)]
        hours, means = resample_hourly(ts, [42.0] * 60)
        assert hours.tolist() == [t0] and means[0] == 42.0

    def test_linear_ramp(self):
        t0 = datetime(2009, 3, 21, 10, 0)
        ts = [t0 + timedelta(minutes=m) for m in range(60)]
        _, means = resample_hourly(ts, list(range(60)))
        assert means[0] == pytest.approx(29.5, abs=1e-12)

    def test_two_hours(self):
        t0 = datetime(2009, 3, 21, 10, 0)
        ts = [t0 + timedelta(minutes=m) for m in range(120)]
        hours, means = resample_hourly(ts, [1.0] * 60 + [3.0] * 60)
        assert len(hours) == 2
        assert list(means) == [1.0, 3.0]


def test_hourly_means_match_a_per_hour_mean_loop_bit_for_bit():
    """Unsorted, irregular samples over several columns: ``resample_hourly``
    and ``PeriodResult.hourly`` give, for every hour, ``np.mean`` of that
    hour's samples in their given order, to the bit."""
    rng = np.random.default_rng(17)
    n = 5000
    start = np.datetime64("2009-07-01T00:00:00", "us")
    times = start + rng.integers(0, 40 * 3_600_000_000, n).astype("timedelta64[us]")
    values = rng.lognormal(6.0, 2.0, (n, 7)) * (rng.random((n, 7)) < 0.7)
    groups: dict = {}
    for i, ts in enumerate(times.tolist()):
        groups.setdefault(ts.replace(minute=0, second=0, microsecond=0), []).append(i)
    hours = sorted(groups)
    expected = np.array([[np.mean([float(v) for v in values[groups[h], j]]) for j in range(7)]
                         for h in hours])
    assert len(hours) == 40 and not np.all(np.diff(times) > np.timedelta64(0))

    got_hours, means = resample_hourly(times, values[:, 0])
    assert got_hours.dtype == np.dtype("datetime64[us]") and got_hours.tolist() == hours
    assert means.tobytes() == expected[:, 0].tobytes()
    got_hours, *columns = resample_hourly(times, *values.T)  # one grouping, seven columns
    assert got_hours.tolist() == hours
    assert np.column_stack(columns).tobytes() == expected.tobytes()

    result = PeriodResult(
        timestamps=times, outdoor_global=values[:, 0], outdoor_diffuse=values[:, 1],
        outdoor_direct=values[:, 2], patch_area=values[:, 3], probe_global=values[:, 4:],
    ).hourly()
    assert result.timestamps.tolist() == hours
    got = np.column_stack((result.outdoor_global, result.outdoor_diffuse, result.outdoor_direct,
                           result.patch_area, result.probe_global))
    assert got.tobytes() == expected.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 300), min_size=1, max_size=8), st.integers(0, 2**32 - 1))
def test_hourly_means_of_ragged_unsorted_hours_are_np_mean_bit_for_bit(lengths, seed):
    """Hours of 1 to 300 samples, some past numpy's 128-sample pairwise
    block and some of equal length, with the samples shuffled: each hour's
    mean is ``np.mean`` of that hour's list in its given order, to the bit."""
    rng = np.random.default_rng(seed)
    hours = rng.choice(10_000, len(lengths), replace=False)
    hour_of = np.repeat(hours, lengths)
    offsets = hour_of * 3_600_000_000 + rng.integers(0, 3_600_000_000, len(hour_of))
    start = np.datetime64("2009-01-01T00:00:00", "us")
    times = start + offsets.astype("timedelta64[us]")
    values = rng.lognormal(6.0, 2.0, len(times)) * (rng.random(len(times)) < 0.8)
    shuffle = rng.permutation(len(times))
    times, values, hour_of = times[shuffle], values[shuffle], hour_of[shuffle]
    got_hours, means = resample_hourly(times, values)
    hours.sort()
    assert np.array_equal(got_hours, start + (hours * 3_600_000_000).astype("timedelta64[us]"))
    expected = np.array([np.mean([float(v) for v in values[hour_of == h]]) for h in hours])
    assert means.tobytes() == expected.tobytes()


def test_resample_hourly_of_nothing_is_empty():
    hours, means = resample_hourly(np.array([], dtype="datetime64[us]"), [])
    assert len(hours) == 0 and len(means) == 0


class TestAgainstLoopOracle:
    def test_random_ten_point_pair(self):
        rng = np.random.default_rng(7)
        ref = rng.uniform(50.0, 500.0, 10)
        sim = ref * rng.uniform(0.7, 1.3, 10)
        expected = loop_metrics(list(sim), list(ref))
        p = pair(sim, ref)
        assert rmsd(p) == pytest.approx(expected["rmsd"], abs=1e-12)
        assert mbd(p) == pytest.approx(expected["mbd_pct"], abs=1e-12)
        printed, standard = r2(p)
        assert printed == pytest.approx(expected["r2_printed"], abs=1e-12)
        assert standard == pytest.approx(expected["r2_standard"], abs=1e-12)
        err = relative_errors(p)
        assert err.mean == pytest.approx(expected["eps_mean"], abs=1e-12)
        assert err.mean_abs == pytest.approx(expected["eps_mean_abs"], abs=1e-12)


class TestReport:
    def test_table_contains_threshold_annotation(self):
        p = pair([100.0, 210.0], [100.0, 200.0])
        report = evaluate_pair(p)
        table = report.to_table(name="demo")
        assert "RSD_pct" in table and "demo" in table
        assert "acceptable" in table

    def test_report_fields(self):
        p = pair([100.0, 200.0], [100.0, 200.0])
        report = evaluate_pair(p)
        assert report.rmsd == 0.0
        assert report.rsd_pct == 100.0
        assert report.r2_printed + report.r2_standard == 1.0


# ---------------------------------------------------------------------------
# property tests

series = st.lists(st.floats(1.0, 1000.0), min_size=2, max_size=30)


@settings(max_examples=60, deadline=None)
@given(series, st.floats(0.01, 100.0))
def test_scale_invariance(ref, scale):
    ref = np.array(ref)
    if np.allclose(ref, ref[0]):
        return  # constant reference is the documented undefined case
    sim = ref * 1.1
    a = evaluate_pair(pair(sim, ref))
    b = evaluate_pair(pair(sim * scale, ref * scale))
    assert a.rmsd == pytest.approx(b.rmsd, rel=1e-9)
    assert a.mbd_pct == pytest.approx(b.mbd_pct, rel=1e-9)
    assert a.r2_printed == pytest.approx(b.r2_printed, rel=1e-9)
    assert a.eps_mean_abs_pct == pytest.approx(b.eps_mean_abs_pct, rel=1e-9)
    assert a.rsd_pct == pytest.approx(b.rsd_pct, rel=1e-9)


signed_refs = st.lists(st.one_of(st.just(0.0), st.floats(-1000.0, 1000.0, allow_subnormal=False)),
                       min_size=2, max_size=30)


@settings(max_examples=60, deadline=None)
@given(signed_refs, st.randoms(use_true_random=False))
def test_margin_rsd_reorder_invariant(ref, rnd):
    ref = np.array(ref)
    far = np.arange(len(ref)) % 3 == 0
    sim = ref * np.where(far, 1.2, 1.05)
    # a 5% miss is inside a 10% band and a 20% one outside, whatever the
    # sign; a zero reference is matched by its zero sim
    base = rsd(pair(sim, ref), 0.1)
    assert base == (~far | (ref == 0.0)).sum() / len(ref) * 100.0
    order = list(range(len(ref)))
    rnd.shuffle(order)
    assert rsd(pair(sim[order], ref[order]), 0.1) == base


@settings(max_examples=60, deadline=None)
@given(series)
def test_error_rsd_plus_mean_abs_is_100(ref):
    ref = np.array(ref)
    sim = ref * 1.2
    err = relative_errors(pair(sim, ref))
    if err.mean_abs * 100.0 <= 100.0:
        assert rsd(pair(sim, ref)) + err.mean_abs * 100.0 == pytest.approx(100.0, abs=1e-9)
