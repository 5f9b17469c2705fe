"""Validation statistics for simulated-vs-reference illuminance series.

Conventions: the normalized root-mean-square deviation and the mean bias
deviation are normalized by the magnitude of the mean of the reference
series; relative errors are fractions of the magnitude of the reference
value at each point; the reliability percentage (``rsd``) is 100 minus the
mean absolute relative error in percent or, given an error fraction e as
``margin``, the share of simulated values within e*|ref| of their reference
value, whatever its sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MetricError


@dataclass(eq=False)
class SeriesPair:
    """Aligned simulated and reference series."""

    sim: np.ndarray
    ref: np.ndarray

    def __post_init__(self):
        self.sim = np.asarray(self.sim, dtype=float)
        self.ref = np.asarray(self.ref, dtype=float)
        if self.sim.ndim != 1 or self.ref.ndim != 1:
            raise ValueError("series must be one-dimensional")
        if len(self.sim) != len(self.ref) or len(self.sim) < 1:
            raise ValueError("series must have equal, non-zero length")

    @property
    def n(self) -> int:
        return len(self.sim)

    @property
    def ref_mean(self) -> float:
        return float(self.ref.mean())


def rmsd(pair: SeriesPair) -> float:
    """Root-mean-square deviation normalized by the magnitude of the
    reference mean, so it is never negative."""
    mean = abs(pair.ref_mean)
    if mean == 0.0:
        raise MetricError("reference mean is zero: normalized RMSD undefined")
    return float(math.sqrt(np.mean((pair.sim - pair.ref) ** 2)) / mean)


def mbd(pair: SeriesPair) -> float:
    """Mean bias deviation in percent of the magnitude of the reference
    mean (positive = overestimation, whatever the sign of the reference)."""
    mean = abs(pair.ref_mean)
    if mean == 0.0:
        raise MetricError("reference mean is zero: MBD undefined")
    return float(np.sum(pair.sim - pair.ref) / (pair.n * mean) * 100.0)


def r2(pair: SeriesPair) -> tuple[float, float]:
    """Squared-deviation ratio and the conventional coefficient of
    determination (their sum is exactly 1)."""
    denom = float(np.sum((pair.ref - pair.ref_mean) ** 2))
    if denom == 0.0:
        raise MetricError("reference series is constant: R^2 undefined")
    ratio = float(np.sum((pair.sim - pair.ref) ** 2) / denom)
    return ratio, 1.0 - ratio


@dataclass(frozen=True, eq=False)
class RelativeErrors:
    """Per-point relative errors (fractions); points with a zero reference
    are excluded and counted."""

    values: np.ndarray
    mean: float
    mean_abs: float
    n_excluded: int


def relative_errors(pair: SeriesPair) -> RelativeErrors:
    """Relative error (sim - ref) / |ref| at each point with a non-zero
    reference, plus the signed and absolute means."""
    nonzero = pair.ref != 0.0
    if not nonzero.any():
        raise MetricError("all reference values are zero: relative errors undefined")
    eps = (pair.sim[nonzero] - pair.ref[nonzero]) / np.abs(pair.ref[nonzero])
    return RelativeErrors(
        values=eps,
        mean=float(eps.mean()),
        mean_abs=float(np.abs(eps).mean()),
        n_excluded=int(pair.n - nonzero.sum()),
    )


def rsd(pair: SeriesPair, margin: float | None = None) -> float:
    """Reliability percentage.

    Without a margin: 100 - mean absolute relative error in percent, clamped
    to [0, 100]. With an error fraction e in [0, 1]: 100 * (count of
    simulated values between ref*(1 - e) and ref*(1 + e), ends included) / N.
    """
    if margin is None:
        err = relative_errors(pair)
        return float(min(100.0, max(0.0, 100.0 - err.mean_abs * 100.0)))
    if not 0.0 <= margin <= 1.0:
        raise ValueError(f"error fraction {margin} out of [0, 1]")
    a, b = pair.ref * (1.0 - margin), pair.ref * (1.0 + margin)
    inside = (pair.sim >= np.minimum(a, b)) & (pair.sim <= np.maximum(a, b))
    return float(inside.sum() / pair.n * 100.0)


def resample_hourly(timestamps, *columns) -> tuple[np.ndarray, ...]:
    """Arithmetic mean per clock hour; hours without samples are omitted.

    Returns the hour starts (``datetime64[us]``, chronological) and one mean
    column per value column aligned with ``timestamps``. The samples are
    grouped by hour once for every column, and each mean is a 1-D mean of
    the hour's samples in their given order, the same value to the bit as
    ``np.mean`` of that hour's list. The hours of one length are averaged
    together, as the rows of one 2-D gather.
    """
    hours = np.asarray(timestamps, dtype="datetime64[us]").astype("datetime64[h]")
    order = np.argsort(hours, kind="stable")
    hours = hours[order]
    first = np.ones(len(hours), dtype=bool)
    first[1:] = hours[1:] != hours[:-1]
    starts = np.flatnonzero(first)
    lengths = np.diff(starts, append=len(hours))
    columns = [np.asarray(values, dtype=float) for values in columns]
    means = [np.empty(len(starts)) for _ in columns]
    # per hour length: which hours have it, and the sorted samples of each
    # (bincount, not np.unique, which loads numpy.ma on its first call)
    for length in np.flatnonzero(np.bincount(lengths)):
        which = np.flatnonzero(lengths == length)
        samples = order[starts[which, None] + np.arange(length)]
        for values, mean in zip(columns, means):
            mean[which] = values[samples].mean(axis=1)
    return (hours[starts].astype("datetime64[us]"), *means)


@dataclass(eq=False)
class ValidationReport:
    """All indicators for one simulated-vs-reference comparison."""

    n: int
    rmsd: float
    mbd_pct: float
    r2_printed: float
    r2_standard: float
    eps_mean_pct: float
    eps_mean_abs_pct: float
    n_excluded: int
    rsd_pct: float
    rsd_mode: str

    def to_table(self, name: str = "series") -> str:
        """Tab-delimited report, ending with a one-row summary table of
        test name, relative error and reliability."""
        ok = self.rsd_pct >= 50.0
        observation = (
            "RSD >= 50%: acceptable" if ok else "RSD < 50%: below acceptability threshold"
        )
        lines = [
            "metric\tvalue",
            f"N\t{self.n}",
            f"excluded_zero_reference\t{self.n_excluded}",
            f"RMSD\t{self.rmsd:.6g}",
            f"MBD_pct\t{self.mbd_pct:.6g}",
            f"R2_printed\t{self.r2_printed:.6g}",
            f"R2_standard\t{self.r2_standard:.6g}",
            f"mean_relative_error_pct\t{self.eps_mean_pct:.6g}",
            f"mean_abs_relative_error_pct\t{self.eps_mean_abs_pct:.6g}",
            f"RSD_pct\t{self.rsd_pct:.6g}",
            f"RSD_mode\t{self.rsd_mode}",
            "",
            "test\trelative_error_pct\tRSD_pct\tobservation",
            f"{name}\t{self.eps_mean_abs_pct:.2f}\t{self.rsd_pct:.2f}\t{observation}",
        ]
        return "\n".join(lines) + "\n"


def evaluate_pair(pair: SeriesPair, margin: float | None = None) -> ValidationReport:
    """Compute every indicator for a series pair; ``margin`` picks the
    reliability reading as in :func:`rsd`.

    A constant reference leaves R^2 undefined; the report records it as NaN
    rather than failing, since the other indicators are still meaningful.
    """
    err = relative_errors(pair)
    try:
        printed, standard = r2(pair)
    except MetricError:
        printed = standard = float("nan")
    return ValidationReport(
        n=pair.n,
        rmsd=rmsd(pair),
        mbd_pct=mbd(pair),
        r2_printed=printed,
        r2_standard=standard,
        eps_mean_pct=err.mean * 100.0,
        eps_mean_abs_pct=err.mean_abs * 100.0,
        n_excluded=err.n_excluded,
        rsd_pct=rsd(pair, margin),
        rsd_mode="error" if margin is None else "margin",
    )
