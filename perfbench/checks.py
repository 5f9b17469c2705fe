"""Output checks that any correct engine passes.

Each check returns a list of error strings; an empty list means the output
is accepted. The summary and report formats are the ones the CLI documents;
numbers there carry six significant digits, which sets the tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROUND = 5.01e-6   # relative half-unit of the sixth significant digit, with slack


@dataclass
class Summary:
    timestamps: np.ndarray
    e_global: np.ndarray
    e_diffuse: np.ndarray
    e_direct: np.ndarray
    patch: np.ndarray
    probes: np.ndarray      # (steps, probes)


@dataclass
class Expected:
    """What a simulate command must produce for its inputs."""

    timestamps: np.ndarray  # ISO strings, one per step
    night: np.ndarray       # sun well below the horizon: every output is zero
    overcast: np.ndarray    # Dh = Gh in the weather: no beam, no patch
    patch_bound: np.ndarray  # largest possible patch area per step (m^2)
    n_probes: int


def read_summary(path: Path) -> Summary:
    text = Path(path).read_text(encoding="utf-8")
    header, _, body = text.partition("\n")
    ncol = len(header.split(","))
    timestamps, _, rest = zip(*(line.partition(",") for line in body.rstrip("\n").split("\n")))
    values = np.fromstring(",".join(rest), sep=",")   # raises on a malformed number
    if ncol < 5 or values.size != len(timestamps) * (ncol - 1):
        raise ValueError(f"summary has {ncol} header columns and {values.size} numbers "
                         f"in {len(timestamps)} rows")
    values = values.reshape(-1, ncol - 1)
    return Summary(np.array(timestamps), values[:, 0], values[:, 1], values[:, 2], values[:, 3],
                   values[:, 4:])


def check_summary(s: Summary, exp: Expected) -> list[str]:
    errors = []
    if len(s.timestamps) != len(exp.timestamps):
        return [f"summary has {len(s.timestamps)} rows, expected {len(exp.timestamps)}"]
    if s.probes.shape[1] != exp.n_probes:
        return [f"summary has {s.probes.shape[1]} probe columns, expected {exp.n_probes}"]
    if not np.array_equal(s.timestamps, exp.timestamps):
        errors.append("summary timestamps differ from the weather steps")
    cols = np.column_stack((s.e_global, s.e_diffuse, s.e_direct, s.patch, s.probes))
    if not np.all(np.isfinite(cols)) or np.any(cols < 0.0):
        errors.append("summary holds negative or non-finite values")
    if np.any(cols[exp.night] != 0.0):
        errors.append(f"{int(np.any(cols[exp.night] != 0.0, axis=1).sum())} night rows are not zero")
    scale = s.e_global + s.e_diffuse + s.e_direct
    bad = np.abs(s.e_global - s.e_diffuse - s.e_direct) > ROUND * scale
    if bad.any():
        errors.append(f"{int(bad.sum())} rows break E_out_G = E_out_dif + E_out_Dir")
    over = exp.overcast
    if np.any(s.e_direct[over] != 0.0) or np.any(s.patch[over] != 0.0):
        errors.append("overcast rows carry a beam or a sun patch")
    lit = over & (s.e_global > 0.0)
    if not lit.any():
        errors.append("no overcast daylight step to read the probes' daylight factor from")
    else:
        ratio = s.probes[lit] / s.e_global[lit, None]
        df = np.median(ratio, axis=0)
        if np.any(np.abs(ratio - df) > 2.0 * ROUND * df + 1e-12):
            errors.append("overcast probe illuminance is not DF_probe * E_out_G")
    over_bound = s.patch > exp.patch_bound * (1.0 + ROUND) + 1e-9
    if over_bound.any():
        errors.append(f"{int(over_bound.sum())} rows have a sun patch larger than the "
                      "windows' projected area")
    return errors


def probe_daylight_factors(s: Summary, exp: Expected) -> np.ndarray:
    """Each probe's daylight factor, read from the overcast daylight steps."""
    lit = exp.overcast & (s.e_global > 0.0)
    return np.median(s.probes[lit] / s.e_global[lit, None], axis=0)


def printed_resolution(x: np.ndarray) -> np.ndarray:
    """One unit in the sixth significant digit of each value (0 for 0): the
    smallest difference the summary can show."""
    x = np.abs(np.asarray(x, dtype=float))
    exponent = np.floor(np.log10(np.where(x > 0.0, x, 1.0)))
    return np.where(x > 0.0, 10.0 ** (exponent - 5), 0.0)


def check_field(path: Path, instant: str) -> list[str]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    head = lines[0].split() if lines else []
    if len(head) != 4 or head[0] != "#" or head[3] != instant:
        return [f"{Path(path).name}: bad header {lines[:1]}"]
    nu, nv = int(head[1]), int(head[2])
    rows = [r.split() for r in lines[1:]]
    if len(rows) != nv or any(len(r) != nu for r in rows):
        return [f"{Path(path).name}: expected {nv} rows of {nu} values"]
    values = np.array(rows, dtype=float)
    if not np.all(np.isfinite(values)) or np.any(values < 0.0):
        return [f"{Path(path).name}: negative or non-finite values"]
    return []


def validation_indicators(sim: np.ndarray, ref: np.ndarray, mode: str, error: float) -> dict:
    """The report's indicators, recomputed with the definitions the CLI
    documents (RMSD and MBD normalized by the reference mean)."""
    mean = ref.mean()
    diff = sim - ref
    ratio = np.sum(diff**2) / np.sum((ref - mean) ** 2)
    nz = ref != 0.0
    eps = diff[nz] / np.abs(ref[nz])
    if mode == "margin":
        inside = (sim >= ref * (1.0 - error)) & (sim <= ref * (1.0 + error))
        rsd = inside.sum() / len(sim) * 100.0
    else:
        rsd = min(100.0, max(0.0, 100.0 - np.abs(eps).mean() * 100.0))
    return {
        "N": len(sim),
        "excluded_zero_reference": int((~nz).sum()),
        "RMSD": np.sqrt(np.mean(diff**2)) / mean,
        "MBD_pct": diff.sum() / (len(sim) * mean) * 100.0,
        "R2_printed": ratio,
        "R2_standard": 1.0 - ratio,
        "mean_relative_error_pct": eps.mean() * 100.0,
        "mean_abs_relative_error_pct": np.abs(eps).mean() * 100.0,
        "RSD_pct": rsd,
    }


def check_report(text: str, expected: dict, mode: str) -> list[str]:
    table = {}
    for line in text.splitlines():
        if not line:
            break
        key, _, value = line.partition("\t")
        table[key] = value
    errors = []
    if table.get("RSD_mode") != mode:
        errors.append(f"report mode {table.get('RSD_mode')!r}, expected {mode!r}")
    for key, want in expected.items():
        try:
            got = float(table[key])
        except (KeyError, ValueError):
            errors.append(f"report lacks a number for {key}")
            continue
        if abs(got - want) > 2.0 * ROUND * abs(want) + 1e-12:
            errors.append(f"report {key} = {got}, expected {want:.9g}")
    return errors
