"""The layout of the ``BENCH_*.json`` before/after files at the repo root.

Each file records one change's benchmark: what changed, the command that
measured it, the host, and per workload and end-to-end metric the medians
and quartiles of the parent's and the change's runs over alternating pairs.
"""

import json
import math
from pathlib import Path

import pytest

BENCH_FILES = sorted((Path(__file__).resolve().parents[1]).glob("BENCH_*.json"))


def test_there_are_bench_files():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_layout(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    for key in ("change", "command"):
        assert isinstance(bench[key], str) and bench[key], key
    assert isinstance(bench["host"], dict) and bench["host"]
    assert isinstance(bench["workloads"], dict) and bench["workloads"]
    for workload, metrics in bench["workloads"].items():
        assert isinstance(metrics, dict) and metrics, workload
        for name, metric in metrics.items():
            where = f"{workload}.{name}"
            assert isinstance(metric["unit"], str), where
            assert metric["better"] in ("lower", "higher"), where
            for side in ("parent", "change"):
                stats = metric[side]
                q1, median, q3 = (stats[k] for k in ("q1", "median", "q3"))
                assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in (q1, median, q3)), where
                assert q1 <= median <= q3, f"{where}.{side}"
            pairs = metric["pairs"]
            assert isinstance(pairs, int) and pairs > 0, where
            assert 0 <= metric["change_wins"] <= pairs, where
