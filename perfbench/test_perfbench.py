"""The benchmark's own tests: ``python -m pytest perfbench/``.

The smoke run uses a tiny protocol, two workloads and a one-second timed
phase; it checks that every metric ``BENCHMARK.json`` names is emitted
with its unit, untraced and traced, and that the result line is
well-formed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from common import END_TO_END, PER_LAYER, tail  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _smoke(trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "1",
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=str(ROOT),
    )
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return lines, json.loads(lines[-1])


def test_catalog_matches_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("trace, catalog", [(0, END_TO_END), (1, PER_LAYER)])
def test_smoke_emits_every_metric_with_its_unit(trace, catalog):
    lines, final = _smoke(trace)
    assert final["correct"] is True
    assert final["failed"] == 0 and final["attempted"] >= 1
    per_workload = [json.loads(line) for line in lines if line.startswith('{"workload"')]
    assert [r["workload"] for r in per_workload] == ["suite-serial", "serve-warm"]
    for report in per_workload:
        assert set(report) == {"workload", "correct", "attempted", "failed", "metrics"}
        assert {name: m["unit"] for name, m in report["metrics"].items()} == catalog
        for name, metric in report["metrics"].items():
            assert isinstance(metric["value"], (int, float)), name
        if trace == 0:
            assert all(m["value"] > 0 for m in report["metrics"].values())
    text = "\n".join(lines)
    for name in catalog:
        assert name in text
    assert "error_rate" in text and "usable_cpus" in text


def test_missing_sources_exit_nonzero(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.iterdir():
        if path.is_file():
            (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite-serial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=str(tmp_path),
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail([1.0, 2.0, 3.0]) == (100.0, 3.0)
    values = [float(i) for i in range(1, 1001)]
    assert tail(values) == (99.0, 990.0)
    pct, _ = tail(values[:100])
    assert pct == 90.0
