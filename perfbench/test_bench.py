"""Fast self-test of the benchmark: every workload shape at a tiny n.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402

TINY_N = 2**9
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(name: str) -> run.Workload:
    return dataclasses.replace(run.WORKLOADS[name], n=TINY_N)


def layer_self_ms(spans: list[dict]) -> dict[int, tuple[float, dict[str, float]]]:
    """Per call: (wall ms of the call's root span, self ms per layer)."""
    child_ms = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_ms[s["parent"]] += (s["end"] - s["start"]) * 1000
    calls: dict[int, tuple[float, dict[str, float]]] = {}
    for i, s in enumerate(spans):
        ms = (s["end"] - s["start"]) * 1000
        if s["parent"] is None:
            calls[s["call"]] = (ms, defaultdict(float))
        calls[s["call"]][1][s["layer"]] += ms - child_ms[i]
    return calls


def test_benchmark_json_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_every_metric_prints_with_unit_and_checks_pass(name, tmp_path):
    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        report = run.run(tiny(name), seed=3, seconds=0.2, trace=bool(trace), out_dir=tmp_path)
        assert report["correct"], report["tally"]["problems"]
        got = report["metrics"]
        assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in got.items()}
        assert all(v["value"] is not None for v in got.values())
        if trace == 0:
            assert got["correct_frac"]["value"] == 1.0
            assert got["completed_frac"]["value"] == 1.0
            assert all(got[f"{e}_ms"]["value"] > 0 for e in run.ENGINES)
        else:
            for wall, layers in layer_self_ms(report["spans"]).values():
                assert all(v >= -1e-6 for v in layers.values())
                assert sum(layers.values()) <= wall + 1e-6


def test_counts_repeat_and_fingerprints_gate_comparison(tmp_path):
    w = tiny("n14-k64")
    first, second = tmp_path / "a", tmp_path / "b"
    run.run(w, seed=5, seconds=0.2, trace=True, out_dir=first)
    run.run(w, seed=5, seconds=0.2, trace=True, out_dir=second)
    assert compare.main([str(first), str(second)]) == 0

    path = next(second.glob("*.json"))
    report = json.loads(path.read_text())
    report["fingerprint"]["a"] = "0" * 64
    path.write_text(json.dumps(report))
    assert compare.main([str(first), str(second)]) == 2


def test_removed_name_marks_its_metrics_absent(tmp_path, monkeypatch):
    # At tiny n every sketch takes the dense route, so sketch.py never calls
    # the transforms it imports and the library still runs without them.
    lib = run.import_library()
    monkeypatch.delattr(lib.sketch, "fft_forward")
    monkeypatch.delattr(lib.sketch, "fft_inverse_real")
    report = run.run(tiny("n14-k64"), seed=3, seconds=0.2, trace=True, out_dir=tmp_path, setup_reps=1)
    assert report["correct"]
    got = report["metrics"]
    for engine in run.ENGINES:
        assert got[f"fft.transforms.{engine}"]["value"] is None
        assert got[f"fft.self_ms.{engine}"]["value"] is None
        assert got[f"fft.work_units.{engine}"]["value"] > 0
    assert got["sketch.builds.approx"]["value"] > 0
    assert "sparseconv.sketch:fft_forward" in report["missing_sites"]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "n14-k64", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
