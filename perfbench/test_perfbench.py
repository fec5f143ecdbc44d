"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench_trace
import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def smoke(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def test_spec_names_match_the_runner():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics + SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS
    baseline = json.loads((ROOT / "perfbench" / "baseline.json").read_text())
    for row in baseline["metric_map"]:
        assert set(row["per_layer"]) <= set(run.PER_LAYER_UNITS)
        assert set(row["moves"]) <= {m["name"] for m in SPEC["end_to_end"]}
        assert set(row["on"]) <= set(WORKLOADS)


# Spans that a workload must record; flag_transform, flaglet_transform and
# io_container names are bound by ``from .x import f`` inside the library.
SEEN_SPANS = {
    "ball_roundtrip": ["flag_transform.flag_forward", "sphere_harmonics.sht_inverse"],
    "flaglet_denoise": ["flaglet_transform.flaglet_analyze", "io_container.write_container",
                        "io_container.read_container", "quadrature.gauss_legendre"],
    "sphere_highL": ["sphere_wavelets.sphere_analyze", "sphere_harmonics.sht_forward"],
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_named_metric(workload, trace):
    proc = smoke(workload, trace)
    assert proc.returncode == 0, proc.stderr
    meta_line, result_line = proc.stdout.strip().splitlines()[-2:]
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])
    meta = json.loads(meta_line)["run"]
    assert meta["seed"] == 3 and meta["ops_failed_frac"] == 0.0
    for key in ("sizes", "numpy", "scipy", "blas", "OPENBLAS_NUM_THREADS", "nproc"):
        assert meta[key] is not None
    if trace:
        for span in SEEN_SPANS[workload]:
            assert result["metrics"][f"{span}.calls"]["value"] > 0


def wrong_forward(real):
    def forward(grid, plan=None):
        out = real(grid, plan)
        out.coeffs[0, 0] += 1e-6
        return out
    return forward


def raising_inverse(coeffs, plan=None):
    raise FloatingPointError("injected")


@pytest.mark.parametrize("fault", ["wrong", "raises"])
def test_injected_fault_counts_as_failed_op(fault, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(run.SRC))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    import flaglets

    if fault == "wrong":
        monkeypatch.setattr(flaglets, "flag_forward", wrong_forward(flaglets.flag_forward))
    else:
        monkeypatch.setattr(flaglets, "flag_inverse", raising_inverse)
    assert run.main(["--workload", "ball_roundtrip", "--seed", "5", "--seconds", "0.1",
                     "--trace", "0", "--smoke"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    # the set-up probes run in clean child processes; every op in this one fails
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] - (run.SETUP_SAMPLES - 1)


def test_self_time_excludes_child_spans():
    tracer = bench_trace.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()  # no phase open: nothing recorded
    tracer.phase = "cold"
    outer()
    tracer.phase = None
    totals = tracer.totals(lambda phase: phase == "cold")
    assert totals["outer"][0] == 1 and totals["inner"][0] == 3
    outer_span = next(s for s in tracer.spans if s[1] == "outer")
    wall = outer_span[3] - outer_span[2]
    assert totals["outer"][1] + totals["inner"][1] == pytest.approx(wall, rel=1e-9)
    assert 0 <= totals["outer"][1] < wall


def test_span_never_recorded_reports_zero():
    # a layer callable removed from the library leaves its metrics at zero
    warm = [run.Outcome(1.0, 0.0, None), run.Outcome(1.0, 0.0, None)]
    values = run.traced_metrics(bench_trace.Tracer(), warm)
    assert set(values) == set(run.PER_LAYER_UNITS)
    for name in run.SPANS:
        assert values[f"{name}.calls"] == 0 and values[f"{name}.cold_s"] == 0


def test_each_op_is_timed_against_the_reference_batches_around_it():
    warm = [run.Outcome(2.0, 0.0, None), run.Outcome(6.0, 0.0, None)]
    assert run.relative_times(warm, [1.0, 3.0, 1.0]) == [1.0, 3.0]


def test_without_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = smoke(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
