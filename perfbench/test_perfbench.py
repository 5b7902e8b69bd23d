"""Tests of the benchmark itself: run with ``python -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import machine  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import FFT_ENTRY_POINTS, LAYERS, Tracer, package_modules  # noqa: E402

from torusharmonics.grid import GridFunction  # noqa: E402


def bindings_snapshot() -> dict[tuple[str, str], int]:
    """Identity of every binding a tracer may patch, to check restoration."""
    snap = {}
    for name, module in package_modules().items():
        for attr, obj in vars(module).items():
            snap[(name, attr)] = id(obj)
    grid_function = package_modules()["torusharmonics.grid"].GridFunction
    snap[("GridFunction", "__init__")] = id(vars(grid_function)["__init__"])
    for attr in FFT_ENTRY_POINTS:
        snap[("numpy.fft", attr)] = id(getattr(np.fft, attr))
    return snap


def traced_pass(name: str, seed: int) -> dict:
    wl = workloads.IN_PROCESS[name]
    state = wl.setup(seed)
    with Tracer() as tracer:
        wl.run(state)
    return tracer.layer_stats()


def fingerprint(obj) -> list[bytes]:
    """Every array reachable from a workload state, in a fixed order."""
    if isinstance(obj, GridFunction):
        return [obj.values.tobytes()]
    if isinstance(obj, np.ndarray):
        return [obj.tobytes()]
    if isinstance(obj, dict):
        return [b for key in sorted(obj) for b in fingerprint(obj[key])]
    if isinstance(obj, (list, tuple)):
        return [b for item in obj for b in fingerprint(item)]
    if hasattr(obj, "values") and isinstance(obj.values, np.ndarray):
        return [obj.values.tobytes()]
    if isinstance(obj, (int, float)):
        return [repr(obj).encode()]
    return []


def test_fft_work_repeats_exactly_across_traced_runs():
    first = traced_pass("dyadic2d", 5)
    second = traced_pass("dyadic2d", 5)
    assert first["fft.calls"] > 0
    assert (first["fft.calls"], first["fft.points"]) == (second["fft.calls"], second["fft.points"])


def test_maximal_passes_make_no_fft_calls():
    stats = traced_pass("maximal", 5)
    assert stats["fft.calls"] == 0
    assert stats["maximal.self_s"] > 0


def test_tracer_restores_every_binding():
    before = bindings_snapshot()
    with pytest.raises(ZeroDivisionError):
        with Tracer() as tracer:
            assert bindings_snapshot() != before
            import torusharmonics as th

            th.lp_norm(th.GridFunction((4,), np.ones(16)), 1.0)
            1 / 0
    assert bindings_snapshot() == before
    stats = tracer.layer_stats()
    assert stats["grid.GridFunction.calls"] == 1
    assert stats["grid.norm.calls"] == 1
    assert stats["grid.calls"] == 3  # the constructor, lp_norm and norm


def test_self_time_excludes_child_spans():
    import torusharmonics as th

    f = th.generate_corpus(3, 8).functions()[0]
    with Tracer() as tracer:
        th.llogl_maximal_experiment(th.Corpus(3, 8, [], [("f", f)]))
    stats = tracer.layer_stats()
    total = sum(stats[f"{layer}.self_s"] for layer in ("fft",) + LAYERS)
    spans = tracer.span_arrays()
    root = spans["parent"] < 0
    assert total == pytest.approx(float((spans["end"] - spans["start"])[root].sum()))
    assert stats["maximal.hl.calls"] == 1


@pytest.mark.parametrize("name", sorted(workloads.IN_PROCESS))
def test_inputs_depend_only_on_the_seed(name):
    setup = workloads.IN_PROCESS[name].setup
    assert fingerprint(setup(7)) == fingerprint(setup(7))
    assert fingerprint(setup(7)) != fingerprint(setup(8))


def test_calibration_scales_each_stretch_by_the_kernel_rate():
    nominal = machine.CALIBRATION_NOMINAL_S
    # kernel samples of 1x, 1x, 1x, 2x, 2x, 2x the nominal time, 1 s apart
    marks, t = [], 0.0
    for factor in (1, 1, 1, 2, 2, 2):
        marks.append((t, t + factor * nominal))
        t += factor * nominal + 1.0
    out = machine.calibrated_seconds(marks)
    assert out["raw_s"] == pytest.approx(5.0)
    # running medians are 1, 1, 1, 2, 2, 2: the middle stretch is at rate 1.5
    assert out["calibrated_s"] == pytest.approx(2 + 1 / 1.5 + 2 * 0.5)
    outer = machine.calibrated_seconds(marks, start=-1.0, end=t)
    assert outer["raw_s"] == pytest.approx(7.0)
    assert outer["calibrated_s"] == pytest.approx(out["calibrated_s"] + 1 + 0.5)


def test_sampler_samples_during_a_pass_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with machine.HostRateSampler(machine.CalibrationKernel(), interval=0.01) as sampler:
        deadline = time.monotonic() + 0.2
        while time.monotonic() < deadline:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.marks) >= 5
    out = machine.calibrated_seconds(sampler.marks)
    assert 0 < out["raw_s"] < 0.3


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    assert [m["unit"] for m in spec["per_layer"]] == [run.metric_unit(n) for n in run.per_layer_names()]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_fails_without_the_library_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "maximal", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
