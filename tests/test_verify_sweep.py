"""``tools/verify_sweep.py``: ``diff`` on synthetic sweeps, ``run`` in one or two jobs."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "verify_sweep.py"
spec = importlib.util.spec_from_file_location("verify_sweep", TOOL)
verify_sweep = importlib.util.module_from_spec(spec)
spec.loader.exec_module(verify_sweep)


def sweep(verdicts: dict, observed: float = 1.0) -> dict:
    """A sweep with one gate per check; ``verdicts`` maps seed -> {check: passed}."""
    return {
        "grids": ["--grid", "9", "--grid2d", "7"],
        "seeds": {
            seed: {
                check: {"passed": passed, "gates": [["g", "<=", 2.0, observed]], "details": {}}
                for check, passed in checks.items()
            }
            for seed, checks in verdicts.items()
        },
    }


def run_diff(tmp_path, a, b, capsys):
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    code = verify_sweep.diff(pa, pb)
    return code, capsys.readouterr().out.splitlines()


BASE = {"1": {"khinchine": False, "cz": True}, "2": {"khinchine": True, "cz": True},
        "10": {"khinchine": True, "cz": True}}


def test_equal_sweeps(tmp_path, capsys):
    code, lines = run_diff(tmp_path, sweep(BASE), sweep(BASE), capsys)
    assert code == 0
    assert lines == ["failing checks: the same on all 3 seeds", "0 differences"]


def test_failing_sets_are_named_before_the_field_diff(tmp_path, capsys):
    other = {**BASE, "10": {"khinchine": False, "cz": False}}
    code, lines = run_diff(tmp_path, sweep(BASE), sweep(other), capsys)
    assert code == 1
    assert lines[:2] == [
        "failing checks differ on seeds 10",
        "  seed 10: [] != ['cz', 'khinchine']",
    ]
    assert lines[-1] == "2 differences"
    assert "/seeds/10/cz/passed: True != False" in lines


def test_a_moved_value_with_the_same_verdicts(tmp_path, capsys):
    code, lines = run_diff(tmp_path, sweep(BASE), sweep(BASE, observed=1.5), capsys)
    assert code == 1
    assert lines[0] == "failing checks: the same on all 3 seeds"
    assert lines[-1] == "6 differences"


NEAR = {
    "spread": {"passed": False, "gates": [["T_eps draw spread", "<=", 0.25, 0.2524],
                                          ["far", "<=", 0.25, 0.3111]], "details": {}},
    "growth": {"passed": True, "gates": [["min sum of powers", ">=", 1.5, 1.5],
                                         ["negative", "<=", -1.0, -1.015]], "details": {}},
    "exact": {"passed": True, "gates": [["zero bound", "<=", 0.0, 0.0],
                                        ["nan", "<=", 1.0, float("nan")],
                                        ["infinite bound", "<=", float("inf"), float("inf")],
                                        ["just outside", "<=", 1.0, 0.9799]], "details": {}},
}


def test_near_bound_takes_nonzero_finite_bounds_within_two_percent():
    seeds = {"1": NEAR, "2": {"exact": NEAR["exact"]}}
    assert verify_sweep.near_bound(seeds) == {"1": [
        ("spread", "T_eps draw spread", "<=", 0.25, 0.2524),
        ("growth", "min sum of powers", ">=", 1.5, 1.5),
        ("growth", "negative", "<=", -1.0, -1.015),
    ]}


def test_run_prints_the_near_gates_per_seed(tmp_path, capsys, monkeypatch):
    far_spread = {"passed": True, "gates": [["T_eps draw spread", "<=", 0.25, 0.2]], "details": {}}
    sweeps = {1: NEAR, 2: {**NEAR, "spread": far_spread}}
    monkeypatch.setattr(verify_sweep, "sweep_seed", sweeps.__getitem__)
    verify_sweep.run(range(1, 3), tmp_path / "sweep.json")
    lines = capsys.readouterr().out.splitlines()
    start = lines.index("gates within 2% of a nonzero bound:")
    assert lines[start + 1:] == [
        "  seed 1: spread: T_eps draw spread 0.2524 <= 0.25; "
        "growth: min sum of powers 1.5 >= 1.5; growth: negative -1.015 <= -1",
        "  seed 2: growth: min sum of powers 1.5 >= 1.5; growth: negative -1.015 <= -1",
    ]


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="--jobs 2 needs two cores")
def test_two_jobs_write_the_same_sweep_as_one(tmp_path):
    # two real verify runs per side; the seeds come back in seed order
    outs = []
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}.json"
        argv = ["run", "--seeds", "21", "22", "--jobs", str(jobs), "--out", str(out)]
        subprocess.run([sys.executable, str(TOOL), *argv], check=True, capture_output=True)
        outs.append(out.read_text())
    assert outs[0] == outs[1]
    assert list(json.loads(outs[0])["seeds"]) == ["21", "22"]


def test_jobs_above_the_core_count_are_refused(capsys):
    cores = len(os.sched_getaffinity(0))
    with pytest.raises(SystemExit):
        verify_sweep.main(["run", "--seeds", "1", "1", "--jobs", str(cores + 1), "--out", "x"])
    assert "--jobs must be between 1 and the core count" in capsys.readouterr().err
