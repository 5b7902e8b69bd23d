"""``tools/verify_sweep.py diff`` on two synthetic sweeps."""

import importlib.util
import json
from pathlib import Path

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
