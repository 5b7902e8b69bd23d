"""Run ``torusharmonics verify`` over a range of seeds, or diff two such sweeps.

    python3 tools/verify_sweep.py run --seeds 1 60 --jobs 2 --out sweep.json
    python3 tools/verify_sweep.py diff parent.json change.json

Run from the root of a source checkout; the library is imported from its
``src/``, so a sweep of another checkout runs that checkout's copy of this
script.  ``run`` executes ``verify --grid 9 --grid2d 7`` once per seed, in
``--jobs`` worker processes (at most one per core; 1 runs in this process),
and writes, per seed and check, the verdict, every gate's observed value and
the check's details; it prints each check's pass rate and failing seeds, and
under it each gate's worst observed value and the seed where it occurs, and
then, per seed, the gates whose observed value lies within 2 % of a nonzero
bound: the verdicts a last-ulp change could flip, beside the exact
identities that sit on their bound by design.  The
runtime gate, the runtime and the config hash are left out, so two sweeps
of the same code are equal.  ``diff`` first says whether each seed's set of
failing checks is the same in both sweeps and names the seeds where it is
not; it then compares the sweeps field by field, prints each difference,
and exits 1 if there is one.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import multiprocessing
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GRIDS = ("--grid", "9", "--grid2d", "7")
RUNTIME_GATE = "runtime_s"
#: a gate is near its bound when |observed - bound| <= NEAR_SHARE * |bound|
NEAR_SHARE = 0.02


def sweep_seed(seed: int) -> dict:
    """Per check: the verdict, [name, op, bound, observed] per gate, and details."""
    from torusharmonics.cli import main
    from torusharmonics.suite import CHECKS

    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        main(["verify", "--seed", str(seed), *GRIDS, "--out", out])
        payloads = [json.loads((Path(out) / f"{cid}.json").read_text()) for cid, _ in CHECKS]
    checks = {}
    for p in payloads:
        gates = [g for g in p["gates"] if g["name"] != RUNTIME_GATE]
        checks[p["check"]] = {
            "passed": all(g["passed"] for g in gates) and not p["summary"].startswith("crashed"),
            "gates": [[g["name"], g["op"], g["bound"], g["observed"]] for g in gates],
            "details": p["details"],
        }
    return checks


def run(seeds: range, out: Path, jobs: int = 1) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    if jobs > 1:
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(jobs, mp_context=spawn) as pool:
            sweeps = list(pool.map(sweep_seed, seeds))  # in seed order
    else:
        sweeps = [sweep_seed(seed) for seed in seeds]
    result = {"grids": list(GRIDS), "seeds": dict(zip(map(str, seeds), sweeps))}
    out.write_text(json.dumps(result, indent=1, sort_keys=True))
    worst = worst_observed(result["seeds"])
    for check in result["seeds"][str(seeds[0])]:
        failing = [s for s, checks in result["seeds"].items() if not checks[check]["passed"]]
        line = f"{check}: {len(seeds) - len(failing)}/{len(seeds)} pass"
        print(line + (f"; fails on {', '.join(failing)}" if failing else ""))
        for (name, op, bound), (observed, seed) in worst[check].items():
            print(f"  {name} {op} {bound:.6g}: worst {observed:.6g} at seed {seed}")
    print(f"gates within {NEAR_SHARE:.0%} of a nonzero bound:")
    for seed, gates in near_bound(result["seeds"]).items():
        entries = [f"{check}: {name} {observed:.6g} {op} {bound:.6g}"
                   for check, name, op, bound, observed in gates]
        print(f"  seed {seed}: {'; '.join(entries)}")


def near_bound(seeds: dict) -> dict[str, list[tuple]]:
    """Per seed, (check, name, op, bound, observed) for every gate whose
    observed value is within ``NEAR_SHARE`` of its bound; seeds with none
    are left out.  A zero or infinite bound has no scale and a NaN is no
    value, so none of them is near."""
    near = {}
    for seed, checks in seeds.items():
        gates = [
            (check, name, op, bound, observed)
            for check, entry in checks.items()
            for name, op, bound, observed in entry["gates"]
            if 0 < abs(bound) < math.inf and abs(observed - bound) <= NEAR_SHARE * abs(bound)
        ]
        if gates:
            near[seed] = gates
    return near


def worst_observed(seeds: dict) -> dict:
    """Per check and gate (name, op, bound): the worst observed value and its seed.

    Worst is the largest value under an upper bound and the smallest above a
    lower bound.  NaN is worse than any number, and a tie keeps the first seed.
    """
    worst: dict = {}
    for seed, checks in seeds.items():
        for check, entry in checks.items():
            gates = worst.setdefault(check, {})
            for name, op, bound, observed in entry["gates"]:
                held = gates.get((name, op, bound))
                if held is None or _worse(observed, held[0], op):
                    gates[(name, op, bound)] = (observed, seed)
    return worst


def _worse(x: float, y: float, op: str) -> bool:
    if math.isnan(y):
        return False
    if math.isnan(x):
        return True
    return x > y if op in ("<=", "<") else x < y


def differences(a, b, path: str = ""):
    """Yield (path, a, b) for every leaf where the two JSON trees differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            yield from differences(a.get(key), b.get(key), f"{path}/{key}")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from differences(x, y, f"{path}[{i}]")
    elif not _same(a, b):
        yield path, a, b


def _same(a, b) -> bool:
    """Equal, with NaN equal to NaN: a NaN observation is a result too."""
    both_nan = isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b)
    return a == b or both_nan


def failing_checks(sweep: dict) -> dict[str, list[str]]:
    """Per seed, the sorted names of the checks that failed."""
    return {
        seed: sorted(check for check, entry in checks.items() if not entry["passed"])
        for seed, checks in sweep["seeds"].items()
    }


def diff(a: Path, b: Path) -> int:
    sweep_a, sweep_b = json.loads(a.read_text()), json.loads(b.read_text())
    fail_a, fail_b = failing_checks(sweep_a), failing_checks(sweep_b)
    seeds = sorted(set(fail_a) | set(fail_b), key=int)
    changed = [s for s in seeds if fail_a.get(s) != fail_b.get(s)]
    if changed:
        print(f"failing checks differ on seeds {', '.join(changed)}")
        for s in changed:
            print(f"  seed {s}: {fail_a.get(s)} != {fail_b.get(s)}")
    else:
        print(f"failing checks: the same on all {len(seeds)} seeds")
    found = list(differences(sweep_a, sweep_b))
    for path, x, y in found:
        print(f"{path}: {x!r} != {y!r}")
    print(f"{len(found)} differences")
    return 1 if found else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="sweep verify over the seeds FIRST..LAST")
    p_run.add_argument("--seeds", nargs=2, type=int, metavar=("FIRST", "LAST"), required=True)
    p_run.add_argument("--jobs", type=int, default=1, metavar="J",
                       help="worker processes, 1 to the core count (default 1)")
    p_run.add_argument("--out", type=Path, required=True)
    p_diff = sub.add_parser("diff", help="compare two sweeps, ignoring runtimes")
    p_diff.add_argument("a", type=Path)
    p_diff.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        cores = len(os.sched_getaffinity(0))
        if not 1 <= args.jobs <= cores:
            parser.error(f"--jobs must be between 1 and the core count {cores}")
        run(range(args.seeds[0], args.seeds[1] + 1), args.out, args.jobs)
        return 0
    return diff(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
