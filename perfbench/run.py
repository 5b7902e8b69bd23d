"""Benchmark for torusharmonics: one workload, closed loop, for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  Passes run back to back, one at a time, while the next one is
expected to end within ``--seconds``; at least two untraced passes run.
Every pass's outputs are checked.

With ``--trace 0`` the result carries the end-to-end metrics:
``calibrated_wall_s`` (median untraced pass, scaled to the host rate at which
the calibration kernel of ``machine.py`` takes its nominal time), ``setup_s``
(median of fresh-interpreter set-ups, scaled the same way) and
``peak_rss_mb``.  With ``--trace 1`` passes alternate untraced and traced and
the result carries the per-layer metrics of ``tracing.Tracer``.  The last stdout line is the result JSON; the
lines before it and ``.bench_out/<workload>-seed<N>-trace<T>.json`` hold the
details: every pass, the raw median ``wall_s`` and its tail, the failed
checks and fail_ratio, the verify gate margins, machine facts and the
host-speed probe timed next to each pass.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# numpy and the library are imported only after main() caps the BLAS threads
import machine

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("verify", "dyadic2d", "maximal", "shifted")
SETUP_SAMPLES = 7
MIN_PASSES = 2  # untraced
CHILD_TIMEOUT_S = 170

# gates read from the verify check JSON: (check, details path, bound)
VERIFY_GATES = (
    *(("boundedness_sweeps", ("drifts", op), 0.10) for op in ("S", "T_eps", "para1", "SS", "para2")),
    ("boundedness_sweeps", ("spread",), 0.25),
    ("maximal_zygmund_equivalence", ("drift",), 0.10),
)


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    from tracing import FUNCTION_METRICS, LAYERS
    from torusharmonics.suite import CHECKS

    names = ["fft.self_s", "fft.calls", "fft.points", "fft.bytes_computed"]
    for layer in LAYERS:
        names += [f"{layer}.self_s", f"{layer}.calls"]
    for metric in FUNCTION_METRICS:
        names += [f"{metric}.self_s", f"{metric}.calls"]
    names += [f"suite.{check_id}.wall_s" for check_id, _ in CHECKS]
    return names + ["process.cpu_s", "trace.overhead_s"]


def metric_unit(name: str) -> str:
    if name.endswith("bytes_computed"):
        return "B"
    if name.endswith((".calls", ".points")):
        return "count"
    return "s"


def tail_percentile(values: list[float]) -> dict | None:
    """Highest nearest-rank percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    rank = n - 10
    return {"percentile": math.floor(100 * rank / n), "value": sorted(values)[rank - 1], "samples": n}


def measure_setup(workload: str, seed: int) -> dict:
    """Seconds from spawning a fresh interpreter to its first pass being
    ready, raw and calibrated (see ``machine.calibrated_seconds``)."""
    cmd = [sys.executable, str(HERE / "child.py"), "setup", workload, str(seed)]
    # the child's marks are on time.monotonic(): one system-wide clock on Linux
    start = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child for {workload} failed: {proc.stderr[-2000:]}")
    marks = json.loads(proc.stdout.splitlines()[-1])
    return machine.calibrated_seconds(marks, start)


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _read_verify_outputs(out_dir: Path, exit_code: int) -> tuple[dict, list[str]]:
    """Per-check records from the suite's JSON, and artifact problems."""
    from torusharmonics.suite import CHECKS

    checks, problems = {}, []
    for check_id, _ in CHECKS:
        path = out_dir / f"{check_id}.json"
        try:
            payload = json.loads(path.read_text())
            checks[check_id] = {
                "passed": bool(payload["passed"]),
                "runtime_s": float(payload["runtime_seconds"]),
                "details": payload["details"],
            }
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"{check_id}: unreadable result ({exc})")
    if not (out_dir / "summary.csv").is_file():
        problems.append("summary.csv missing")
    all_passed = len(checks) == len(CHECKS) and all(c["passed"] for c in checks.values())
    if exit_code != (0 if all_passed else 1):
        problems.append(f"exit code {exit_code} does not match the check verdicts")
    return checks, problems


def _gate_margins(checks: dict) -> dict:
    margins = {}
    for check_id, path, bound in VERIFY_GATES:
        value = checks.get(check_id, {}).get("details")
        for key in path:
            value = value.get(key) if isinstance(value, dict) else None
        if isinstance(value, (int, float)):
            name = ".".join((check_id,) + path)
            margins[name] = {"value": value, "bound": bound, "ratio": value / bound}
    return margins


def run_verify_pass(seed: int, traced: bool) -> dict:
    from torusharmonics.suite import CHECKS
    from workloads import verify_argv

    tmp = Path(tempfile.mkdtemp(prefix="verify-", dir=OUT_DIR))
    try:
        mode = "verify-traced" if traced else "verify"
        cmd = [sys.executable, str(HERE / "child.py"), mode, str(seed), str(tmp)]
        cpu0 = _children_cpu()
        start = time.monotonic()
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=CHILD_TIMEOUT_S,
        )
        end = time.monotonic()
        record = {"wall_s": end - start, "cpu_s": _children_cpu() - cpu0, "traced": traced}
        checks, problems = _read_verify_outputs(tmp, proc.returncode)
        if proc.returncode not in (0, 1):
            problems.append(f"verify exited {proc.returncode}: {proc.stderr[-2000:]}")
        record["checks"] = checks
        record["problems"] = problems
        record["attempted"] = len(CHECKS)
        record["failed_checks"] = [
            c for c, _ in CHECKS if c not in checks or not checks[c]["passed"]
        ]
        record["gates"] = _gate_margins(checks)
        if traced and (tmp / "trace.json").is_file():
            record["layers"] = json.loads((tmp / "trace.json").read_text())["stats"]
            shutil.move(tmp / "spans.npz", OUT_DIR / f"spans-verify-seed{seed}.npz")
        elif traced:
            problems.append("traced child wrote no trace")
        if not traced:
            marks = json.loads((tmp / "host_rate.json").read_text())
            record.update(machine.calibrated_seconds(marks, start, end))
        return record
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run_in_process_pass(workload, state, traced: bool, spans_path: Path, kernel) -> dict:
    import numpy as np

    from tracing import Tracer

    # samples taken inside a traced span would count as its self time
    tracer = Tracer().install() if traced else None
    sampler = machine.HostRateSampler(kernel)
    cpu0 = time.process_time()
    start = time.perf_counter()
    try:
        if traced:
            outputs = workload.run(state)
        else:
            with sampler:
                outputs = workload.run(state)
    finally:
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu0
        if tracer:
            tracer.uninstall()
    record = {"wall_s": wall, "cpu_s": cpu, "traced": traced}
    if not traced:
        record.update(machine.calibrated_seconds(sampler.marks))
    try:
        results = workload.check(state, outputs)
        record["failed_checks"] = [name for name, ok in results if not ok]
        record["attempted"] = len(results)
    except Exception:  # a crashing check is a failed check, recorded with its traceback
        record["failed_checks"] = ["check crashed: " + traceback.format_exc()]
        record["attempted"] = 1
    if tracer:
        record["layers"] = tracer.layer_stats()
        np.savez_compressed(spans_path, names=np.array(tracer.names), **tracer.span_arrays())
    return record


def run_passes(args) -> list[dict]:
    """Closed loop: start a pass while it should end within --seconds; with
    tracing, alternate untraced and traced passes."""
    passes = []
    state = None
    # built before any tracer, so its FFT is never counted
    kernel = machine.CalibrationKernel()
    if args.workload != "verify":
        from workloads import IN_PROCESS

        workload = IN_PROCESS[args.workload]
        state = workload.setup(args.seed)
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        probe = machine.host_speed_probe(kernel)
        if args.workload == "verify":
            record = run_verify_pass(args.seed, traced)
        else:
            spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}-pass{len(passes)}.npz"
            record = run_in_process_pass(workload, state, traced, spans, kernel)
        record["probe_s"] = probe
        passes.append(record)
        plain = [p for p in passes if not p["traced"]]
        if len(plain) < MIN_PASSES or (args.trace and len(plain) == len(passes)):
            continue
        expected = statistics.median(p["wall_s"] for p in passes)
        if time.perf_counter() - start + expected > args.seconds:
            return passes


def per_layer_metrics(passes: list[dict]) -> dict[str, float]:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    out = {}
    for name in per_layer_names():
        if name.startswith("suite.") and name.endswith(".wall_s"):
            check_id = name[len("suite."):-len(".wall_s")]
            times = [p["checks"][check_id]["runtime_s"] for p in plain if check_id in p.get("checks", {})]
            out[name] = statistics.median(times) if times else 0.0
        elif name == "process.cpu_s":
            out[name] = statistics.median(p["cpu_s"] for p in plain)
        elif name == "trace.overhead_s":
            # untraced passes without the host-rate samples' own time
            out[name] = statistics.median(p["wall_s"] for p in traced) - statistics.median(
                p["raw_s"] for p in plain
            )
        else:
            values = [p["layers"].get(name, 0) for p in traced if "layers" in p]
            # counts repeat exactly, so report one of them rather than an average
            median = statistics.median_low if metric_unit(name) != "s" else statistics.median
            out[name] = median(values) if values else 0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "torusharmonics" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'torusharmonics'}", file=sys.stderr)
        return 2
    machine.limit_blas_threads()
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)

    setup_samples = [measure_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES)]
    passes = run_passes(args)
    usage = resource.RUSAGE_CHILDREN if args.workload == "verify" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failed_checks"]) for p in passes)
    problems = [q for p in passes for q in p.get("problems", [])]
    if args.workload == "verify":
        # a failed gate is the suite's verdict, counted in ``failed``; a
        # missing or inconsistent artifact means the outputs are wrong
        correct = not problems
    else:
        correct = failed == 0
    walls = [p["wall_s"] for p in passes if not p["traced"]]
    calibrated = [p["calibrated_s"] for p in passes if not p["traced"]]
    if args.trace:
        metrics = {name: {"value": v, "unit": metric_unit(name)} for name, v in per_layer_metrics(passes).items()}
    else:
        metrics = {
            "calibrated_wall_s": {"value": statistics.median(calibrated), "unit": "s"},
            "setup_s": {"value": statistics.median(s["calibrated_s"] for s in setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    probes = [p["probe_s"] for p in passes]
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine.machine_facts(ROOT),
        "setup_samples": setup_samples,
        "wall_s": statistics.median(walls),
        "wall_tail": tail_percentile(walls),
        "calibrated_wall_tail": tail_percentile(calibrated),
        "fail_ratio": failed / attempted,
        "failed_checks": sorted({c for p in passes for c in p["failed_checks"]}),
        "passes": passes,
        "metrics": metrics,
    }
    detail_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail_path.write_text(json.dumps(details, indent=1, default=float))

    setups = ", ".join(f"{s['calibrated_s']:.3f}" for s in setup_samples)
    raw_setups = ", ".join(f"{s['raw_s']:.3f}" for s in setup_samples)
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{len(walls)} untraced; setup samples {setups} s (raw {raw_setups} s)")
    print(f"wall_s {details['wall_s']:.6g} s (median); per pass: {', '.join(f'{w:.3f}' for w in walls)}; "
          f"tail: {details['wall_tail'] or 'needs > 10 passes'}")
    print(f"calibrated_wall_s per pass: {', '.join(f'{c:.3f}' for c in calibrated)}")
    print(f"host-speed probe per pass: {', '.join(f'{p:.4f}' for p in probes)} s")
    print(f"fail_ratio {failed}/{attempted} = {failed / attempted:.4f} ratio; failed: {details['failed_checks'] or 'none'}")
    if args.workload == "verify":
        gates = passes[0]["gates"]
        print("gates: " + "; ".join(f"{k} {g['value']:.4f} vs {g['bound']}" for k, g in gates.items()))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"details: {detail_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
