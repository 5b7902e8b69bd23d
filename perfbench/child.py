"""Fresh-interpreter entry points the benchmark spawns.

    child.py setup <workload> <seed>
        Import the library and build the workload's inputs under the
        host-rate sampler, print its marks as JSON and exit; the parent times
        spawn-to-ready as one set-up sample.
    child.py verify <seed> <out_dir>
        Run ``torusharmonics verify`` under the host-rate sampler; write its
        marks to <out_dir>/host_rate.json.
    child.py verify-traced <seed> <out_dir>
        Run ``torusharmonics verify`` under the tracer; write the per-layer
        stats to <out_dir>/trace.json and the spans to <out_dir>/spans.npz.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

# the library is imported inside the set-up, where the sampler times it
from machine import CalibrationKernel, HostRateSampler


def setup(workload: str, seed: int) -> list:
    with HostRateSampler(CalibrationKernel()) as sampler:
        build(workload, seed)
    return sampler.marks


def build(workload: str, seed: int) -> None:
    import workloads

    if workload == "verify":
        # what ``torusharmonics.cli.main`` does before it calls run_suite
        from torusharmonics import cli

        args = cli.build_parser().parse_args(workloads.verify_argv(seed, "unused"))
        cli.load_config(None, {"log_size": args.grid, "log_size_2d": args.grid2d,
                               "seed": args.seed, "out_dir": args.out_dir})
    else:
        workloads.IN_PROCESS[workload].setup(seed)


def verify(seed: int, out_dir: Path) -> int:
    import workloads
    from torusharmonics import cli

    sampler = HostRateSampler(CalibrationKernel())
    try:
        with sampler:
            return cli.main(workloads.verify_argv(seed, str(out_dir)))
    finally:
        (out_dir / "host_rate.json").write_text(json.dumps(sampler.marks))


def verify_traced(seed: int, out_dir: Path) -> int:
    import numpy as np

    import workloads
    from torusharmonics import cli
    from tracing import Tracer

    tracer = Tracer()
    with tracer:
        code = cli.main(workloads.verify_argv(seed, str(out_dir)))
    stats = tracer.layer_stats()
    (out_dir / "trace.json").write_text(json.dumps({"exit_code": code, "stats": stats}))
    np.savez_compressed(out_dir / "spans.npz", names=np.array(tracer.names), **tracer.span_arrays())
    return code


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        print(json.dumps(setup(argv[1], int(argv[2]))))
        return 0
    if mode == "verify":
        return verify(int(argv[1]), Path(argv[2]))
    if mode == "verify-traced":
        return verify_traced(int(argv[1]), Path(argv[2]))
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
