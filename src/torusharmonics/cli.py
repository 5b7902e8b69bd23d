"""Command-line surface: one binary, subcommand per capability.

Exit codes: 0 success, 1 check failure, 2 usage error: bad arguments
(argparse), a malformed or unreadable input file, or an invalid value, each
reported as one ``error:`` line.
Every run that writes an output file also writes the exact configuration
used next to it (<out>.config.json).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .bumps import (
    build_double_pou,
    build_pou,
    make_adapted_family,
    partition_residuals,
    verify_adapted,
)
from .gfio import (
    FileFormatError,
    RunConfig,
    load_config,
    read_grid_function,
    write_grid_function,
)
from .grid import GridFunction, fourier_coefficients
from .maximal import cz_decompose, maximal
from .multipliers import (
    apply_1d,
    apply_bilinear,
    symbol_coefficients,
    symbol_registry,
    validate_symbol,
)
from .paraproducts import ParaproductSpec, paraproduct_1p, paraproduct_2p
from .rearrange import rearrangement, zygmund_norm
from .squares import EpsilonField, hybrid, square_function
from .suite import cz_gates, run_suite

CONFIG_ENV = "TORUSHARMONICS_CONFIG"
MAXIMAL_KINDS = ("hl", "dyadic", "shifted", "shifted_sup", "strong", "directional")


def _add_io_arguments(parser, inputs=1):
    parser.add_argument("--in", dest="infile", required=True, help="input grid function")
    if inputs > 1:
        parser.add_argument("--in2", dest="infile2", help="second input")
    parser.add_argument("--out", dest="outfile", help="output path (JSON)")
    parser.add_argument("--format", default="json", choices=("json", "bin"))
    parser.add_argument(
        "--log-sizes",
        type=int,
        nargs="+",
        help="grid exponents (required when reading the binary format)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusharmonics",
        description="harmonic-analysis operators on the discretized torus",
    )
    parser.add_argument("--config", help="flat key = value configuration file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bumps", help="partition-of-unity diagnostics")
    p.add_argument("action", choices=("check",))
    p.add_argument("--scales", type=int, default=7)
    p.add_argument("--grid", type=int, default=10)
    p.add_argument("--out", dest="outfile")

    p = sub.add_parser("maximal", help="maximal functions")
    p.add_argument(
        "--kind",
        default="hl",
        type=_maximal_kind,
        help="hl | dyadic | shifted[:n] | shifted_sup[:n] | strong | directional",
    )
    _add_io_arguments(p)

    p = sub.add_parser("cz", help="Calderon-Zygmund decomposition")
    p.add_argument("--alpha", type=float, required=True)
    _add_io_arguments(p)

    p = sub.add_parser("square", help="Littlewood-Paley square function")
    p.add_argument("--mode", default="plain", help="plain | shifted:n | sup:n")
    p.add_argument("--scales", type=int)
    _add_io_arguments(p)

    p = sub.add_parser("hybrid", help="bi-parameter hybrid operators")
    p.add_argument("--kind", default="SS", choices=("SS", "SM", "MS", "MM"))
    p.add_argument("--scales", type=int)
    _add_io_arguments(p)

    p = sub.add_parser("rearrange", help="decreasing rearrangement profile")
    p.add_argument("--emit", help="CSV output of (breakpoint, value) rows")
    _add_io_arguments(p)

    p = sub.add_parser("zygmund", help="Zygmund L(log L)^n norms")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--method", default="both", choices=("closed_form", "iterated", "both"))
    _add_io_arguments(p)

    p = sub.add_parser("multiplier", help="multiplier operators")
    action = p.add_subparsers(dest="action", required=True)
    pa = action.add_parser("apply")
    pa.add_argument("--symbol", required=True)
    _add_io_arguments(pa, inputs=2)
    pv = action.add_parser("validate")
    pv.add_argument("--symbol", required=True)
    pv.add_argument("--radius", type=int, default=32)
    pc = action.add_parser("coeffs")
    pc.add_argument("--symbol", default="hilbert")
    pc.add_argument("--scale", type=int, required=True)
    pc.add_argument("--out", dest="outfile", help="CSV of (n, |c|, (|n|+1)^p |c|)")

    p = sub.add_parser("paraproduct", help="bilinear paraproducts")
    p.add_argument("--params", type=int, default=1, choices=(1, 2))
    p.add_argument("--slots", default="3", help="mean slot per axis, e.g. 3 or 3,3")
    p.add_argument("--eps", default="seed:0", help="seed:S or constant:C")
    p.add_argument("--scales", type=int)
    _add_io_arguments(p, inputs=2)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--only", nargs="*", help="check ids to run")
    p.add_argument("--grid", type=int, help="1D grid exponent")
    p.add_argument("--grid2d", type=int, help="2D per-axis grid exponent")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", dest="out_dir")
    return parser


def _maximal_kind(text: str) -> tuple[str, int]:
    """Parse --kind into (kind, n); only the shifted kinds take ':n'."""
    kind, sep, num = text.partition(":")
    if kind in MAXIMAL_KINDS and not sep:
        return kind, 0
    if kind in ("shifted", "shifted_sup") and num.lstrip("-").isdigit():
        return kind, int(num)
    raise argparse.ArgumentTypeError(
        f"invalid kind {text!r}; expected hl, dyadic, shifted[:n], "
        "shifted_sup[:n], strong or directional"
    )


def _read_input(args, attr="infile"):
    path = getattr(args, attr)
    log_sizes = tuple(args.log_sizes) if getattr(args, "log_sizes", None) else None
    return read_grid_function(path, fmt=args.format, log_sizes=log_sizes)


def _write_output(f: GridFunction, args, config: RunConfig):
    if not getattr(args, "outfile", None):
        return
    write_grid_function(f, args.outfile, fmt="json")
    _write_config_sidecar(args.outfile, config)


def _write_config_sidecar(outfile, config: RunConfig):
    Path(str(outfile) + ".config.json").write_text(json.dumps(config.to_dict(), indent=2))


def _family_for(f: GridFunction, kind: str, scales=None, axis: int = 0):
    log_size = f.log_sizes[axis]
    return make_adapted_family(kind, scales or (log_size - 3), log_size)


def _parse_mode(mode: str):
    if mode == "plain":
        return "plain", 0
    name, _, arg = mode.partition(":")
    if name == "shifted":
        return "shifted", int(arg or 0)
    if name == "sup":
        return "shifted_sup", int(arg or 0)
    raise FileFormatError(f"unknown mode {mode!r}")


def _parse_epsilon(text: str, k_range):
    name, _, arg = text.partition(":")
    if name == "seed":
        return EpsilonField.rademacher(int(arg or 0), k_range)
    if name == "constant":
        return EpsilonField.constant(complex(arg or 1.0), k_range)
    if name == "file":
        return _epsilon_from_file(arg, k_range)
    raise FileFormatError(f"unknown epsilon spec {text!r}")


def _epsilon_from_file(path: str, k_range):
    """JSON mapping scale -> list of scalars (floats or [re, im] pairs)."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"epsilon file is not valid JSON: {exc}") from exc
    scales = {}
    for k in k_range:
        if str(k) not in payload:
            raise FileFormatError(f"epsilon file missing scale {k}")
        entries = payload[str(k)]
        if len(entries) != 2**k:
            raise FileFormatError(f"scale {k} needs {2**k} scalars, got {len(entries)}")
        scales[k] = np.array(
            [complex(e[0], e[1]) if isinstance(e, list) else complex(e) for e in entries]
        )
    return EpsilonField(scales)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config_path = args.config or os.environ.get(CONFIG_ENV)
    overrides = {}
    for src, dst in (("grid", "log_size"), ("grid2d", "log_size_2d"),
                     ("seed", "seed"), ("out_dir", "out_dir")):
        if getattr(args, src, None) is not None:
            overrides[dst] = getattr(args, src)
    try:
        config = load_config(config_path, overrides)
        return _dispatch(args, config)
    except (FileFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args, config: RunConfig) -> int:
    if args.command == "verify":
        return run_suite(config, only=set(args.only) if args.only else None)

    if args.command == "bumps":
        report = _bumps_report(args.scales, args.grid)
        text = json.dumps(report, indent=2)
        if args.outfile:
            Path(args.outfile).write_text(text)
            _write_config_sidecar(args.outfile, config)
        else:
            print(text)
        return 0

    if args.command == "maximal":
        f = _read_input(args)
        kind, n = args.kind
        out = maximal(f, kind=kind, n=n)
        _write_output(out, args, config)
        print(f"max value {np.abs(out.values).max():.6g}")
        return 0

    if args.command == "cz":
        f = _read_input(args)
        dec = cz_decompose(f, args.alpha)
        payload = {
            "alpha": args.alpha,
            "intervals": [str(iv) for iv in dec.intervals],
            "total_length": dec.total_length,
            "checks": {g.name: g.passed for g in cz_gates(f, dec)},
        }
        text = json.dumps(payload, indent=2)
        if args.outfile:
            Path(args.outfile).write_text(text)
            _write_config_sidecar(args.outfile, config)
        print(text)
        return 0

    if args.command == "square":
        f = _read_input(args)
        fam = _family_for(f, "from_pou_1", args.scales)
        mode, n = _parse_mode(args.mode)
        out = square_function(f, fam, mode=mode, n=n)
        _write_output(out, args, config)
        print(f"||Sf||_2 = {np.sqrt(np.mean(np.abs(out.values)**2)):.6g} "
              f"(scale window k=1..{fam.k_max})")
        return 0

    if args.command == "hybrid":
        f = _read_input(args)
        if f.dims != 2:
            raise FileFormatError("hybrid takes 2D inputs")
        fam1, fam2 = (_family_for(f, "from_pou_1", args.scales, axis) for axis in (0, 1))
        out = hybrid(f, (fam1, fam2), args.kind)
        _write_output(out, args, config)
        print(f"||{args.kind}f||_2 = {np.sqrt(np.mean(np.abs(out.values)**2)):.6g} "
              f"(scale windows k=1..{fam1.k_max} x k=1..{fam2.k_max})")
        return 0

    if args.command == "rearrange":
        f = _read_input(args)
        profile = rearrangement(f)
        if args.emit:
            with open(args.emit, "w") as fh:
                fh.write("breakpoint,value\n")
                for t, v in zip(profile.breakpoints, profile.values):
                    fh.write(f"{float(t)!r},{float(v)!r}\n")
            _write_config_sidecar(args.emit, config)
        print(f"{len(profile.values)} steps, support {profile.support:.6g}")
        return 0

    if args.command == "zygmund":
        f = _read_input(args)
        out = {}
        methods = ("closed_form", "iterated") if args.method == "both" else (args.method,)
        for method in methods:
            out[method] = zygmund_norm(f, args.n, method)
        if len(out) == 2:
            a, b = out["closed_form"], out["iterated"]
            out["relative_gap"] = abs(a - b) / max(a, 1e-300)
        print(json.dumps(out, indent=2))
        return 0

    if args.command == "multiplier":
        registry = symbol_registry()
        if args.action == "validate":
            symbol = registry[args.symbol]
            report = validate_symbol(symbol, probe_radius=args.radius)
            print(json.dumps({
                "symbol": report.symbol,
                "class": report.declared_class,
                "passed": report.passed,
                "worst_constant": report.worst(),
            }, indent=2))
            return 0 if report.passed else 1
        if args.action == "coeffs":
            symbol = registry[args.symbol]
            table = symbol_coefficients(symbol, args.scale, n_max=256)
            rows = ["n,abs_c,decay_product"]
            prods = table.decay_products()
            for n, c, p in zip(table.frequencies, np.abs(table.table), prods):
                rows.append(f"{n},{float(c)!r},{float(p)!r}")
            text = "\n".join(rows)
            if args.outfile:
                Path(args.outfile).write_text(text + "\n")
                _write_config_sidecar(args.outfile, config)
            else:
                print(text)
            return 0
        symbol = registry[args.symbol]
        f = _read_input(args)
        if symbol.arity == 1:
            out = apply_1d(symbol, f)
        else:
            if not args.infile2:
                raise FileFormatError("bilinear symbols need --in2")
            g = _read_input(args, "infile2")
            out = apply_bilinear(symbol, f, g)
        _write_output(out, args, config)
        print(f"||out||_2 = {np.sqrt(np.mean(np.abs(out.values)**2)):.6g}")
        return 0

    if args.command == "paraproduct":
        f = _read_input(args)
        if not args.infile2:
            raise FileFormatError("paraproducts need --in2")
        g = _read_input(args, "infile2")
        slots = tuple(int(s) for s in args.slots.split(","))
        if f.dims != args.params:
            raise FileFormatError(f"--params {args.params} takes {args.params}D inputs")
        if args.params == 2 and len(slots) != 2:
            raise FileFormatError("--params 2 needs --slots a,b")
        ranges = [range(1, (args.scales or log_size - 3) + 1) for log_size in f.log_sizes]
        triples = [
            tuple(
                make_adapted_family(kind, len(ks), log_size)
                for kind in ("from_pou_1", "from_pou_2", "lower_bounded")
            )
            for ks, log_size in zip(ranges, f.log_sizes)
        ]
        spec = ParaproductSpec(
            params=args.params,
            families=triples[0] if args.params == 1 else tuple(triples),
            mean_slots=slots[: args.params],
            epsilon=EpsilonField.separable(*(_parse_epsilon(args.eps, ks) for ks in ranges)),
        )
        out = (paraproduct_1p if args.params == 1 else paraproduct_2p)(spec, f, g)
        _write_output(out, args, config)
        print(f"||T(f,g)||_1 = {np.mean(np.abs(out.values)):.6g}")
        return 0

    raise FileFormatError(f"unhandled command {args.command!r}")


def _bumps_report(scales: int, grid: int) -> dict:
    fam1, fam2 = build_pou(scales, grid)
    residuals = partition_residuals(fam1, fam2, build_double_pou(scales, grid))
    leakage = 0.0
    for k in fam1.scales:
        spec = fourier_coefficients(fam1.prototypes[k])
        freq = np.abs(spec.frequencies())
        outside = (freq < 2 ** (k - 4)) | (freq > 2 ** (k - 2))
        if outside.any():
            leakage = max(leakage, float(np.abs(spec.coefficients[outside]).max()))
    constants = verify_adapted(fam1, 4)
    return {
        "grid": grid,
        "scales": scales,
        "partition_residual": residuals["residual"],
        "double_partition_residual": residuals["residual_double"],
        "support_leakage": leakage,
        "adaptation_constants": {str(m): c for m, c in constants["C"].items()},
        "derivative_constants": {str(m): c for m, c in constants["C_prime"].items()},
    }


if __name__ == "__main__":
    sys.exit(main())
