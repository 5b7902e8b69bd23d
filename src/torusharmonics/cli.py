"""Command-line surface: one binary, subcommand per capability.

Each subcommand's handler takes ``(args, config)`` and returns ``(exit code,
summary line, artifact)``.  ``main`` reads ``--in``/``--in2`` once; ``_emit``
writes the artifact, a grid function or a report (a dict, as JSON, or CSV
text), to ``--out`` (``rearrange --emit`` is another spelling) with the
configuration used next to it (<out>.config.json), and prints the summary
line, or, for a command without one, the report that no file took.

Exit codes: 0 success, 1 check failure (``verify``, ``multiplier validate``),
2 usage error (bad arguments, a malformed or unreadable input file, an invalid
value), reported as one ``error:`` line.  Scale windows are k = 1..L -
scale_margin (config key, 3 by default) unless ``--scales`` is given.
``--eps`` takes seed:S, constant:C or file:PATH, a JSON object mapping each
scale k to its 2^k scalars (floats or [re, im] pairs).
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
MAXIMAL_KINDS = "hl | dyadic | shifted[:n] | shifted_sup[:n] | strong | directional"
SQUARE_MODES = "plain | shifted[:n] | sup[:n]"
#: the ``verify`` options (argparse dests) that override configuration keys
CONFIG_FLAGS = {"grid": "log_size", "grid2d": "log_size_2d", "seed": "seed",
                "out_dir": "out_dir"}


def _add_io_arguments(parser, inputs=1, out=("--out",), out_help="output path (JSON)"):
    parser.add_argument("--in", dest="infile", required=True, help="input grid function")
    if inputs > 1:
        parser.add_argument("--in2", dest="infile2", help="second input")
    parser.add_argument(*out, dest="outfile", help=out_help)
    parser.add_argument("--format", default="json", choices=("json", "bin"))
    parser.add_argument("--log-sizes", type=int, nargs="+",
                        help="grid exponents (required when reading the binary format)")


def _command(sub, name, run, **kwargs):
    parser = sub.add_parser(name, **kwargs)
    parser.set_defaults(run=run)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusharmonics",
        description="harmonic-analysis operators on the discretized torus",
    )
    parser.add_argument("--config", help="flat key = value configuration file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "bumps", _bumps, help="partition-of-unity diagnostics")
    p.add_argument("action", choices=("check",))
    p.add_argument("--scales", type=int, default=7)
    p.add_argument("--grid", type=int, default=10)
    p.add_argument("--out", dest="outfile")

    p = _command(sub, "maximal", _maximal, help="maximal functions")
    p.add_argument("--kind", default="hl", type=_named(MAXIMAL_KINDS), help=MAXIMAL_KINDS)
    _add_io_arguments(p)

    p = _command(sub, "cz", _cz, help="Calderon-Zygmund decomposition")
    p.add_argument("--alpha", type=float, required=True)
    _add_io_arguments(p)

    p = _command(sub, "square", _square, help="Littlewood-Paley square function")
    mode = _named(SQUARE_MODES, sup="shifted_sup")
    p.add_argument("--mode", default="plain", type=mode, help=SQUARE_MODES)
    p.add_argument("--scales", type=int)
    _add_io_arguments(p)

    p = _command(sub, "hybrid", _hybrid, help="bi-parameter hybrid operators")
    p.add_argument("--kind", default="SS", choices=("SS", "SM", "MS", "MM"))
    p.add_argument("--scales", type=int)
    _add_io_arguments(p)

    p = _command(sub, "rearrange", _rearrange, help="decreasing rearrangement profile")
    _add_io_arguments(p, out=("--out", "--emit"),
                      out_help="CSV output of (breakpoint, value) rows")

    p = _command(sub, "zygmund", _zygmund, help="Zygmund L(log L)^n norms")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--method", default="both", choices=("closed_form", "iterated", "both"))
    _add_io_arguments(p)

    p = sub.add_parser("multiplier", help="multiplier operators")
    symbols = tuple(symbol_registry())
    action = p.add_subparsers(dest="action", required=True)
    pa = _command(action, "apply", _multiplier_apply)
    pa.add_argument("--symbol", required=True, choices=symbols, metavar="SYMBOL")
    _add_io_arguments(pa, inputs=2)
    pv = _command(action, "validate", _multiplier_validate)
    pv.add_argument("--symbol", required=True, choices=symbols, metavar="SYMBOL")
    pv.add_argument("--radius", type=int, default=32)
    pc = _command(action, "coeffs", _multiplier_coeffs)
    pc.add_argument("--symbol", default="hilbert", choices=symbols, metavar="SYMBOL")
    pc.add_argument("--scale", type=int, required=True)
    pc.add_argument("--out", dest="outfile", help="CSV of (n, |c|, (|n|+1)^p |c|)")

    p = _command(sub, "paraproduct", _paraproduct, help="bilinear paraproducts")
    p.add_argument("--params", type=int, default=1, choices=(1, 2))
    p.add_argument("--slots", default="3", help="mean slot per axis, e.g. 3 or 3,3")
    p.add_argument("--eps", default="seed:0", help="seed:S, constant:C or file:PATH")
    p.add_argument("--scales", type=int)
    _add_io_arguments(p, inputs=2)

    p = _command(sub, "verify", _verify, help="run the acceptance suite")
    p.add_argument("--only", nargs="*", help="check ids to run")
    p.add_argument("--grid", type=int, help="1D grid exponent")
    p.add_argument("--grid2d", type=int, help="2D per-axis grid exponent")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", dest="out_dir")
    return parser


def _named(choices: str, **rename):
    """An argparse type for ``choices`` like 'hl | shifted[:n]': (name, n), where only
    the names marked [:n] take ':n' and ``rename`` maps a spelling to its name."""
    counted = {c.removesuffix("[:n]"): c.endswith("[:n]") for c in choices.split(" | ")}

    def parse(text: str) -> tuple[str, int]:
        name, sep, num = text.partition(":")
        if name in counted and (not sep or counted[name] and num.lstrip("-").isdigit()):
            return rename.get(name, name), int(num or 0)
        raise argparse.ArgumentTypeError(f"invalid value {text!r}; expected {choices}")

    return parse


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {key: getattr(args, dest, None) for dest, key in CONFIG_FLAGS.items()}
    try:
        config = load_config(args.config or os.environ.get(CONFIG_ENV), overrides)
        paths = (getattr(args, "infile", None), getattr(args, "infile2", None))
        args.f, args.g = (read_grid_function(p, fmt=args.format, log_sizes=args.log_sizes)
                          if p else None for p in paths)
        return _emit(args.run(args, config), getattr(args, "outfile", None), config)
    except (FileFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _emit(result, outfile, config: RunConfig) -> int:
    """Apply the output rule (module docstring) to a handler's result."""
    code, summary, artifact = result
    if isinstance(artifact, dict):
        artifact = json.dumps(artifact, indent=2)
    if outfile and artifact is not None:
        if isinstance(artifact, GridFunction):
            write_grid_function(artifact, outfile, fmt="json")
        else:
            Path(outfile).write_text(artifact + "\n")
        Path(f"{outfile}.config.json").write_text(json.dumps(config.to_dict(), indent=2))
    elif summary is None and artifact is not None:
        print(artifact)
    if summary is not None:
        print(summary)
    return code


def _scale_count(args, config: RunConfig, log_size: int) -> int:
    """K of the scale window k = 1..K: ``--scales``, else L - scale_margin."""
    if args.scales is not None:
        count, source = args.scales, f"--scales {args.scales}"
    else:
        count = log_size - config.scale_margin
        source = f"grid exponent {log_size} with scale_margin {config.scale_margin}"
    if count < 1:
        raise ValueError(f"{source} gives the empty scale window k = 1..{count}")
    return count


def _rms(f: GridFunction) -> float:
    return float(np.sqrt(np.mean(np.abs(f.values) ** 2)))


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
    """JSON object mapping scale -> list of 2^k scalars (floats or [re, im] pairs)."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"epsilon file is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise FileFormatError("epsilon file must hold a JSON object keyed by scale")
    scales = {}
    for k in k_range:
        if str(k) not in payload:
            raise FileFormatError(f"epsilon file missing scale {k}")
        entries = payload[str(k)]
        if not isinstance(entries, list) or len(entries) != 2**k:
            raise FileFormatError(f"scale {k} needs a list of {2**k} scalars")
        pairs = [e if isinstance(e, list) else [e, 0.0] for e in entries]
        for e, pair in zip(entries, pairs):
            if len(pair) != 2 or not all(isinstance(x, (int, float)) for x in pair):
                raise FileFormatError(f"scale {k}: {e!r} is not a float or an [re, im] pair")
        scales[k] = np.array([complex(*pair) for pair in pairs])
    return EpsilonField(scales)


def _verify(args, config: RunConfig):
    return run_suite(config, only=set(args.only) if args.only else None), None, None


def _bumps(args, config: RunConfig):
    fam1, fam2 = build_pou(args.scales, args.grid)
    residuals = partition_residuals(fam1, fam2, build_double_pou(args.scales, args.grid))
    leakage = 0.0
    for k in fam1.scales:
        spec = fourier_coefficients(fam1.prototypes[k])
        freq = np.abs(spec.frequencies())
        outside = (freq < 2 ** (k - 4)) | (freq > 2 ** (k - 2))
        leakage = max(leakage, float(np.abs(spec.coefficients[outside]).max(initial=0.0)))
    constants = verify_adapted(fam1, 4)
    return 0, None, {
        "grid": args.grid,
        "scales": args.scales,
        "partition_residual": residuals["residual"],
        "double_partition_residual": residuals["residual_double"],
        "support_leakage": leakage,
        "adaptation_constants": {str(m): c for m, c in constants["C"].items()},
        "derivative_constants": {str(m): c for m, c in constants["C_prime"].items()},
    }


def _maximal(args, config: RunConfig):
    kind, n = args.kind
    out = maximal(args.f, kind=kind, n=n)
    return 0, f"max value {np.abs(out.values).max():.6g}", out


def _cz(args, config: RunConfig):
    dec = cz_decompose(args.f, args.alpha)
    return 0, None, {
        "alpha": args.alpha,
        "intervals": [str(iv) for iv in dec.intervals],
        "total_length": dec.total_length,
        "checks": {g.name: g.passed for g in cz_gates(args.f, dec)},
    }


def _square(args, config: RunConfig):
    log_size = args.f.log_sizes[0]
    fam = make_adapted_family("from_pou_1", _scale_count(args, config, log_size), log_size)
    mode, n = args.mode
    out = square_function(args.f, fam, mode=mode, n=n)
    return 0, f"||Sf||_2 = {_rms(out):.6g} (scale window k=1..{fam.k_max})", out


def _hybrid(args, config: RunConfig):
    if args.f.dims != 2:
        raise FileFormatError("hybrid takes 2D inputs")
    fam1, fam2 = (make_adapted_family("from_pou_1", _scale_count(args, config, L), L)
                  for L in args.f.log_sizes)
    out = hybrid(args.f, (fam1, fam2), args.kind)
    windows = f"k=1..{fam1.k_max} x k=1..{fam2.k_max}"
    return 0, f"||{args.kind}f||_2 = {_rms(out):.6g} (scale windows {windows})", out


def _rearrange(args, config: RunConfig):
    profile = rearrangement(args.f)
    steps = zip(profile.breakpoints, profile.values)
    rows = ["breakpoint,value"] + [f"{float(t)!r},{float(v)!r}" for t, v in steps]
    summary = f"{len(profile.values)} steps, support {profile.support:.6g}"
    return 0, summary, "\n".join(rows)


def _zygmund(args, config: RunConfig):
    methods = ("closed_form", "iterated") if args.method == "both" else (args.method,)
    out = {method: zygmund_norm(args.f, args.n, method) for method in methods}
    if len(out) == 2:
        a, b = out["closed_form"], out["iterated"]
        out["relative_gap"] = abs(a - b) / max(a, 1e-300)
    return 0, None, out


def _multiplier_validate(args, config: RunConfig):
    report = validate_symbol(symbol_registry()[args.symbol], probe_radius=args.radius)
    return 0 if report.passed else 1, None, {
        "symbol": report.symbol,
        "class": report.declared_class,
        "passed": report.passed,
        "worst_constant": report.worst(),
    }


def _multiplier_coeffs(args, config: RunConfig):
    table = symbol_coefficients(symbol_registry()[args.symbol], args.scale, n_max=256)
    columns = zip(table.frequencies, np.abs(table.table), table.decay_products())
    rows = ["n,abs_c,decay_product"]
    rows += [f"{n},{float(c)!r},{float(p)!r}" for n, c, p in columns]
    return 0, None, "\n".join(rows)


def _multiplier_apply(args, config: RunConfig):
    symbol = symbol_registry()[args.symbol]
    if symbol.arity == 1:
        out = apply_1d(symbol, args.f)
    elif args.g is None:
        raise FileFormatError("bilinear symbols need --in2")
    else:
        out = apply_bilinear(symbol, args.f, args.g)
    return 0, f"||out||_2 = {_rms(out):.6g}", out


def _paraproduct(args, config: RunConfig):
    f, g = args.f, args.g
    if g is None:
        raise FileFormatError("paraproducts need --in2")
    slots = tuple(int(s) for s in args.slots.split(","))
    if f.dims != args.params:
        raise FileFormatError(f"--params {args.params} takes {args.params}D inputs")
    if args.params == 2 and len(slots) != 2:
        raise FileFormatError("--params 2 needs --slots a,b")
    ranges = [range(1, _scale_count(args, config, L) + 1) for L in f.log_sizes]
    kinds = ("from_pou_1", "from_pou_2", "lower_bounded")
    triples = [tuple(make_adapted_family(kind, len(ks), L) for kind in kinds)
               for ks, L in zip(ranges, f.log_sizes)]
    spec = ParaproductSpec(
        params=args.params,
        families=triples[0] if args.params == 1 else tuple(triples),
        mean_slots=slots[: args.params],
        epsilon=EpsilonField.separable(*(_parse_epsilon(args.eps, ks) for ks in ranges)),
    )
    out = (paraproduct_1p if args.params == 1 else paraproduct_2p)(spec, f, g)
    return 0, f"||T(f,g)||_1 = {np.mean(np.abs(out.values)):.6g}", out


if __name__ == "__main__":
    sys.exit(main())
