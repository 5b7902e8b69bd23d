"""Grid-function file formats and run configuration.

JSON carries its own shape ({dims, log_sizes, re, im}); the binary format is
a bare stream of little-endian float64 (re, im) pairs in row-major order, so
reading it back needs the shape supplied by the caller (the CLI exposes
--dims/--log-sizes for this).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .grid import MAX_LOG_SIZE, MIN_LOG_SIZE, GridFunction


class FileFormatError(ValueError):
    pass


def write_grid_function(f: GridFunction, path, fmt: str = "json") -> None:
    path = Path(path)
    if fmt == "json":
        payload = {
            "dims": f.dims,
            "log_sizes": list(f.log_sizes),
            "re": f.values.real.ravel().tolist(),
            "im": f.values.imag.ravel().tolist(),
        }
        path.write_text(json.dumps(payload))
        return
    if fmt == "bin":
        flat = f.values.ravel()
        pairs = np.empty(2 * flat.size, dtype="<f8")
        pairs[0::2] = flat.real
        pairs[1::2] = flat.imag
        path.write_bytes(pairs.tobytes())
        return
    raise FileFormatError(f"unknown format {fmt!r}")


def read_grid_function(path, fmt: str = "json", log_sizes=None) -> GridFunction:
    path = Path(path)
    if fmt == "json":
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"not valid JSON: {exc}") from exc
        for key in ("dims", "log_sizes", "re", "im"):
            if key not in payload:
                raise FileFormatError(f"missing field {key!r}")
        log_sizes = tuple(int(v) for v in payload["log_sizes"])
        if len(log_sizes) != int(payload["dims"]):
            raise FileFormatError("field 'dims' does not match 'log_sizes'")
        expected = 1
        for L in log_sizes:
            expected *= 2**L
        re, im = payload["re"], payload["im"]
        if len(re) != expected or len(im) != expected:
            raise FileFormatError(
                f"fields 're'/'im' have {len(re)}/{len(im)} entries; "
                f"log_sizes {log_sizes} needs {expected}"
            )
        return GridFunction(log_sizes, _complex_samples(re, im))
    if fmt == "bin":
        if log_sizes is None:
            raise FileFormatError("binary format carries no shape; pass log_sizes")
        log_sizes = tuple(int(v) for v in log_sizes)
        raw = np.frombuffer(path.read_bytes(), dtype="<f8")
        expected = 1
        for L in log_sizes:
            expected *= 2**L
        if raw.size != 2 * expected:
            raise FileFormatError(
                f"binary payload holds {raw.size} floats; expected {2 * expected}"
            )
        return GridFunction(log_sizes, _complex_samples(raw[0::2], raw[1::2]))
    raise FileFormatError(f"unknown format {fmt!r}")


def _complex_samples(re, im) -> np.ndarray:
    """re + i im, if no sample has a NaN or infinite part."""
    re, im = np.asarray(re, dtype=float), np.asarray(im, dtype=float)
    bad = np.count_nonzero(~(np.isfinite(re) & np.isfinite(im)))
    if bad:
        raise FileFormatError(f"{bad} of {re.size} samples are NaN or infinite")
    return re + 1j * im


@dataclass
class RunConfig:
    """Grid, seed and output settings shared by the CLI tools."""

    log_size: int = 10
    log_size_2d: int = 8
    scale_margin: int = 3
    seed: int = 11
    out_dir: str = "verify-out"
    mc_samples: int = 100_000

    def __post_init__(self):
        for L in (self.log_size, self.log_size_2d):
            if not MIN_LOG_SIZE <= L <= MAX_LOG_SIZE:
                raise ValueError(f"grid exponent {L} outside [{MIN_LOG_SIZE}, {MAX_LOG_SIZE}]")

    def to_dict(self) -> dict:
        return asdict(self)


def parse_config_file(path) -> dict:
    """Flat key = value configuration (ints, floats, bools, strings)."""
    out: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FileFormatError(f"line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key] = _coerce(value)
    return out


def _coerce(value: str):
    lowered = value.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            continue
    return value.strip("'\"")


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    data = parse_config_file(path) if path is not None else {}
    unknown = sorted(set(data) - {f.name for f in fields(RunConfig)})
    if unknown:
        raise FileFormatError(f"unknown configuration key(s): {', '.join(unknown)}")
    if overrides:
        data.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig(**data)
