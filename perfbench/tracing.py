"""Per-layer tracing of torusharmonics from outside the library.

``Tracer`` wraps the public functions of each measured library module, the
``GridFunction`` constructor and the ``numpy.fft`` entry points with timing
wrappers.  Library modules import names directly (``from .maximal import
maximal``), so every binding of a wrapped function object in every
``torusharmonics.*`` namespace is replaced, and all of them are restored by
``uninstall``.  Spans (name, start, end, parent, FFT points) are kept in
memory in flat arrays; ``layer_stats`` turns them into self times and counts,
where a span's self time is its duration minus the time its child spans
cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

# Layers measured by the benchmark, in report order.  ``dyadic`` is not
# wrapped: its work is folded into the callers (``maximal.cz_decompose``).
LAYERS = (
    "grid", "bumps", "corpus", "maximal", "squares", "paraproducts",
    "multipliers", "rearrange", "probes", "suite",
)
FFT_ENTRY_POINTS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn")
# complex128 input plus complex128 output per transformed point
BYTES_PER_FFT_POINT = 32

# Per-function metrics the benchmark reports; ``maximal.maximal`` spans are
# keyed by their ``kind`` argument instead of the function name.
FUNCTION_METRICS = (
    "squares.hybrid", "squares.hybrid3", "squares.square_function",
    "squares.linearize", "squares.coefficient_field",
    "paraproducts.paraproduct_1p", "paraproducts.paraproduct_2p",
    "maximal.hl", "maximal.dyadic", "maximal.shifted", "maximal.shifted_sup",
    "maximal.strong", "maximal.directional", "maximal.cz_decompose",
    "maximal.adapted_maximal",
    "multipliers.apply_biparameter", "multipliers.apply_bilinear",
    "rearrange.rearrangement", "rearrange.zygmund_norm",
    "probes.llogl_maximal_experiment", "probes.khinchine_experiment",
    "grid.GridFunction", "grid.norm",
    "bumps.make_adapted_family", "corpus.generate_corpus",
)


def _maximal_kind(args, kwargs):
    if "kind" in kwargs:
        return kwargs["kind"]
    return args[1] if len(args) > 1 else "hl"


class Tracer:
    """Install timing wrappers, record spans, restore every binding."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.points = array("q")
        self._stack: list[int] = []
        self._fft_ids: set[int] = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording ------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.points.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _timed(self, func, name=None, key=None):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = name if key is None else f"maximal.{key(args, kwargs)}"
            idx = self._open(span)
            try:
                return func(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def _counted_fft(self, func, name):
        self._fft_ids.add(self._intern(name))

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            # numpy's 2D/nD transforms may call the 1D ones: count the outer only
            if self._stack and self.name_id[self._stack[-1]] in self._fft_ids:
                return func(*args, **kwargs)
            idx = self._open(name)
            try:
                out = func(*args, **kwargs)
                self.points[idx] = out.size
                return out
            finally:
                self._close(idx)

        return wrapper

    # -- install / uninstall -------------------------------------------------

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        """Wrap every measured public function and rebind all its aliases."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = package_modules()
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = modules[f"torusharmonics.{layer}"]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                if (layer, attr) == ("maximal", "maximal"):
                    wrapper = self._timed(obj, key=_maximal_kind)
                else:
                    wrapper = self._timed(obj, name=f"{layer}.{attr}")
                wrappers[id(obj)] = (obj, wrapper)
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                original, wrapper = wrappers.get(id(obj), (None, None))
                if obj is original:
                    self._patch(module, attr, wrapper)
        grid_function = modules["torusharmonics.grid"].GridFunction
        self._patch(
            grid_function, "__init__",
            self._timed(grid_function.__init__, name="grid.GridFunction"),
        )
        for attr in FFT_ENTRY_POINTS:
            self._patch(np.fft, attr, self._counted_fft(getattr(np.fft, attr), f"fft.{attr}"))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -------------------------------------------------------------

    def span_arrays(self) -> dict[str, np.ndarray]:
        if self._stack:
            raise RuntimeError("spans are still open")
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "points": np.frombuffer(self.points, dtype=np.int64).copy(),
        }

    def layer_stats(self) -> dict[str, float]:
        """Per-layer and per-function self time and calls, plus FFT work."""
        spans = self.span_arrays()
        dur = spans["end"] - spans["start"]
        has_parent = spans["parent"] >= 0
        child_time = np.bincount(
            spans["parent"][has_parent], weights=dur[has_parent], minlength=dur.size
        )
        self_time = dur - child_time
        per_name_self = np.bincount(spans["name_id"], weights=self_time, minlength=len(self.names))
        per_name_calls = np.bincount(spans["name_id"], minlength=len(self.names))
        per_name_points = np.bincount(
            spans["name_id"], weights=spans["points"], minlength=len(self.names)
        )
        out: dict[str, float] = {}
        for layer in ("fft",) + LAYERS:
            ids = [i for i, n in enumerate(self.names) if n.split(".", 1)[0] == layer]
            out[f"{layer}.self_s"] = float(per_name_self[ids].sum())
            out[f"{layer}.calls"] = int(per_name_calls[ids].sum())
        points = int(per_name_points.sum())
        out["fft.points"] = points
        out["fft.bytes_computed"] = BYTES_PER_FFT_POINT * points
        for metric in FUNCTION_METRICS:
            i = self._name_ids.get(metric)
            out[f"{metric}.self_s"] = float(per_name_self[i]) if i is not None else 0.0
            out[f"{metric}.calls"] = int(per_name_calls[i]) if i is not None else 0
        return out


def package_modules() -> dict:
    """Every loaded ``torusharmonics`` module, importing the measured layers."""
    for layer in LAYERS:
        importlib.import_module(f"torusharmonics.{layer}")
    return {
        name: module
        for name, module in sys.modules.items()
        if name == "torusharmonics" or name.startswith("torusharmonics.")
    }

