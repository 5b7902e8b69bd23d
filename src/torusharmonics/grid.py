"""Uniform dyadic grids on the torus and the discrete Fourier layer.

A function on T, T^2 or T^3 is represented by its complex samples on a uniform
grid of N = 2^L points per axis, with points x_j = j/N.  Integrals over the
torus are grid means (left-endpoint rule), which is exact for band-limited
integrands and consistent with the DFT normalization used throughout:

    coeff(n) = (1/N^d) * sum_j f(x_j) exp(-2 pi i n . x_j)

so that the coefficient of a pure mode e^{2 pi i n x} is exactly 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MIN_LOG_SIZE = 4
MAX_LOG_SIZE = 13


def _check_log_sizes(log_sizes):
    if len(log_sizes) not in (1, 2, 3):
        raise ValueError(f"only 1D, 2D and 3D grids are supported, got {len(log_sizes)} axes")
    for L in log_sizes:
        if not (MIN_LOG_SIZE <= int(L) <= MAX_LOG_SIZE):
            raise ValueError(f"log size {L} outside [{MIN_LOG_SIZE}, {MAX_LOG_SIZE}]")
    return tuple(int(L) for L in log_sizes)


@dataclass(frozen=True)
class GridFunction:
    """Complex samples of a function on a uniform dyadic grid of T^d, d <= 3.

    ``values`` has shape ``(2**L1, ..., 2**Ld)``, one axis per log size
    (row-major axis order).  Instances are immutable; all operations return
    new objects.
    """

    log_sizes: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "log_sizes", _check_log_sizes(self.log_sizes))
        vals = np.asarray(self.values, dtype=np.complex128)
        shape = tuple(2**L for L in self.log_sizes)
        if vals.size != int(np.prod(shape)):
            raise ValueError(f"values size {vals.size} does not match grid shape {shape}")
        vals = vals.reshape(shape)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def dims(self) -> int:
        return len(self.log_sizes)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(2**L for L in self.log_sizes)

    def __add__(self, other):
        return GridFunction(self.log_sizes, self.values + _values_like(self, other))

    def __sub__(self, other):
        return GridFunction(self.log_sizes, self.values - _values_like(self, other))

    def __mul__(self, other):
        return GridFunction(self.log_sizes, self.values * _values_like(self, other))

    __rmul__ = __mul__

    def __abs__(self):
        return GridFunction(self.log_sizes, np.abs(self.values))

    def mean(self) -> complex:
        """Integral over the torus (grid mean), exactly-rounded summation."""
        flat = self.values.ravel()
        return complex(math.fsum(flat.real), math.fsum(flat.imag)) / flat.size

    @staticmethod
    def from_callable(func, log_sizes) -> "GridFunction":
        log_sizes = _check_log_sizes(log_sizes)
        axes = (np.arange(2**L) / 2**L for L in log_sizes)
        return GridFunction(log_sizes, func(*np.meshgrid(*axes, indexing="ij", sparse=True)))

    @staticmethod
    def constant(value, log_sizes) -> "GridFunction":
        log_sizes = _check_log_sizes(log_sizes)
        shape = tuple(2**L for L in log_sizes)
        return GridFunction(log_sizes, np.full(shape, value, dtype=np.complex128))


def _values_like(f: GridFunction, other):
    if isinstance(other, GridFunction):
        if other.log_sizes != f.log_sizes:
            raise ValueError("grid size mismatch")
        return other.values
    return other


def _frequency(n, dims: int) -> tuple[int, ...]:
    """Integer frequency ``n`` (a scalar in 1D) as one entry per axis."""
    ns = tuple(int(m) for m in np.atleast_1d(n))
    if len(ns) != dims:
        raise ValueError(f"frequency {n!r} needs {dims} components")
    return ns


@dataclass(frozen=True)
class Spectrum:
    """Truncated Fourier coefficients paired 1:1 with a GridFunction.

    Coefficients are stored in FFT-standard order along each axis; the
    represented frequencies per axis are the integers in [-N/2, N/2).
    """

    log_sizes: tuple[int, ...]
    coefficients: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "log_sizes", _check_log_sizes(self.log_sizes))
        coeffs = np.asarray(self.coefficients, dtype=np.complex128)
        shape = tuple(2**L for L in self.log_sizes)
        if coeffs.shape != shape:
            coeffs = coeffs.reshape(shape)
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def dims(self) -> int:
        return len(self.log_sizes)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(2**L for L in self.log_sizes)

    def frequencies(self, axis: int = 0) -> np.ndarray:
        """Integer frequencies along ``axis``, in storage order."""
        n = self.sizes[axis]
        return np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)

    def coefficient(self, n) -> complex:
        """Coefficient at integer frequency ``n`` (scalar or tuple)."""
        idx = tuple(self._axis_index(m, a) for a, m in enumerate(_frequency(n, self.dims)))
        return complex(self.coefficients[idx])

    def _axis_index(self, n: int, axis: int) -> int:
        size = self.sizes[axis]
        if not (-size // 2 <= n < size // 2):
            raise ValueError(f"frequency {n} outside represented band [-{size//2}, {size//2})")
        return n % size

    @staticmethod
    def from_modes(modes: dict, log_sizes) -> "Spectrum":
        log_sizes = _check_log_sizes(log_sizes)
        shape = tuple(2**L for L in log_sizes)
        coeffs = np.zeros(shape, dtype=np.complex128)
        for n, c in modes.items():
            coeffs[tuple(m % s for m, s in zip(_frequency(n, len(shape)), shape))] = c
        return Spectrum(log_sizes, coeffs)


def fourier_coefficients(f: GridFunction) -> Spectrum:
    """Discrete Fourier coefficients of ``f`` with 1/N^d normalization."""
    return Spectrum(f.log_sizes, np.fft.fftn(f.values) / f.values.size)


def inverse_transform(s: Spectrum) -> GridFunction:
    """Exact inverse of :func:`fourier_coefficients` on the represented band."""
    return GridFunction(s.log_sizes, np.fft.ifftn(s.coefficients * s.coefficients.size))


def convolve(f: GridFunction, g: GridFunction) -> GridFunction:
    """Circular convolution on the torus, computed spectrally.

    Satisfies (f*g)^(n) = f_hat(n) g_hat(n) on the represented band.
    """
    if f.log_sizes != g.log_sizes:
        raise ValueError("grid size mismatch")
    fh = np.fft.fftn(f.values)
    gh = np.fft.fftn(g.values)
    return GridFunction(f.log_sizes, np.fft.ifftn(fh * gh) / f.values.size)


def inner_product(f: GridFunction, g: GridFunction) -> complex:
    """L2 pairing <f, g> = integral of f conj(g) (a grid mean)."""
    if f.log_sizes != g.log_sizes:
        raise ValueError("grid size mismatch")
    return complex(np.vdot(g.values, f.values) / f.values.size)


_NORM_KINDS = ("Lp", "Linf", "WeakLp")


@dataclass(frozen=True)
class NormSpec:
    """Which norm to compute: Lp(p), Linf, or WeakLp(p)."""

    kind: str
    p: float = 0.0

    def __post_init__(self):
        if self.kind not in _NORM_KINDS:
            raise ValueError(f"unknown norm kind {self.kind!r}; expected one of {_NORM_KINDS}")
        if self.kind in ("Lp", "WeakLp") and not self.p > 0:
            raise ValueError("exponent p must be positive")

    @staticmethod
    def lp(p: float) -> "NormSpec":
        return NormSpec("Lp", float(p))

    @staticmethod
    def linf() -> "NormSpec":
        return NormSpec("Linf")

    @staticmethod
    def weak(p: float) -> "NormSpec":
        return NormSpec("WeakLp", float(p))


def norm(f: GridFunction, spec: NormSpec) -> float:
    """Lp, Linf, or weak-Lp quasinorm of ``f`` on the probability space T^d."""
    absvals = np.abs(f.values).ravel()
    if spec.kind == "Linf":
        return float(absvals.max())
    if spec.kind == "Lp":
        return float(np.mean(absvals ** spec.p) ** (1.0 / spec.p))
    return weak_lp_norm_of_values(absvals, spec.p)


def weak_lp_norm_of_values(absvals: np.ndarray, p: float) -> float:
    """sup_{lambda>0} lambda |{|f| > lambda}|^{1/p} for sampled values.

    The distribution function is a step function, and lambda * mu(lambda)^{1/p}
    is increasing between its breakpoints, so the sup is attained in the limit
    lambda -> v from below at the distinct sample values v:
    sup = max_v v * (fraction with |f| >= v)^{1/p}.  A NaN sample makes it NaN.
    """
    absvals = np.asarray(absvals, dtype=float).ravel()
    if np.isnan(absvals).any():
        return math.nan
    total = absvals.size
    vals = np.sort(absvals)[::-1]
    positive = vals > 0
    if not positive.any():
        return 0.0
    counts = np.arange(1, total + 1)
    # for sorted descending values, fraction(|f| >= vals[i]) is (i+1)/total at
    # the last occurrence of each distinct value; taking the max over all i of
    # vals[i] * ((i+1)/total)^{1/p} is equivalent and simpler.
    return float(np.max(vals[positive] * (counts[positive] / total) ** (1.0 / p)))


def lp_norm(f: GridFunction, p: float) -> float:
    return norm(f, NormSpec.lp(p))


def weak_lp_norm(f: GridFunction, p: float) -> float:
    return norm(f, NormSpec.weak(p))
