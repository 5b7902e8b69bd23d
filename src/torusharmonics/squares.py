"""Littlewood-Paley square functions, linearizations, and hybrid operators.

Every operator here reads the pairings <phi_I, f> off the lag arrays of
``transform.analysis`` (one forward FFT of f per call, one inverse FFT per
scale, or per scale tuple on several axes): dyadic, shifted and fractionally
shifted intervals read their lags by striding.  Sums of members go back
through ``transform.synthesis``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .bumps import AdaptedFamily
from .grid import GridFunction
from .transform import analysis, synthesis


@dataclass
class EpsilonSequence:
    """Per-interval scalars, normalized to |eps| <= 1 on construction."""

    scales: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        sup = max((np.abs(v).max() for v in self.scales.values() if v.size), default=0.0)
        if sup > 1.0:
            self.scales = {k: v / sup for k, v in self.scales.items()}

    def at(self, k: int) -> np.ndarray:
        return self.scales[k]

    @staticmethod
    def constant(value, k_range) -> "EpsilonSequence":
        return EpsilonSequence({k: np.full(2**k, value, dtype=complex) for k in k_range})

    @staticmethod
    def rademacher(seed: int, k_range) -> "EpsilonSequence":
        rng = np.random.default_rng(seed)
        return EpsilonSequence(
            {k: rng.choice([-1.0, 1.0], size=2**k).astype(complex) for k in k_range}
        )


@dataclass
class EpsilonField2D:
    """Per-rectangle scalars indexed by scale pairs."""

    scales: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        sup = max((np.abs(v).max() for v in self.scales.values() if v.size), default=0.0)
        if sup > 1.0:
            self.scales = {k: v / sup for k, v in self.scales.items()}

    def at(self, k1: int, k2: int) -> np.ndarray:
        return self.scales[(k1, k2)]

    @staticmethod
    def rademacher(seed: int, ks1, ks2) -> "EpsilonField2D":
        rng = np.random.default_rng(seed)
        return EpsilonField2D(
            {
                (k1, k2): rng.choice([-1.0, 1.0], size=(2**k1, 2**k2)).astype(complex)
                for k1 in ks1
                for k2 in ks2
            }
        )

    @staticmethod
    def separable(eps1: EpsilonSequence, eps2: EpsilonSequence) -> "EpsilonField2D":
        return EpsilonField2D(
            {
                (k1, k2): np.outer(eps1.at(k1), eps2.at(k2))
                for k1 in eps1.scales
                for k2 in eps2.scales
            }
        )



def _alpha_offsets(step: int, max_offsets: int = 64) -> np.ndarray:
    """Grid-representable fractional shifts at one scale, stride-subsampled."""
    stride = max(1, step // max_offsets)
    return np.arange(0, step, stride)


def _member_starts(k: int, step: int, max_offsets: int | None = None) -> np.ndarray:
    """Start sample j step + o of the scale-k member on I_j (row j) shifted by o.

    The columns are the fractional shifts o of ``_alpha_offsets``, or o = 0
    alone when ``max_offsets`` is None.
    """
    offsets = np.zeros(1, dtype=int) if max_offsets is None else _alpha_offsets(step, max_offsets)
    return (np.arange(2**k) * step)[:, None] + offsets


def _prototypes(fam: AdaptedFamily, scales) -> list[np.ndarray]:
    return [fam.prototype_values(k) for k in scales]


@dataclass
class CoefficientField:
    """Per-scale arrays of pairings <phi_{I^n_alpha}, f> over dyadic I."""

    family: AdaptedFamily
    shift: tuple[int, float]
    scales: dict[int, np.ndarray]

    def at(self, k: int) -> np.ndarray:
        return self.scales[k]


def coefficient_field(
    f: GridFunction, fam: AdaptedFamily, n: int = 0, alpha: float = 0.0
) -> CoefficientField:
    """All pairings <phi_{I^n_alpha}, f>, one inverse FFT per scale.

    ``alpha`` is snapped to the nearest grid-representable shift per scale.
    """
    if f.dims != 1 or f.log_sizes[0] != fam.log_size:
        raise ValueError("input grid does not match the family grid")
    size = 2**fam.log_size
    scales = {}
    for k, lags in zip(fam.scales, analysis(f.values, [_prototypes(fam, fam.scales)])):
        step = 2 ** (fam.log_size - k)
        offset = int(round(alpha * step)) % size
        idx = (np.arange(2**k) + n) % 2**k
        scales[k] = 2.0**-k * lags[(idx * step + offset) % size]
    return CoefficientField(fam, (n, alpha), scales)


def _envelope(f, fams, kind, shifts, max_offsets=None) -> np.ndarray:
    """Aggregate A_R = |<phi_{R^n}, f>| / |R| over the dyadic boxes R.

    Axis a's letter of ``kind`` aggregates over that axis's scales, 'S' by
    (sum A^2)^{1/2} and 'M' by the sup, innermost axis first.  With
    ``max_offsets`` the pairing is also maximized over the fractional shifts
    of ``_alpha_offsets`` per axis.  The aggregates run as the scale tuples
    arrive, so one lag array and one partial aggregate per axis are alive.
    """
    scale_lists = [list(fam.scales) for fam in fams]
    lag_arrays = analysis(f.values, [_prototypes(fam, ks) for fam, ks in zip(fams, scale_lists)])
    partial = [None] * len(fams)
    for ks, lags in zip(itertools.product(*scale_lists), lag_arrays):
        steps = [size >> k for size, k in zip(f.sizes, ks)]
        reads, shape = [], []
        for k, step, n, size in zip(ks, steps, shifts, f.sizes):
            starts = _member_starts(k, step, max_offsets)
            reads.append(((starts + n * step) % size).ravel())
            shape += starts.shape
        # the members' 2^-k scalings cancel against |R|
        amp = np.abs(lags[np.ix_(*reads)]).reshape(shape).max(axis=tuple(range(1, len(shape), 2)))
        for axis, step in enumerate(steps):
            amp = np.repeat(amp, step, axis=axis)
        for axis in reversed(range(len(fams))):
            if kind[axis] == "S":
                amp = amp**2
            if partial[axis] is None:
                partial[axis] = amp
            elif kind[axis] == "S":
                partial[axis] += amp
            else:
                np.maximum(partial[axis], amp, out=partial[axis])
            if ks[axis] != scale_lists[axis][-1]:
                break
            amp = np.sqrt(partial[axis]) if kind[axis] == "S" else partial[axis]
            partial[axis] = None
    return amp


def square_function(
    f: GridFunction,
    fam: AdaptedFamily,
    mode: str = "plain",
    n: int = 0,
    max_offsets: int = 64,
) -> GridFunction:
    """Sf(x) = (sum_I |<phi_I., f>|^2 / |I| chi_I(x))^{1/2} over dyadic I.

    mode 'shifted' pairs against phi_{I^n}; 'shifted_sup' additionally takes
    the sup over grid-representable fractional shifts per scale.
    """
    if not fam.zero_mean:
        raise ValueError("square function requires a zero-mean family")
    if f.dims != 1 or f.log_sizes[0] != fam.log_size:
        raise ValueError("input grid does not match the family grid")
    if mode not in ("plain", "shifted", "shifted_sup"):
        raise ValueError(f"unknown square function mode {mode!r}")
    if mode == "plain":
        n = 0
    sup_offsets = max_offsets if mode == "shifted_sup" else None
    return GridFunction(f.log_sizes, _envelope(f, (fam,), "S", (n,), sup_offsets))


def linearize(
    f: GridFunction,
    fam1: AdaptedFamily,
    fam2: AdaptedFamily,
    eps: EpsilonSequence,
    n: int = 0,
    average_alpha: bool = False,
    max_offsets: int = 64,
) -> GridFunction:
    """T_eps f = sum_I eps_I <phi^1_I, f> phi^2_I with normalized members.

    With ``average_alpha`` the inner family is shifted by ``n`` and the sum
    is averaged over the grid-representable fractional shifts of both
    families (the discretization of the integral over alpha).
    """
    for fam in (fam1, fam2):
        if not fam.zero_mean:
            raise ValueError("linearization requires zero-mean families")
        if f.dims != 1 or f.log_sizes[0] != fam.log_size:
            raise ValueError("input grid does not match the family grid")
    size = 2**fam1.log_size
    scales = sorted(set(fam1.scales) & set(fam2.scales))

    def trains():
        for k, lags in zip(scales, analysis(f.values, [_prototypes(fam1, scales)])):
            step = 2 ** (fam1.log_size - k)
            at = _member_starts(k, step, max_offsets if average_alpha else None)
            # eps <phi^1_norm, f> phi^2_norm = eps 2^-k lag psi^2(x - j step - o)
            train = np.zeros(size, dtype=np.complex128)
            train[at] = 2.0**-k * eps.at(k)[:, None] * lags[(at + n * step) % size] / at.shape[1]
            yield train

    return GridFunction(f.log_sizes, synthesis(trains(), [_prototypes(fam2, scales)]))


def hybrid(
    f: GridFunction,
    fams: tuple[AdaptedFamily, ...],
    kind: str = "SS",
    shifts: tuple[int, ...] | None = None,
    sup_alpha: bool = False,
    max_offsets: int = 16,
) -> GridFunction:
    """Multi-parameter hybrid operators on T^d built from tensor coefficients.

    ``kind`` has one letter in {S, M} per axis.  With A_R = |<phi_R, f>| / |R|
    on the dyadic box R, the last axis is aggregated first ('S' by the root
    of the sum of squares, 'M' by the sup), then the next axis out, and so
    on.  In two parameters:
      MM = sup_R A_R chi_R,     SS = (sum_R A_R^2 chi_R)^{1/2},
      MS = sup over the first axis of the second-axis square aggregate,
      SM = second-axis sup inside the first-axis square aggregate.
    ``shifts`` pairs against phi_{R^n}, one n per axis (default none);
    ``sup_alpha`` also takes the sup over fractional shifts per axis.
    The S-slots require the corresponding family to be zero-mean.
    """
    if len(kind) != f.dims or any(c not in "SM" for c in kind):
        raise ValueError(f"hybrid kind {kind!r} is not a {f.dims}-letter word over {{S, M}}")
    if f.log_sizes != tuple(fam.log_size for fam in fams):
        raise ValueError("input grid does not match the family grids")
    for axis, (fam, c) in enumerate(zip(fams, kind)):
        if c == "S" and not fam.zero_mean:
            raise ValueError(f"axis {axis} S slot requires a zero-mean family")
    shifts = (0,) * f.dims if shifts is None else tuple(shifts)
    if len(shifts) != f.dims:
        raise ValueError("one shift per axis")
    sup_offsets = max_offsets if sup_alpha else None
    return GridFunction(f.log_sizes, _envelope(f, fams, kind, shifts, sup_offsets))


def hybrid3(f: GridFunction, fams: tuple[AdaptedFamily, ...], kind: str = "SSS") -> GridFunction:
    """Tri-parameter hybrid on a 3D sample cube (``hybrid`` on three axes)."""
    return hybrid(f, fams, kind)


class GridFunction3(GridFunction):
    """A 3D grid function whose log sizes are read off the cube's shape."""

    def __init__(self, values):
        shape = np.shape(values)
        if len(shape) != 3 or any(s & (s - 1) for s in shape):
            raise ValueError(f"expected a 3D array with power-of-two sides, got {shape}")
        super().__init__(tuple(s.bit_length() - 1 for s in shape), values)

    @staticmethod
    def from_callable(func, log_sizes) -> "GridFunction3":
        return GridFunction3(GridFunction.from_callable(func, log_sizes).values)
