"""Littlewood-Paley square functions, linearizations, and hybrid operators.

Every operator here reads the pairings <phi_R, f> off the lag arrays of
``transform.analysis`` (one forward FFT of f per call, one inverse FFT per
scale tuple).  The lags are computed only on the lattice the boxes start on
(``_lattice``): multiples of the step for dyadic and shifted boxes, of the
stride of the fractional shifts otherwise, so a scale-k lag array has 2^k
entries per axis, or 2^k times the number of shifts.  Two private builders
serve every axis count: ``_envelope`` aggregates |<phi_R, f>| / |R| into
square functions, hybrids and the adapted maximal function, and ``_trains``
turns the pairings of one or more inputs into the weight trains of a
multilinear sum over boxes, which ``transform.synthesis`` inverts once (the
sign linearization here, the paraproducts in ``paraproducts``).  Both walk the scale tuples of
``_scale_lists``, which drops scales at which a prototype is identically
zero.  Scalars eps_R live in one ``EpsilonField`` keyed by scale tuples.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .bumps import AdaptedFamily
from .grid import GridFunction
from .transform import analysis, synthesis


@dataclass
class EpsilonField:
    """Per-box scalars eps_R keyed by scale tuples, normalized to |eps| <= 1.

    Every scalar must be finite: a NaN would pass the normalization and
    reach every output.

    ``scales[(k_1, ..., k_d)]`` has shape (2^k_1, ..., 2^k_d), one scalar per
    dyadic box of that scale tuple; an int key k stands for (k,).  The
    random and constant fields fill every tuple of the given scale ranges in
    ``itertools.product`` order.
    """

    scales: dict[tuple[int, ...], np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self.scales = {(k if isinstance(k, tuple) else (k,)): v for k, v in self.scales.items()}
        bad = sum(int(np.count_nonzero(~np.isfinite(v))) for v in self.scales.values())
        if bad:
            raise ValueError(f"{bad} eps values are NaN or infinite")
        sup = max((np.abs(v).max() for v in self.scales.values() if v.size), default=0.0)
        if sup > 1.0:
            self.scales = {k: v / sup for k, v in self.scales.items()}

    def at(self, *ks: int) -> np.ndarray:
        return self.scales[ks]

    @staticmethod
    def _fill(k_ranges, draw) -> "EpsilonField":
        boxes = itertools.product(*k_ranges)
        return EpsilonField({ks: draw(tuple(2**k for k in ks)) for ks in boxes})

    @staticmethod
    def constant(value, *k_ranges) -> "EpsilonField":
        return EpsilonField._fill(k_ranges, lambda shape: np.full(shape, value, dtype=complex))

    @staticmethod
    def rademacher(seed: int, *k_ranges) -> "EpsilonField":
        rng = np.random.default_rng(seed)
        return EpsilonField._fill(
            k_ranges, lambda shape: rng.choice([-1.0, 1.0], size=shape).astype(complex)
        )

    @staticmethod
    def stack(fields) -> "EpsilonField":
        """Several fields as one with a leading batch axis, on the scale tuples
        they all hold; an operator given it returns one output per field."""
        keys = set.intersection(*(set(f.scales) for f in fields))
        return EpsilonField({ks: np.stack([f.scales[ks] for f in fields]) for ks in sorted(keys)})

    @property
    def batch(self) -> tuple[int, ...]:
        """The leading shape a stacked field carries, () for a single field."""
        for ks, v in self.scales.items():
            return v.shape[: v.ndim - len(ks)]
        return ()

    @staticmethod
    def separable(*fields: "EpsilonField") -> "EpsilonField":
        """eps_{R_1 x R_2 x ...} = prod_i eps^i_{R_i}, one field per group of axes."""
        return EpsilonField(
            {
                sum(keys, ()): functools.reduce(
                    np.multiply.outer, (f.scales[key] for f, key in zip(fields, keys))
                )
                for keys in itertools.product(*(f.scales for f in fields))
            }
        )


# the one- and two-parameter names of the field
EpsilonSequence = EpsilonField2D = EpsilonField


def _alpha_offsets(step: int, max_offsets: int) -> np.ndarray:
    """Grid-representable fractional shifts at one scale, stride-subsampled."""
    stride = max(1, step // max_offsets)
    return np.arange(0, step, stride)


def _lattice(size: int, k: int, max_offsets: int | None = None):
    """(s, offsets): the spacing of the samples the scale-k boxes start on, and
    their fractional shifts ``_alpha_offsets`` (o = 0 alone without ``max_offsets``)."""
    step = size >> k
    offsets = np.zeros(1, dtype=int) if max_offsets is None else _alpha_offsets(step, max_offsets)
    return math.gcd(step, *offsets.tolist()), offsets


def _spacings(scale_lists, sizes, max_offsets=None) -> list[list[int]]:
    """Per axis, the lattice spacing of ``_boxes`` at each scale, for ``analysis``."""
    return [[_lattice(size, k, max_offsets)[0] for k in ks] for ks, size in zip(scale_lists, sizes)]


def _boxes(ks, sizes, max_offsets: int | None = None) -> list[np.ndarray]:
    """Per axis, the start sample j step + o of the scale-k member on I_j,
    in units of the lattice spacing s of ``_lattice``.

    Row j is the dyadic interval, the columns the fractional shifts o of
    ``_alpha_offsets``, or o = 0 alone when ``max_offsets`` is None.
    """
    boxes = []
    for k, size in zip(ks, sizes):
        s, offsets = _lattice(size, k, max_offsets)
        boxes.append(((np.arange(2**k) * (size >> k))[:, None] + offsets) // s)
    return boxes


def _read(lags: np.ndarray, boxes, shifts) -> np.ndarray:
    """Lags on the boxes moved by n_a intervals per axis, shape (2^k_1, #o_1, ...)."""
    index = [
        ((box + n * (size // len(box))) % size).ravel()
        for box, n, size in zip(boxes, shifts, lags.shape)
    ]
    return lags[np.ix_(*index)].reshape([m for box in boxes for m in box.shape])


def _bands(fams, scale_lists):
    """Per axis, the cached DFT of that axis's family at each of its scales."""
    return [[fam.band(k) for k in ks] for fam, ks in zip(fams, scale_lists)]


def _scale_lists(axes) -> list[list[int]]:
    """Per axis, the scales all of the axis's families share, in order.

    A scale where some family's prototype is identically zero (``from_pou_1``
    at k = 1, 2 and ``from_pou_2`` at k = 1) adds exact zeros to every sum
    and sup here, so it is left out.
    """
    return [
        [
            k
            for k in sorted(set.intersection(*(set(fam.scales) for fam in fams)))
            if all(fam.band(k).values.any() for fam in fams)
        ]
        for fams in axes
    ]


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
    # the boxes of one scale start on the coset round(alpha step) + step Z
    steps = [f.sizes[0] >> k for k in fam.scales]
    offsets = [int(round(alpha * step)) for step in steps]
    lag_arrays = analysis(f.values, _bands([fam], [fam.scales]), [steps], [offsets])
    scales = {}
    for k, lags in zip(fam.scales, lag_arrays):
        scales[k] = 2.0**-k * _read(lags, [np.arange(2**k)[:, None]], (n,))[:, 0]
    return CoefficientField(fam, (n, alpha), scales)


def _envelope(f, fams, kind, shifts, max_offsets=None) -> np.ndarray:
    """Aggregate A_R = |<phi_{R^n}, f>| / |R| over the dyadic boxes R.

    Axis a's letter of ``kind`` aggregates over that axis's scales, 'S' by
    (sum A^2)^{1/2} and 'M' by the sup, innermost axis first.  With
    ``max_offsets`` the pairing is also maximized over the fractional shifts
    of ``_alpha_offsets`` per axis.  The aggregates run as the scale tuples
    arrive, so one lag array and one partial aggregate per axis are alive.
    They are held on the cells of each axis's finest scale, where every box
    aggregate is constant, and spread onto the grid once at the end.
    """
    scale_lists = _scale_lists((fam,) for fam in fams)
    if not all(scale_lists):
        return np.zeros(f.sizes)
    lag_arrays = analysis(
        f.values, _bands(fams, scale_lists), _spacings(scale_lists, f.sizes, max_offsets)
    )
    finest = [scales[-1] for scales in scale_lists]
    partial = [None] * len(fams)
    for ks, lags in zip(itertools.product(*scale_lists), lag_arrays):
        # the members' 2^-k scalings cancel against |R|
        amp = np.abs(_read(lags, _boxes(ks, f.sizes, max_offsets), shifts))
        amp = amp.max(axis=tuple(range(1, 2 * len(ks), 2)))
        for axis, k in enumerate(ks):
            amp = np.repeat(amp, 2 ** (finest[axis] - k), axis=axis)
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
    for axis, k in enumerate(finest):
        amp = np.repeat(amp, f.sizes[axis] >> k, axis=axis)
    return amp


def _trains(inputs, fams, eps, shifts, scales, max_offsets=None):
    """Yield the weight train of every scale tuple of ``scales``, in product order.

    Input i pairs against the tensor members of its per-axis families
    ``fams[i]`` on the boxes R^{n_i}_alpha, moved by n_i = ``shifts[i]``
    intervals on every axis.  The train holds the samples of the boxes'
    lattice (``_lattice``, as ``synthesis`` reads it); at the start of each
    box R_alpha it holds

        eps_R prod_i lag_i[R^{n_i}_alpha] 2^-(k_1 + ... + k_d) / #alpha,

    the weight of the output prototype there: with L2-normalized members the
    factor |R|^{-(m-1)/2} of an m-input form leaves a net 2^-sum(k) on the
    raw lags for any m.  ``max_offsets`` averages over the fractional shifts
    alpha of ``_boxes`` (their product over the axes); without it alpha = 0.
    """
    sizes = inputs[0].shape
    spacings = _spacings(scales, sizes, max_offsets)
    streams = [
        analysis(u, _bands(axis_fams, scales), spacings) for u, axis_fams in zip(inputs, fams)
    ]
    batch = eps.batch
    lead = (Ellipsis,) if batch else ()
    for ks, *lags in zip(itertools.product(*scales), *streams):
        boxes = _boxes(ks, sizes, max_offsets)
        weight = eps.at(*ks).reshape(batch + tuple(m for k in ks for m in (2**k, 1)))
        for lag, n in zip(lags, shifts):
            weight = weight * _read(lag, boxes, (n,) * len(ks))
        count = np.prod([box.shape[1] for box in boxes])
        train = np.zeros(batch + lags[0].shape, dtype=np.complex128)
        train[lead + np.ix_(*(box.ravel() for box in boxes))] = (
            weight * 2.0 ** -sum(ks) / count
        ).reshape(batch + tuple(box.size for box in boxes))
        yield train


def _multilinear(inputs, slots, eps, shifts, max_offsets=None) -> np.ndarray:
    """sum_R eps_R |R|^{-(m-1)/2} prod_i <phi^i_{R^{n_i}_alpha}, f_i> phi^out_{R_alpha}.

    ``slots[i]`` holds the per-axis families of input i and ``slots[-1]``
    those of the output member; members are L2-normalized, and the sum is
    averaged over alpha when ``max_offsets`` is given (see ``_trains``).
    """
    scales = _scale_lists(zip(*slots))
    if not all(scales):
        return np.zeros(eps.batch + inputs[0].shape, dtype=np.complex128)
    trains = _trains(inputs, slots[:-1], eps, shifts, scales, max_offsets)
    return synthesis(trains, _bands(slots[-1], scales))


def square_function(
    f: GridFunction,
    fam: AdaptedFamily,
    mode: str = "plain",
    n: int = 0,
) -> GridFunction:
    """Sf(x) = (sum_I |<phi_I., f>|^2 / |I| chi_I(x))^{1/2} over dyadic I.

    mode 'shifted' pairs against phi_{I^n}; 'shifted_sup' additionally takes
    the sup over grid-representable fractional shifts per scale, at most 64
    of them (``_alpha_offsets``).
    """
    if not fam.zero_mean:
        raise ValueError("square function requires a zero-mean family")
    if f.dims != 1 or f.log_sizes[0] != fam.log_size:
        raise ValueError("input grid does not match the family grid")
    if mode not in ("plain", "shifted", "shifted_sup"):
        raise ValueError(f"unknown square function mode {mode!r}")
    if mode == "plain":
        n = 0
    sup_offsets = 64 if mode == "shifted_sup" else None
    return GridFunction(f.log_sizes, _envelope(f, (fam,), "S", (n,), sup_offsets))


def linearize(
    f: GridFunction,
    fam1: AdaptedFamily,
    fam2: AdaptedFamily,
    eps,
    n: int = 0,
    average_alpha: bool = False,
    max_offsets: int = 64,
):
    """T_eps f = sum_I eps_I <phi^1_{I^n}, f> phi^2_I with normalized members.

    With ``average_alpha`` the sum is averaged over the grid-representable
    fractional shifts of both families (the discretization of the integral
    over alpha).  ``eps`` is one ``EpsilonField``, giving one output, or a
    sequence of them, giving the list of outputs, one per field: f is
    analysed once and every field's sum runs in one batched synthesis, each
    output bit for bit the one its field gives alone.
    """
    for fam in (fam1, fam2):
        if not fam.zero_mean:
            raise ValueError("linearization requires zero-mean families")
        if f.dims != 1 or f.log_sizes[0] != fam.log_size:
            raise ValueError("input grid does not match the family grid")
    offsets = max_offsets if average_alpha else None
    single = isinstance(eps, EpsilonField)
    draws = eps if single else EpsilonField.stack(eps)
    out = _multilinear((f.values,), [(fam1,), (fam2,)], draws, (n,), offsets)
    if single:
        return GridFunction(f.log_sizes, out)
    return [GridFunction(f.log_sizes, values) for values in out]


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
