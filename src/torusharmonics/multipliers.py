"""Multiplier symbols, Fourier-side application, and symbol decompositions.

Linear symbols act by coefficient-wise multiplication.  Bilinear operators,
in one parameter (``apply_bilinear``) and two (``apply_biparameter``), are
one direct lattice sum on any number of axes over the retained band box
|s_a|, |t_a| <= band: for each frequency s of the first input the whole t
box is added into a padded spectrum, which is folded onto the grid once and
inverted on the lines |u_a| <= 2 band it reaches (``transform.pruned_ifft``);
an aliasing guard (band <= N/4) keeps every output frequency representable.
The s values are taken in slabs: the symbol is called once per slab on a
sparse grid, the slab's terms fill one buffer of bounded size, and one
ordered scatter per slab adds them in the order of the per-s loop.  Inputs
with non-finite samples, a negative band or energy outside the band are
rejected.
Symbol smoothness is probed by iterated unit-step finite differences on the
integer lattice, and the per-scale coefficient tables of the cutoff symbols
are computed by FFT quadrature on the side-2^k box.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .bumps import PlateauProfile
from .grid import GridFunction, Spectrum, fourier_coefficients, inverse_transform
from .transform import pruned_ifft

_CLASSES = ("marcinkiewicz", "coifman_meyer", "biparameter")


@dataclass
class MultiplierSymbol:
    """A multiplier symbol with its declared smoothness class.

    ``evaluate`` is a vectorized callback on integer-valued float arrays:
    one array for (arity 1, params 1), two for (2, 1), four for (2, 2).  The
    arrays need not share a shape, only broadcast together: the lattice sum
    passes a sparse grid (first-slot values shaped (S, 1, ...), second-slot
    values as ``np.meshgrid(..., sparse=True)`` axes), and the callback
    returns the values on the broadcast shape, or on a shape that
    broadcasts to it, such as a scalar.
    """

    name: str
    arity: int
    params: int
    evaluate: object
    declared_class: str

    def __post_init__(self):
        if (self.arity, self.params) not in ((1, 1), (2, 1), (2, 2)):
            raise ValueError("supported shapes: 1 slot/1 param, 2/1, 2/2")
        if self.declared_class not in _CLASSES:
            raise ValueError(f"unknown symbol class {self.declared_class!r}")

    @property
    def lattice_dim(self) -> int:
        return self.arity * self.params

    def __call__(self, *args):
        return self.evaluate(*[np.asarray(a, dtype=float) for a in args])


def symbol_registry() -> dict[str, MultiplierSymbol]:
    """Built-in symbols used by the demos, the CLI, and the harness."""

    def hilbert(t):
        return -1j * np.sign(t)

    def oscillatory(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t, dtype=complex)
        nz = t != 0
        out[nz] = np.exp(1j * np.log(np.abs(t[nz])))
        return out

    def mean_remover(t):
        return (np.asarray(t) != 0).astype(complex)

    def ratio(numerator):
        """numerator(s, t) / (s^2 + t^2), and 0 at the origin."""

        def symbol(s, t):
            s, t = np.broadcast_arrays(np.asarray(s, float), np.asarray(t, float))
            denom = s**2 + t**2
            out = np.zeros(denom.shape, dtype=complex)
            nz = denom != 0
            out[nz] = numerator(s[nz], t[nz]) / denom[nz]
            return out

        return symbol

    ratio_x2 = ratio(lambda s, t: s**2)
    ratio_xy = ratio(lambda s, t: s * t)

    def biparam_product(s1, s2, t1, t2):
        return ratio_x2(s1, t1) * ratio_xy(s2, t2)

    reg = {
        "constant": MultiplierSymbol(
            "constant", 1, 1, lambda t: np.ones_like(np.asarray(t, float), dtype=complex),
            "marcinkiewicz",
        ),
        "hilbert": MultiplierSymbol("hilbert", 1, 1, hilbert, "marcinkiewicz"),
        "oscillatory": MultiplierSymbol("oscillatory", 1, 1, oscillatory, "marcinkiewicz"),
        "mean_remover": MultiplierSymbol("mean_remover", 1, 1, mean_remover, "marcinkiewicz"),
        "bilinear_constant": MultiplierSymbol(
            "bilinear_constant", 2, 1,
            lambda s, t: np.ones(np.broadcast(s, t).shape, dtype=complex),
            "coifman_meyer",
        ),
        "ratio_x2": MultiplierSymbol("ratio_x2", 2, 1, ratio_x2, "coifman_meyer"),
        "ratio_xy": MultiplierSymbol("ratio_xy", 2, 1, ratio_xy, "coifman_meyer"),
        "biparameter_product": MultiplierSymbol(
            "biparameter_product", 2, 2, biparam_product, "biparameter"
        ),
        "biparameter_constant": MultiplierSymbol(
            "biparameter_constant", 2, 2,
            lambda s1, s2, t1, t2: np.ones(np.broadcast(s1, s2, t1, t2).shape, dtype=complex),
            "biparameter",
        ),
    }
    return reg


def apply_1d(m: MultiplierSymbol, f: GridFunction) -> GridFunction:
    """Lambda_m f: multiply the Fourier coefficients by m(n), m(0) included."""
    if (m.arity, m.params) != (1, 1) or f.dims != 1:
        raise ValueError("apply_1d needs a 1-slot 1-parameter symbol and 1D input")
    spec = fourier_coefficients(_check_finite(f, "apply_1d"))
    freqs = spec.frequencies()
    return inverse_transform(Spectrum(f.log_sizes, m(freqs) * spec.coefficients))


def _outside_band(spec: Spectrum, band: int) -> np.ndarray:
    """Mask of the frequencies with |n_axis| > band on some axis."""
    if band < 0:
        raise ValueError("band must be >= 0")
    far = [np.abs(spec.frequencies(axis)) > band for axis in range(spec.dims)]
    return functools.reduce(np.logical_or, np.meshgrid(*far, indexing="ij", sparse=True))


def band_limit(f: GridFunction, band: int) -> GridFunction:
    """Zero all coefficients with any |n_axis| > band."""
    spec = fourier_coefficients(_check_finite(f, "band_limit"))
    coeffs = np.array(spec.coefficients)
    coeffs[_outside_band(spec, band)] = 0.0
    return inverse_transform(Spectrum(f.log_sizes, coeffs))


def _check_finite(f: GridFunction, who: str) -> GridFunction:
    bad = np.count_nonzero(~np.isfinite(f.values))
    if bad:
        raise ValueError(f"{who}: {bad} of {f.values.size} samples are NaN or infinite")
    return f


def _check_band(f: GridFunction, band: int, who: str):
    spec = fourier_coefficients(_check_finite(f, who))
    mask = _outside_band(spec, band)
    leak = np.abs(spec.coefficients[mask]).max() if mask.any() else 0.0
    if leak > 1e-12:
        raise ValueError(
            f"{who} is not band-limited to |n| <= {band} (leak {leak:.2e}); "
            "band_limit() the inputs first"
        )
    return spec


def _band_box(spec: Spectrum, band: int) -> np.ndarray:
    """The coefficients at -band..band per axis, frequency ascending."""
    return spec.coefficients[np.ix_(*[np.arange(-band, band + 1) % n for n in spec.sizes])]


#: entries of the slab buffer of ``_lattice_spectrum``; bounds its peak memory
_SLAB = 1 << 16


def _lattice_spectrum(m, f: GridFunction, g: GridFunction, band: int) -> np.ndarray:
    """Coefficients of sum_{s,t} m(s, t) f_hat(s) g_hat(t) e^{2 pi i x.(s+t)} on T^d.

    s and t run over the box |s_a|, |t_a| <= band; the inputs must vanish
    outside it.  The first-slot frequencies s with f_hat(s) != 0 are taken
    in slabs of at most ``_SLAB`` terms (one s's t box when that is larger):
    the symbol is called once per slab on a sparse grid, the terms
    (m(s, t) f_hat(s)) g_hat(t) fill one buffer, and one ordered scatter adds
    them into a padded spectrum over |s + t|_a <= 2 band.  The scatter's
    indices are s-major, so every output frequency receives its terms in
    the order of a loop over s, continuing from the earlier slabs.  The
    padded spectrum is folded onto the grid once at the end, so the
    (2 band + 1)^{2d} lattice is never formed.
    """
    fbox = _band_box(_check_band(f, band, "first input"), band)
    gbox = _band_box(_check_band(g, band, "second input"), band)
    d, width = f.dims, 4 * band + 1
    t = np.meshgrid(*[np.arange(-band, band + 1)] * d, indexing="ij", sparse=True)
    nonzero = np.argwhere(fbox != 0.0)  # row-major: the order of the adds
    # flat padded index of s + t: that of s (the box corner) plus that of t
    s_flat = np.ravel_multi_index(tuple(nonzero.T), (width,) * d)
    t_flat = np.ravel_multi_index(tuple(np.indices(gbox.shape)), (width,) * d)
    per_slab = max(1, _SLAB // gbox.size)
    rows = min(per_slab, len(nonzero))
    terms = np.empty((rows,) + gbox.shape, dtype=complex)
    index = np.empty((rows,) + gbox.shape, dtype=np.intp)
    padded = np.zeros(width**d, dtype=complex)
    for first in range(0, len(nonzero), per_slab):
        slab = nonzero[first : first + per_slab]
        k = len(slab)
        s = [(slab[:, a] - band).reshape((-1,) + (1,) * d) for a in range(d)]
        np.multiply(m(*s, *t), fbox[tuple(slab.T)].reshape(s[0].shape), out=terms[:k])
        np.multiply(terms[:k], gbox, out=terms[:k])
        np.add(s_flat[first : first + k].reshape(s[0].shape), t_flat, out=index[:k])
        np.add.at(padded, index[:k].ravel(), terms[:k].ravel())
    out = np.zeros(f.sizes, dtype=complex)
    fold = [np.arange(-2 * band, 2 * band + 1) % n for n in f.sizes]
    np.add.at(out, np.ix_(*fold), padded.reshape((width,) * d))
    return out


def _inverse_within(log_sizes, coefficients: np.ndarray, reach: int) -> GridFunction:
    """``inverse_transform`` of coefficients that vanish off |u_a| <= reach on
    every axis: ``pruned_ifft`` inverts the last axis on those lines only."""
    freqs = [np.fft.fftfreq(n, d=1.0 / n) for n in coefficients.shape[:-1]]
    lines = [np.flatnonzero(np.abs(u) <= reach) for u in freqs]
    window = coefficients[np.ix_(*lines)] * coefficients.size
    return GridFunction(log_sizes, pruned_ifft(window, lines, coefficients.shape))


def _check_bilinear(
    m: MultiplierSymbol, f: GridFunction, g: GridFunction, params: int, who: str
):
    if (m.arity, m.params) != (2, params):
        raise ValueError(f"{who} needs a 2-slot {params}-parameter symbol")
    if f.dims != params or f.log_sizes != g.log_sizes:
        raise ValueError(f"inputs must be matching {params}D grid functions")


def apply_bilinear(m: MultiplierSymbol, f: GridFunction, g: GridFunction) -> GridFunction:
    """Lambda_m(f, g)(x) = sum_{s,t} m(s,t) f_hat(s) g_hat(t) e^{2 pi i x(s+t)}.

    Inputs must be band-limited to |n| <= N/4 so that the output frequencies
    s + t stay below the Nyquist band; the sum is a direct lattice sum.
    """
    _check_bilinear(m, f, g, 1, "apply_bilinear")
    band = f.sizes[0] // 4
    return _inverse_within(f.log_sizes, _lattice_spectrum(m, f, g, band), 2 * band)


def apply_biparameter(
    m: MultiplierSymbol, f: GridFunction, g: GridFunction, band: int | None = None
) -> GridFunction:
    """Bi-parameter bilinear operator on T^2 by direct lattice summation.

    The retained band per axis is min(N_axis // 4, 32) unless overridden;
    inputs must be band-limited accordingly.
    """
    _check_bilinear(m, f, g, 2, "apply_biparameter")
    guard = min(f.sizes) // 4
    if band is None:
        band = min(guard, 32)
    if band > guard:
        raise ValueError(f"band {band} exceeds the aliasing guard {guard}")
    return _inverse_within(f.log_sizes, _lattice_spectrum(m, f, g, band), 2 * band)


# --- finite-difference validation -------------------------------------------


def _iter_multi_indices(dim: int, max_order: int):
    """Every alpha in N^dim with |alpha| <= max_order, by order, then lexicographically."""
    alphas = itertools.product(range(max_order + 1), repeat=dim)
    return sorted((a for a in alphas if sum(a) <= max_order), key=lambda a: (sum(a), a))


def _forward_difference(values: np.ndarray, axis: int, times: int) -> np.ndarray:
    for _ in range(times):
        values = np.diff(values, axis=axis)
    return values


@dataclass
class SymbolValidation:
    symbol: str
    declared_class: str
    probe_radius: int
    constants: dict[tuple, float]
    ceiling: float
    passed: bool

    def worst(self) -> float:
        return max(self.constants.values(), default=0.0)


def validate_symbol(
    m: MultiplierSymbol,
    probe_radius: int = 32,
    max_order: int = 4,
) -> SymbolValidation:
    """Probe the declared derivative bounds by lattice finite differences.

    For each multi-index alpha up to ``max_order``, the report holds
    sup |Delta^alpha m| * w(t)^{|alpha|-weights} over the probe region, with
    w per the declared class (|t|, ||t||, or the per-parameter-group norms).
    Stencils touching the symbol's singular set are excluded.
    """
    if probe_radius < 16:
        raise ValueError("probe_radius must be >= 16")
    dim = m.lattice_dim
    axes = [np.arange(-probe_radius, probe_radius + 1)] * dim
    mesh = np.meshgrid(*axes, indexing="ij")
    values = m(*mesh)
    constants: dict[tuple, float] = {}
    for alpha in _iter_multi_indices(dim, max_order):
        diff = values
        for axis, times in enumerate(alpha):
            diff = _forward_difference(diff, axis, times)
        # stencil base points: t .. t + alpha per axis
        base = np.meshgrid(
            *[
                np.arange(-probe_radius, probe_radius + 1 - a)
                for a in alpha
            ],
            indexing="ij",
        )
        weight, singular = _class_weight(m.declared_class, base, alpha, dim)
        mask = ~singular
        if not mask.any():
            constants[alpha] = 0.0
            continue
        constants[alpha] = float(np.max(np.abs(diff[mask]) * weight[mask]))
    ceiling = 1e4
    passed = all(v <= ceiling for v in constants.values())
    return SymbolValidation(m.name, m.declared_class, probe_radius, constants, ceiling, passed)


def _class_weight(declared_class, base, alpha, dim):
    """(weight, singular-stencil mask) for the class's derivative bounds.

    The lattice axes fall into groups: the first axis for 'marcinkiewicz',
    all axes for 'coifman_meyer', and one group per parameter for
    'biparameter' (axes 0, 2 and 1, 3 on four axes).  The weight is
    prod_g ||t_g||^{|alpha_g|}; a stencil is singular when, in some group,
    its span crosses 0 on every axis (its box contains the group's origin).
    """
    if declared_class == "marcinkiewicz":
        groups = [(0,)]
    elif declared_class == "coifman_meyer":
        groups = [tuple(range(dim))]
    else:
        groups = [(0, 2), (1, 3)] if dim == 4 else [(0,), (1,)]
    weight, singular = 1.0, False
    for group in groups:
        norm = np.sqrt(sum(base[i].astype(float) ** 2 for i in group))
        weight = weight * norm ** sum(alpha[i] for i in group)
        crosses = [(base[i] <= 0) & (base[i] + alpha[i] >= 0) for i in group]
        singular = singular | np.logical_and.reduce(crosses)
    return weight, singular


# --- per-scale coefficient tables -------------------------------------------


@dataclass
class SymbolCoefficients:
    """Fourier coefficients of the cutoff symbol m_k on its side-2^k box."""

    scale: tuple[int, ...]
    block: tuple[int, ...]
    frequencies: np.ndarray
    table: np.ndarray
    decay_target: float

    def decay_products(self) -> np.ndarray:
        """(|n|+1)^p |c_n| per entry (per-axis product in 2D)."""
        w = (np.abs(self.frequencies) + 1.0) ** self.decay_target
        return np.abs(self.table) * functools.reduce(np.multiply.outer, [w] * self.table.ndim)


#: cutoff for the linear symbol decomposition: 1 on [1/16, 1/4], 0 outside
#: [1/32, 1/2] (mirrored evenly), matching the pou annulus after scaling
_LINEAR_CUTOFF = PlateauProfile(1.0 / 32, 1.0 / 16, 1.0 / 4, 1.0 / 2)


def _linear_cutoff(t):
    return _LINEAR_CUTOFF(np.abs(np.asarray(t, dtype=float)))


def symbol_coefficients(
    m: MultiplierSymbol,
    scale: int,
    block: int | tuple[int, int] | None = None,
    points_per_unit: int = 8,
    n_max: int | None = None,
) -> SymbolCoefficients:
    """Coefficient table of the cutoff symbol at one scale (and block).

    Linear case: m_k(t) = m(t) cutoff(2^-k t), expanded in e^{-2 pi i n 2^-k t}
    on the side-2^k interval; the table decays like (|n|+1)^-4.  Bilinear
    case (block a in {1,2,3}): the 2D cutoff of the trilinear splits, decay
    (|n1|+1)^-5 (|n2|+1)^-5.
    """
    k = scale
    dim = m.lattice_dim
    if dim not in (1, 2):
        raise ValueError("coefficient tables cover 1D and 2D symbol lattices")
    # >= points_per_unit samples per unit frequency, with a floor so the
    # cutoff's transition regions keep >= 32 samples (1D, width 2^k/32) or
    # >= 8 across the narrowest one (2D)
    q = max(max(8 if dim == 1 else 4, points_per_unit) * 2**k, 1024 * dim)
    x = (np.arange(q) - q // 2) * (2.0**k / q)
    axes = np.meshgrid(*[x] * dim, indexing="ij", sparse=True)
    if dim == 1:
        cut = _linear_cutoff(x * 2.0**-k)
    else:
        cut = _bilinear_cutoff(int(block or 1), *(t * 2.0**-k for t in axes))
    vals = m(*axes) * cut
    # c_n = 2^-kd int m_k(x) e^{2 pi i n.x 2^-k} dx: the Riemann sum on the
    # centered samples is e^{-i pi sum(n)} ifftn(vals)[n]
    freqs = np.arange(-(q // 2), q - q // 2)
    sign = functools.reduce(np.multiply.outer, [(-1.0) ** freqs] * dim)
    table = np.fft.fftshift(np.fft.ifftn(vals)) * sign
    if n_max is not None:
        keep = np.abs(freqs) <= n_max
        table = table[np.ix_(*[keep] * dim)]
        freqs = freqs[keep]
    if dim == 1:
        return SymbolCoefficients((k,), (), freqs, table, 4.0)
    return SymbolCoefficients((k,), (int(block or 1),), freqs, table, 5.0)


# the trilinear split's per-block supports (after 2^-k scaling): the strictly
# frequency-localized slot lives in the annulus [2^-7, 2^-5], the ball slots
# in [-2^-8, 2^-8] (blocks 1, 2) or [-2^-3, 2^-3] (block 3).  The cutoffs are
# 1 there and vanish near the symbol's singular origin; their transition
# widths are sized to stay resolvable by the box quadrature; narrower
# inner edges would only inflate constants without adding support.
_BILINEAR_ANNULUS = PlateauProfile(2.0**-8, 2.0**-7, 2.0**-5, 2.0**-4)
_BILINEAR_BALL_SMALL = PlateauProfile(-(2.0**-6), -(2.0**-8), 2.0**-8, 2.0**-6)
_BILINEAR_BALL_BIG = PlateauProfile(-(2.0**-2), -(2.0**-3), 2.0**-3, 2.0**-2)


def _bilinear_cutoff(a: int, s, t):
    """2D cutoff equal to 1 on the (a)-block's frequency support."""
    if a == 1:
        return _BILINEAR_BALL_SMALL(s) * _BILINEAR_ANNULUS(np.abs(t))
    if a == 2:
        return _BILINEAR_ANNULUS(np.abs(s)) * _BILINEAR_BALL_SMALL(t)
    if a == 3:
        return _BILINEAR_ANNULUS(np.abs(s)) * _BILINEAR_BALL_BIG(t)
    raise ValueError("block must be 1, 2, or 3")


def reassembly_residual(
    m: MultiplierSymbol, coeffs: SymbolCoefficients, annulus: np.ndarray
) -> float:
    """max |sum_n c_n e^{-2 pi i n 2^-k t} - m(t)| over the matched annulus."""
    k = coeffs.scale[0]
    t = np.asarray(annulus, dtype=float)
    phases = np.exp(-2j * np.pi * np.outer(t * 2.0**-k, coeffs.frequencies))
    recon = phases @ coeffs.table
    return float(np.abs(recon - m(t)).max())


def trilinear_pairing_check(f: GridFunction, g: GridFunction, h: GridFunction):
    """(lattice sum, grid integral, gap) for sum f_hat(s) g_hat(t) h_hat(-s-t)."""
    product = _lattice_spectrum(lambda *st: 1.0, f, g, min(f.sizes) // 4)
    hspec = _check_band(h, min(f.sizes) // 2 - 1, "h").coefficients
    # h_hat(-u) at the grid index of every output frequency u
    lattice = complex(np.sum(product * hspec[np.ix_(*(-np.arange(n) % n for n in h.sizes))]))
    integral = (f * g * h).mean()
    return lattice, integral, abs(lattice - integral)
