"""The adapted-family coefficient transform on T^d (d = 1, 2 or 3 axes).

A family member is a prototype rolled to its interval: on an axis of 2^L
samples, phi_I = 2^-k psi_k(. - j 2^-k) is psi_k rolled by j step samples,
step = 2^(L-k), and on several axes it is the tensor product of one such
member per axis.  Pairings <phi_I, f> are therefore one circular correlation
per scale tuple, read at lattice lags, and a weighted sum of members is one
circular convolution of the prototype with a sparse train of weights.

``analysis`` and ``synthesis`` are the two directions.  Both take the
prototypes as one list per axis, ``prototypes[a][i]`` being axis a's i-th
scale, and walk the scale tuples in ``itertools.product`` order (innermost
axis fastest).

Every caller reads on a lattice, one spacing s per axis and scale: the step
for dyadic and integer-shifted boxes, the stride of the fractional shifts,
or a coset o + s Z.  The inverse DFT at o + j s depends only on the sums of
X(n) e^{2 pi i n o / N} over n mod N/s, so ``analysis`` folds the product
onto N/s bins and runs an N/s-point inverse FFT; dually, the N/s-point FFT
of a train compressed to its lattice, repeated periodically, is the train's
full-grid DFT, which ``synthesis`` uses (pruned DFTs: Sorensen and Burrus,
IEEE TSP 1993).  A prototype's DFT is held as a ``Band``, its values on the
window of frequencies where it can be nonzero, so both directions multiply
only that window.  With s = 1 on every axis both are the full-grid
transforms, the test oracle.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Band:
    """A prototype's DFT on the frequencies lo, lo + 1, ..., lo + len(values) - 1
    (mod ``size``); it is zero at every other frequency."""

    size: int
    lo: int
    values: np.ndarray

    @staticmethod
    def of(samples, limit: int | None = None) -> "Band":
        """The DFT of ``samples``, kept on |n| <= limit (everywhere when None)."""
        dft = np.fft.fft(samples)
        if limit is None or 2 * limit + 1 >= dft.size:
            return Band(dft.size, 0, dft)
        return Band(dft.size, -limit, dft[np.arange(-limit, limit + 1) % dft.size])

    @property
    def indices(self) -> np.ndarray:
        return (self.lo + np.arange(self.values.size)) % self.size

    def reflected(self) -> "Band":
        """The DFT of psi(-x), which is the DFT index-reversed: n -> -n."""
        return Band(self.size, -(self.lo + self.values.size - 1), self.values[::-1])


def _as_bands(prototypes):
    """Per axis, a ``Band`` per scale; raw samples are transformed in full."""
    return [[p if isinstance(p, Band) else Band.of(p) for p in axis] for axis in prototypes]


def _fold(x: np.ndarray, axis: int, lo: int, m: int) -> np.ndarray:
    """Sum x over n mod m along ``axis``, whose entries sit at n = lo, lo + 1, ..."""
    start, width = lo % m, x.shape[axis]
    rows = -(-(start + width) // m)
    shape = list(x.shape)
    shape[axis] = rows * m
    padded = np.zeros(shape, dtype=x.dtype)
    padded[(slice(None),) * axis + (slice(start, start + width),)] = x
    shape[axis : axis + 1] = [rows, m]
    return padded.reshape(shape).sum(axis=axis)


def analysis(values: np.ndarray, prototypes, spacings=None, offsets=None):
    """Yield, per scale tuple (k_1, ..., k_d), the lags c[o + j s] for j on the lattice,

        c[x] = |grid|^-1 sum_y prod_a psi^a_{k_a}(y_a - x_a) conj(f(y)),

    an array of N_a / s_a entries per axis; ``spacings[a][i]`` and
    ``offsets[a][i]`` are s and o at axis a's i-th scale (1 and 0 when
    omitted, the full-grid lags).  The member on the interval starting at
    sample j step + o pairs as prod_a 2^-k_a c[j step + o].  ``f`` is
    transformed once per call.
    """
    fh = np.fft.fftn(np.conj(values))
    axes = []
    for a, axis in enumerate(_as_bands(prototypes)):
        terms = []
        for i, band in enumerate(axis):
            # a correlation is a convolution with the reflected prototype psi(-x)
            band = band.reflected()
            hat = band.values
            o = offsets[a][i] if offsets else 0
            if o:
                n = band.lo + np.arange(hat.size)
                hat = hat * np.exp(2j * np.pi * n * o / band.size)
            s = spacings[a][i] if spacings else 1
            terms.append((band.indices, hat, band.lo, band.size // s))
        axes.append(terms)
    for terms in itertools.product(*axes):
        index, hats, los, bins = zip(*terms)
        x = fh[np.ix_(*index)] * functools.reduce(np.multiply.outer, hats)
        for axis, (lo, m) in enumerate(zip(los, bins)):
            x = _fold(x, axis, lo, m)
        yield np.fft.ifftn(x) * (x.size / fh.size) / fh.size


def synthesis(trains, prototypes) -> np.ndarray:
    """sum over scale tuples of (train circularly convolved with the prototype).

    ``trains`` yields one array per scale tuple, in the order of
    ``analysis``, holding each member's weight at the sample its interval
    starts on.  A train of M_a entries on axis a holds the samples at the
    multiples of N_a / M_a, where every other sample is zero; M_a = N_a is
    the full grid.  The sum is accumulated in frequency on each prototype's
    band and inverted once.

    Only the trailing d axes (one per prototype axis) are transformed: a
    train with leading axes is a batch of trains sharing the prototypes, and
    the output carries the same leading axes.  Each batch entry is the
    entry's own synthesis bit for bit; a train without leading axes is a
    batch of one.
    """
    bands = _as_bands(prototypes)
    d = len(bands)
    total = np.zeros(tuple(axis[0].size for axis in bands), dtype=np.complex128)
    axes, lead = None, ()
    for train, tuple_bands in zip(trains, itertools.product(*bands), strict=True):
        if train.ndim > total.ndim:
            # the first train of a batch sets its leading shape; ``axes`` and
            # the leading Ellipsis cost per call, so only a batch pays them
            axes, lead = tuple(range(train.ndim - d, train.ndim)), (Ellipsis,)
            total = np.zeros(train.shape[:-d] + total.shape, dtype=np.complex128)
        index = [band.indices for band in tuple_bands]
        spectrum = np.fft.fftn(train, axes=axes)
        hat = functools.reduce(np.multiply.outer, (band.values for band in tuple_bands))
        tiled = spectrum[lead + np.ix_(*(i % m for i, m in zip(index, spectrum.shape[-d:])))]
        total[lead + np.ix_(*index)] += tiled * hat
    return np.fft.ifftn(total, axes=axes)
