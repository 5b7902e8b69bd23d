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

The multi-axis FFTs are pruned by axis as well.  ``analysis`` transforms f
one axis at a time in ``np.fft.fftn``'s order, the last axis first, and
after each axis a >= 1 keeps only the frequencies that some band of that
axis reads, so the earlier axes transform only those lines.  ``synthesis``
accumulates its spectrum on the lines the bands reach of every axis but the
last, and ``pruned_ifft`` inverts the last axis on those lines only, filling
each earlier axis out just before its own inverse.  A line no band reaches
is all zeros and the axes run in ``fftn``'s order, so every float is the
one-call ``fftn``/``ifftn`` form's; a 1D call has nothing to prune.
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


def _window(indices, size: int):
    """The ascending union of index arrays on an axis of ``size``, and where
    each array's entries sit in it."""
    keep = np.zeros(size, dtype=bool)
    for i in indices:
        keep[i] = True
    window = np.flatnonzero(keep)
    return window, [np.searchsorted(window, i) for i in indices]


def analysis(values: np.ndarray, prototypes, spacings=None, offsets=None):
    """Yield, per scale tuple (k_1, ..., k_d), the lags c[o + j s] for j on the lattice,

        c[x] = |grid|^-1 sum_y prod_a psi^a_{k_a}(y_a - x_a) conj(f(y)),

    an array of N_a / s_a entries per axis; ``spacings[a][i]`` and
    ``offsets[a][i]`` are s and o at axis a's i-th scale (1 and 0 when
    omitted, the full-grid lags).  The member on the interval starting at
    sample j step + o pairs as prod_a 2^-k_a c[j step + o].  ``f`` is
    transformed once per call, axis by axis from the last, keeping after
    each axis a >= 1 only the frequencies some band of that axis reads.
    """
    # a correlation is a convolution with the reflected prototype psi(-x)
    bands = [[band.reflected() for band in axis] for axis in _as_bands(prototypes)]
    # per axis and scale: where the band's frequencies sit in ``fh``
    rows = [[band.indices for band in axis] for axis in bands]
    fh = np.conj(values)
    for a in reversed(range(len(bands))):
        # np.fft.fftn's order, one axis at a time; axis 0 is read in full
        fh = np.fft.fft(fh, axis=a)
        if a:
            window, rows[a] = _window(rows[a], fh.shape[a])
            fh = np.take(fh, window, axis=a)
    axes = []
    for a, axis in enumerate(bands):
        terms = []
        for i, band in enumerate(axis):
            hat = band.values
            o = offsets[a][i] if offsets else 0
            if o:
                n = band.lo + np.arange(hat.size)
                hat = hat * np.exp(2j * np.pi * n * o / band.size)
            s = spacings[a][i] if spacings else 1
            terms.append((rows[a][i], hat, band.lo, band.size // s))
        axes.append(terms)
    for terms in itertools.product(*axes):
        index, hats, los, bins = zip(*terms)
        x = fh[np.ix_(*index)] * functools.reduce(np.multiply.outer, hats)
        for axis, (lo, m) in enumerate(zip(los, bins)):
            x = _fold(x, axis, lo, m)
        yield np.fft.ifftn(x) * (x.size / values.size) / values.size


def pruned_ifft(window: np.ndarray, lines, shape) -> np.ndarray:
    """``np.fft.ifftn`` over the trailing d = len(shape) axes of a spectrum that
    is zero off a few lines: ``window`` holds it on the frequencies
    ``lines[a]`` (ascending) of each axis a < d - 1 and on the whole last
    axis; leading axes are a batch.  The last axis is inverted first, on
    those lines only, and each earlier axis is filled out to its full length
    just before its own inverse: ifftn's order, so the result is ifftn's.
    """
    d = len(shape)
    x = np.fft.ifft(window)
    for a in reversed(range(d - 1)):
        axis = a - d
        full = np.zeros(x.shape[:axis] + (shape[a],) + x.shape[axis + 1 :], dtype=x.dtype)
        full[(Ellipsis, lines[a]) + (slice(None),) * (d - 1 - a)] = x
        x = np.fft.ifft(full, axis=axis)
    return x


def synthesis(trains, prototypes) -> np.ndarray:
    """sum over scale tuples of (train circularly convolved with the prototype).

    ``trains`` yields one array per scale tuple, in the order of
    ``analysis``, holding each member's weight at the sample its interval
    starts on.  A train of M_a entries on axis a holds the samples at the
    multiples of N_a / M_a, where every other sample is zero; M_a = N_a is
    the full grid.  The sum is accumulated in frequency on each prototype's
    band, on the lines the bands reach of every axis but the last, and
    inverted once through ``pruned_ifft``.

    Only the trailing d axes (one per prototype axis) are transformed: a
    train with leading axes is a batch of trains sharing the prototypes, and
    the output carries the same leading axes.  Each batch entry is the
    entry's own synthesis bit for bit; a train without leading axes is a
    batch of one.
    """
    bands = _as_bands(prototypes)
    d = len(bands)
    shape = tuple(axis[0].size for axis in bands)
    index = [[band.indices for band in axis] for axis in bands]
    # per axis and scale: the band's values, its frequencies and where they
    # sit in ``total``, which holds the last axis in full
    windows = [_window(ix, n) for ix, n in zip(index[:-1], shape)]
    lines = [window for window, _ in windows]
    rows = [at for _, at in windows] + index[-1:]
    placed = [list(zip((b.values for b in ax), ix, r)) for ax, ix, r in zip(bands, index, rows)]
    total = np.zeros(tuple(w.size for w in lines) + shape[-1:], dtype=np.complex128)
    axes, lead = None, ()
    for train, terms in zip(trains, itertools.product(*placed), strict=True):
        if train.ndim > total.ndim:
            # the first train of a batch sets its leading shape; ``axes`` and
            # the leading Ellipsis cost per call, so only a batch pays them
            axes, lead = tuple(range(train.ndim - d, train.ndim)), (Ellipsis,)
            total = np.zeros(train.shape[:-d] + total.shape, dtype=np.complex128)
        hats, freqs, at = zip(*terms)
        spectrum = np.fft.fftn(train, axes=axes)
        hat = functools.reduce(np.multiply.outer, hats)
        tiled = spectrum[lead + np.ix_(*(i % m for i, m in zip(freqs, spectrum.shape[-d:])))]
        total[lead + np.ix_(*at)] += tiled * hat
    return pruned_ifft(total, lines, shape)
