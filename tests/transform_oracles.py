"""The one-call ``np.fft.fftn`` / ``np.fft.ifftn`` forms of ``transform.analysis``
and ``transform.synthesis``: every axis transformed over every line.  The
axis-pruned transforms must equal them bit for bit."""

import functools
import itertools

import numpy as np

from torusharmonics.transform import _as_bands, _fold


def analysis(values: np.ndarray, prototypes, spacings=None, offsets=None):
    fh = np.fft.fftn(np.conj(values))
    axes = []
    for a, axis in enumerate(_as_bands(prototypes)):
        terms = []
        for i, band in enumerate(axis):
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
    bands = _as_bands(prototypes)
    d = len(bands)
    total = np.zeros(tuple(axis[0].size for axis in bands), dtype=np.complex128)
    axes, lead = None, ()
    for train, tuple_bands in zip(trains, itertools.product(*bands), strict=True):
        if train.ndim > total.ndim:
            axes, lead = tuple(range(train.ndim - d, train.ndim)), (Ellipsis,)
            total = np.zeros(train.shape[:-d] + total.shape, dtype=np.complex128)
        index = [band.indices for band in tuple_bands]
        spectrum = np.fft.fftn(train, axes=axes)
        hat = functools.reduce(np.multiply.outer, (band.values for band in tuple_bands))
        tiled = spectrum[lead + np.ix_(*(i % m for i, m in zip(index, spectrum.shape[-d:])))]
        total[lead + np.ix_(*index)] += tiled * hat
    return np.fft.ifftn(total, axes=axes)
