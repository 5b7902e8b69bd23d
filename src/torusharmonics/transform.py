"""The adapted-family coefficient transform on T^d (d = 1, 2 or 3 axes).

A family member is a prototype rolled to its interval: on an axis of 2^L
samples, phi_I = 2^-k psi_k(. - j 2^-k) is psi_k rolled by j step samples,
step = 2^(L-k), and on several axes it is the tensor product of one such
member per axis.  Pairings <phi_I, f> are therefore one circular correlation
per scale tuple, read at lattice lags, and a weighted sum of members is one
circular convolution of the prototype with a sparse train of weights.

``analysis`` and ``synthesis`` are the two directions.  Both take the
prototypes as one list per axis, ``prototypes[a][i]`` being the samples of
axis a's i-th scale, and walk the scale tuples in ``itertools.product``
order (innermost axis fastest).
"""

from __future__ import annotations

import functools
import itertools

import numpy as np


def _tensor_hats(prototypes):
    """DFT of the tensor prototype of every scale tuple, in product order."""
    per_axis = [[np.fft.fft(p) for p in axis] for axis in prototypes]
    for hats in itertools.product(*per_axis):
        yield functools.reduce(np.multiply.outer, hats)


def analysis(values: np.ndarray, prototypes):
    """Yield, per scale tuple (k_1, ..., k_d), the lag array

        c[s] = |grid|^-1 sum_x prod_a psi^a_{k_a}(x_a - s_a) conj(f(x)),

    so the member on the interval starting at sample j step + o pairs as
    prod_a 2^-k_a c[j step + o].  ``f`` is transformed once per call.
    """
    fh = np.fft.fftn(np.conj(values))
    # a correlation is a convolution with the reflected prototype psi(-x)
    reflected = [[np.roll(p[::-1], 1) for p in axis] for axis in prototypes]
    for hat in _tensor_hats(reflected):
        yield np.fft.ifftn(fh * hat) / fh.size


def synthesis(trains, prototypes) -> np.ndarray:
    """sum over scale tuples of (train circularly convolved with the prototype).

    ``trains`` yields one full-grid array per scale tuple, in the order of
    ``analysis``, holding each member's weight at the sample its interval
    starts on.  The sum is accumulated in frequency and inverted once.
    """
    total = 0.0
    for train, hat in zip(trains, _tensor_hats(prototypes), strict=True):
        total += np.fft.fftn(train) * hat
    return np.fft.ifftn(total)
