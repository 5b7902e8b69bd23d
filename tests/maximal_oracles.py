"""Width-loop oracles for the exact maximal kernels of ``torusharmonics.maximal``.

Each width is taken on its own, over window means that are built from a
fresh cumulative sum per width and a block prefix/suffix sliding max.  The
library's kernels share prefix sums across widths and slide their maxima by
doubling; these loops share neither, so the bit-identity tests compare two
independent computations of the same floats.
"""

from __future__ import annotations

import numpy as np


def _block_sliding_max(arr: np.ndarray, w: int) -> np.ndarray:
    """Cyclic sliding max along the last axis: out[s] = max arr[s : s+w]."""
    n = arr.shape[-1]
    if w <= 1:
        return arr.copy()
    ext = np.concatenate([arr, arr[..., : w - 1]], axis=-1)
    m = ext.shape[-1]
    nblocks = -(-m // w)
    pad = nblocks * w - m
    if pad:
        pad_block = np.full(ext.shape[:-1] + (pad,), -np.inf)
        ext = np.concatenate([ext, pad_block], axis=-1)
    blocks = ext.reshape(ext.shape[:-1] + (nblocks, w))
    prefix = np.maximum.accumulate(blocks, axis=-1).reshape(ext.shape[:-1] + (-1,))
    suffix = np.maximum.accumulate(blocks[..., ::-1], axis=-1)[..., ::-1]
    suffix = suffix.reshape(ext.shape[:-1] + (-1,))
    return np.maximum(suffix[..., : m - w + 1], prefix[..., w - 1 : m])


def _window_means(absvals: np.ndarray, w: int) -> np.ndarray:
    """Cyclic window means along the last axis: out[s] = mean arr[s : s+w]."""
    n = absvals.shape[-1]
    ext = np.concatenate([absvals, absvals[..., : w - 1]], axis=-1)
    csum = np.cumsum(ext, axis=-1)
    lead = csum[..., w - 1 :]
    head = np.concatenate(
        [np.zeros(absvals.shape[:-1] + (1,)), csum[..., : n - 1]], axis=-1
    )
    return (lead - head) / w


def _hl_axis(absvals: np.ndarray, shift: int = 0, sup_shift: bool = False) -> np.ndarray:
    """Exact interval-maximal function along the last axis, one width at a time.

    The test oracle for the kernels of ``hl`` (``_hl_runs``), ``shifted``
    and ``shifted_sup`` (``_shifted_widths``).  ``shift`` computes the
    n-shifted operator (averages over I^n while the indicator sits on I);
    ``sup_shift`` additionally takes the sup over all grid-representable
    fractional shifts alpha in [0, 1].
    """
    n = absvals.shape[-1]
    best = np.full(absvals.shape, -np.inf)
    for w in range(1, n + 1):
        means = _window_means(absvals, w)
        if shift or sup_shift:
            means = np.roll(means, -shift * w, axis=-1)
            if sup_shift:
                # fractional shifts alpha in [0, 1] are the w+1 grid offsets
                means = _block_sliding_max(means, min(w + 1, n))
        covering = _block_sliding_max(means, w)
        best = np.maximum(best, np.roll(covering, w - 1, axis=-1))
    return best
