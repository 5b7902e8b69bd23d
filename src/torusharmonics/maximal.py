"""Maximal operators and Calderon-Zygmund stopping-time decompositions.

The Hardy-Littlewood maximal function is computed exactly over *all*
grid-aligned torus intervals (every run of whole cells, wrapping allowed),
so downstream constants carry no approximation ambiguity.  The interval,
shifted and strong maximal functions read their window means
(P_{a+w} - P_a) / w off prefix sums P of the doubled array
(``_doubled_csum``), the same floats a plain loop over widths forms from a
fresh cumulative sum per width, and so equal that loop bit for bit.  A
divide and conquer over those sums (the dense form of the
maximum-density-segment method of Chung & Lu, SIAM J. Comput. 2004) takes
every window mean once, O(N^2) entries in bounded slabs: each dyadic block
of [0, N) holds the runs that cross its middle and the runs that wrap
around the torus from its right half to its left half.  The shifted
operators keep one pass per width; the sup over fractional shifts fuses its
two sliding maxima into one window of min(w+1, N) + w - 1 cells, the global
max once that window wraps the torus.  Every cyclic sliding max doubles its
window on the wrapped array, O(N log w) exact maxima.  Every kernel treats
each leading row on its own, so ``maximal`` runs one function as a batch of
one and stacks a list of functions into one call.  The strong maximal
function on T^d restricts to boxes with power-of-two side lengths at
arbitrary offsets (any box is contained in one of that class with at most
2^d times the volume); sliding maxima are separable and commute with
pointwise max, so each axis's cover runs once per width of that axis on the
max over all widths of the later axes.  The adapted maximal function reads
the pairings <phi_I, f> off the coefficient transform through the
one-parameter 'M' aggregate of the hybrids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bumps import AdaptedFamily
from .dyadic import DyadicInterval, star
from .grid import GridFunction
from .squares import _envelope


def _sliding_max(arr: np.ndarray, w: int) -> np.ndarray:
    """Cyclic sliding max along the last axis: out[s] = max arr[s : s+w].

    Doubling on the wrapped array: after the step of size s, m[k] is the max
    of s consecutive entries from k, and two overlapping windows of the
    largest such s <= w cover the w entries.
    """
    n = arr.shape[-1]
    if w <= 1:
        return arr.copy()
    m = np.concatenate([arr, arr[..., : w - 1]], axis=-1)
    span = 1
    while 2 * span <= w:
        m = np.maximum(m[..., :-span], m[..., span:])
        span *= 2
    return np.maximum(m[..., :n], m[..., w - span : w - span + n])


def _doubled_csum(absvals: np.ndarray) -> np.ndarray:
    """Prefix sums P of the doubled array along the last axis, P[..., 0] = 0.

    ``np.cumsum`` adds in order, so (P[s + w] - P[s]) / w is the float the
    plain width loop forms for the cyclic window of width w from cell s.
    """
    n = absvals.shape[-1]
    csum = np.zeros(absvals.shape[:-1] + (2 * n + 1,))
    np.cumsum(np.concatenate([absvals, absvals], axis=-1), axis=-1, out=csum[..., 1:])
    return csum


def _shifted_widths(absvals: np.ndarray, shift: int, sup_shift: bool) -> np.ndarray:
    """The shifted interval-maximal function, one width at a time.

    ``shift`` computes the n-shifted operator (averages over I^n while the
    indicator sits on I); ``sup_shift`` additionally takes the sup over all
    grid-representable fractional shifts alpha in [0, 1], the w+1 grid
    offsets.  That sup and the cover of width w are two cyclic sliding
    maxima; their composition is one of width min(w+1, n) + w - 1, which is
    the global max once it reaches n.
    """
    n = absvals.shape[-1]
    csum = _doubled_csum(absvals)
    best = np.full(absvals.shape, -np.inf)
    for w in range(1, n + 1):
        means = (csum[..., w : w + n] - csum[..., :n]) / w
        window = min(w + 1, n) + w - 1 if sup_shift else w
        if window >= n:
            best = np.maximum(best, means.max(axis=-1, keepdims=True))
            continue
        # the sliding max commutes with the roll by -shift * w; best takes
        # the max with the rolled cover in place, two slices, no rolled copy
        cover = _sliding_max(means, window)
        s = (w - 1 - shift * w) % n
        np.maximum(best[..., s:], cover[..., : n - s], out=best[..., s:])
        np.maximum(best[..., :s], cover[..., n - s :], out=best[..., :s])
    return best


#: window means held at once by ``_hl_runs``; bounds its peak memory
_SLAB = 1 << 16


def _crossing_maxima(pa: np.ndarray, pb: np.ndarray, width0: int):
    """Row and column maxima of the means (pb[:, t] - pa[:, i]) / (width0 + t - i).

    Row i is a run start, column t a run end; every (i, t) pair is a run
    of width width0 + t - i >= 2.  One width matrix per chunk of rows serves
    every batch row, and at most ``_SLAB`` means are held at once.
    """
    batch, h = pa.shape
    rowmax = np.empty((batch, h))
    colmax = np.full((batch, h), -np.inf)
    rows = min(h, max(1, _SLAB // h))
    step = max(1, _SLAB // (rows * h))
    buf = np.empty(min(step, batch) * rows * h)
    for r0 in range(0, h, rows):
        r1 = min(r0 + rows, h)
        width = (width0 + np.arange(h, dtype=float)) - np.arange(r0, r1)[:, None]
        for b0 in range(0, batch, step):
            b1 = min(b0 + step, batch)
            means = buf[: (b1 - b0) * (r1 - r0) * h].reshape(b1 - b0, r1 - r0, h)
            np.subtract(pb[b0:b1, None, :], pa[b0:b1, r0:r1, None], out=means)
            means /= width
            means.max(axis=-1, out=rowmax[b0:b1, r0:r1])
            top = colmax[b0:b1]
            np.maximum(top, means.max(axis=-2), out=top)
    return rowmax, colmax


def _hl_runs(absvals: np.ndarray) -> np.ndarray:
    """The exact interval-maximal function along the last axis.

    A torus arc of width >= 2 is an interior run from cell a to its last
    cell d > a, or a wrapped run over [a, n) and [0, c] with c < a.  The
    pair (a, d) or (c, a) is split by exactly one dyadic block of [0, n),
    so each block of size 2h holds two h x h rectangles of runs:
    left-half starts x right-half last cells (interior, width
    h + 1 + t - i) and right-half starts x left-half last cells (wrapped,
    width n + 1 + t - h - i).  Each mean is (P_b - P_a) / (b - a) over the
    prefix sums P of the doubled array; width-1 runs are P_{x+1} - P_x.
    Per block, a prefix max of the interior row maxima covers the left half
    and a suffix max of the column maxima the right half.  A wrapped run
    covers every cell from its start on and every cell up to its last one,
    so its row and column maxima collect in one per-start and one per-end
    array, closed by one global prefix and one global suffix max.
    """
    n = absvals.shape[-1]
    csum = _doubled_csum(absvals.reshape(-1, n))
    best = csum[:, 1 : n + 1] - csum[:, :n]
    starts = np.full(best.shape, -np.inf)
    ends = np.full(best.shape, -np.inf)
    h = 1
    while h < n:
        shape = (-1, n // (2 * h), 2, h)
        lower = csum[:, :n].reshape(shape)
        upper = csum[:, 1 : n + 1].reshape(shape)
        wrapped = csum[:, n + 1 :].reshape(shape)
        rowmax, colmax = _crossing_maxima(
            lower[:, :, 0].reshape(-1, h), upper[:, :, 1].reshape(-1, h), h + 1
        )
        left = np.maximum.accumulate(rowmax, axis=-1)
        right = np.maximum.accumulate(colmax[:, ::-1], axis=-1)[:, ::-1]
        cover = np.concatenate([left, right], axis=-1).reshape(-1, n)
        np.maximum(best, cover, out=best)
        rowmax, colmax = _crossing_maxima(
            lower[:, :, 1].reshape(-1, h), wrapped[:, :, 0].reshape(-1, h), n + 1 - h
        )
        tail = starts.reshape(shape)[:, :, 1]
        np.maximum(tail, rowmax.reshape(tail.shape), out=tail)
        head = ends.reshape(shape)[:, :, 0]
        np.maximum(head, colmax.reshape(head.shape), out=head)
        h *= 2
    np.maximum(best, np.maximum.accumulate(starts, axis=-1), out=best)
    np.maximum(best, np.maximum.accumulate(ends[:, ::-1], axis=-1)[:, ::-1], out=best)
    return best.reshape(absvals.shape)


def _level_averages(vals: np.ndarray) -> dict[int, np.ndarray]:
    """Dyadic block averages along the last axis, levels L (cells) down to 1."""
    log_size = vals.shape[-1].bit_length() - 1
    out = {log_size: vals}
    level = vals
    for k in range(log_size - 1, 0, -1):
        level = 0.5 * (level[..., 0::2] + level[..., 1::2])
        out[k] = level
    return out


def _dyadic_axis(absvals: np.ndarray) -> np.ndarray:
    """Dyadic maximal function along the last axis (levels 1..L)."""
    n = absvals.shape[-1]
    best = absvals
    for level in _level_averages(absvals).values():
        best = np.maximum(best, np.repeat(level, n // level.shape[-1], axis=-1))
    return best


def _pow2_widths(n: int):
    w = 1
    while w <= n:
        yield w
        w *= 2


def _strong(absvals: np.ndarray, dims: int) -> np.ndarray:
    """Sup of box averages over the trailing ``dims`` axes, power-of-two side
    lengths, any offset.

    Per width w of the first of those axes the window means along it are
    formed first, and the covers of the later axes are maxed over all their
    widths; this axis's sliding max and roll then run once on that max, which
    is exact because they commute with pointwise max and with a roll along
    any other axis.
    """
    if dims == 0:
        return absvals
    lead = np.moveaxis(absvals, -dims, -1)
    n = lead.shape[-1]
    csum = _doubled_csum(lead)
    best = np.full(lead.shape, -np.inf)
    for w in _pow2_widths(n):
        means = np.moveaxis((csum[..., w : w + n] - csum[..., :n]) / w, -1, -dims)
        covers = np.moveaxis(_strong(means, dims - 1), -dims, -1)
        best = np.maximum(best, np.roll(_sliding_max(covers, w), w - 1, axis=-1))
    return np.moveaxis(best, -1, -dims)


def maximal(
    f: GridFunction | list[GridFunction], kind: str = "hl", n: int = 0, axis: int = 0
) -> GridFunction | list[GridFunction]:
    """Maximal function of |f|, for one grid function or a list of them.

    kind: 'hl' (all grid intervals), 'dyadic', 'shifted' (uses ``n``),
    'shifted_sup' (sup over fractional shifts too), all on 1D input;
    'strong' (boxes on T^d) and 'directional' (the 'hl' operator along
    ``axis``), on input of two or more dimensions.

    Every kind also takes a list of functions of one grid size and returns
    the list of their maximal functions, in input order.  The list is
    stacked into one kernel call along a leading axis (one function is a
    batch of one), and every kernel treats each row on its own, so each
    output equals the single-function call bit for bit.

    'dyadic' propagates a NaN sample only within the dyadic blocks that hold
    it: the output is NaN on the half of the torus (the level-1 block) that
    contains the sample and finite on the other half.
    """
    batch = isinstance(f, (list, tuple))
    if batch:
        if not f:
            raise ValueError("maximal of an empty list")
        if any(g.log_sizes != f[0].log_sizes for g in f):
            raise ValueError("a batch needs functions of one grid size")
        log_sizes = f[0].log_sizes
        values = np.stack([g.values for g in f])
    else:
        log_sizes, values = f.log_sizes, f.values[None]
    dims = len(log_sizes)
    if kind not in ("hl", "dyadic", "shifted", "shifted_sup", "strong", "directional"):
        raise ValueError(f"unknown maximal kind {kind!r}")
    if kind in ("strong", "directional"):
        if dims < 2:
            raise ValueError(f"kind {kind!r} requires a grid function of 2 or more dimensions")
    elif dims != 1:
        raise ValueError(f"kind {kind!r} requires a 1D grid function")
    absvals = np.abs(values)
    if kind == "hl":
        out = _hl_runs(absvals)
    elif kind == "dyadic":
        out = _dyadic_axis(absvals)
    elif kind == "strong":
        out = _strong(absvals, dims)
    elif kind == "directional":
        if not 0 <= axis < dims:
            raise ValueError(f"axis {axis} is not an axis of a {dims}D grid function")
        out = np.moveaxis(_hl_runs(np.moveaxis(absvals, axis + 1, -1)), -1, axis + 1)
    else:
        out = _shifted_widths(absvals, n, kind == "shifted_sup")
    maxima = [GridFunction(log_sizes, row) for row in out]
    return maxima if batch else maxima[0]


def adapted_maximal(f: GridFunction, fam: AdaptedFamily) -> GridFunction:
    """M'f = sup_I |<phi_I, f>| / |I| on I, from the coefficient transform."""
    if f.dims != 1:
        raise ValueError("adapted maximal requires a 1D grid function")
    if f.log_sizes[0] != fam.log_size:
        raise ValueError("family grid does not match the input grid")
    return GridFunction(f.log_sizes, _envelope(f, (fam,), "M", (0,)))


@dataclass
class StoppingCover:
    """Disjoint dyadic intervals with large averages covering {Mf > alpha}."""

    threshold: float
    intervals: list[DyadicInterval]
    covers: bool  # {Mf > alpha} subset of the union of stars, grid-checked

    @property
    def total_length(self) -> float:
        return sum(iv.length for iv in self.intervals)


@dataclass
class CZDecomposition:
    """f = g + sum_k b_k at threshold alpha.

    g equals f off the union of the stopping intervals and the interval
    average on each of them; each bad piece b_k is supported on its interval
    and has zero grid mean.
    """

    threshold: float
    intervals: list[DyadicInterval]
    good: GridFunction
    bad_pieces: list[tuple[DyadicInterval, GridFunction]]

    @property
    def total_length(self) -> float:
        return sum(iv.length for iv in self.intervals)

    def bad_sum(self) -> GridFunction:
        if not self.bad_pieces:
            return GridFunction(self.good.log_sizes, np.zeros(self.good.sizes[0]))
        total = sum(p.values for _, p in self.bad_pieces)
        return GridFunction(self.good.log_sizes, total)


def maximal_dyadic_intervals(absvals: np.ndarray, threshold: float) -> list[DyadicInterval]:
    """Maximal dyadic intervals whose |f|-average exceeds ``threshold``."""
    n = absvals.shape[0]
    log_size = n.bit_length() - 1
    averages = _level_averages(absvals)
    chosen: list[DyadicInterval] = []
    blocked = np.zeros(2, dtype=bool)
    for k in range(1, log_size + 1):
        hit = averages[k] > threshold
        pick = hit & ~blocked
        for j in np.nonzero(pick)[0]:
            chosen.append(DyadicInterval(k, int(j)))
        blocked = blocked | hit
        if k < log_size:
            blocked = np.repeat(blocked, 2)
    return chosen


def cz_cover(f: GridFunction, alpha: float) -> StoppingCover:
    """Stopping cover: maximal dyadic intervals of {M_D f > alpha/4}.

    The averages are at least alpha/4 on each interval and the stars of the
    intervals cover {Mf > alpha} (verified pointwise on the grid).
    """
    if f.dims != 1:
        raise ValueError("cz_cover requires a 1D grid function")
    absvals = np.abs(f.values)
    mf = _hl_runs(absvals)
    above = mf > alpha
    if not above.any():
        return StoppingCover(alpha, [], True)
    intervals = maximal_dyadic_intervals(absvals, alpha / 4.0)
    n = absvals.shape[0]
    covered = np.zeros(n, dtype=bool)
    for iv in intervals:
        covered |= star(iv).indicator(f.log_sizes[0])
    return StoppingCover(alpha, intervals, bool((covered | ~above).all()))


def cz_decompose(f: GridFunction, alpha: float) -> CZDecomposition:
    """Calderon-Zygmund decomposition at threshold alpha > ||f||_1."""
    if f.dims != 1:
        raise ValueError("cz_decompose requires a 1D grid function")
    absvals = np.abs(f.values)
    norm1 = absvals.mean()
    if not alpha > norm1:
        raise ValueError(f"threshold {alpha} must exceed ||f||_1 = {norm1}")
    intervals = maximal_dyadic_intervals(absvals, alpha)
    log_size = f.log_sizes[0]
    good = np.array(f.values)
    bad_pieces = []
    for iv in intervals:
        sl = iv.grid_slice(log_size)
        avg = f.values[sl].mean()
        piece = np.zeros_like(good)
        piece[sl] = f.values[sl] - avg
        good[sl] = avg
        bad_pieces.append((iv, GridFunction(f.log_sizes, piece)))
    return CZDecomposition(alpha, intervals, GridFunction(f.log_sizes, good), bad_pieces)


def vector_maximal(fs, r: float) -> GridFunction:
    """(sum_k (M f_k)^r)^{1/r} pointwise with the HL maximal function M;
    r = inf means sup_k.  The M f_k come from one batched ``maximal`` call."""
    fs = list(fs)
    if not fs:
        raise ValueError("vector maximal requires at least one function")
    if not (r > 1 or np.isinf(r)):
        raise ValueError("exponent r must satisfy 1 < r <= inf")
    stack = np.stack([m.values for m in maximal(fs, "hl")])
    if np.isinf(r):
        out = stack.max(axis=0)
    else:
        out = (stack**r).sum(axis=0) ** (1.0 / r)
    return GridFunction(fs[0].log_sizes, out)
