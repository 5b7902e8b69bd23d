"""Single- and bi-parameter bilinear paraproducts with shift variants.

The model operator pairs two inputs against adapted-family members over all
dyadic intervals (rectangles in two parameters) and re-expands against a
third family,

    T(f, g) = sum_I eps_I |I|^{-1/2} <phi^1_I, f> <phi^2_I, g> phi^3_I,

with L2-normalized members.  One slot per parameter axis may carry mean; the
others must be zero-mean.  Coefficients are read off ``transform.analysis``
per scale (scale pair in two parameters), and the output is one
``transform.synthesis``: every scale's weight train is convolved in
frequency and the sum is inverted once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction
from .squares import _member_starts, _prototypes
from .transform import analysis, synthesis


@dataclass
class ParaproductSpec:
    """Families, mean-slot labels, scalars, and optional shifts.

    ``mean_slots`` holds the slot (1, 2, or 3) allowed to carry mean per
    parameter axis; families at the other slots must be zero-mean.
    """

    params: int
    families: tuple  # (fam1, fam2, fam3) or per-axis triples for params=2
    mean_slots: tuple[int, ...]
    epsilon: object
    shifts: tuple = ()
    average_alpha: bool = False
    max_offsets: int = 16

    def __post_init__(self):
        if self.params not in (1, 2):
            raise ValueError("parameter count must be 1 or 2")
        if len(self.mean_slots) != self.params:
            raise ValueError("one mean slot per parameter axis")
        if any(a not in (1, 2, 3) for a in self.mean_slots):
            raise ValueError("mean slots are labelled 1, 2, 3")
        if self.params == 1:
            fams = (self.families,)
        else:
            fams = self.families
        for axis, axis_fams in enumerate(fams):
            if len(axis_fams) != 3:
                raise ValueError("three families per parameter axis")
            for slot, fam in enumerate(axis_fams, start=1):
                if slot != self.mean_slots[axis] and not fam.zero_mean:
                    raise ValueError(
                        f"slot {slot} on axis {axis + 1} must be zero-mean "
                        f"(mean slot is {self.mean_slots[axis]})"
                    )
        if self.shifts and len(self.shifts) != 2:
            raise ValueError("shifts apply to the two input slots")


def paraproduct_1p(spec: ParaproductSpec, f: GridFunction, g: GridFunction) -> GridFunction:
    """Single-parameter bilinear paraproduct (optionally shifted/averaged)."""
    if spec.params != 1:
        raise ValueError("spec is not single-parameter")
    fam1, fam2, fam3 = spec.families
    for fam, h in ((fam1, f), (fam2, g)):
        if h.dims != 1 or h.log_sizes[0] != fam.log_size:
            raise ValueError("input grid does not match the family grid")
    log_size = fam1.log_size
    size = 2**log_size
    n1, n2 = spec.shifts if spec.shifts else (0, 0)
    scales = sorted(set(fam1.scales) & set(fam2.scales) & set(fam3.scales))

    def trains():
        lags_f = analysis(f.values, [_prototypes(fam1, scales)])
        lags_g = analysis(g.values, [_prototypes(fam2, scales)])
        for k, lf, lg in zip(scales, lags_f, lags_g):
            step = 2 ** (log_size - k)
            at = _member_starts(k, step, spec.max_offsets if spec.average_alpha else None)
            cf = lf[(at + n1 * step) % size]
            cg = lg[(at + n2 * step) % size]
            # |I|^{-1/2} and three L2 normalizations against the raw lag and
            # member scalings leave a net 2^-k on the lag products
            train = np.zeros(size, dtype=np.complex128)
            train[at] = spec.epsilon.at(k)[:, None] * cf * cg * 2.0**-k / at.shape[1]
            yield train

    return GridFunction(f.log_sizes, synthesis(trains(), [_prototypes(fam3, scales)]))


def paraproduct_2p(spec: ParaproductSpec, f: GridFunction, g: GridFunction) -> GridFunction:
    """Bi-parameter bilinear paraproduct over dyadic rectangles."""
    if spec.params != 2:
        raise ValueError("spec is not bi-parameter")
    (ax1_fams, ax2_fams) = spec.families
    if f.dims != 2 or g.dims != 2:
        raise ValueError("bi-parameter paraproducts take 2D inputs")
    log1, log2 = ax1_fams[0].log_size, ax2_fams[0].log_size
    if f.log_sizes != (log1, log2) or g.log_sizes != (log1, log2):
        raise ValueError("input grids do not match the family grids")
    scales = [
        sorted(set.intersection(*(set(fam.scales) for fam in axis_fams)))
        for axis_fams in spec.families
    ]

    def slot(i):
        return [_prototypes(axis_fams[i], ks) for axis_fams, ks in zip(spec.families, scales)]

    def trains():
        lags = zip(analysis(f.values, slot(0)), analysis(g.values, slot(1)))
        for (k1, k2), (lf, lg) in zip(itertools.product(*scales), lags):
            lattice = np.s_[:: 2 ** (log1 - k1), :: 2 ** (log2 - k2)]
            train = np.zeros(f.sizes, dtype=np.complex128)
            train[lattice] = (
                spec.epsilon.at(k1, k2) * lf[lattice] * lg[lattice] * 2.0 ** (-(k1 + k2))
            )
            yield train

    return GridFunction(f.log_sizes, synthesis(trains(), slot(2)))


def paraproduct_pairing(
    spec: ParaproductSpec, f: GridFunction, g: GridFunction, h: GridFunction
) -> complex:
    """<T(f, g), h> computed directly from the three coefficient fields."""
    if spec.params != 1:
        raise ValueError("pairing helper covers the single-parameter case")
    fams = spec.families
    log_size = fams[0].log_size
    scales = sorted(set.intersection(*(set(fam.scales) for fam in fams)))
    lags = [analysis(u.values, [_prototypes(fam, scales)]) for u, fam in zip((f, g, h), fams)]
    total = 0.0 + 0.0j
    for k, lf, lg, lh in zip(scales, *lags):
        step = 2 ** (log_size - k)
        # three normalized coefficients against |I|^{-1/2}: net factor 2^-k
        products = spec.epsilon.at(k) * lf[::step] * lg[::step] * lh[::step]
        total += complex(np.sum(products) * 2.0**-k)
    return total
