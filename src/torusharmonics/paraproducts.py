"""Single- and bi-parameter bilinear paraproducts with shift variants.

The model operator pairs two inputs against adapted-family members over all
dyadic boxes (intervals in one parameter, rectangles in two) and re-expands
against a third family,

    T(f, g) = sum_R eps_R |R|^{-1/2} <phi^1_{R^{n_1}}, f> <phi^2_{R^{n_2}}, g> phi^3_R,

with L2-normalized members; ``average_alpha`` also averages over the
fractional shifts R_alpha.  One slot per parameter axis may carry mean; the
others must be zero-mean.  Both parameter counts run on the one d-axis
multilinear sum of ``squares``: every scale tuple's weight train is built
from ``transform.analysis`` lags and the output is one
``transform.synthesis``.  ``paraproduct_pairing`` pairs the same trains with
the third input's lags, so it is <T(f, g), h> by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridFunction
from .squares import _bands, _multilinear, _scale_lists, _spacings, _trains
from .transform import analysis


@dataclass
class ParaproductSpec:
    """Families, mean-slot labels, scalars, and optional shifts.

    ``mean_slots`` holds the slot (1, 2, or 3) allowed to carry mean per
    parameter axis; families at the other slots must be zero-mean.
    ``shifts`` = (n_1, n_2) moves input slot i's boxes by n_i intervals on
    every axis.
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
        for axis, axis_fams in enumerate(self.axes):
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

    @property
    def axes(self) -> tuple:
        """The family triple of every parameter axis."""
        return (self.families,) if self.params == 1 else self.families


def _terms(spec: ParaproductSpec, *inputs):
    """(per-slot per-axis families, shifts, alpha offsets) for the inputs' grids."""
    if any(u.log_sizes != tuple(fams[0].log_size for fams in spec.axes) for u in inputs):
        raise ValueError("input grids do not match the family grids")
    offsets = spec.max_offsets if spec.average_alpha else None
    return list(zip(*spec.axes)), spec.shifts or (0, 0), offsets


def _paraproduct(spec: ParaproductSpec, f: GridFunction, g: GridFunction) -> GridFunction:
    slots, shifts, offsets = _terms(spec, f, g)
    return GridFunction(
        f.log_sizes, _multilinear((f.values, g.values), slots, spec.epsilon, shifts, offsets)
    )


def paraproduct_1p(spec: ParaproductSpec, f: GridFunction, g: GridFunction) -> GridFunction:
    """Single-parameter bilinear paraproduct (optionally shifted/averaged)."""
    if spec.params != 1:
        raise ValueError("spec is not single-parameter")
    return _paraproduct(spec, f, g)


def paraproduct_2p(spec: ParaproductSpec, f: GridFunction, g: GridFunction) -> GridFunction:
    """Bi-parameter bilinear paraproduct over dyadic rectangles (optionally shifted/averaged)."""
    if spec.params != 2:
        raise ValueError("spec is not bi-parameter")
    return _paraproduct(spec, f, g)


def paraproduct_pairing(
    spec: ParaproductSpec, f: GridFunction, g: GridFunction, h: GridFunction
) -> complex:
    """<T(f, g), h> = sum over the lattice of T's weight trains times h's lags.

    The lags of h against the output prototype are the pairings
    <phi^3_{R_alpha}, h> up to the member scaling the trains already carry,
    so this is <T(f, g), h> by construction, with shifts and alpha-averaging
    and on either parameter count.
    """
    slots, shifts, offsets = _terms(spec, f, g, h)
    scales = _scale_lists(zip(*slots))
    trains = _trains((f.values, g.values), slots[:2], spec.epsilon, shifts, scales, offsets)
    lags_h = analysis(h.values, _bands(slots[2], scales), _spacings(scales, h.sizes, offsets))
    return complex(sum(np.sum(train * lag) for train, lag in zip(trains, lags_h)))
