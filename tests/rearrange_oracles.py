"""Per-piece loop oracles for the exact star curves of ``torusharmonics.rearrange``.

These are the loops the library's array forms replaced, kept unchanged as
functions of a curve or a profile.  They take each basis antiderivative one
cut at a time and add per piece in a Python loop; the library builds every
antiderivative at all cuts at once and sums with ``np.cumsum``.  Both take
logs with ``math.log`` and powers with Python's ``**`` and add in the same
order, so the bit-identity tests compare two computations of the same floats.
"""

from __future__ import annotations

import math

import numpy as np

from torusharmonics.rearrange import StepProfile, _PiecewiseStarCurve


def antiderivs_at_cuts(curve: _PiecewiseStarCurve) -> tuple[np.ndarray, list[dict[int, float]]]:
    """F(cuts[m]) for F(t) = int_0^t g, and each piece's lower-cut A_j.

    The second value holds, per piece m, the basis antiderivatives
    A_j(cuts[m]) of its nonzero terms.  Piece m's upper cut is piece
    m + 1's lower one, so each antiderivative a piece reads there is
    taken once.
    """
    totals = np.zeros(len(curve.cuts))
    lowers = []
    upper: dict[int, float] = {}
    for m, coef in enumerate(curve.coef):
        lower, upper = upper, {}
        total = 0.0
        for j, c in enumerate(coef):
            if c == 0.0:
                continue
            upper[j] = _basis_antideriv(j, curve.cuts[m + 1])
            if j not in lower:
                lower[j] = _basis_antideriv(j, curve.cuts[m])
            total += c * (upper[j] - lower[j])
        totals[m + 1] = totals[m] + total
        lowers.append(lower)
    return totals, lowers


def star(curve: _PiecewiseStarCurve) -> _PiecewiseStarCurve:
    """The prefix average (1/t) int_0^t of this curve, exactly."""
    n_pieces, n_basis = curve.coef.shape
    new_coef = np.zeros((n_pieces, n_basis + 1))
    prefix, lowers = antiderivs_at_cuts(curve)
    for m in range(n_pieces):
        t0 = curve.cuts[m]
        c = curve.coef[m]
        if t0 == 0.0 and np.any(c[1:] != 0.0):
            raise ValueError("singular basis terms are not integrable from 0")
        # F(t)/t = [F(t0) - sum_j c_j A_j(t0)] / t + c_0 + sum_{j>=1} ...
        const_term = prefix[m] - sum(
            c[j] * lowers[m][j] for j in range(n_basis) if c[j] != 0.0
        )
        new_coef[m, 0] = c[0]
        new_coef[m, 1] += const_term
        for j in range(1, n_basis):
            if c[j] != 0.0:
                # int b_j = -log^j(1/t)/j, so b_j feeds b_{j+1}
                new_coef[m, j + 1] += -c[j] / j
    return _PiecewiseStarCurve(curve.cuts, new_coef)


def star_curve(profile: StepProfile, order: int) -> _PiecewiseStarCurve:
    """f^(*,order) by ``order - 1`` loop-form stars of the profile's curve."""
    curve = _PiecewiseStarCurve.from_profile(profile)
    for _ in range(order - 1):
        curve = star(curve)
    return curve


def _basis_antideriv(j: int, t: float) -> float:
    """Antiderivative of b_j at t (b_0 = 1, b_j = log^{j-1}(1/t)/t)."""
    if j == 0:
        return t
    if t == 0.0:
        raise ValueError("singular antiderivative at 0")
    return -math.log(1.0 / t) ** j / j


def zygmund_closed_form(profile: StepProfile, n: int) -> float:
    """int_0^1 f* log^n(1/t)/n! for n >= 1, one breakpoint at a time."""
    # each breakpoint's antiderivative is also the next piece's lower end
    total = 0.0
    lower = 0.0  # the antiderivative at t = 0
    for t1, a in zip(profile.breakpoints, profile.values):
        upper = _log_moment_antideriv(n, t1)
        total += a * (upper - lower)
        lower = upper
    return total / math.factorial(n)


def _log_moment_antideriv(n: int, t: float) -> float:
    """int_0^t log^n(1/s) ds = t sum_{i<=n} (n!/i!) log^i(1/t)."""
    if t == 0.0:
        return 0.0
    log_term = math.log(1.0 / t)
    total = 0.0
    for i in range(n + 1):
        total += math.factorial(n) / math.factorial(i) * log_term**i
    return t * total
