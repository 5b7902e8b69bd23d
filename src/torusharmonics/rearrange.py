"""Exact decreasing rearrangements, star operators, and Zygmund norms.

Grid functions have step rearrangements with rational breakpoints, so every
t-integral in sight has a closed form.  The iterated averaging operators
f^(*,n) of a step profile live in the span of {1} + {log^j(1/t)/t}, which is
closed under the prefix-average map; the implementation carries exact
piecewise coefficients in that basis for every order.  This gives the module
two genuinely independent routes to each Zygmund norm: iterated averaging
versus the direct log-moment of f*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import GridFunction


@dataclass(frozen=True)
class StepProfile:
    """Exact step form of a decreasing rearrangement.

    ``values[m]`` holds on [breakpoints[m-1], breakpoints[m]) with an
    implicit leading breakpoint 0; values are strictly decreasing and
    positive, and the profile is 0 beyond the last breakpoint.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if bp.shape != vals.shape:
            raise ValueError("breakpoints and values must have equal length")
        if bp.size:
            steps = np.diff(np.concatenate([[0.0], bp]))
            if not (steps > 0).all() or bp[-1] > 1.0 + 1e-12:
                raise ValueError("breakpoints must increase within (0, 1]")
            if not (np.diff(vals) < 0).all() or not (vals >= 0).all():
                raise ValueError("values must be strictly decreasing and nonnegative")
        bp.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    @property
    def support(self) -> float:
        return float(self.breakpoints[-1]) if self.breakpoints.size else 0.0

    def __call__(self, t):
        """f*(t), right-continuous, 0 for t >= support."""
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.breakpoints, t, side="right")
        padded = np.concatenate([self.values, [0.0]])
        return padded[np.minimum(idx, len(self.values))] * (t >= 0)

    def measure_above(self, lam: float) -> float:
        """Distribution function mu(lam) = |{f* > lam}|."""
        idx = np.searchsorted(-self.values, -lam, side="left")
        # values[0..idx-1] > lam
        if idx == 0:
            return 0.0
        return float(self.breakpoints[idx - 1])

    def lp_norm(self, p: float) -> float:
        widths = np.diff(np.concatenate([[0.0], self.breakpoints]))
        return float(np.sum(self.values**p * widths) ** (1.0 / p))


def rearrangement(f: GridFunction) -> StepProfile:
    """Decreasing rearrangement of |f| as an exact step profile.

    A step profile cannot hold NaN, so NaN samples raise ``ValueError``.
    """
    absvals = np.sort(np.abs(f.values).ravel())[::-1]
    total = absvals.size
    nans = int(np.isnan(absvals).sum())
    if nans:
        raise ValueError(f"{nans} of {total} samples are NaN; a rearrangement cannot hold NaN")
    # merge equal sample values into single steps
    vals, counts = np.unique(absvals, return_counts=True)
    vals = vals[::-1]
    counts = counts[::-1]
    keep = vals > 0
    vals = vals[keep]
    counts = counts[keep]
    breakpoints = np.cumsum(counts) / total
    return StepProfile(breakpoints, vals)


# --- exact piecewise curves in the basis {1, 1/t, log(1/t)/t, ...} ---------


@dataclass
class _PiecewiseStarCurve:
    """Piecewise function sum_j coef[m, j] b_j(t) on [cuts[m], cuts[m+1]).

    Basis: b_0 = 1, b_j(t) = log^{j-1}(1/t) / t for j >= 1.  Closed under
    the prefix-average map g -> (1/t) int_0^t g, which is how the star
    iterates stay exact.
    """

    cuts: np.ndarray  # increasing, cuts[0] == 0.0, cuts[-1] == 1.0
    coef: np.ndarray  # shape (len(cuts) - 1, n_basis)

    def evaluate(self, t):
        t = np.asarray(t, dtype=float)
        if (t <= 0).any() or (t > 1).any():
            raise ValueError("curve defined on (0, 1]")
        seg = np.clip(np.searchsorted(self.cuts, t, side="right") - 1, 0, len(self.coef) - 1)
        out = np.zeros(t.shape)
        logs = np.log(1.0 / t)
        n_basis = self.coef.shape[1]
        basis = np.ones(t.shape)
        for j in range(n_basis):
            if j == 1:
                basis = 1.0 / t
            elif j > 1:
                basis = logs ** (j - 1) / t
            out += self.coef[seg, j] * basis
        return out

    def _antiderivs_at_cuts(self) -> tuple[np.ndarray, np.ndarray]:
        """F(cuts[m]) for F(t) = int_0^t g, and every basis antiderivative at the cuts.

        The second value has one row per basis index j: A_j at every cut.
        Per piece, the terms c_j (A_j(upper) - A_j(lower)) of the nonzero
        c_j add in j order from 0.0, and ``np.cumsum`` adds the pieces in
        order, so F takes the floats of a running sum over the pieces.  A
        skipped term adds 0.0, which leaves a sum that starts at 0.0
        unchanged.  A_j (j >= 1) is singular at t = 0: the first piece must
        not use it, and its entry there is a placeholder 0.0.
        """
        if self.cuts[0] == 0.0 and np.any(self.coef[0, 1:] != 0.0):
            raise ValueError("singular basis terms are not integrable from 0")
        anti = _basis_antiderivs(self.cuts, self.coef.shape[1])
        pieces = np.zeros(len(self.coef))
        for c, a in zip(self.coef.T, anti):
            pieces += np.where(c != 0.0, c * (a[1:] - a[:-1]), 0.0)
        totals = np.zeros(len(self.cuts))
        np.cumsum(pieces, out=totals[1:])
        return totals, anti

    def prefix_integral_at_cuts(self) -> np.ndarray:
        """F(cuts[m]) for F(t) = int_0^t g, exact per-piece antiderivatives."""
        return self._antiderivs_at_cuts()[0]

    def integral(self) -> float:
        """int_0^1 of the curve."""
        return float(self.prefix_integral_at_cuts()[-1])

    def star(self) -> "_PiecewiseStarCurve":
        """The prefix average (1/t) int_0^t of this curve, exactly.

        On piece m, F(t)/t = [F(t0) - sum_j c_j A_j(t0)] / t + c_0
        + sum_{j>=1} c_j A_j(t) / t, with the sum over the nonzero c_j in j
        order, as in ``_antiderivs_at_cuts``.
        """
        n_pieces, n_basis = self.coef.shape
        prefix, anti = self._antiderivs_at_cuts()
        lower_terms = np.zeros(n_pieces)
        for c, a in zip(self.coef.T, anti):
            lower_terms += np.where(c != 0.0, c * a[:-1], 0.0)
        new_coef = np.zeros((n_pieces, n_basis + 1))
        new_coef[:, 0] = self.coef[:, 0]
        new_coef[:, 1] += prefix[:-1] - lower_terms
        for j in range(1, n_basis):
            c = self.coef[:, j]
            # int b_j = -log^j(1/t)/j, so b_j feeds b_{j+1}
            new_coef[:, j + 1] += np.where(c != 0.0, -c / j, 0.0)
        return _PiecewiseStarCurve(self.cuts, new_coef)

    @staticmethod
    def from_profile(profile: StepProfile) -> "_PiecewiseStarCurve":
        cuts = np.concatenate([[0.0], profile.breakpoints])
        vals = list(profile.values)
        if not profile.breakpoints.size or profile.breakpoints[-1] < 1.0:
            cuts = np.concatenate([cuts, [1.0]])
            vals = vals + [0.0]
        coef = np.zeros((len(vals), 1))
        coef[:, 0] = vals
        return _PiecewiseStarCurve(cuts, coef)


def _log_powers(ts: np.ndarray, top: int) -> list[np.ndarray]:
    """log^i(1/t) at every t > 0 in ``ts``, for i = 0..top.

    Each log is one ``math.log`` call and each power Python's ``**``, point
    by point: numpy's ``log`` differs from libm's in the last place on some
    corpus breakpoints, and the curves and norms must not depend on which
    one ran.
    """
    logs = [math.log(1.0 / t) for t in ts.tolist()]
    return [np.array([x**i for x in logs]) for i in range(top + 1)]


def _basis_antiderivs(cuts: np.ndarray, n_basis: int) -> np.ndarray:
    """A_j at every cut for j < n_basis: A_0(t) = t, A_j(t) = -log^j(1/t)/j.

    A_j (j >= 1) has no value at t = 0; a cut there gets 0.0.
    """
    anti = np.zeros((n_basis, len(cuts)))
    anti[0] = cuts
    inner = cuts != 0.0
    for j, power in enumerate(_log_powers(cuts[inner], n_basis - 1)[1:], start=1):
        anti[j, inner] = -power / j
    return anti


@dataclass
class RearrangementCurve:
    """Sampled star iterate f^(*,n) with its exact piecewise evaluator."""

    order: int
    abscissae: np.ndarray
    samples: np.ndarray
    exact: _PiecewiseStarCurve = field(repr=False)

    def __call__(self, t):
        return self.exact.evaluate(t)

    def integral(self) -> float:
        return self.exact.integral()


def star_curve(profile: StepProfile, order: int) -> _PiecewiseStarCurve:
    """Exact piecewise representation of f^(*,order) (order >= 1)."""
    if order < 1:
        raise ValueError("order must be >= 1")
    curve = _PiecewiseStarCurve.from_profile(profile)
    for _ in range(order - 1):
        curve = curve.star()
    return curve


def n_star(profile: StepProfile, order: int) -> RearrangementCurve:
    """f^(*,order) for order >= 2, sampled at 4096 log-spaced points of [1e-6, 1]."""
    if order < 2:
        raise ValueError("order must be >= 2 (order 1 is the profile itself)")
    curve = star_curve(profile, order)
    abscissae = np.logspace(-6, 0, 4096)
    return RearrangementCurve(order, abscissae, curve.evaluate(abscissae), curve)


def two_star(profile: StepProfile):
    """Exact evaluator for f**(t) = (1/t) int_0^t f*."""
    return star_curve(profile, 2).evaluate


def _as_profile(f) -> StepProfile:
    if isinstance(f, StepProfile):
        return f
    if isinstance(f, GridFunction):
        return rearrangement(f)
    raise TypeError("expected a GridFunction or StepProfile")


def zygmund_norm(f, n: int = 1, method: str = "closed_form") -> float:
    """The L(log L)^n norm int_0^1 f^(*,n+1); n = 0 is the L1 norm.

    ``closed_form`` integrates f* against log^n(1/t)/n! with the exact
    antiderivative; ``iterated`` integrates the exact piecewise f^(*,n+1)
    built by repeated prefix averaging.  The two routes share no integration
    code.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    profile = _as_profile(f)
    if method == "iterated":
        return star_curve(profile, n + 1).integral()
    if method != "closed_form":
        raise ValueError("method must be 'iterated' or 'closed_form'")
    if n == 0:
        return profile.lp_norm(1.0)
    # int_0^t log^n(1/s) ds = t sum_{i<=n} (n!/i!) log^i(1/t) at each
    # breakpoint, the previous breakpoint's value being each piece's lower end
    moment = np.zeros(len(profile.breakpoints))
    for i, power in enumerate(_log_powers(profile.breakpoints, n)):
        moment += math.factorial(n) / math.factorial(i) * power
    pieces = profile.values * np.diff(profile.breakpoints * moment, prepend=0.0)
    return np.cumsum(np.concatenate([[0.0], pieces]))[-1] / math.factorial(n)


def lorentz_norm(f, p: float, q: float) -> float:
    """Lorentz L^{p,q} (quasi)norm, exact on step profiles."""
    if not (0 < p < math.inf) or not (0 < q):
        raise ValueError("need 0 < p < inf and 0 < q <= inf")
    profile = _as_profile(f)
    if not profile.breakpoints.size:
        return 0.0
    if math.isinf(q):
        return float(np.max(profile.values * profile.breakpoints ** (1.0 / p)))
    lower = np.concatenate([[0.0], profile.breakpoints[:-1]])
    terms = (
        profile.values**q
        * (p / q)
        * (profile.breakpoints ** (q / p) - lower ** (q / p))
    )
    return float(np.sum(terms) ** (1.0 / q))


def kolmogorov_functional(f, p: float, r: float) -> float:
    """max over super-level sets E of ||f chi_E||_r / |E|^{1/s}, 1/s = 1/r - 1/p.

    Restricting to super-level sets is lossless: among sets of fixed measure
    they maximize the restricted L^r mass.
    """
    if not (0 < r < p < math.inf):
        raise ValueError("need 0 < r < p < inf")
    profile = _as_profile(f)
    if not profile.breakpoints.size:
        return 0.0
    inv_s = 1.0 / r - 1.0 / p
    widths = np.diff(np.concatenate([[0.0], profile.breakpoints]))
    mass_r = np.cumsum(profile.values**r * widths)
    candidates = mass_r ** (1.0 / r) / profile.breakpoints**inv_s
    return float(candidates.max())


def optimal_l1_linf_split(f: GridFunction, t: float):
    """The minimizing split f = g + h of ||g||_1 + t ||h||_inf.

    g peels |f| above the level f*(t) and h caps it there; the attained
    value equals t f**(t) exactly.
    """
    if not (0 < t <= 1):
        raise ValueError("t must lie in (0, 1]")
    profile = rearrangement(f)
    level = float(profile(np.array([t]))[0])
    absvals = np.abs(f.values)
    phase = np.where(absvals > 0, f.values / np.where(absvals > 0, absvals, 1.0), 0.0)
    gvals = np.maximum(absvals - level, 0.0) * phase
    hvals = np.minimum(absvals, level) * phase
    g = GridFunction(f.log_sizes, gvals)
    h = GridFunction(f.log_sizes, hvals)
    value = float(np.abs(gvals).mean() + t * np.abs(hvals).max())
    return g, h, value
