"""Empirical operator-norm probes and the quantitative counterexamples.

Empirical constants are regression anchors: the probes report maxima of norm
ratios over a deterministic corpus, weak-type quasinorms both directly and
through the set-pairing dualization, and the two classical vector-maximal
lower-bound constructions evaluated with the exact maximal function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus
from .grid import GridFunction, NormSpec, lp_norm, norm
from .maximal import maximal
from .rearrange import rearrangement, two_star, zygmund_norm


@dataclass
class NormReport:
    operator: str
    in_specs: tuple
    out_spec: NormSpec
    ratios: list[float]
    max_ratio: float
    dual_estimate: float | None = None


def probe_norm(
    operator,
    name: str,
    in_specs,
    out_spec: NormSpec,
    corpus,
) -> NormReport:
    """Max over the corpus of norm(T(f..)) / prod(norm(inputs)).

    ``corpus`` yields single functions (unary operators) or input tuples.
    For weak output specs a second estimate runs the set-pairing dualization
    and both figures are reported.
    """
    in_specs = tuple(in_specs)
    ratios = []
    dual = None
    for item in corpus:
        inputs = item if isinstance(item, tuple) else (item,)
        if len(inputs) != len(in_specs):
            raise ValueError("operator arity does not match the input specs")
        out = operator(*inputs)
        denom = 1.0
        for h, spec in zip(inputs, in_specs):
            denom *= norm(h, spec)
        if denom == 0.0:
            continue
        ratios.append(norm(out, out_spec) / denom)
        if out_spec.kind == "WeakLp":
            est = dual_weak_estimate(out, out_spec.p) / denom
            dual = est if dual is None else max(dual, est)
    return NormReport(
        operator=name,
        in_specs=in_specs,
        out_spec=out_spec,
        ratios=ratios,
        max_ratio=float(np.max(ratios)) if ratios else 0.0,
        dual_estimate=dual,
    )


def dual_weak_estimate(f: GridFunction, p: float) -> float:
    """Weak-Lp size of f through the set-pairing route.

    For each trial set E, excise the large-|f| points exactly as the
    dualization prescribes (E' = E minus {|f| > 3^{1/p} A |E|^{-1/p}} for the
    direct quasinorm A) and measure |<f, chi_E'>| / |E|^{1 - 1/p}; the max
    over sets is the dual estimate, comparable to A within 2^{3/2 + 2/p}.
    The 24 trial sets come from a fixed rng seed.
    """
    a_direct = norm(f, NormSpec.weak(p))
    if a_direct == 0.0:
        return 0.0
    absvals = np.abs(f.values).ravel()
    n = absvals.size
    rng = np.random.default_rng(7)
    candidates = []
    for _ in range(24):
        kind = rng.integers(0, 3)
        if kind == 0:
            width = int(rng.integers(max(1, n // 64), n // 2))
            start = int(rng.integers(0, n))
            mask = np.zeros(n, dtype=bool)
            idx = (start + np.arange(width)) % n
            mask[idx] = True
        elif kind == 1:
            mask = rng.uniform(size=n) < rng.uniform(0.05, 0.9)
        else:
            lam = float(rng.choice(np.unique(absvals)))
            mask = absvals >= lam
        if not mask.any():
            continue
        candidates.append(mask)
    best = 0.0
    flat = f.values.ravel()
    for mask in candidates:
        measure = mask.mean()
        cutoff = 3.0 ** (1.0 / p) * a_direct * measure ** (-1.0 / p)
        keep = mask & (absvals <= cutoff)
        pairing = abs(flat[keep].sum()) / n
        best = max(best, pairing / measure ** (1.0 - 1.0 / p))
    return best


@dataclass
class KhinchineReport:
    l2_moment: float
    l2_expected: float
    l2_stderr: float
    tail_frequencies: dict[float, float]
    tail_bounds: dict[float, float]
    tail_wilson_upper: dict[float, float]
    p_norm_ratios: dict[float, float]
    samples: int
    seed: int

    @property
    def l2_sigmas(self) -> float:
        """Distance of the L2 moment from its expectation, in standard errors."""
        return abs(self.l2_moment - self.l2_expected) / self.l2_stderr

    @property
    def tail_excess(self) -> float:
        """Worst excess of a tail over its bound 4e^(-t^2/4), <= 0 iff each
        tail's frequency or Wilson upper bound is below its bound."""
        return float(np.max([
            np.minimum(self.tail_wilson_upper[t], self.tail_frequencies[t]) - bound
            for t, bound in self.tail_bounds.items()
        ]))


#: sign rows drawn and summed at once by ``khinchine_experiment``
_KHINCHINE_ROWS = 8192


def khinchine_experiment(
    coefficients,
    p_list=(1.0, 4.0),
    samples: int = 100_000,
    seed: int = 0,
) -> KhinchineReport:
    """Monte Carlo moments and tails of S = sum a_j r_j over Rademacher draws.

    The tails P(|S| > t ||a||_2) are taken at t = 1, 2, 3.
    """
    if samples < 2:
        raise ValueError(f"samples must be >= 2 for a standard error, got {samples}")
    a = np.asarray(coefficients, dtype=complex)
    l2 = float(np.sum(np.abs(a) ** 2))
    if not l2 > 0:
        raise ValueError("coefficient vector must be nonzero")
    rng = np.random.default_rng(seed)
    # the draws and their sums row chunk by row chunk: the same stream and the
    # same row sums as one whole array, in bounded memory
    sums = np.concatenate([
        rng.choice([-1.0, 1.0], size=(min(_KHINCHINE_ROWS, samples - start), a.size)) @ a
        for start in range(0, samples, _KHINCHINE_ROWS)
    ])
    sq = np.abs(sums) ** 2
    l2_moment = float(sq.mean())
    l2_stderr = float(sq.std(ddof=1) / math.sqrt(samples))
    unit = sums / math.sqrt(l2)
    tail_freq, tail_bound, tail_upper = {}, {}, {}
    for t in (1.0, 2.0, 3.0):
        hits = int((np.abs(unit) > t).sum())
        tail_freq[t] = hits / samples
        tail_bound[t] = 4.0 * math.exp(-(t**2) / 4.0)
        tail_upper[t] = _wilson_upper(hits, samples)
    p_ratios = {
        p: float((np.abs(sums) ** p).mean() ** (1.0 / p) / math.sqrt(l2))
        for p in p_list
    }
    return KhinchineReport(
        l2_moment, l2, l2_stderr, tail_freq, tail_bound, tail_upper, p_ratios,
        samples, seed,
    )


def _wilson_upper(hits: int, n: int, z: float = 3.0) -> float:
    phat = hits / n
    denom = 1.0 + z**2 / n
    center = phat + z**2 / (2 * n)
    margin = z * math.sqrt(phat * (1 - phat) / n + z**2 / (4 * n**2))
    return (center + margin) / denom


@dataclass
class CounterexampleReport:
    label: str
    value: float
    bound: float
    details: dict = field(default_factory=dict)


def fs_sum_counterexample(n_pieces: int) -> CounterexampleReport:
    """min_x sum_k M chi_{[(k-1)/n, k/n)}(x) >= log n - 1.

    Evaluated with the exact interval maximal function on a grid of
    max(2^8, n) points, where the pieces are sample-aligned, so the classical
    lower bound is certified.
    """
    if n_pieces < 1 or n_pieces & (n_pieces - 1):
        raise ValueError(f"n_pieces must be a power of two >= 1, got {n_pieces}")
    log_size = max(8, n_pieces.bit_length() - 1)
    n = 2**log_size
    width = n // n_pieces
    total = np.zeros(n)
    base = np.zeros(n)
    base[:width] = 1.0
    m_base = maximal(GridFunction((log_size,), base), "hl").values.real
    for k in range(n_pieces):
        total += np.roll(m_base, k * width)
    value = float(total.min())
    bound = math.log(n_pieces) - 1.0
    return CounterexampleReport(
        f"sum of {n_pieces} maximal bumps",
        value,
        bound,
        {"n_pieces": n_pieces, "log_size": log_size},
    )


def fs_growth_counterexample(depth: int, r: float) -> CounterexampleReport:
    """(sum_{k<=K} (M chi_{[2^-k-1, 2^-k)})^r)^{1/r} >= K^{1/r}/2 near 0.

    Near 0 every M chi_k is 1/2, so the bound is attained.  ``details`` also
    carries the equivalent power form min sum_k (M chi_k)^r >= K 2^-r, whose
    two sides are exact on the grid (no root is taken).  The K bumps live on
    a grid of 2^(K+3) points and share one batched ``maximal`` call.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if not 1.0 <= r < math.inf:
        raise ValueError(f"r must be finite and >= 1, got {r}")
    log_size = depth + 3
    n = 2**log_size
    x = np.arange(n) / n
    bumps = [
        GridFunction((log_size,), ((x >= 2.0 ** (-k - 1)) & (x < 2.0**-k)).astype(float))
        for k in range(1, depth + 1)
    ]
    maxima = np.stack([m.values.real for m in maximal(bumps, "hl")])
    powers = (maxima**r).sum(axis=0)
    window = x < 2.0**-depth
    value = float((powers ** (1.0 / r))[window].min())
    bound = depth ** (1.0 / r) / 2.0
    return CounterexampleReport(
        f"ell^{r} growth over {depth} dyadic bumps",
        value,
        bound,
        {
            "depth": depth,
            "r": r,
            "log_size": log_size,
            "power_sum": float(powers[window].min()),
            "power_bound": depth * 2.0**-r,
        },
    )


def weighted_maximal_probe(f: GridFunction, weight: GridFunction, r: float):
    """(int (Mf)^r |w|, int |f|^r Mw): the weighted comparison pair.

    The first integral is controlled by a constant multiple of the second,
    uniformly in the weight.
    """
    mf = np.abs(maximal(f, "hl").values)
    mw = np.abs(maximal(weight, "hl").values)
    lhs = float(np.mean(mf**r * np.abs(weight.values)))
    rhs = float(np.mean(np.abs(f.values) ** r * mw))
    return lhs, rhs


def weak_sum_probe(pieces, weights, p: float) -> dict:
    """Weak-quasinorm of sum_n alpha(n)^-r f_n against its piece budgets.

    ``pieces`` are functions with weak-Lp size at most ``weights[n]``; the
    assembled series with the r = k + 3 damping keeps a bounded weak size.
    Returns the measured sizes for reporting.
    """
    pieces = list(pieces)
    weights = np.asarray(weights, dtype=float)
    r = 1.0 / min(p, 1.0) + 3.0
    total = sum(w**-r * f.values for f, w in zip(pieces, weights))
    assembled = GridFunction(pieces[0].log_sizes, total)
    piece_sizes = [norm(f, NormSpec.weak(p)) for f in pieces]
    return {
        "piece_weak_sizes": piece_sizes,
        "budgets": weights.tolist(),
        "within_budget": all(s <= w * (1 + 1e-9) for s, w in zip(piece_sizes, weights)),
        "assembled_weak_size": norm(assembled, NormSpec.weak(p)),
    }


def strong_maximal_endpoint_probe(corpus: Corpus) -> dict:
    """||M_S f||_1 against the order-2 Zygmund norm on a 2D corpus."""
    ratios = {}
    for name, f in corpus.members:
        if f.dims != 2:
            continue
        ms = maximal(f, "strong")
        ratios[name] = lp_norm(ms, 1.0) / zygmund_norm(f, 2, "closed_form")
    return ratios


#: the window (t_lo, t_hi) of (0, 1] on which (Mf)* is compared with f**
LLOGL_WINDOW = (1.0 / 64, 0.5)


@dataclass
class MaximalZygmundReport:
    norm_ratios: dict[str, float]
    curve_ratio_range: tuple[float, float]
    details: dict = field(default_factory=dict)
    #: member name -> ((Mf)*, f*) step profiles
    profiles: dict = field(default_factory=dict)


def llogl_maximal_experiment(corpus: Corpus, maxima=None) -> MaximalZygmundReport:
    """Compare ||Mf||_1 with the L log L norm and (Mf)* with f** pointwise
    on ``LLOGL_WINDOW``.

    ``maxima`` are the members' ``maximal(f, "hl")`` in member order, when
    the caller has them already; otherwise one batched ``maximal`` call
    computes them here.
    """
    t_lo, t_hi = LLOGL_WINDOW
    ratios, profiles = {}, {}
    lows, highs = [np.empty(0)], [np.empty(0)]
    if maxima is None:
        maxima = maximal(corpus.functions(), "hl")
    for (name, f), mf in zip(corpus.members, maxima, strict=True):
        mf_l1 = lp_norm(mf, 1.0)
        zyg = zygmund_norm(f, 1, "closed_form")
        ratios[name] = mf_l1 / zyg
        mf_profile, f_profile = profiles[name] = rearrangement(mf), rearrangement(f)
        fstar2 = two_star(f_profile)
        # (Mf)* is a step function and f** is continuous decreasing, so on
        # each step piece the ratio is monotone: its extremes over the window
        # sit at the clipped piece endpoints
        t1 = mf_profile.breakpoints
        t0 = np.concatenate([[0.0], t1[:-1]])
        keep = (t1 > t_lo) & (t0 < t_hi)
        steps = mf_profile.values[keep]
        lows.append(steps / fstar2(np.maximum(t0[keep], t_lo)))
        highs.append(steps / fstar2(np.minimum(t1[keep], t_hi)))
    curve_range = (
        float(np.min(np.concatenate(lows), initial=math.inf)),
        float(np.max(np.concatenate(highs), initial=0.0)),
    )
    return MaximalZygmundReport(ratios, curve_range, {"t_window": LLOGL_WINDOW}, profiles)
