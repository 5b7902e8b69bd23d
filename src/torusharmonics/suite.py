"""The registered verification checks and the suite runner.

Each check implements one acceptance gate at its stated tolerance and
runtime budget; ``run_suite`` executes them, prints one pass/fail line per
check, writes per-check JSON plus a summary CSV, and reports overall
success.  Empirical constants asserted here are either classical hard
ceilings or stability statements across one resolution doubling; nothing is
asserted about sharpness.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bumps import build_double_pou, build_pou, make_adapted_family, partition_residuals
from .corpus import generate_corpus
from .gfio import RunConfig
from .grid import GridFunction, NormSpec, lp_norm
from .maximal import cz_decompose, maximal
from .multipliers import (
    apply_1d,
    apply_bilinear,
    reassembly_residual,
    symbol_coefficients,
    symbol_registry,
    trilinear_pairing_check,
)
from .paraproducts import ParaproductSpec, paraproduct_1p, paraproduct_2p
from .probes import (
    fs_growth_counterexample,
    fs_sum_counterexample,
    khinchine_experiment,
    llogl_maximal_experiment,
    probe_norm,
)
from .rearrange import (
    optimal_l1_linf_split,
    rearrangement,
    two_star,
    zygmund_norm,
)
from .squares import EpsilonField, hybrid, linearize, square_function


@dataclass
class CheckResult:
    check_id: str
    passed: bool
    summary: str
    runtime: float = 0.0
    budget: float = math.inf
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.passed and self.runtime <= self.budget

    def row(self):
        return [self.check_id, "pass" if self.ok else "FAIL", f"{self.runtime:.2f}s", self.summary]


def _scale_count(config: RunConfig, log_size=None) -> int:
    return (log_size or config.log_size) - config.scale_margin


# --- check 1: partition-of-unity gate ---------------------------------------


def check_partition_gate(config: RunConfig) -> CheckResult:
    K = min(_scale_count(config), 7)
    res = partition_residuals(*build_pou(K, config.log_size), build_double_pou(K, config.log_size))
    residual, residual2 = res["residual"], res["residual_double"]
    passed = residual <= 1e-10 and residual2 <= 1e-9
    return CheckResult(
        "partition_gate",
        passed,
        f"pou residual {residual:.2e} (<=1e-10) on 0<|n|<={res['band']}; "
        f"double residual {residual2:.2e} (<=1e-9) on max|n|<={res['band_double']}",
        budget=5.0,
        details=res,
    )


# --- checks 2-3: vector-maximal counterexamples ------------------------------


def check_fs_sum(config: RunConfig) -> CheckResult:
    reports = [fs_sum_counterexample(n) for n in (16, 64, 256)]
    passed = all(r.passed for r in reports)
    summary = "; ".join(
        f"N={r.details['n_pieces']}: min sum {r.value:.3f} >= {r.bound:.3f}" for r in reports
    )
    return CheckResult(
        "fs_sum_counterexample", passed, summary, budget=30.0,
        details={f"N{r.details['n_pieces']}": (r.value, r.bound) for r in reports},
    )


def check_fs_growth(config: RunConfig) -> CheckResult:
    reports = [fs_growth_counterexample(6, r) for r in (2.0, 4.0)]
    passed = all(r.passed for r in reports)
    summary = "; ".join(
        f"r={r.details['r']}: value {r.value:.4f} >= {r.bound:.4f}" for r in reports
    )
    return CheckResult(
        "fs_growth_counterexample", passed, summary, budget=5.0,
        details={f"r{r.details['r']}": (r.value, r.bound) for r in reports},
    )


# --- check 4: pointwise maximal oracles --------------------------------------


def check_maximal_oracle(config: RunConfig) -> CheckResult:
    log_size = 10
    n = 2**log_size
    half = GridFunction.from_callable(lambda x: (x < 0.5).astype(complex), (log_size,))
    value = float(maximal(half, "hl").values[3 * n // 4].real)
    point_ok = abs(value - 2.0 / 3.0) <= 2.0 / n

    # independent oracle: direct mean over every window containing the point
    absvals = np.abs(half.values)
    i = 3 * n // 4
    ext = np.concatenate([absvals, absvals])
    best = 0.0
    csum = np.concatenate([[0.0], np.cumsum(ext)])
    for w in range(1, n + 1):
        starts = np.arange(i - w + 1, i + 1) % n
        sums = csum[starts + w] - csum[starts]
        best = max(best, float(sums.max()) / w)
    oracle_ok = abs(value - best) < 1e-12

    corpus = generate_corpus(config.seed, config.log_size)
    domination_ok = True
    count = 0
    for _, f in corpus.members * 5:
        if count >= 100:
            break
        count += 1
        md = maximal(f, "dyadic").values.real
        m = maximal(f, "hl").values.real
        if not ((np.abs(f.values) <= md + 1e-12).all() and (md <= m + 1e-12).all()):
            domination_ok = False
            break
    passed = point_ok and oracle_ok and domination_ok
    return CheckResult(
        "maximal_pointwise_oracle", passed,
        f"M(chi)(3/4) = {value:.6f} vs 2/3 (tol {2.0/n:.2e}); sweep match "
        f"{oracle_ok}; |f| <= M_D f <= Mf on {count} functions: {domination_ok}",
        budget=30.0,
        details={"point_value": value, "oracle_value": best},
    )


# --- check 5: Calderon-Zygmund invariants ------------------------------------


def check_cz_invariants(config: RunConfig) -> CheckResult:
    corpus = generate_corpus(config.seed, config.log_size)
    rng = np.random.default_rng(config.seed + 100)
    log_size = config.log_size
    n_pairs = 0
    failures = []
    funcs = corpus.functions()
    while n_pairs < 200:
        f = funcs[n_pairs % len(funcs)]
        norm1 = lp_norm(f, 1.0)
        alpha = norm1 * float(rng.uniform(1.25, 8.0))
        dec = cz_decompose(f, alpha)
        n_pairs += 1
        for i, a in enumerate(dec.intervals):
            for b in dec.intervals[i + 1 :]:
                if a.relate(b).value != "disjoint":
                    failures.append("overlap")
        if dec.total_length > norm1 / alpha + 1e-12:
            failures.append("total length")
        if lp_norm(dec.good, 2.0) ** 2 > 5.0 * alpha * norm1 + 1e-10:
            failures.append("good L2")
        for iv, b in dec.bad_pieces:
            if abs(b.mean()) > 1e-12:
                failures.append("bad mean")
            if lp_norm(b, 1.0) > 4.0 * alpha * iv.length + 1e-12:
                failures.append("bad L1")
            sl = iv.grid_slice(log_size)
            avg = float(np.abs(f.values[sl]).mean())
            if not (alpha - 1e-12 < avg <= 2.0 * alpha + 1e-12):
                failures.append("average window")
    passed = not failures
    return CheckResult(
        "cz_invariants", passed,
        f"200 (f, alpha) pairs; violations: {sorted(set(failures)) or 'none'}",
        budget=10.0, details={"violations": failures[:10]},
    )


# --- check 6: weak (1,1) ceiling ---------------------------------------------


def check_weak11(config: RunConfig) -> CheckResult:
    corpus = generate_corpus(config.seed, config.log_size)
    worst = 0.0
    for _, f in corpus.members:
        m = maximal(f, "hl").values.real
        norm1 = lp_norm(f, 1.0)
        lams = np.unique(m)
        for lam in lams[:-1]:
            worst = max(worst, lam * float(np.mean(m > lam)) / norm1)
    passed = worst <= 12.0 + 1e-9
    return CheckResult(
        "weak_1_1_ceiling", passed,
        f"max lambda |{{Mf > lambda}}| / ||f||_1 = {worst:.4f} <= 12",
        budget=10.0, details={"worst": worst},
    )


# --- check 7: rearrangement exactness ----------------------------------------


def check_rearrangement(config: RunConfig) -> CheckResult:
    corpus = generate_corpus(config.seed, config.log_size)
    problems = []
    for name, f in corpus.members[:10]:
        prof = rearrangement(f)
        absvals = np.abs(f.values)
        for lam in prof.values[:: max(1, len(prof.values) // 8)]:
            if abs(prof.measure_above(lam) - float(np.mean(absvals > lam))) > 1e-15:
                problems.append(f"equimeasurability {name}")
        for p in (1.0, 2.0, 4.0):
            a, b = prof.lp_norm(p), lp_norm(f, p)
            if abs(a - b) > 1e-12 * max(1.0, b):
                problems.append(f"lp {name}")
    one = GridFunction.constant(1.0, (config.log_size,))
    for n in range(5):
        for method in ("closed_form", "iterated"):
            if abs(zygmund_norm(one, n, method) - 1.0) > 1e-6:
                problems.append(f"unit n={n} {method}")
    for frac in (0.25, 0.0625):
        ind = GridFunction.from_callable(
            lambda x: (x < frac).astype(complex), (config.log_size,)
        )
        expect = frac * (1.0 + math.log(1.0 / frac))
        if abs(zygmund_norm(ind, 1, "closed_form") - expect) > 1e-10:
            problems.append(f"indicator {frac}")
    rng = np.random.default_rng(config.seed + 1)
    funcs = corpus.functions()
    for case in range(50):
        f = funcs[case % len(funcs)]
        t = float(rng.uniform(0.01, 1.0))
        _, _, value = optimal_l1_linf_split(f, t)
        expect = t * float(two_star(rearrangement(f))(np.array([t]))[0])
        if abs(value - expect) > 1e-12 * max(1.0, expect):
            problems.append(f"split case {case}")
    passed = not problems
    return CheckResult(
        "rearrangement_exactness", passed,
        f"violations: {sorted(set(problems)) or 'none'}",
        budget=5.0, details={"violations": problems[:10]},
    )


# --- check 8: maximal / Zygmund equivalence ----------------------------------


def check_maximal_zygmund(config: RunConfig) -> CheckResult:
    base = generate_corpus(config.seed, 9)
    fine = base.resample(10)
    rep9 = llogl_maximal_experiment(base)
    rep10 = llogl_maximal_experiment(fine)
    drift = max(
        abs(rep10.norm_ratios[k] - rep9.norm_ratios[k]) / rep9.norm_ratios[k]
        for k in rep9.norm_ratios
    )
    # lower end against f*, exactly as the criterion's pointwise justification
    # (Mf >= f) supports; the f** ratio's lower end is recorded, its upper end
    # asserted (grid under-approximation of M dents the f** lower end on
    # few-cell features, see the decisions ledger)
    star_lo = math.inf
    for _, f in fine.members:
        pm = rearrangement(maximal(f, "hl"))
        pf = rearrangement(f)
        ts = np.linspace(1.0 / 64, 0.5, 257)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = pm(ts) / np.maximum(pf(ts), 1e-300)
        star_lo = min(star_lo, float(ratio.min()))
    lo, hi = rep10.curve_ratio_range
    passed = star_lo >= 1.0 - 1e-9 and hi <= 16.0 and drift <= 0.10
    return CheckResult(
        "maximal_zygmund_equivalence", passed,
        f"(Mf)*/f* >= {star_lo:.4f} (>=1); (Mf)*/f** in [{lo:.3f}, {hi:.3f}] "
        f"(<=16); ||Mf||_1/||f||_LlogL drift {drift:.3%} (<10%)",
        budget=60.0,
        details={"star_ratio_min": star_lo, "curve_range": [lo, hi], "drift": drift},
    )


# --- check 9: Khinchine ------------------------------------------------------


def check_khinchine(config: RunConfig) -> CheckResult:
    a = np.ones(32) / math.sqrt(32)
    reports = [
        khinchine_experiment(a, samples=config.mc_samples, seed=config.seed + s)
        for s in range(3)
    ]
    l2_ok = all(r.l2_within(3.0) for r in reports)
    tails_ok = all(r.tails_below_bound() for r in reports)
    brackets = {1.0: (0.70, 0.90), 4.0: (1.20, 1.45)}
    bracket_ok = all(
        brackets[p][0] <= r.p_norm_ratios[p] <= brackets[p][1]
        for r in reports
        for p in brackets
    )
    spread_ok = all(
        (max(r.p_norm_ratios[p] for r in reports) - min(r.p_norm_ratios[p] for r in reports))
        <= 0.05
        for p in brackets
    )
    passed = l2_ok and tails_ok and bracket_ok and spread_ok
    r0 = reports[0]
    return CheckResult(
        "khinchine", passed,
        f"L2 moment {r0.l2_moment:.4f} ~ {r0.l2_expected:.4f} (3 sigma); tails "
        f"<= 4e^(-t^2/4): {tails_ok}; p-ratios {r0.p_norm_ratios} in brackets, "
        f"seed-stable: {spread_ok}",
        budget=30.0,
        details={"l2": [r.l2_moment for r in reports],
                 "tails": r0.tail_frequencies, "bounds": r0.tail_bounds},
    )


# --- check 10: multiplier identities -----------------------------------------


def check_multiplier_identities(config: RunConfig) -> CheckResult:
    reg = symbol_registry()
    log_size = min(config.log_size, 9)
    n = 2**log_size
    rng = np.random.default_rng(config.seed)

    def random_band(seed_offset):
        coeffs = np.zeros(n, dtype=complex)
        idx = rng.integers(-(n // 8), n // 8 + 1, size=8)
        coeffs[idx % n] = rng.normal(size=8) + 1j * rng.normal(size=8)
        return GridFunction((log_size,), np.fft.ifft(coeffs * n))

    worst_prod = 0.0
    worst_tri = 0.0
    for _ in range(5):
        f, g, h = random_band(0), random_band(1), random_band(2)
        out = apply_bilinear(reg["bilinear_constant"], f, g)
        worst_prod = max(worst_prod, float(np.abs(out.values - f.values * g.values).max()))
        worst_tri = max(worst_tri, trilinear_pairing_check(f, g, h)[2])
    cos = GridFunction.from_callable(lambda x: np.cos(2 * np.pi * x), (log_size,))
    sin = np.sin(2 * np.pi * np.arange(n) / n)
    hilbert_err = float(np.abs(apply_1d(reg["hilbert"], cos).values - sin).max())
    passed = worst_prod <= 1e-10 and worst_tri <= 1e-10 and hilbert_err <= 1e-12
    return CheckResult(
        "multiplier_identities", passed,
        f"|Lambda_1(f,g) - fg| {worst_prod:.2e} (<=1e-10); Hilbert cos->sin "
        f"{hilbert_err:.2e}; trilinear gap {worst_tri:.2e} (<=1e-10)",
        budget=5.0,
        details={"product": worst_prod, "hilbert": hilbert_err, "trilinear": worst_tri},
    )


# --- check 11: coefficient decay ---------------------------------------------


def check_coefficient_decay(config: RunConfig) -> CheckResult:
    reg = symbol_registry()
    uniform_ok = True
    worst_res = 0.0
    spans = {}
    for name in ("hilbert", "oscillatory"):
        maxima = []
        for k in range(1, 8):
            table = symbol_coefficients(reg[name], k, n_max=512)
            maxima.append(float(table.decay_products().max()))
            lo_f, hi_f = 2 ** (k - 4), 2 ** (k - 2)
            if lo_f >= 1:
                # truncate the series below the quadrature band so the
                # residual measures the coefficient decay, not grid
                # interpolation (the full table reproduces its own samples)
                dense = symbol_coefficients(
                    reg[name], k, points_per_unit=max(8, 8192 // 2**k), n_max=3000
                )
                annulus = np.concatenate(
                    [np.arange(lo_f, hi_f + 1), -np.arange(lo_f, hi_f + 1)]
                )
                worst_res = max(worst_res, reassembly_residual(reg[name], dense, annulus))
        spans[name] = (min(maxima), max(maxima))
        if max(maxima) > 2.0 * min(maxima):
            uniform_ok = False
    passed = uniform_ok and worst_res <= 1e-6
    return CheckResult(
        "coefficient_decay", passed,
        f"(|n|+1)^4 |c| spans {spans} (within 2x across k<=7); truncated-series "
        f"reassembly residual {worst_res:.2e} (<=1e-6)",
        budget=30.0, details={"spans": spans, "residual": worst_res},
    )


# --- check 12: boundedness stability sweeps ----------------------------------


def check_boundedness_sweeps(config: RunConfig) -> CheckResult:
    l2 = NormSpec.lp(2.0)
    l1 = NormSpec.lp(1.0)
    drifts = {}

    # 1D operators at L and L+1 on the same continuum corpus
    base = generate_corpus(config.seed, config.log_size)
    fine = base.resample(config.log_size + 1)
    ratios = {}
    for log_size, corpus in ((config.log_size, base), (config.log_size + 1, fine)):
        K = _scale_count(config, log_size)
        fam1 = make_adapted_family("from_pou_1", K, log_size)
        fam2 = make_adapted_family("from_pou_2", K, log_size)
        fam3 = make_adapted_family("lower_bounded", K, log_size)
        funcs = corpus.functions()
        pairs = list(zip(funcs, funcs[1:] + funcs[:1]))
        ratios[(log_size, "S")] = probe_norm(
            lambda f: square_function(f, fam1), "S", (l2,), l2, funcs
        ).max_ratio
        eps = EpsilonField.rademacher(config.seed, range(1, K + 1))
        ratios[(log_size, "T_eps")] = probe_norm(
            lambda f: linearize(f, fam1, fam2, eps), "T_eps", (l2,), l2, funcs
        ).max_ratio
        spec1 = ParaproductSpec(
            params=1, families=(fam1, fam2, fam3), mean_slots=(3,), epsilon=eps
        )
        ratios[(log_size, "para1")] = probe_norm(
            lambda f, g: paraproduct_1p(spec1, f, g), "para1", (l2, l2), l1, pairs
        ).max_ratio
        if log_size == config.log_size:
            # epsilon-draw stability at the base size
            constants = []
            for s in range(20):
                eps_s = EpsilonField.rademacher(s, range(1, K + 1))
                constants.append(
                    probe_norm(
                        lambda f: linearize(f, fam1, fam2, eps_s), "T_eps", (l2,), l2, funcs
                    ).max_ratio
                )
            spread = (max(constants) - min(constants)) / max(constants)

    # 2D operators at L2d and L2d + 1.  The scale window K = L - 3 fully
    # resolves per-axis frequencies up to 2^(K-3) only, so the drift
    # statistic runs on band-limited members inside the common window;
    # rough members' unresolved tails are a truncation effect the reports
    # note rather than absorb.
    from .corpus import SpectralNoise2D

    band2d = 2 ** (config.log_size_2d - config.scale_margin - 3)
    descriptors2 = [
        SpectralNoise2D(f"bl{i}", config.seed + 10 * i, band=band2d) for i in range(7)
    ]
    for log2d in (config.log_size_2d, config.log_size_2d + 1):
        K2 = log2d - config.scale_margin
        fam = make_adapted_family("from_pou_1", K2, log2d)
        fam_b = make_adapted_family("from_pou_2", K2, log2d)
        funcs2 = [d.sample(log2d) for d in descriptors2]
        pairs2 = list(zip(funcs2, funcs2[1:] + funcs2[:1]))
        ratios[(log2d, "SS")] = probe_norm(
            lambda f: hybrid(f, (fam, fam), "SS"), "SS", (l2,), l2, funcs2
        ).max_ratio
        eps2 = EpsilonField.rademacher(
            config.seed, range(1, K2 + 1), range(1, K2 + 1)
        )
        spec2 = ParaproductSpec(
            params=2,
            families=((fam, fam_b, fam), (fam, fam_b, fam)),
            mean_slots=(3, 3),
            epsilon=eps2,
        )
        ratios[(log2d, "para2")] = probe_norm(
            lambda f, g: paraproduct_2p(spec2, f, g), "para2", (l2, l2), l1, pairs2
        ).max_ratio

    for op, lo_size in (
        ("S", config.log_size),
        ("T_eps", config.log_size),
        ("para1", config.log_size),
        ("SS", config.log_size_2d),
        ("para2", config.log_size_2d),
    ):
        a = ratios[(lo_size, op)]
        b = ratios[(lo_size + 1, op)]
        drifts[op] = abs(b - a) / a
    finite = all(np.isfinite(v) for v in ratios.values())
    passed = finite and all(d <= 0.10 for d in drifts.values()) and spread <= 0.25
    return CheckResult(
        "boundedness_sweeps", passed,
        f"drift over one resolution doubling: "
        + ", ".join(f"{k} {v:.2%}" for k, v in drifts.items())
        + f"; T_eps draw spread {spread:.2%} (<25%)",
        budget=300.0,
        details={
            "ratios": {f"{k}": v for k, v in ratios.items()},
            "drifts": drifts,
            "spread": spread,
            "scale_windows": {
                "1d": [f"L={config.log_size}: k=1..{_scale_count(config)}",
                       f"L={config.log_size + 1}: k=1..{_scale_count(config, config.log_size + 1)}"],
                "2d": [f"L={config.log_size_2d}: k=1..{config.log_size_2d - config.scale_margin}",
                       f"L={config.log_size_2d + 1}: k=1..{config.log_size_2d + 1 - config.scale_margin}"],
                "band_2d": band2d,
            },
        },
    )


# --- check 13: tensor factorizations -----------------------------------------


def check_tensor_factorizations(config: RunConfig) -> CheckResult:
    log2d = min(config.log_size_2d, 8)
    K2 = log2d - config.scale_margin
    fam = make_adapted_family("from_pou_1", K2, log2d)
    fam_b = make_adapted_family("from_pou_2", K2, log2d)
    rng = np.random.default_rng(config.seed)
    n = 2**log2d
    worst_ss = 0.0
    worst_para = 0.0
    for _ in range(3):
        a, b = rng.normal(size=n), rng.normal(size=n)
        f2 = GridFunction((log2d, log2d), np.outer(a, b))
        ss = hybrid(f2, (fam, fam), "SS").values
        s1 = square_function(GridFunction((log2d,), a), fam).values
        s2 = square_function(GridFunction((log2d,), b), fam).values
        worst_ss = max(worst_ss, float(np.abs(ss - np.outer(s1, s2)).max()))

        triple = (fam, fam_b, fam)
        eps = [EpsilonField.rademacher(s, range(1, K2 + 1)) for s in (1, 2)]
        spec2 = ParaproductSpec(
            params=2, families=(triple, triple), mean_slots=(3, 3),
            epsilon=EpsilonField.separable(*eps),
        )
        c, d = rng.normal(size=n), rng.normal(size=n)
        out = paraproduct_2p(spec2, f2, GridFunction((log2d, log2d), np.outer(c, d))).values
        t1, t2 = (
            paraproduct_1p(
                ParaproductSpec(params=1, families=triple, mean_slots=(3,), epsilon=e),
                GridFunction((log2d,), u),
                GridFunction((log2d,), v),
            ).values
            for e, u, v in zip(eps, (a, b), (c, d))
        )
        worst_para = max(worst_para, float(np.abs(out - np.outer(t1, t2)).max()))
    passed = worst_ss <= 1e-9 and worst_para <= 1e-9
    return CheckResult(
        "tensor_factorizations", passed,
        f"SS separable residual {worst_ss:.2e}; bi-parameter paraproduct "
        f"separable residual {worst_para:.2e} (<=1e-9)",
        budget=30.0, details={"ss": worst_ss, "para": worst_para},
    )


CHECKS = [
    ("partition_gate", check_partition_gate),
    ("fs_sum_counterexample", check_fs_sum),
    ("fs_growth_counterexample", check_fs_growth),
    ("maximal_pointwise_oracle", check_maximal_oracle),
    ("cz_invariants", check_cz_invariants),
    ("weak_1_1_ceiling", check_weak11),
    ("rearrangement_exactness", check_rearrangement),
    ("maximal_zygmund_equivalence", check_maximal_zygmund),
    ("khinchine", check_khinchine),
    ("multiplier_identities", check_multiplier_identities),
    ("coefficient_decay", check_coefficient_decay),
    ("boundedness_sweeps", check_boundedness_sweeps),
    ("tensor_factorizations", check_tensor_factorizations),
]


def run_suite(config: RunConfig, only=None, echo=print) -> int:
    """Run the registered checks; write JSON + CSV artifacts; 0 iff all pass."""
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config_text = json.dumps(config.to_dict(), indent=2, sort_keys=True)
    config_hash = hashlib.sha256(config_text.encode()).hexdigest()[:16]
    (out_dir / "config.json").write_text(config_text)
    results = []
    for check_id, check in CHECKS:
        if only and check_id not in only:
            continue
        start = time.perf_counter()
        try:
            result = check(config)
        except Exception as exc:  # a crashed check is a failed check
            result = CheckResult(check_id, False, f"crashed: {exc!r}")
        result.runtime = time.perf_counter() - start
        results.append(result)
        echo(f"[{'PASS' if result.ok else 'FAIL'}] {check_id} ({result.runtime:.2f}s): {result.summary}")
        payload = {
            "check": result.check_id,
            "passed": result.ok,
            "runtime_seconds": result.runtime,
            "budget_seconds": result.budget,
            "summary": result.summary,
            "details": _jsonable(result.details),
            "seed": config.seed,
            "config_hash": config_hash,
        }
        (out_dir / f"{check_id}.json").write_text(json.dumps(payload, indent=2))
    with (out_dir / "summary.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["check", "status", "runtime", "summary"])
        for result in results:
            writer.writerow(result.row())
    failed = [r.check_id for r in results if not r.ok]
    if failed:
        echo(f"{len(failed)} of {len(results)} checks failed: {', '.join(failed)}")
        return 1
    echo(f"all {len(results)} checks passed")
    return 0


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return obj
