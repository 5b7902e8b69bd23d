"""The benchmark's workloads: inputs from a seed, one timed pass, output checks.

``verify`` runs the ``torusharmonics verify`` command in a fresh process per
pass (see ``run.py``).  The other three run in the benchmark's own process:
``setup(seed)`` builds every input and adapted family, ``run(state)`` is one
timed pass returning its outputs, and ``check(state, outputs)`` returns
``(name, ok)`` pairs for checks that hold for any correct implementation.
Tolerances are fixed from float64 rounding, not from observed residuals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import torusharmonics as th
from torusharmonics.corpus import SpectralNoise2D
from torusharmonics.dyadic import DyadicInterval
from torusharmonics.squares import EpsilonField2D, EpsilonSequence, GridFunction3

# ``verify`` grid exponents: the smallest at which every gate passes on seed
# 11.  The default config (1D 10, 2D 8) takes ~50 s a pass, more than one
# benchmark run may spend.
VERIFY_CONFIG = ("--grid", "9", "--grid2d", "7")
SEPARABLE_TOL = 1e-9  # the tensor_factorizations gate
EXACT_TOL = 1e-12  # relative: a few thousand ulps of float64


def verify_argv(seed: int, out_dir: str) -> list[str]:
    return ["verify", "--seed", str(seed), *VERIFY_CONFIG, "--out", out_dir]


def _seeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31, size=count)]


def _families(log_size: int):
    """from_pou_1, from_pou_2 and lower_bounded at scale window L - 3."""
    k = log_size - 3
    return (
        th.make_adapted_family("from_pou_1", k, log_size),
        th.make_adapted_family("from_pou_2", k, log_size),
        th.make_adapted_family("lower_bounded", k, log_size),
    )


def _finite(outputs: dict) -> list[tuple[str, bool]]:
    return [(f"finite:{name}", bool(np.isfinite(v).all())) for name, v in outputs.items()]


def _close(name: str, got: np.ndarray, want: np.ndarray, tol: float) -> tuple[str, bool]:
    return name, bool(np.abs(got - want).max() <= tol * max(1.0, np.abs(want).max()))


def _dominates(name: str, upper: np.ndarray, lower: np.ndarray) -> tuple[str, bool]:
    slack = EXACT_TOL * max(1.0, np.abs(lower).max())
    return name, bool((upper >= lower - slack).all())


# --- dyadic2d: bi- and tri-parameter operators at dyadic lags ---------------


def setup_dyadic2d(seed: int) -> dict:
    rng = np.random.default_rng([seed, 2])
    s = _seeds(rng, 6)
    fam8, fam8_b, _ = _families(8)
    fam9 = th.make_adapted_family("from_pou_1", 6, 9)
    fam6 = th.make_adapted_family("from_pou_1", 3, 6)
    k8 = range(1, fam8.k_max + 1)
    eps1 = EpsilonSequence.rademacher(s[0], k8)
    eps2 = EpsilonSequence.rademacher(s[1], k8)
    triple = (fam8, fam8_b, fam8)
    a, b, c, d = rng.normal(size=(4, 256))
    cube = rng.normal(size=(64, 64, 64)) + 1j * rng.normal(size=(64, 64, 64))
    return {
        "fam8": fam8, "fam9": fam9, "fam6": fam6,
        # band-limited as in the boundedness sweeps: 2^(L - 6) per axis
        "noise256": SpectralNoise2D("noise256", s[2], band=4).sample(8),
        "noise512": SpectralNoise2D("noise512", s[3], band=8).sample(9),
        "vectors": [th.GridFunction((8,), v) for v in (a, b, c, d)],
        "outer_f": th.GridFunction((8, 8), np.outer(a, b)),
        "outer_g": th.GridFunction((8, 8), np.outer(c, d)),
        "spec2": th.ParaproductSpec(
            params=2, families=(triple, triple), mean_slots=(3, 3),
            epsilon=EpsilonField2D.separable(eps1, eps2),
        ),
        "spec_axes": [
            th.ParaproductSpec(params=1, families=triple, mean_slots=(3,), epsilon=eps)
            for eps in (eps1, eps2)
        ],
        "cube": GridFunction3(cube),
        "symbol": th.symbol_registry()["biparameter_product"],
        "bp_f": SpectralNoise2D("bp_f", s[4], band=16).sample(8),
        "bp_g": SpectralNoise2D("bp_g", s[5], band=16).sample(8),
    }


def run_dyadic2d(st: dict) -> dict:
    fam8, fam9, fam6 = st["fam8"], st["fam9"], st["fam6"]
    a, b, c, d = st["vectors"]
    out = {}
    for kind in ("MM", "MS", "SM", "SS"):
        out[f"hybrid_{kind}_256"] = th.hybrid(st["noise256"], (fam8, fam8), kind).values
    out["hybrid_SS_512"] = th.hybrid(st["noise512"], (fam9, fam9), "SS").values
    out["hybrid_SS_outer"] = th.hybrid(st["outer_f"], (fam8, fam8), "SS").values
    out["square_a"] = th.square_function(a, fam8).values
    out["square_b"] = th.square_function(b, fam8).values
    out["para2_outer"] = th.paraproduct_2p(st["spec2"], st["outer_f"], st["outer_g"]).values
    out["para1_ac"] = th.paraproduct_1p(st["spec_axes"][0], a, c).values
    out["para1_bd"] = th.paraproduct_1p(st["spec_axes"][1], b, d).values
    for kind in ("SSS", "MSM"):
        out[f"hybrid3_{kind}"] = th.hybrid3(st["cube"], (fam6, fam6, fam6), kind).values
    out["biparameter"] = th.apply_biparameter(
        st["symbol"], st["bp_f"], st["bp_g"], band=16
    ).values
    return out


def check_dyadic2d(st: dict, out: dict) -> list[tuple[str, bool]]:
    ss_sep = np.outer(out["square_a"], out["square_b"])
    para_sep = np.outer(out["para1_ac"], out["para1_bd"])
    # absolute, as in the tensor_factorizations gate
    return _finite(out) + [
        ("ss_separable", bool(np.abs(out["hybrid_SS_outer"] - ss_sep).max() <= SEPARABLE_TOL)),
        ("para2_separable", bool(np.abs(out["para2_outer"] - para_sep).max() <= SEPARABLE_TOL)),
    ]


# --- maximal: the exact maximal family, no FFT -------------------------------


def setup_maximal(seed: int) -> dict:
    rng = np.random.default_rng([seed, 3])
    corpus10 = th.generate_corpus(seed, 10)
    funcs10 = corpus10.functions()
    pick12, pick11, pick2d = (int(v) for v in rng.integers(0, len(funcs10), size=3))
    corpus2d = th.generate_corpus(seed, 8, dims=2)
    return {
        "funcs10": funcs10,
        "alphas": [th.lp_norm(f, 1.0) * float(rng.uniform(1.25, 8.0)) for f in funcs10],
        "f12": th.generate_corpus(seed, 12).functions()[pick12],
        "f11": th.generate_corpus(seed, 11).functions()[pick11],
        "f2d": corpus2d.functions()[pick2d % len(corpus2d.members)],
        "corpus9": th.generate_corpus(seed, 9),
        "points10": [int(v) for v in rng.integers(0, 2**10, size=len(funcs10))],
        "point12": int(rng.integers(0, 2**12)),
    }


def run_maximal(st: dict) -> dict:
    funcs10 = st["funcs10"]
    return {
        "hl10": [th.maximal(f, "hl").values.real for f in funcs10],
        "dyadic10": [th.maximal(f, "dyadic").values.real for f in funcs10],
        "cz10": [th.cz_decompose(f, a) for f, a in zip(funcs10, st["alphas"])],
        "hl12": th.maximal(st["f12"], "hl").values.real,
        "shifted11": th.maximal(st["f11"], "shifted", n=1).values.real,
        "shifted_sup11": th.maximal(st["f11"], "shifted_sup", n=1).values.real,
        "strong": th.maximal(st["f2d"], "strong").values.real,
        "directional": th.maximal(st["f2d"], "directional", axis=0).values.real,
        "llogl": th.llogl_maximal_experiment(st["corpus9"]),
    }


def window_maximum(absvals: np.ndarray, i: int) -> float:
    """Largest mean of |f| over every cyclic grid window containing cell i."""
    n = absvals.size
    csum = np.concatenate([[0.0], np.cumsum(np.concatenate([absvals, absvals]))])
    best = 0.0
    for w in range(1, n + 1):
        starts = np.arange(i - w + 1, i + 1) % n
        best = max(best, float((csum[starts + w] - csum[starts]).max()) / w)
    return best


def check_maximal(st: dict, out: dict) -> list[tuple[str, bool]]:
    results = []
    for j, f in enumerate(st["funcs10"]):
        absvals = np.abs(f.values)
        md, m = out["dyadic10"][j], out["hl10"][j]
        results.append(_dominates(f"dyadic>=|f|:{j}", md, absvals))
        results.append(_dominates(f"hl>=dyadic:{j}", m, md))
        i = st["points10"][j]
        results.append(_close(f"oracle10:{j}", m[i : i + 1], np.array([window_maximum(absvals, i)]), EXACT_TOL))
        dec = out["cz10"][j]
        results.append(_close(f"cz_sum:{j}", dec.good.values + dec.bad_sum().values, f.values, EXACT_TOL))
    i = st["point12"]
    oracle12 = window_maximum(np.abs(st["f12"].values), i)
    results.append(_close("oracle12", out["hl12"][i : i + 1], np.array([oracle12]), EXACT_TOL))
    results.append(_dominates("shifted_sup>=shifted", out["shifted_sup11"], out["shifted11"]))
    abs2d = np.abs(st["f2d"].values)
    results.append(_dominates("strong>=|f|", out["strong"], abs2d))
    results.append(_dominates("directional>=|f|", out["directional"], abs2d))
    ratios = np.array(list(out["llogl"].norm_ratios.values()))
    results.append(("llogl_ratios_positive", bool(np.isfinite(ratios).all() and (ratios > 0).all())))
    arrays = {k: v for k, v in out.items() if isinstance(v, np.ndarray)}
    arrays["hl10"] = np.stack(out["hl10"])
    arrays["dyadic10"] = np.stack(out["dyadic10"])
    return _finite(arrays) + results


# --- shifted: the coefficient layer at every lag -----------------------------


def setup_shifted(seed: int) -> dict:
    rng = np.random.default_rng([seed, 4])
    levels = {}
    for log_size, count in ((8, 2), (10, 21), (11, 21), (12, 7)):
        fam1, fam2, fam3 = _families(log_size)
        funcs = th.generate_corpus(seed, log_size).functions()
        pick = sorted(rng.choice(len(funcs), size=count, replace=False))
        eps = EpsilonSequence.rademacher(_seeds(rng, 1)[0], range(1, fam1.k_max + 1))
        levels[log_size] = {
            "fam1": fam1, "fam2": fam2, "eps": eps,
            "funcs": [funcs[p] for p in pick],
            "spec": th.ParaproductSpec(
                params=1, families=(fam1, fam2, fam3), mean_slots=(3,), epsilon=eps,
                shifts=(1, 2), average_alpha=True,
            ),
        }
    fam8 = levels[8]["fam1"]
    return {
        "levels": levels,
        "alpha": float(rng.uniform(0.0, 1.0)),
        "noise256": SpectralNoise2D("noise256", _seeds(rng, 1)[0], band=4).sample(8),
        "fam_pair": (fam8, fam8),
    }


def run_shifted(st: dict) -> dict:
    out = {}
    for log_size in (10, 11, 12):
        lv = st["levels"][log_size]
        fam1, fam2, eps, funcs = lv["fam1"], lv["fam2"], lv["eps"], lv["funcs"]
        for j, f in enumerate(funcs):
            g = funcs[(j + 1) % len(funcs)]
            key = f"{log_size}:{j}"
            out[f"square_shifted:{key}"] = th.square_function(f, fam1, "shifted", n=1).values
            out[f"square_sup:{key}"] = th.square_function(f, fam1, "shifted_sup", n=1).values
            out[f"linearize:{key}"] = th.linearize(f, fam1, fam2, eps, n=1, average_alpha=True).values
            out[f"para1:{key}"] = th.paraproduct_1p(lv["spec"], f, g).values
            field = th.coefficient_field(f, fam1, n=1, alpha=st["alpha"])
            out[f"field:{key}"] = np.concatenate([field.at(k) for k in fam1.scales])
    lv = st["levels"][8]
    for j, f in enumerate(lv["funcs"]):
        out[f"linearize:8:{j}"] = th.linearize(
            f, lv["fam1"], lv["fam2"], lv["eps"], n=1, average_alpha=True
        ).values
    out["hybrid_SS_sup"] = th.hybrid(
        st["noise256"], st["fam_pair"], "SS", shifts=(1, 1), sup_alpha=True
    ).values
    return out


def linearize_direct(f, fam1, fam2, eps, n: int, max_offsets: int = 64) -> np.ndarray:
    """Shifted, alpha-averaged T_eps f summed member by member."""
    log_size = fam1.log_size
    size = 2**log_size
    out = np.zeros(size, dtype=complex)
    for k in sorted(set(fam1.scales) & set(fam2.scales)):
        step = 2 ** (log_size - k)
        offsets = range(0, step, max(1, step // max_offsets))
        acc = np.zeros(size, dtype=complex)
        for o in offsets:
            for j in range(2**k):
                inner = fam1.normalized_member_values(DyadicInterval(k, (j + n) % 2**k), o)
                pairing = np.mean(inner * np.conj(f.values))
                outer = fam2.normalized_member_values(DyadicInterval(k, j), o)
                acc += eps.at(k)[j] * pairing * outer
        out += acc / len(offsets)
    return out


def check_shifted(st: dict, out: dict) -> list[tuple[str, bool]]:
    results = []
    for key in out:
        if key.startswith("square_sup:"):
            suffix = key.split(":", 1)[1]
            results.append(_dominates(f"sup>=shifted:{suffix}", out[key], out[f"square_shifted:{suffix}"]))
    lv = st["levels"][8]
    for j, f in enumerate(lv["funcs"]):
        direct = linearize_direct(f, lv["fam1"], lv["fam2"], lv["eps"], n=1)
        results.append(_close(f"linearize_direct:8:{j}", out[f"linearize:8:{j}"], direct, EXACT_TOL))
    return _finite(out) + results


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int], dict]
    run: Callable[[dict], dict]
    check: Callable[[dict, dict], list]


IN_PROCESS = {
    "dyadic2d": Workload(setup_dyadic2d, run_dyadic2d, check_dyadic2d),
    "maximal": Workload(setup_maximal, run_maximal, check_maximal),
    "shifted": Workload(setup_shifted, run_shifted, check_shifted),
}
