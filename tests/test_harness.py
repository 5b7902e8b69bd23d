import math

import numpy as np
import pytest

from torusharmonics.corpus import generate_corpus
from torusharmonics.gfio import RunConfig
from torusharmonics.grid import GridFunction, NormSpec, lp_norm
from torusharmonics.maximal import maximal
from torusharmonics.probes import (
    KhinchineReport,
    _wilson_upper,
    fs_growth_counterexample,
    fs_sum_counterexample,
    khinchine_experiment,
    llogl_maximal_experiment,
    probe_norm,
)
from torusharmonics.rearrange import rearrangement, two_star, zygmund_norm
from torusharmonics.suite import check_fs_growth


class TestCorpus:
    def test_deterministic(self):
        a = generate_corpus(5, 9)
        b = generate_corpus(5, 9)
        for (na, fa), (nb, fb) in zip(a.members, b.members):
            assert na == nb
            assert (fa.values == fb.values).all()

    def test_spike_l1(self):
        corpus = generate_corpus(5, 9)
        for d in corpus.descriptors:
            if type(d).__name__ == "Spike":
                f = d.sample(9)
                assert abs(lp_norm(f, 1.0) - d.l1_norm) < 1e-12

    def test_members_finite(self):
        for log_size in (8, 10):
            corpus = generate_corpus(7, log_size)
            for name, f in corpus.members:
                assert np.isfinite(f.values).all(), name

    def test_resample_consistent_for_band_limited(self):
        corpus = generate_corpus(5, 9)
        fine = corpus.resample(10)
        for (name, f9), (_, f10) in zip(corpus.members, fine.members):
            if not name.startswith("trig"):
                continue
            # band-limited members agree on the shared sample points
            assert np.abs(f10.values[::2] - f9.values).max() < 1e-9

    def test_zygmund_norm_growth_as_beta_rises(self):
        # beta < 1 members have finite L log L norm; the norm grows with beta
        from torusharmonics.corpus import PowerSingular
        from torusharmonics.rearrange import zygmund_norm

        norms = [
            zygmund_norm(PowerSingular("p", beta).sample(10), 1) for beta in (0.3, 0.5, 0.7)
        ]
        assert np.isfinite(norms).all()
        assert norms[0] < norms[1] < norms[2]

    def test_near_one_beta_diverges_across_resolutions(self):
        from torusharmonics.corpus import PowerSingular
        from torusharmonics.rearrange import zygmund_norm

        beta = 0.95
        coarse = zygmund_norm(PowerSingular("p", beta).sample(9), 1)
        fine = zygmund_norm(PowerSingular("p", beta).sample(12), 1)
        assert fine > 1.2 * coarse  # divergence trend as the grid refines

    def test_2d_corpus(self):
        corpus = generate_corpus(5, 7, dims=2)
        assert corpus.members
        for name, f in corpus.members:
            assert f.dims == 2


class TestProbeNorm:
    def test_identity_operator(self):
        corpus = generate_corpus(3, 8)
        report = probe_norm(
            lambda f: f, "identity", (NormSpec.lp(2.0),), NormSpec.lp(2.0),
            corpus.functions(),
        )
        assert abs(report.max_ratio - 1.0) < 1e-12

    def test_maximal_l2_anchor(self):
        corpus = generate_corpus(3, 10)
        report = probe_norm(
            lambda f: maximal(f, "hl"), "M", (NormSpec.lp(2.0),), NormSpec.lp(2.0),
            corpus.functions(),
        )
        assert report.max_ratio <= 4.0

    def test_nan_ratio_propagates_to_max(self):
        # a NaN ratio must reach max_ratio, where a finiteness gate sees it
        funcs = generate_corpus(3, 8).functions()[:3]

        def nan_on_second(f):
            nan_on_second.calls += 1
            return GridFunction(f.log_sizes, f.values * (np.nan if nan_on_second.calls == 2 else 1.0))

        nan_on_second.calls = 0
        report = probe_norm(nan_on_second, "nan", (NormSpec.lp(2.0),), NormSpec.lp(2.0), funcs)
        assert np.isnan(report.ratios[1]) and np.isnan(report.max_ratio)

    def test_weak_probe_max_ratio(self):
        corpus = generate_corpus(3, 9)
        report = probe_norm(
            lambda f: maximal(f, "hl"), "M", (NormSpec.lp(1.0),), NormSpec.weak(1.0),
            corpus.functions()[:5],
        )
        assert report.max_ratio <= 12.0


class TestKhinchine:
    def test_l2_moment(self):
        rep = khinchine_experiment(np.ones(16) / 4.0, samples=50_000, seed=3)
        assert rep.l2_sigmas <= 3.0

    def test_tail_bounds(self):
        rep = khinchine_experiment(np.ones(64) / 8.0, samples=50_000, seed=4)
        assert rep.tail_excess <= 0.0

    def test_single_coefficient(self):
        rep = khinchine_experiment([1.0], samples=1000, seed=5, p_list=(1.0, 4.0))
        assert abs(rep.l2_moment - 1.0) < 1e-12
        for p, ratio in rep.p_norm_ratios.items():
            assert abs(ratio - 1.0) < 1e-12

    def test_reproducible(self):
        a = khinchine_experiment(np.ones(8) / math.sqrt(8), samples=2000, seed=6)
        b = khinchine_experiment(np.ones(8) / math.sqrt(8), samples=2000, seed=6)
        assert a.l2_moment == b.l2_moment

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            khinchine_experiment([0.0, 0.0])

    @pytest.mark.parametrize("samples", [1, 0])
    def test_fewer_than_two_samples_rejected(self, samples):
        # one draw has no standard error: l2_stderr would be NaN
        with pytest.raises(ValueError, match="samples"):
            khinchine_experiment([1.0, 1.0], samples=samples)


def _khinchine_whole_array(coefficients, p_list=(1.0, 4.0), samples=100_000, seed=0,
                           tail_points=(1.0, 2.0, 3.0)):
    """``khinchine_experiment`` with every sign row drawn and summed in one array."""
    a = np.asarray(coefficients, dtype=complex)
    l2 = float(np.sum(np.abs(a) ** 2))
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], size=(samples, a.size))
    sums = signs @ a
    sq = np.abs(sums) ** 2
    unit = sums / math.sqrt(l2)
    tail_freq, tail_bound, tail_upper = {}, {}, {}
    for t in tail_points:
        hits = int((np.abs(unit) > t).sum())
        tail_freq[t] = hits / samples
        tail_bound[t] = 4.0 * math.exp(-(t**2) / 4.0)
        tail_upper[t] = _wilson_upper(hits, samples)
    p_ratios = {
        p: float((np.abs(sums) ** p).mean() ** (1.0 / p) / math.sqrt(l2)) for p in p_list
    }
    return KhinchineReport(
        float(sq.mean()), l2, float(sq.std(ddof=1) / math.sqrt(samples)), tail_freq,
        tail_bound, tail_upper, p_ratios, samples, seed,
    )


class TestKhinchineChunks:
    """Row-chunked draws give the whole-array report exactly."""

    @pytest.mark.parametrize("seed", [3, 7, 11, 12])
    def test_suite_setting_equals_whole_array(self, seed):
        a = np.ones(32) / math.sqrt(32)
        assert khinchine_experiment(a, seed=seed) == _khinchine_whole_array(a, seed=seed)

    @pytest.mark.parametrize("samples", [2, 8191, 8193, 20_001])
    def test_odd_sizes_equal_whole_array(self, samples):
        a = np.random.default_rng(samples).normal(size=(5, 2)) @ np.array([1.0, 1j])
        assert (khinchine_experiment(a, samples=samples, seed=9)
                == _khinchine_whole_array(a, samples=samples, seed=9))


class TestCounterexamples:
    def test_sum_bound_all_sizes(self):
        for n in (2, 16, 64):
            rep = fs_sum_counterexample(n)
            assert rep.value >= rep.bound  # log 2 - 1 < 0 makes N=2 vacuous

    def test_growth_bound(self):
        for r in (2.0, 4.0):
            rep = fs_growth_counterexample(6, r)
            # the power form is exact on the grid; the root form rep.value
            # meets rep.bound only because both round to the same float
            assert rep.details["power_sum"] >= rep.details["power_bound"]
            assert abs(rep.bound - 6 ** (1 / r) / 2) < 1e-12

    def test_growth_gate_sits_exactly_on_its_bound(self):
        # near 0 every M chi_k is exactly 1/2, so the power form is exact:
        # 6 * 2^-2 = 1.5 and 6 * 2^-4 = 0.375, with no root taken
        gates = check_fs_growth(RunConfig()).gates
        assert [(g.observed, g.bound) for g in gates] == [(1.5, 1.5), (0.375, 0.375)]
        assert all(g.passed for g in gates)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            fs_sum_counterexample(10)

    @pytest.mark.parametrize("n_pieces", [0, -4])
    def test_rejects_no_pieces(self, n_pieces):
        with pytest.raises(ValueError, match="n_pieces"):
            fs_sum_counterexample(n_pieces)

    @pytest.mark.parametrize("depth", [0, -1])
    def test_growth_rejects_no_depth(self, depth):
        with pytest.raises(ValueError, match="depth"):
            fs_growth_counterexample(depth, 2.0)

    @pytest.mark.parametrize("r", [math.nan, math.inf, 0.5, -2.0])
    def test_growth_rejects_an_exponent_outside_one_to_inf(self, r):
        with pytest.raises(ValueError, match="r must be"):
            fs_growth_counterexample(6, r)

    @pytest.mark.parametrize("r", [2.0, 4.0])
    @pytest.mark.parametrize("depth", range(1, 7))
    def test_growth_equals_per_bump_loop(self, depth, r):
        rep = fs_growth_counterexample(depth, r)
        value, power_sum = per_bump_growth(depth, r)
        assert rep.value == value
        assert rep.details["power_sum"] == power_sum
        assert rep.details["log_size"] == depth + 3


def per_bump_growth(depth, r):
    """(value, power_sum) of ``fs_growth_counterexample`` from one ``maximal``
    call per dyadic bump on the grid of 2^(depth+3) points."""
    log_size = depth + 3
    n = 2**log_size
    x = np.arange(n) / n
    stack = []
    for k in range(1, depth + 1):
        vals = ((x >= 2.0 ** (-k - 1)) & (x < 2.0**-k)).astype(float)
        stack.append(maximal(GridFunction((log_size,), vals), "hl").values.real)
    powers = (np.stack(stack) ** r).sum(axis=0)
    window = x < 2.0**-depth
    return float((powers ** (1.0 / r))[window].min()), float(powers[window].min())


def per_piece_curve_range(corpus, t_lo=1.0 / 64, t_hi=0.5):
    """(Mf)* / f** at each clipped step-piece endpoint, one f** call per point."""
    lows, highs = [], []
    for _, f in corpus.members:
        mf_profile = rearrangement(maximal(f, "hl"))
        fstar2 = two_star(rearrangement(f))
        left_edges = np.concatenate([[0.0], mf_profile.breakpoints[:-1]])
        for a_m, t0, t1 in zip(mf_profile.values, left_edges, mf_profile.breakpoints):
            if t1 <= t_lo or t0 >= t_hi:
                continue
            lows.append(a_m / float(fstar2(np.array([max(t0, t_lo)]))[0]))
            highs.append(a_m / float(fstar2(np.array([min(t1, t_hi)]))[0]))
    return float(np.min(lows, initial=math.inf)), float(np.max(highs, initial=0.0))


class TestMaximalZygmund:
    def test_experiment(self):
        corpus = generate_corpus(3, 9)
        rep = llogl_maximal_experiment(corpus)
        lo, hi = rep.curve_ratio_range
        assert 0 < lo and hi < 16.0
        for name, ratio in rep.norm_ratios.items():
            assert 0.5 < ratio < 10.0, name

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("log_size", [8, 9])
    def test_equals_per_piece_loop(self, seed, log_size):
        corpus = generate_corpus(seed, log_size)
        rep = llogl_maximal_experiment(corpus)
        assert rep.curve_ratio_range == per_piece_curve_range(corpus)
        for name, f in corpus.members:
            mf = maximal(f, "hl")
            assert rep.norm_ratios[name] == lp_norm(mf, 1.0) / zygmund_norm(f, 1, "closed_form")
            for got, want in zip(rep.profiles[name], (rearrangement(mf), rearrangement(f))):
                assert np.array_equal(got.breakpoints, want.breakpoints)
                assert np.array_equal(got.values, want.values)

    def test_constant_function_ratio_one(self):
        from torusharmonics.corpus import Corpus

        one = GridFunction.constant(1.0, (9,))
        corpus = Corpus(0, 9, [], [("one", one)])
        rep = llogl_maximal_experiment(corpus)
        assert abs(rep.norm_ratios["one"] - 1.0) < 1e-12


class TestWeightedMaximal:
    def test_weighted_comparison(self):
        # int (Mf)^r |w| stays within a fixed multiple of int |f|^r Mw
        from torusharmonics.probes import weighted_maximal_probe

        corpus = generate_corpus(4, 9)
        funcs = corpus.functions()
        for r in (1.5, 2.0):
            worst = 0.0
            for i in range(6):
                f, w = funcs[i], funcs[(i + 3) % len(funcs)]
                lhs, rhs = weighted_maximal_probe(f, w, r)
                if rhs > 0:
                    worst = max(worst, lhs / rhs)
            assert worst < 30.0


class TestWeakSumAssembly:
    def test_synthetic_series_stays_bounded(self):
        from torusharmonics.probes import weak_sum_probe

        # pieces with weak-L1 size exactly (n+1): tall thin spikes
        log_size = 10
        n_grid = 2**log_size
        pieces, weights = [], []
        for n in range(12):
            budget = n + 1.0
            width = max(1, n_grid // 2 ** (n % 8 + 3))
            vals = np.zeros(n_grid)
            height = budget / (width / n_grid)
            vals[(37 * n) % n_grid : (37 * n) % n_grid + width] = height
            pieces.append(GridFunction((log_size,), vals))
            weights.append(budget)
        report = weak_sum_probe(pieces, weights, p=1.0)
        assert report["within_budget"]
        assert report["assembled_weak_size"] < 5.0


class TestStrongMaximalEndpoint:
    def test_endpoint_ratios_bounded(self):
        from torusharmonics.probes import strong_maximal_endpoint_probe

        corpus = generate_corpus(4, 6, dims=2)
        ratios = strong_maximal_endpoint_probe(corpus)
        assert ratios
        assert all(np.isfinite(v) and v < 50.0 for v in ratios.values())
