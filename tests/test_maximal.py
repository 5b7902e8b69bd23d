import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusharmonics.bumps import make_adapted_family
from torusharmonics.corpus import generate_corpus
from torusharmonics.dyadic import DyadicInterval, star
from torusharmonics.grid import GridFunction
from torusharmonics.maximal import (
    _hl_runs,
    _shifted_widths,
    _sliding_max,
    _strong_2d,
    adapted_maximal,
    cz_cover,
    cz_decompose,
    maximal,
    maximal_dyadic_intervals,
    vector_maximal,
)
from torusharmonics.transform import analysis

from maximal_oracles import _block_sliding_max, _hl_axis, _window_means

L = 10
N = 2**L
maximal_module = importlib.import_module("torusharmonics.maximal")


def indicator(a, b, log_size=L):
    return GridFunction.from_callable(
        lambda x: ((x >= a) & (x < b)).astype(complex), (log_size,)
    )


def brute_force_hl(absvals):
    """Reference: max over all cyclic runs of cells, O(N^2) per point."""
    n = len(absvals)
    ext = np.concatenate([absvals, absvals])
    out = np.zeros(n)
    for w in range(1, n + 1):
        sums = np.convolve(ext, np.ones(w), mode="valid")[:n]
        means = sums / w
        for s in range(n):
            val = means[s]
            for i in range(s, s + w):
                idx = i % n
                if val > out[idx]:
                    out[idx] = val
    return out


class TestHardyLittlewood:
    def test_constant(self):
        f = GridFunction.constant(2.5, (L,))
        out = maximal(f, "hl")
        assert np.abs(out.values - 2.5).max() < 1e-12

    def test_half_indicator_at_three_quarters(self):
        f = indicator(0.0, 0.5)
        out = maximal(f, "hl")
        i = (3 * N) // 4
        # continuum optimum 2/3 via the one-sided interval [0, 3/4]
        assert abs(out.values[i] - 2.0 / 3.0) <= 2.0 / N

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        vals = rng.uniform(0, 1, size=64)
        f = GridFunction((6,), vals)
        expect = brute_force_hl(vals)
        out = maximal(f, "hl")
        assert np.abs(out.values - expect).max() < 1e-12

    def test_linf_contraction(self):
        rng = np.random.default_rng(1)
        f = GridFunction((L,), rng.normal(size=N))
        out = maximal(f, "hl")
        assert out.values.max() <= np.abs(f.values).max() + 1e-12

    def test_sublinear(self):
        rng = np.random.default_rng(2)
        f = GridFunction((L,), rng.normal(size=N))
        g = GridFunction((L,), rng.normal(size=N))
        mf = maximal(f, "hl").values
        mg = maximal(g, "hl").values
        mfg = maximal(f + g, "hl").values
        assert (mfg <= mf + mg + 1e-10).all()
        m2 = maximal(GridFunction((L,), -3.0 * f.values), "hl").values
        assert np.abs(m2 - 3.0 * mf).max() < 1e-10

    def test_monotone_convergence(self):
        rng = np.random.default_rng(3)
        target = np.abs(rng.normal(size=N))
        prev = np.zeros(N)
        for frac in (0.25, 0.5, 1.0):
            f = GridFunction((L,), np.minimum(target, frac * target.max()))
            cur = maximal(f, "hl").values
            assert (cur >= prev - 1e-12).all()
            prev = cur


class TestDyadicMaximal:
    def test_quarter_indicator(self):
        f = indicator(0.0, 0.25)
        out = maximal(f, "dyadic")
        i = (3 * N) // 8
        # only the ancestor [0, 1/2] meets the support
        assert abs(out.values[i] - 0.5) < 1e-12

    def test_pointwise_domination(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            f = GridFunction((L,), rng.normal(size=N))
            md = maximal(f, "dyadic").values
            m = maximal(f, "hl").values
            assert (np.abs(f.values) <= md + 1e-12).all()
            assert (md <= m + 1e-12).all()


class TestShifted:
    def test_shift_comparison(self):
        rng = np.random.default_rng(5)
        f = GridFunction((L,), rng.normal(size=N))
        m = maximal(f, "hl").values
        for n in (1, 2, 4):
            mn = maximal(f, "shifted", n=n).values
            assert (mn <= (n + 1) * m + 1e-10).all()

    def test_shift_zero_is_hl(self):
        rng = np.random.default_rng(6)
        f = GridFunction((L,), rng.normal(size=N))
        assert np.abs(
            maximal(f, "shifted", n=0).values - maximal(f, "hl").values
        ).max() < 1e-12

    def test_sup_shift_dominates(self):
        rng = np.random.default_rng(7)
        f = GridFunction((L,), rng.normal(size=N))
        mn = maximal(f, "shifted", n=1).values
        msup = maximal(f, "shifted_sup", n=1).values
        assert (msup >= mn - 1e-12).all()
        m = maximal(f, "hl").values
        assert (msup <= (1 + 1 + 1) * m + 1e-10).all()

    def test_shifted_small_case(self):
        # shifted average picked up from the neighbouring interval
        f = indicator(0.25, 0.5, 6)
        out = maximal(f, "shifted", n=1).values
        # at x=0, the window [0, 1/4) shifted by one width covers the support
        assert abs(out[0] - 1.0) < 1e-12


class TestStrongMaximal:
    def test_separable_indicator_factorizes(self):
        fa = np.zeros(64)
        fa[0:16] = 1.0
        fb = np.zeros(64)
        fb[32:40] = 1.0
        f2 = GridFunction((6, 6), np.outer(fa, fb))
        ms = maximal(f2, "strong").values
        m1 = maximal(GridFunction((6,), fa), "hl").values
        m2 = maximal(GridFunction((6,), fb), "hl").values
        # restriction to power-of-two side lengths: compare against the same
        # class applied per axis
        def hl_pow2(vals):
            best = np.full(vals.shape, -np.inf)
            w = 1
            n = vals.shape[-1]
            while w <= n:
                means = _window_means(vals, w)
                cover = _block_sliding_max(means, w)
                best = np.maximum(best, np.roll(cover, w - 1, axis=-1))
                w *= 2
            return best

        expect = np.outer(hl_pow2(fa), hl_pow2(fb))
        assert np.abs(ms - expect).max() < 1e-12

    def test_composition_bound(self):
        rng = np.random.default_rng(8)
        f = GridFunction((6, 6), np.abs(rng.normal(size=(64, 64))))
        ms = maximal(f, "strong").values
        m2 = maximal(f, "directional", axis=1).values
        m12 = maximal(GridFunction((6, 6), m2), "directional", axis=0).values
        assert (ms <= m12 + 1e-10).all()

    def test_constant_2d(self):
        f = GridFunction.constant(1.5, (5, 5))
        assert np.abs(maximal(f, "strong").values - 1.5).max() < 1e-12

    def test_dimension_errors(self):
        with pytest.raises(ValueError):
            maximal(GridFunction.constant(1, (5, 5)), "hl")
        with pytest.raises(ValueError):
            maximal(GridFunction.constant(1, (5,)), "strong")


@pytest.fixture(scope="module")
def fam():
    return make_adapted_family("from_pou_1", 7, L)


class TestAdaptedMaximal:

    def test_coefficient_lags_match_inner_products(self, fam):
        rng = np.random.default_rng(9)
        f = GridFunction((L,), rng.normal(size=N) + 1j * rng.normal(size=N))
        from torusharmonics.grid import inner_product

        k = 5
        coeffs = next(analysis(f.values, [[fam.prototype_values(k)]]))
        for j in (0, 3, 17):
            iv = DyadicInterval(k, j)
            direct = inner_product(fam.member(iv), f)
            lag = 2.0**-k * coeffs[j * 2 ** (L - k)]
            assert abs(direct - lag) < 1e-10

    def test_constant_annihilated(self, fam):
        f = GridFunction.constant(3.0, (L,))
        out = adapted_maximal(f, fam)
        assert np.abs(out.values).max() < 1e-10

    def test_dominated_by_hl(self, fam):
        rng = np.random.default_rng(10)
        ratios = []
        for _ in range(5):
            f = GridFunction((L,), rng.normal(size=N))
            mp = adapted_maximal(f, fam).values
            m = maximal(f, "hl").values
            ratios.append((mp / np.maximum(m, 1e-30)).max())
        assert max(ratios) < 20.0

    def test_homogeneous(self, fam):
        rng = np.random.default_rng(11)
        f = GridFunction((L,), rng.normal(size=N))
        one = adapted_maximal(f, fam).values
        two = adapted_maximal(GridFunction((L,), 2 * f.values), fam).values
        assert np.abs(two - 2 * one).max() < 1e-10


class TestCZCover:
    def test_simple_cover(self):
        # maximal dyadic intervals of {M_D f > alpha/4}: [0, 1/2] qualifies
        # (average 2 > 3/4), so the cover is the level-1 interval
        f = GridFunction((L,), 4.0 * indicator(0.0, 0.25).values)
        cover = cz_cover(f, 3.0)
        assert cover.covers
        assert [str(iv) for iv in cover.intervals] == ["1:0"]
        for iv in cover.intervals:
            sl = iv.grid_slice(L)
            assert np.abs(f.values[sl]).mean() >= 3.0 / 4.0 - 1e-12

    def test_zero_function(self):
        f = GridFunction.constant(0.0, (L,))
        cover = cz_cover(f, 1.0)
        assert cover.intervals == [] and cover.covers

    def test_threshold_above_sup(self):
        f = indicator(0.0, 0.5)
        cover = cz_cover(f, 4.0)
        assert cover.intervals == []

    def test_cover_random(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            f = GridFunction((L,), np.abs(rng.normal(size=N)) ** 2)
            alpha = 2.0 * np.abs(f.values).mean()
            cover = cz_cover(f, alpha)
            assert cover.covers
            # disjointness
            for i, a in enumerate(cover.intervals):
                for b in cover.intervals[i + 1 :]:
                    assert a.relate(b).value == "disjoint"


class TestCZDecompose:
    def test_worked_example(self):
        f = GridFunction((L,), 8.0 * indicator(0.0, 0.125).values)
        dec = cz_decompose(f, 3.0)
        assert [str(iv) for iv in dec.intervals] == ["2:0"]
        sl = DyadicInterval(2, 0).grid_slice(L)
        assert np.abs(dec.good.values[sl] - 4.0).max() < 1e-12
        assert np.abs(dec.good.values[sl.stop :]).max() < 1e-12
        iv, b1 = dec.bad_pieces[0]
        assert abs(b1.mean()) < 1e-12
        assert abs(np.abs(b1.values).mean() - 1.0) < 1e-12  # ||b_1||_1 = 1
        assert np.abs(b1.values).mean() <= 4 * 3.0 * iv.length + 1e-12

    def test_constant_on_interval_gives_zero_bad(self):
        f = GridFunction((L,), 4.0 * indicator(0.0, 0.25).values)
        dec = cz_decompose(f, 2.0)
        assert [str(iv) for iv in dec.intervals] == ["2:0"]
        assert np.abs(dec.bad_sum().values).max() < 1e-12
        assert np.abs(dec.good.values - f.values).max() < 1e-12

    def test_small_function_empty(self):
        f = GridFunction((L,), 0.5 * indicator(0.0, 0.5).values)
        dec = cz_decompose(f, 1.0)
        assert dec.intervals == []
        assert np.abs(dec.good.values - f.values).max() < 1e-12

    def test_invariants_random(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            f = GridFunction((L,), rng.normal(size=N) * np.abs(rng.normal(size=N)))
            norm1 = np.abs(f.values).mean()
            alpha = norm1 * rng.uniform(1.5, 6.0)
            dec = cz_decompose(f, alpha)
            recon = dec.good.values + dec.bad_sum().values
            assert np.abs(recon - f.values).max() < 1e-10
            assert dec.total_length <= norm1 / alpha + 1e-12
            l2sq = np.mean(np.abs(dec.good.values) ** 2)
            assert l2sq <= 5.0 * alpha * norm1 + 1e-10
            for iv, b in dec.bad_pieces:
                assert abs(b.mean()) < 1e-12
                assert np.abs(b.values).mean() <= 4.0 * alpha * iv.length + 1e-12
                sl = iv.grid_slice(L)
                outside = np.ones(N, dtype=bool)
                outside[sl] = False
                assert np.abs(b.values[outside]).max() == 0.0
                avg = np.abs(f.values[sl]).mean()
                assert alpha - 1e-12 < avg <= 2.0 * alpha + 1e-12

    def test_threshold_error(self):
        f = GridFunction.constant(1.0, (L,))
        with pytest.raises(ValueError):
            cz_decompose(f, 0.5)


class TestVectorMaximal:
    def test_single_reduces(self):
        rng = np.random.default_rng(14)
        f = GridFunction((L,), rng.normal(size=N))
        out = vector_maximal([f], r=2.0)
        assert np.abs(out.values - maximal(f, "hl").values).max() < 1e-12

    @pytest.mark.parametrize("r", [1.5, 2.0, np.inf])
    def test_equals_per_function_stack(self, r):
        # one batched maximal call gives the per-function stack bit for bit
        rng = np.random.default_rng(18)
        values = rng.normal(size=(5, N)) + 1j * rng.normal(size=(5, N))
        values[2, 7] = np.nan
        fs = [GridFunction((L,), v) for v in values]
        stack = np.stack([maximal(f, "hl").values for f in fs])
        want = stack.max(axis=0) if np.isinf(r) else (stack**r).sum(axis=0) ** (1.0 / r)
        assert np.array_equal(vector_maximal(fs, r=r).values, want, equal_nan=True)

    def test_sup_version_bound(self):
        rng = np.random.default_rng(15)
        fs = [GridFunction((L,), rng.normal(size=N)) for _ in range(4)]
        sup_max = vector_maximal(fs, r=np.inf).values
        envelope = GridFunction((L,), np.max([np.abs(f.values) for f in fs], axis=0))
        assert (sup_max <= maximal(envelope, "hl").values + 1e-10).all()

    def test_weak_11_constant(self):
        # lambda |{Mf > lambda}| <= 12 ||f||_1 at every breakpoint
        rng = np.random.default_rng(16)
        for _ in range(10):
            f = GridFunction((L,), rng.normal(size=N) ** 3)
            m = maximal(f, "hl").values
            norm1 = np.abs(f.values).mean()
            for lam in np.unique(m)[:-1]:
                assert lam * np.mean(m > lam) <= 12.0 * norm1 + 1e-10


class TestFeffermanSteinStability:
    def test_r2_constant_stable_across_resolutions(self):
        # || (sum (Mf_k)^2)^{1/2} ||_p / || (sum f_k^2)^{1/2} ||_p stable
        # within 10% when the grid doubles, on band-limited members
        from torusharmonics.corpus import TrigPolynomial

        rng = np.random.default_rng(17)
        descriptors = [
            TrigPolynomial(
                f"t{i}",
                tuple(int(v) for v in rng.integers(-16, 17, size=5)),
                tuple(complex(a, b) for a, b in rng.normal(size=(5, 2))),
            )
            for i in range(6)
        ]
        constants = {}
        for log_size in (8, 10):
            fs = [d.sample(log_size) for d in descriptors]
            stacked_in = np.sqrt(sum(np.abs(f.values) ** 2 for f in fs))
            agg = vector_maximal(fs, r=2.0).values.real
            p = 2.0
            num = np.mean(agg**p) ** (1 / p)
            den = np.mean(stacked_in**p) ** (1 / p)
            constants[log_size] = num / den
        drift = abs(constants[10] - constants[8]) / constants[8]
        assert drift < 0.10


class TestLinfContractionExact:
    def test_all_kinds(self):
        rng = np.random.default_rng(18)
        f = GridFunction((L,), rng.normal(size=N))
        for kind in ("hl", "dyadic"):
            out = maximal(f, kind).values.real
            assert out.max() <= np.abs(f.values).max() + 1e-12
        f2 = GridFunction((6, 6), rng.normal(size=(64, 64)))
        assert maximal(f2, "strong").values.real.max() <= np.abs(f2.values).max() + 1e-12


class TestStrongMaximalBruteForce:
    def test_matches_direct_enumeration(self):
        # every power-of-two rectangle at every offset, by hand, at 16x16
        rng = np.random.default_rng(19)
        vals = np.abs(rng.normal(size=(16, 16)))
        f = GridFunction((4, 4), vals)
        out = maximal(f, "strong").values.real

        best = np.zeros((16, 16))
        widths = [1, 2, 4, 8, 16]
        for w1 in widths:
            for w2 in widths:
                for s1 in range(16):
                    rows = [(s1 + i) % 16 for i in range(w1)]
                    for s2 in range(16):
                        cols = [(s2 + j) % 16 for j in range(w2)]
                        mean = vals[np.ix_(rows, cols)].mean()
                        for i in rows:
                            for j in cols:
                                if mean > best[i, j]:
                                    best[i, j] = mean
        assert np.abs(out - best).max() < 1e-12


@st.composite
def abs_samples(draw, min_log=1, max_lead=2):
    """|f| samples at L = min_log..9 with up to ``max_lead`` leading axes."""
    log_size = draw(st.integers(min_log, 9))
    shape = tuple(draw(st.lists(st.integers(1, 3), max_size=max_lead))) + (2**log_size,)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("random", "sparse", "zero", "constant")))
    if kind == "random":
        return rng.lognormal(sigma=2.0, size=shape)
    if kind == "sparse":
        return np.where(rng.uniform(size=shape) < 0.05, rng.lognormal(sigma=2.0, size=shape), 0.0)
    if kind == "zero":
        return np.zeros(shape)
    return np.full(shape, rng.lognormal(sigma=2.0))


def hl(vals):
    return maximal(GridFunction((vals.size.bit_length() - 1,), vals), "hl").values.real


def assert_close(a, b, vals):
    # 1e-12 relative to the total mass, the scale of the prefix sums' rounding
    assert np.abs(a - b).max() <= 1e-12 * vals.sum()


def brute_sliding_max(arr, w):
    """out[s] = max arr[(s + j) % n] over j < w, one shifted copy per j."""
    n = arr.shape[-1]
    return np.maximum.reduce([np.roll(arr, -(j % n), axis=-1) for j in range(w)])


class TestSlidingMax:
    """The doubling sliding max equals a brute-force max and the block form."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 64])
    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_every_width(self, n, lead):
        rng = np.random.default_rng(n)
        arr = rng.normal(size=lead + (n,))
        flat = arr.reshape(-1)
        flat[rng.integers(0, flat.size, size=3)] = [np.nan, np.inf, -np.inf]
        for w in range(1, n + 1):
            got = _sliding_max(arr, w)
            assert np.array_equal(got, brute_sliding_max(arr, w), equal_nan=True)
            assert np.array_equal(got, _block_sliding_max(arr, w), equal_nan=True)


class TestIntervalKernel:
    """The divide-and-conquer kernel equals the width loop bit for bit."""

    @settings(max_examples=50, deadline=None)
    @given(abs_samples())
    def test_equals_width_loop(self, vals):
        assert np.array_equal(_hl_runs(vals), _hl_axis(vals))

    @pytest.mark.parametrize("slab", [1, 5, 64])
    def test_equals_width_loop_in_small_slabs(self, monkeypatch, slab):
        # small slabs split rows, columns and batches, wrapped runs included
        monkeypatch.setattr(maximal_module, "_SLAB", slab)
        rng = np.random.default_rng(slab)
        for log_size in range(1, 10):
            vals = rng.lognormal(sigma=2.0, size=(3, 2**log_size))
            assert np.array_equal(_hl_runs(vals), _hl_axis(vals))

    @pytest.mark.parametrize("slab", [1, 5, 64])
    def test_nan_at_either_end_of_the_torus(self, monkeypatch, slab):
        # cell 0 and cell n - 1 are where the wrapped runs cross the seam
        monkeypatch.setattr(maximal_module, "_SLAB", slab)
        rng = np.random.default_rng(slab)
        for log_size in range(1, 10):
            vals = rng.lognormal(sigma=2.0, size=(3, 2**log_size))
            vals[0, 0] = np.nan
            vals[1, -1] = np.nan
            vals[2, 0], vals[2, -1] = np.inf, -np.inf
            with np.errstate(invalid="ignore"):
                assert np.array_equal(_hl_runs(vals), _hl_axis(vals), equal_nan=True)

    @settings(max_examples=25, deadline=None)
    @given(abs_samples(), st.data())
    def test_non_finite_samples_land_where_the_loop_puts_them(self, vals, data):
        flat = vals.reshape(-1)
        cells = data.draw(st.lists(st.integers(0, flat.size - 1), min_size=1, max_size=3))
        flat[cells] = data.draw(st.sampled_from([np.nan, np.inf]))
        with np.errstate(invalid="ignore"):
            assert np.array_equal(_hl_runs(vals), _hl_axis(vals), equal_nan=True)

    def test_equals_width_loop_on_corpus_and_both_directions(self):
        for _, f in generate_corpus(11, 9).members:
            vals = np.abs(f.values)
            assert np.array_equal(_hl_runs(vals), _hl_axis(vals))
        vals = np.random.default_rng(4).lognormal(size=(64, 64))
        f2 = GridFunction((6, 6), vals)
        assert np.array_equal(maximal(f2, "directional", axis=0).values, _hl_axis(vals.T).T)
        assert np.array_equal(maximal(f2, "directional", axis=1).values, _hl_axis(vals))

    @settings(max_examples=25, deadline=None)
    @given(abs_samples(min_log=4, max_lead=0), st.integers(0, 2**9 - 1))
    def test_translation_and_reflection_commute(self, vals, shift):
        mf = hl(vals)
        assert_close(hl(np.roll(vals, shift)), np.roll(mf, shift), vals)
        assert_close(hl(vals[::-1]), mf[::-1], vals)

    @settings(max_examples=25, deadline=None)
    @given(abs_samples(min_log=4, max_lead=0))
    def test_positively_homogeneous(self, vals):
        assert_close(hl(2.0 * vals), 2.0 * hl(vals), 2.0 * vals)

    @settings(max_examples=25, deadline=None)
    @given(abs_samples(min_log=4, max_lead=0))
    def test_dyadic_between_samples_and_hl(self, vals):
        f = GridFunction((vals.size.bit_length() - 1,), vals)
        md = maximal(f, "dyadic").values.real
        assert (vals <= md).all()
        assert (md <= hl(vals) + 1e-12 * vals.sum()).all()


class TestShiftedKernel:
    """The shared-prefix width loop equals ``_hl_axis`` bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(abs_samples(), st.integers(0, 3), st.booleans())
    def test_equals_width_loop(self, vals, shift, sup_shift):
        got = _shifted_widths(vals, shift, sup_shift)
        assert np.array_equal(got, _hl_axis(vals, shift=shift, sup_shift=sup_shift))

    @settings(max_examples=25, deadline=None)
    @given(abs_samples(), st.integers(0, 3), st.booleans(), st.data())
    def test_non_finite_samples_land_where_the_loop_puts_them(self, vals, shift, sup_shift, data):
        flat = vals.reshape(-1)
        cells = data.draw(st.lists(st.integers(0, flat.size - 1), min_size=1, max_size=3))
        flat[cells] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        with np.errstate(invalid="ignore"):
            got = _shifted_widths(vals, shift, sup_shift)
            want = _hl_axis(vals, shift=shift, sup_shift=sup_shift)
        assert np.array_equal(got, want, equal_nan=True)


def strong_pairs_loop(absvals):
    """The strong maximal with both sliding maxima run for every (w1, w2)."""
    best = np.full(absvals.shape, -np.inf)
    w1 = 1
    while w1 <= absvals.shape[0]:
        rows = _window_means(absvals.T, w1).T
        w2 = 1
        while w2 <= absvals.shape[1]:
            cover = _block_sliding_max(_window_means(rows, w2), w2)
            cover = _block_sliding_max(cover.T, w1).T
            best = np.maximum(best, np.roll(cover, (w1 - 1, w2 - 1), axis=(0, 1)))
            w2 *= 2
        w1 *= 2
    return best


class TestStrongKernel:
    """The factored cover equals the per-(w1, w2) loop bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1), st.integers(0, 3))
    def test_equals_pairs_loop(self, log0, log1, seed, n_nan):
        rng = np.random.default_rng(seed)
        vals = rng.lognormal(sigma=2.0, size=(2**log0, 2**log1))
        vals.reshape(-1)[rng.integers(0, vals.size, size=n_nan)] = np.nan
        assert np.array_equal(_strong_2d(vals), strong_pairs_loop(vals), equal_nan=True)


def dominated(vals, rng):
    """Samples of a function f with |f| <= vals pointwise, signs mixed."""
    return vals * rng.uniform(size=vals.shape) * rng.choice([-1.0, 1.0], size=vals.shape)


class TestMonotone:
    """|f| <= |g| pointwise gives Mf <= Mg, at 1e-12 of the mass of g."""

    @settings(max_examples=25, deadline=None)
    @given(
        abs_samples(min_log=4, max_lead=0),
        st.sampled_from([("hl", 0), ("shifted", 1), ("shifted", 2), ("shifted_sup", 1)]),
        st.integers(0, 2**32 - 1),
    )
    def test_interval_kinds(self, vals, kind_shift, seed):
        kind, shift = kind_shift
        log_sizes = (vals.size.bit_length() - 1,)
        f = GridFunction(log_sizes, dominated(vals, np.random.default_rng(seed)))
        mf = maximal(f, kind, n=shift).values.real
        mg = maximal(GridFunction(log_sizes, vals), kind, n=shift).values.real
        assert (mf <= mg + 1e-12 * vals.sum()).all()

    @settings(max_examples=15, deadline=None)
    @given(st.integers(4, 6), st.integers(4, 6), st.integers(0, 2**32 - 1))
    def test_strong(self, log0, log1, seed):
        rng = np.random.default_rng(seed)
        vals = rng.lognormal(sigma=2.0, size=(2**log0, 2**log1))
        mf = maximal(GridFunction((log0, log1), dominated(vals, rng)), "strong").values.real
        mg = maximal(GridFunction((log0, log1), vals), "strong").values.real
        assert (mf <= mg + 1e-12 * vals.sum()).all()


class TestBatchedMaximal:
    """A list of functions is one stacked kernel call, equal member for member
    to one call per function."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(4, 8),
        st.integers(1, 4),
        st.sampled_from([("hl", 0), ("dyadic", 0), ("shifted", 1), ("shifted", 3),
                         ("shifted_sup", 0), ("shifted_sup", 2)]),
        st.data(),
    )
    def test_list_equals_one_call_per_member(self, log_size, members, kind_shift, data):
        kind, shift = kind_shift
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        funcs = []
        for _ in range(members):
            vals = rng.lognormal(sigma=2.0, size=2**log_size)
            vals = vals * rng.choice([-1.0, 1.0, 1j], vals.size)
            cells = data.draw(st.lists(st.integers(0, 2**log_size - 1), max_size=2))
            vals[cells] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf, 0.0]))
            funcs.append(GridFunction((log_size,), vals))
        with np.errstate(invalid="ignore"):
            batch = maximal(funcs, kind, n=shift)
            single = [maximal(f, kind, n=shift) for f in funcs]
        assert isinstance(batch, list) and len(batch) == members
        for got, want in zip(batch, single):
            assert got.log_sizes == want.log_sizes
            assert np.array_equal(got.values, want.values, equal_nan=True)

    @pytest.mark.parametrize("kind", ["hl", "dyadic", "shifted", "shifted_sup"])
    def test_corpus_batch_and_batch_of_one(self, kind):
        funcs = generate_corpus(11, 9).functions()
        for got, f in zip(maximal(funcs, kind, n=1), funcs):
            assert np.array_equal(got.values, maximal(f, kind, n=1).values)
        (one,) = maximal(funcs[:1], kind, n=1)
        assert np.array_equal(one.values, maximal(funcs[0], kind, n=1).values)

    def test_malformed_batches_raise(self):
        f8 = GridFunction((8,), np.ones(2**8))
        f9 = GridFunction((9,), np.ones(2**9))
        f2d = GridFunction((4, 4), np.ones((16, 16)))
        with pytest.raises(ValueError, match="empty"):
            maximal([], "hl")
        with pytest.raises(ValueError, match="one grid size"):
            maximal([f8, f9], "hl")
        with pytest.raises(ValueError, match="1D"):
            maximal([f2d, f2d], "dyadic")
        for kind in ("strong", "directional"):
            with pytest.raises(ValueError, match="list"):
                maximal([f2d], kind)
