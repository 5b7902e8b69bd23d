import itertools

import numpy as np
import pytest

import torusharmonics.squares as squares
from torusharmonics.bumps import make_adapted_family
from torusharmonics.dyadic import DyadicInterval
from torusharmonics.grid import GridFunction, inner_product, lp_norm
from torusharmonics.maximal import adapted_maximal, maximal
from torusharmonics.squares import (
    CoefficientField,
    EpsilonField,
    EpsilonField2D,
    EpsilonSequence,
    GridFunction3,
    coefficient_field,
    hybrid,
    hybrid3,
    linearize,
    square_function,
)

L = 10
N = 2**L
K = 7


@pytest.fixture(scope="module")
def fam():
    return make_adapted_family("from_pou_1", K, L)


@pytest.fixture(scope="module")
def fam_b():
    return make_adapted_family("from_pou_2", K, L)


@pytest.fixture(scope="module")
def fam2d():
    return make_adapted_family("from_pou_1", 5, 8)


def random_grid(seed, log_size=L):
    rng = np.random.default_rng(seed)
    n = 2**log_size
    return GridFunction((log_size,), rng.normal(size=n) + 1j * rng.normal(size=n))


class TestCoefficientField:
    def test_matches_direct_inner_products(self, fam):
        f = random_grid(0)
        field = coefficient_field(f, fam)
        for k in (3, 5, K):
            for j in (0, 1, 2**k - 1):
                iv = DyadicInterval(k, j)
                direct = inner_product(fam.member(iv), f)
                assert abs(field.at(k)[j] - direct) < 1e-10

    def test_shift_consistency(self, fam):
        f = random_grid(1)
        base = coefficient_field(f, fam)
        shifted = coefficient_field(f, fam, n=3)
        for k in (4, 6):
            rolled = base.at(k)[(np.arange(2**k) + 3) % 2**k]
            assert np.abs(shifted.at(k) - rolled).max() < 1e-12

    def test_constant_annihilated(self, fam):
        f = GridFunction.constant(2.0, (L,))
        field = coefficient_field(f, fam)
        assert max(np.abs(field.at(k)).max() for k in fam.scales) < 1e-12

    def test_alpha_shift_matches_member(self, fam):
        f = random_grid(2)
        k = 4
        alpha = 0.25
        field = coefficient_field(f, fam, alpha=alpha)
        offset = int(alpha * 2 ** (L - k))
        iv = DyadicInterval(k, 5)
        direct = inner_product(fam.member(iv, offset_samples=offset), f)
        assert abs(field.at(k)[5] - direct) < 1e-10

    def test_linear_in_f(self, fam):
        f, g = random_grid(3), random_grid(4)
        cf = coefficient_field(f, fam)
        cg = coefficient_field(g, fam)
        cfg = coefficient_field(f + g, fam)
        for k in (2, 5):
            assert np.abs(cfg.at(k) - cf.at(k) - cg.at(k)).max() < 1e-10


class TestSquareFunction:
    def test_constant_annihilated(self, fam):
        out = square_function(GridFunction.constant(1.0, (L,)), fam)
        assert np.abs(out.values).max() < 1e-10

    def test_l2_identity(self, fam):
        # ||Sf||_2^2 equals the sum of squared normalized coefficients
        f = random_grid(5)
        s = square_function(f, fam)
        field = coefficient_field(f, fam)
        total = sum(
            float(np.sum(np.abs(field.at(k)) ** 2)) * 2.0**k for k in fam.scales
        )
        assert abs(lp_norm(s, 2.0) ** 2 - total) < 1e-10 * max(total, 1.0)

    def test_l2_bound_stability(self):
        ratios = {}
        for log_size in (9, 10, 11):
            famx = make_adapted_family("from_pou_1", log_size - 3, log_size)
            rng = np.random.default_rng(6)
            worst = 0.0
            for _ in range(20):
                coeffs = np.zeros(2**log_size, dtype=complex)
                band = 2**5
                idx = rng.integers(-band, band + 1, size=12)
                coeffs[idx] = rng.normal(size=12) + 1j * rng.normal(size=12)
                f = GridFunction(
                    (log_size,),
                    np.fft.ifft(coeffs * 2**log_size),
                )
                s = square_function(f, famx)
                worst = max(worst, lp_norm(s, 2.0) / lp_norm(f, 2.0))
            ratios[log_size] = worst
        base = ratios[10]
        assert abs(ratios[9] - base) / base < 0.1
        assert abs(ratios[11] - base) / base < 0.1

    def test_requires_zero_mean(self):
        fam_bad = make_adapted_family("from_pou_1", K, L)
        fam_bad.zero_mean = False
        with pytest.raises(ValueError):
            square_function(random_grid(7), fam_bad)

    def test_shifted_sup_dominates_shifted(self, fam):
        f = random_grid(8)
        s1 = square_function(f, fam, mode="shifted", n=2)
        s2 = square_function(f, fam, mode="shifted_sup", n=2)
        assert (s2.values >= s1.values - 1e-12).all()


class TestLinearize:
    def test_zero_epsilon(self, fam, fam_b):
        eps = EpsilonSequence.constant(0.0, range(1, K + 1))
        out = linearize(random_grid(9), fam, fam_b, eps)
        assert np.abs(out.values).max() == 0.0

    def test_matches_direct_sum(self, fam, fam_b):
        f = random_grid(10)
        eps = EpsilonSequence.rademacher(3, range(1, K + 1))
        out = linearize(f, fam, fam_b, eps)
        direct = np.zeros(N, dtype=complex)
        for k in range(1, K + 1):
            for j in range(2**k):
                iv = DyadicInterval(k, j)
                c = inner_product(fam.member(iv), f) * 2.0 ** (k / 2)
                direct += eps.at(k)[j] * c * fam_b.normalized_member_values(iv)
        assert np.abs(out.values - direct).max() < 1e-9

    def test_adjoint_identity(self, fam, fam_b):
        # <T_eps f, g> = sum_I eps_I <phi1, f> <phi2, g> (the pairing already
        # conjugates its second slot), which equals <T_eps^swap g, f>
        f, g = random_grid(11), random_grid(12)
        eps = EpsilonSequence.rademacher(4, range(1, K + 1))
        tf = linearize(f, fam, fam_b, eps)
        lhs = inner_product(tf, g)
        cf = coefficient_field(f, fam)
        cg = coefficient_field(g, fam_b)
        mid = sum(
            complex(np.sum(eps.at(k) * cf.at(k) * cg.at(k) * 2.0**k))
            for k in range(1, K + 1)
        )
        assert abs(lhs - mid) < 1e-9
        tg = linearize(g, fam_b, fam, eps)
        rhs = inner_product(tg, f)
        assert abs(lhs - rhs) < 1e-9

    def test_l2_bound_over_draws(self, fam, fam_b):
        # the empirical constant for one draw is the max ratio over a corpus;
        # that statistic is what must be stable across draws
        corpus = [random_grid(100 + i) for i in range(8)]
        constants = []
        for seed in range(20):
            eps = EpsilonSequence.rademacher(seed, range(1, K + 1))
            constants.append(
                max(
                    lp_norm(linearize(f, fam, fam_b, eps), 2.0) / lp_norm(f, 2.0)
                    for f in corpus
                )
            )
        spread = (max(constants) - min(constants)) / max(constants)
        assert max(constants) < 10.0
        assert spread < 0.25

    def test_alpha_average_runs(self, fam, fam_b):
        f = random_grid(14)
        eps = EpsilonSequence.rademacher(5, range(1, K + 1))
        out = linearize(f, fam, fam_b, eps, n=1, average_alpha=True, max_offsets=8)
        assert np.isfinite(np.abs(out.values).max())


class TestHybrid:
    def test_ss_annihilates_constants(self, fam2d):
        f = GridFunction.constant(3.0, (8, 8))
        out = hybrid(f, (fam2d, fam2d), "SS")
        assert np.abs(out.values).max() < 1e-10

    def test_separable_factorization(self, fam2d):
        rng = np.random.default_rng(15)
        a = rng.normal(size=256)
        b = rng.normal(size=256)
        f2 = GridFunction((8, 8), np.outer(a, b))
        ss = hybrid(f2, (fam2d, fam2d), "SS")
        s1 = square_function(GridFunction((8,), a), fam2d)
        s2 = square_function(GridFunction((8,), b), fam2d)
        expect = np.outer(s1.values, s2.values)
        assert np.abs(ss.values - expect).max() < 1e-9

    def test_mm_dominated_by_strong(self, fam2d):
        rng = np.random.default_rng(16)
        f = GridFunction((8, 8), rng.normal(size=(256, 256)))
        mm = hybrid(f, (fam2d, fam2d), "MM").values
        ms = maximal(f, "strong").values
        ratio = (mm / np.maximum(ms, 1e-30)).max()
        assert ratio < 20.0

    def test_ms_between_mm_and_ss_shapes(self, fam2d):
        rng = np.random.default_rng(17)
        f = GridFunction((8, 8), rng.normal(size=(256, 256)))
        for kind in ("MM", "MS", "SM", "SS"):
            out = hybrid(f, (fam2d, fam2d), kind)
            assert np.isfinite(out.values).all()

    def test_zero_mean_contract(self, fam2d):
        fam_bad = make_adapted_family("from_pou_1", 5, 8)
        fam_bad.zero_mean = False
        f = GridFunction.constant(1.0, (8, 8))
        with pytest.raises(ValueError):
            hybrid(f, (fam_bad, fam2d), "SS")
        hybrid(f, (fam_bad, fam2d), "MS")  # M slot tolerates mean

    def test_zero_prototype_scales_are_skipped(self, fam2d, monkeypatch):
        # from_pou_1 is identically zero at k = 1, 2: of the 25 scale pairs
        # at K = 5 only the 9 with k1, k2 >= 3 cost an inverse FFT
        rng = np.random.default_rng(21)
        f = GridFunction((8, 8), rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256)))
        ifftn, calls = np.fft.ifftn, []
        monkeypatch.setattr(np.fft, "ifftn", lambda *a, **kw: calls.append(1) or ifftn(*a, **kw))
        ss = hybrid(f, (fam2d, fam2d), "SS").values
        monkeypatch.undo()
        assert len(calls) == 9
        # member by member over all 25 scale pairs: SS^2 = sum_R A_R^2 chi_R
        # with A_R = |<phi_R, f>| / |R|, phi_R = phi_I (x) phi_J
        rows = {
            k: np.array([fam2d.member_values(DyadicInterval(k, j)) for j in range(2**k)])
            for k in fam2d.scales
        }
        total = np.zeros((256, 256))
        for k1 in fam2d.scales:
            for k2 in fam2d.scales:
                pairings = rows[k1] @ np.conj(f.values) @ rows[k2].T / 256**2
                amp = np.abs(pairings) * 2.0 ** (k1 + k2)
                total += np.repeat(np.repeat(amp**2, 256 >> k1, axis=0), 256 >> k2, axis=1)
        assert np.abs(ss - np.sqrt(total)).max() <= 1e-12 * np.abs(ss).max()

    def test_each_scale_pair_inverts_only_its_lattice(self, fam2d, monkeypatch):
        # one forward FFT of the 256^2 input, then per nonzero scale pair an
        # inverse FFT of the 2^k1 x 2^k2 lattice the dyadic boxes start on,
        # N/s points per axis instead of N
        rng = np.random.default_rng(23)
        f = GridFunction((8, 8), rng.normal(size=(256, 256)))
        shapes = {"fftn": [], "ifftn": []}
        for name, seen in shapes.items():
            def counted(*args, _transform=getattr(np.fft, name), _seen=seen, **kwargs):
                out = _transform(*args, **kwargs)
                _seen.append(out.shape)
                return out

            monkeypatch.setattr(np.fft, name, counted)
        hybrid(f, (fam2d, fam2d), "SS")
        monkeypatch.undo()
        assert shapes["fftn"] == [(256, 256)]
        assert shapes["ifftn"] == [(2**k1, 2**k2) for k1 in (3, 4, 5) for k2 in (3, 4, 5)]

    def test_axis_without_nonzero_scale_gives_zeros(self):
        # from_pou_1 at K = 2 has no nonzero prototype
        fam = make_adapted_family("from_pou_1", 2, 8)
        f = random_grid(22, 8)
        assert (square_function(f, fam).values == 0).all()
        f2 = GridFunction((8, 8), np.outer(f.values, f.values))
        assert (hybrid(f2, (fam, make_adapted_family("from_pou_1", 5, 8)), "MS").values == 0).all()


def full_grid_envelope(f, fams, kind, shifts, max_offsets=None):
    """``squares._envelope`` with every box aggregate spread onto the whole
    grid before it is aggregated: the loop the finest-cell aggregation
    replaced, kept as its oracle."""
    scale_lists = squares._scale_lists((fam,) for fam in fams)
    lag_arrays = squares.analysis(
        f.values,
        squares._bands(fams, scale_lists),
        squares._spacings(scale_lists, f.sizes, max_offsets),
    )
    partial = [None] * len(fams)
    for ks, lags in zip(itertools.product(*scale_lists), lag_arrays):
        amp = np.abs(squares._read(lags, squares._boxes(ks, f.sizes, max_offsets), shifts))
        amp = amp.max(axis=tuple(range(1, 2 * len(ks), 2)))
        for axis, k in enumerate(ks):
            amp = np.repeat(amp, f.sizes[axis] >> k, axis=axis)
        for axis in reversed(range(len(fams))):
            if kind[axis] == "S":
                amp = amp**2
            if partial[axis] is None:
                partial[axis] = amp
            elif kind[axis] == "S":
                partial[axis] += amp
            else:
                np.maximum(partial[axis], amp, out=partial[axis])
            if ks[axis] != scale_lists[axis][-1]:
                break
            amp = np.sqrt(partial[axis]) if kind[axis] == "S" else partial[axis]
            partial[axis] = None
    return amp


@pytest.mark.parametrize(
    "log_sizes, kind, shifts, max_offsets",
    [
        ((10,), "S", (0,), None),
        ((10,), "S", (1,), 64),
        ((10,), "M", (2,), None),
        ((8, 8), "SS", (0, 0), None),
        ((8, 8), "MS", (1, 0), None),
        ((8, 8), "SM", (0, 1), 4),
        ((8, 7), "MM", (1, 1), 16),
        ((6, 6, 6), "MSM", (0, 1, 0), None),
    ],
)
def test_envelope_equals_full_grid_aggregation(log_sizes, kind, shifts, max_offsets):
    # the aggregates are held on the finest scale's cells and spread once;
    # every value is computed by the same operations in the same order
    rng = np.random.default_rng(len(kind) + sum(shifts))
    fams = [make_adapted_family("from_pou_1", L - 3, L) for L in log_sizes]
    shape = tuple(2**L for L in log_sizes)
    f = GridFunction(log_sizes, rng.normal(size=shape) + 1j * rng.normal(size=shape))
    got = squares._envelope(f, fams, kind, shifts, max_offsets)
    assert np.array_equal(got, full_grid_envelope(f, fams, kind, shifts, max_offsets))


@pytest.fixture(scope="module")
def fam3():
    return make_adapted_family("from_pou_1", 3, 6)


class TestHybrid3:
    def test_only_nonzero_scale_triple_is_transformed(self, fam3, monkeypatch):
        # from_pou_1 at K = 3 is nonzero at k = 3 only: 1 of 27 scale triples
        rng = np.random.default_rng(23)
        f = GridFunction3(rng.normal(size=(64, 64, 64)))
        ifftn, calls = np.fft.ifftn, []
        monkeypatch.setattr(np.fft, "ifftn", lambda *a, **kw: calls.append(1) or ifftn(*a, **kw))
        out = hybrid3(f, (fam3, fam3, fam3), "SSS")
        assert len(calls) == 1 and np.isfinite(out.values).all()

    def test_sss_annihilates_constants(self, fam3):
        f = GridFunction3(np.full((64, 64, 64), 2.0, dtype=complex))
        out = hybrid3(f, (fam3, fam3, fam3), "SSS")
        assert np.abs(out.values).max() < 1e-10

    def test_separable_factorization(self, fam3):
        rng = np.random.default_rng(18)
        a, b, c = (rng.normal(size=64) for _ in range(3))
        f = GridFunction3(
            a[:, None, None] * b[None, :, None] * c[None, None, :]
        )
        out = hybrid3(f, (fam3, fam3, fam3), "SSS")
        s = [square_function(GridFunction((6,), v), fam3).values for v in (a, b, c)]
        expect = s[0][:, None, None] * s[1][None, :, None] * s[2][None, None, :]
        assert np.abs(out.values - expect).max() < 1e-9

    def test_mmm_bounded_by_iterated_directional(self, fam3):
        rng = np.random.default_rng(19)
        vals = np.abs(rng.normal(size=(64, 64, 64)))
        f = GridFunction3(vals)
        out = hybrid3(f, (fam3, fam3, fam3), "MMM").values
        # iterated one-dimensional maximal functions along each axis
        from maximal_oracles import _hl_axis

        m = vals
        for axis in (2, 1, 0):
            m = np.moveaxis(_hl_axis(np.moveaxis(m, axis, -1)), -1, axis)
        ratio = (out / np.maximum(m, 1e-30)).max()
        assert ratio < 20.0

    def test_permuted_kind(self, fam3):
        rng = np.random.default_rng(20)
        f = GridFunction3(rng.normal(size=(64, 64, 64)))
        osm = hybrid3(f, (fam3, fam3, fam3), "SMM")
        mms = hybrid3(
            GridFunction3(np.transpose(f.values, (2, 1, 0))), (fam3, fam3, fam3), "MMS"
        )
        back = np.transpose(mms.values, (2, 1, 0))
        assert np.abs(osm.values - back).max() < 1e-10


class TestEpsilon:
    def test_normalization(self):
        eps = EpsilonSequence({1: np.array([3.0, -3.0]), 2: np.array([1.0, 1, 1, 1])})
        assert np.abs(eps.at(1)).max() <= 1.0 + 1e-15

    def test_rademacher_reproducible(self):
        a = EpsilonSequence.rademacher(7, range(1, 5))
        b = EpsilonSequence.rademacher(7, range(1, 5))
        for k in range(1, 5):
            assert (a.at(k) == b.at(k)).all()

    def test_separable_2d(self):
        e1 = EpsilonSequence.rademacher(1, range(1, 3))
        e2 = EpsilonSequence.rademacher(2, range(1, 3))
        field = EpsilonField2D.separable(e1, e2)
        assert field.at(2, 1).shape == (4, 2)

    def test_one_field_keyed_by_scale_tuples(self):
        assert EpsilonSequence is EpsilonField and EpsilonField2D is EpsilonField
        eps = EpsilonField({2: np.ones(4), (1, 2): np.ones((2, 4))})
        assert set(eps.scales) == {(2,), (1, 2)}
        assert eps.at(2).shape == (4,) and eps.at(1, 2).shape == (2, 4)
        three = EpsilonField.constant(0.5, range(1, 3), range(1, 2), range(2, 3))
        assert three.at(2, 1, 2).shape == (4, 2, 4) and len(three.scales) == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_non_finite_values_are_rejected(self, bad):
        # a NaN would pass the sup > 1 normalization and reach every output
        with pytest.raises(ValueError, match="1 eps values are NaN or infinite"):
            EpsilonField({1: np.array([1.0, bad]), 2: np.ones(4)})
        with pytest.raises(ValueError, match="NaN or infinite"):
            EpsilonField.constant(bad, range(1, 3))

    def test_rademacher_draws_in_product_order(self):
        # the stream of sequential per-scale draws, 1D and 2D (row-major)
        rng = np.random.default_rng(9)
        one = EpsilonField.rademacher(9, range(1, 4))
        for k in range(1, 4):
            assert (one.at(k) == rng.choice([-1.0, 1.0], size=2**k)).all()
        rng = np.random.default_rng(9)
        two = EpsilonField.rademacher(9, range(1, 3), range(2, 4))
        for k1 in range(1, 3):
            for k2 in range(2, 4):
                draw = rng.choice([-1.0, 1.0], size=(2**k1, 2**k2))
                assert (two.at(k1, k2) == draw).all()


class TestMemberPairDecay:
    def test_same_scale_shifted_pairs(self, fam):
        # |<phi_I, phi_{I^n}>| <= C / (|n|+1)^2 across levels <= 6
        worst = 0.0
        for k in range(3, 7):
            base = fam.normalized_member_values(DyadicInterval(k, 0))
            gf = GridFunction((L,), base)
            for n in range(0, 2 ** (k - 1) + 1):
                other = fam.normalized_member_values(DyadicInterval(k, n % 2**k))
                val = abs(np.vdot(other, base) / base.size)
                worst = max(worst, val * (n + 1) ** 2)
        assert worst < 10.0

    def test_enlarged_shifted_pairs(self, fam):
        # |<phi_I, phi_{I(j,n)}>| <= C 2^-j / (|n|+1)^2
        worst = 0.0
        for k in (5, 6):
            base = fam.normalized_member_values(DyadicInterval(k, 0))
            for j in range(1, k):
                for n in range(0, 2 ** (k - j - 1) + 1):
                    anc = DyadicInterval(k - j, 0).shift(n)
                    other = fam.normalized_member_values(anc)
                    val = abs(np.vdot(other, base) / base.size)
                    worst = max(worst, val * 2.0**j * (n + 1) ** 2)
        assert worst < 10.0


class TestTruncatedExpansion:
    def test_bessel_bound(self, fam):
        # || sum_{|I| >= 2^-N} <phi_I, f> conj(phi_I) ||_2^2 <= C sum |<phi_I, f>|^2
        rng = np.random.default_rng(21)
        worst = 0.0
        for _ in range(5):
            f = GridFunction((L,), rng.normal(size=N) + 1j * rng.normal(size=N))
            field = coefficient_field(f, fam)
            for depth in (3, 6):
                expansion = np.zeros(N, dtype=complex)
                total = 0.0
                for k in range(1, depth + 1):
                    coeffs = field.at(k) * 2.0 ** (k / 2)  # normalized
                    total += float(np.sum(np.abs(coeffs) ** 2))
                    for j in range(2**k):
                        member = np.conj(
                            fam.normalized_member_values(DyadicInterval(k, j))
                        )
                        expansion += coeffs[j] * member
                l2sq = float(np.mean(np.abs(expansion) ** 2))
                if total > 0:
                    worst = max(worst, l2sq / total)
        assert worst < 10.0


class TestAtomLocalization:
    def test_mass_off_double_interval(self, fam):
        # mean-zero atom on dyadic I: ||Sa||_{L1(T - 2I)} <= C ||a||_1
        rng = np.random.default_rng(22)
        worst = 0.0
        for k, j in ((4, 3), (6, 17), (7, 100)):
            iv = DyadicInterval(k, j)
            sl = iv.grid_slice(L)
            vals = np.zeros(N, dtype=complex)
            vals[sl] = rng.normal(size=sl.stop - sl.start)
            vals[sl] -= vals[sl].mean()
            atom = GridFunction((L,), vals)
            s = square_function(atom, fam).values.real
            x = np.arange(N) / N
            rel = np.abs((x - iv.center + 0.5) % 1.0 - 0.5)
            outside = rel > iv.length
            mass = float(np.mean(s * outside))
            worst = max(worst, mass / np.abs(vals).mean())
        assert worst < 10.0


class TestWeakTypeGrowth:
    def test_square_weak_11_over_corpus(self, fam):
        from torusharmonics.corpus import generate_corpus
        from torusharmonics.grid import weak_lp_norm, lp_norm

        corpus = generate_corpus(6, L)
        worst = 0.0
        for _, f in corpus.members:
            s = square_function(f, fam)
            worst = max(worst, weak_lp_norm(s, 1.0) / lp_norm(f, 1.0))
        assert worst < 10.0

    def test_shifted_sup_weak_growth_linear(self, fam):
        from torusharmonics.corpus import generate_corpus
        from torusharmonics.grid import weak_lp_norm, lp_norm

        corpus = generate_corpus(6, L)
        funcs = corpus.functions()[:8]
        consts = {}
        for n in (0, 1, 2, 4, 8):
            consts[n] = max(
                weak_lp_norm(square_function(f, fam, mode="shifted_sup", n=n), 1.0)
                / lp_norm(f, 1.0)
                for f in funcs
            )
        base = max(consts[0], 1e-9)
        for n in (1, 2, 4, 8):
            assert consts[n] <= 3.0 * (n + 1) * base


class TestHybridShifts:
    def test_zero_shift_is_plain(self, fam2d):
        rng = np.random.default_rng(23)
        f = GridFunction((8, 8), rng.normal(size=(256, 256)))
        plain = hybrid(f, (fam2d, fam2d), "SS")
        shifted = hybrid(f, (fam2d, fam2d), "SS", shifts=(0, 0))
        assert np.abs(plain.values - shifted.values).max() == 0.0

    def test_sup_alpha_dominates(self, fam2d):
        rng = np.random.default_rng(24)
        f = GridFunction((8, 8), rng.normal(size=(256, 256)))
        plain = hybrid(f, (fam2d, fam2d), "SS").values.real
        sup = hybrid(f, (fam2d, fam2d), "SS", sup_alpha=True, max_offsets=4).values.real
        assert (sup >= plain - 1e-12).all()

    def test_shifted_coefficients_reindex(self, fam2d):
        # shifting both axes by n re-reads the same coefficient tensor
        rng = np.random.default_rng(25)
        f = GridFunction((8, 8), rng.normal(size=(256, 256)))
        a = hybrid(f, (fam2d, fam2d), "MM", shifts=(1, 2)).values.real
        assert np.isfinite(a).all() and a.max() > 0


class TestGridFunction3:
    def test_from_callable(self):
        cube = GridFunction3.from_callable(
            lambda x, y, z: np.exp(2j * np.pi * (x + y + z)), (4, 4, 4)
        )
        assert cube.values.shape == (16, 16, 16)
        assert abs(cube.values[1, 0, 0] - np.exp(2j * np.pi / 16)) < 1e-12

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            GridFunction3(np.zeros((8, 8)))
        with pytest.raises(ValueError):
            GridFunction3(np.zeros((8, 8, 7)))


class TestShiftedLinearizationBruteForce:
    def test_matches_direct_sum(self):
        from torusharmonics.grid import inner_product as ip
        from torusharmonics.squares import _alpha_offsets

        L8, K8 = 8, 5
        n_grid = 2**L8
        fam1 = make_adapted_family("from_pou_1", K8, L8)
        fam2 = make_adapted_family("from_pou_2", K8, L8)
        rng = np.random.default_rng(1)
        f = GridFunction((L8,), rng.normal(size=n_grid) + 1j * rng.normal(size=n_grid))
        eps = EpsilonSequence.rademacher(2, range(1, K8 + 1))
        n_shift = 1
        out = linearize(f, fam1, fam2, eps, n=n_shift, average_alpha=True, max_offsets=8)

        direct = np.zeros(n_grid, dtype=complex)
        for k in range(1, K8 + 1):
            step = 2 ** (L8 - k)
            offsets = _alpha_offsets(step, 8)
            acc = np.zeros(n_grid, dtype=complex)
            for o in offsets:
                for j in range(2**k):
                    inner = 2.0**-k * np.roll(
                        fam1.prototype_values(k), ((j + n_shift) * step + o) % n_grid
                    )
                    c = ip(GridFunction((L8,), inner), f) * 2.0 ** (k / 2)
                    outer = (
                        2.0 ** (k / 2)
                        * 2.0**-k
                        * np.roll(fam2.prototype_values(k), (j * step + o) % n_grid)
                    )
                    acc += eps.at(k)[j] * c * outer
            direct += acc / len(offsets)
        assert np.abs(out.values - direct).max() < 1e-10


class TestLinearizeDraws:
    """Several eps fields in one call: f analysed once, one batched synthesis."""

    @pytest.mark.parametrize("n,average_alpha", [(0, False), (1, False), (0, True)])
    def test_twenty_draws_equal_twenty_calls(self, fam, fam_b, n, average_alpha):
        rng = np.random.default_rng(n)
        f = GridFunction((L,), rng.normal(size=N) + 1j * rng.normal(size=N))
        draws = [EpsilonField.rademacher(s, range(1, K + 1)) for s in range(20)]
        options = dict(n=n, average_alpha=average_alpha, max_offsets=8)
        batched = linearize(f, fam, fam_b, draws, **options)
        assert len(batched) == len(draws)
        for eps, out in zip(draws, batched):
            assert np.array_equal(out.values, linearize(f, fam, fam_b, eps, **options).values)

    def test_fields_over_different_windows_share_their_common_tuples(self, fam, fam_b):
        f = GridFunction.from_callable(lambda x: np.cos(6 * np.pi * x) + (x < 0.3), (L,))
        wide = EpsilonField.rademacher(5, range(1, K + 2))
        narrow = EpsilonField.rademacher(6, range(1, K + 1))
        for eps, out in zip((wide, narrow), linearize(f, fam, fam_b, [wide, narrow])):
            assert np.array_equal(out.values, linearize(f, fam, fam_b, eps).values)

    def test_no_nonzero_scale_gives_one_zero_output_per_draw(self):
        # from_pou_1 vanishes at k = 1, 2: no scale is left
        fam1 = make_adapted_family("from_pou_1", 2, 8)
        fam2 = make_adapted_family("from_pou_2", 2, 8)
        draws = [EpsilonField.rademacher(s, range(1, 3)) for s in range(3)]
        outs = linearize(GridFunction.constant(1.0, (8,)), fam1, fam2, draws)
        assert len(outs) == 3 and all(not out.values.any() for out in outs)

    def test_stacked_field_has_a_batch_axis(self):
        fields = [EpsilonField.rademacher(s, range(1, 4), range(1, 3)) for s in range(4)]
        stacked = EpsilonField.stack(fields)
        assert stacked.batch == (4,) and fields[0].batch == ()
        assert np.array_equal(stacked.at(3, 2)[2], fields[2].at(3, 2))
