import dataclasses

import numpy as np
import pytest

from torusharmonics.bumps import make_adapted_family
from torusharmonics.grid import GridFunction, inner_product, lp_norm
from torusharmonics.maximal import adapted_maximal
from torusharmonics.paraproducts import (
    ParaproductSpec,
    paraproduct_1p,
    paraproduct_2p,
    paraproduct_pairing,
)
from torusharmonics.squares import EpsilonField2D, EpsilonSequence, square_function

L = 9
N = 2**L
K = L - 3
L2D = 7
K2D = L2D - 3


@pytest.fixture(scope="module")
def fams():
    return (
        make_adapted_family("from_pou_1", K, L),
        make_adapted_family("from_pou_2", K, L),
        make_adapted_family("lower_bounded", K, L),
    )


@pytest.fixture(scope="module")
def spec1(fams):
    return ParaproductSpec(
        params=1,
        families=fams,
        mean_slots=(3,),
        epsilon=EpsilonSequence.rademacher(0, range(1, K + 1)),
    )


@pytest.fixture(scope="module")
def fams2d():
    triple = lambda: (
        make_adapted_family("from_pou_1", K2D, L2D),
        make_adapted_family("from_pou_2", K2D, L2D),
        make_adapted_family("from_pou_1", K2D, L2D),
    )
    return (triple(), triple())


def random_grid(seed, log_size=L):
    rng = np.random.default_rng(seed)
    n = 2**log_size
    return GridFunction((log_size,), rng.normal(size=n) + 1j * rng.normal(size=n))


class TestSpecValidation:
    def test_zero_mean_contract(self, fams):
        fam1, fam2, fam3 = fams
        bad = make_adapted_family("from_pou_1", K, L)
        bad.zero_mean = False
        with pytest.raises(ValueError):
            ParaproductSpec(
                params=1,
                families=(bad, fam2, fam3),
                mean_slots=(3,),
                epsilon=EpsilonSequence.constant(1.0, range(1, K + 1)),
            )

    def test_mean_slot_is_exempt(self, fams):
        fam1, fam2, _ = fams
        withmean = make_adapted_family("from_pou_1", K, L)
        withmean.zero_mean = False
        ParaproductSpec(
            params=1,
            families=(withmean, fam2, fam2),
            mean_slots=(1,),
            epsilon=EpsilonSequence.constant(1.0, range(1, K + 1)),
        )


class TestParaproduct1P:
    def test_bilinearity(self, spec1):
        f1, f2, g = random_grid(1), random_grid(2), random_grid(3)
        lhs = paraproduct_1p(spec1, f1 + f2, g).values
        rhs = paraproduct_1p(spec1, f1, g).values + paraproduct_1p(spec1, f2, g).values
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_zero_mean_slot_annihilates_constants(self, fams):
        # slot 2 zero-mean: constant g gives T(f, g) = 0
        spec = ParaproductSpec(
            params=1,
            families=fams,
            mean_slots=(1,),
            epsilon=EpsilonSequence.constant(1.0, range(1, K + 1)),
        )
        f = random_grid(4)
        g = GridFunction.constant(2.0, (L,))
        out = paraproduct_1p(spec, f, g)
        assert np.abs(out.values).max() < 1e-10

    def test_matches_direct_sum(self, fams):
        from torusharmonics.dyadic import DyadicInterval

        fam1, fam2, fam3 = fams
        eps = EpsilonSequence.rademacher(5, range(1, K + 1))
        spec = ParaproductSpec(params=1, families=fams, mean_slots=(3,), epsilon=eps)
        f, g = random_grid(6), random_grid(7)
        out = paraproduct_1p(spec, f, g)
        direct = np.zeros(N, dtype=complex)
        for k in range(1, K + 1):
            for j in range(2**k):
                iv = DyadicInterval(k, j)
                c1 = inner_product(fam1.member(iv), f) * 2.0 ** (k / 2)
                c2 = inner_product(fam2.member(iv), g) * 2.0 ** (k / 2)
                direct += (
                    eps.at(k)[j]
                    * 2.0 ** (k / 2)
                    * c1
                    * c2
                    * fam3.normalized_member_values(iv)
                )
        assert np.abs(out.values - direct).max() < 1e-9

    def test_pairing_identity(self, spec1):
        f, g, h = random_grid(8), random_grid(9), random_grid(10)
        shifted = dataclasses.replace(spec1, shifts=(1, 2))
        averaged = dataclasses.replace(spec1, average_alpha=True)
        for spec in (spec1, shifted, averaged):
            out = paraproduct_1p(spec, f, g)
            lhs = inner_product(out, h)
            rhs = paraproduct_pairing(spec, f, g, h)
            assert abs(lhs - rhs) < 1e-10

    def test_holder_chain_majorization(self, fams):
        # |<T(f,g), h>| <= int M'f S^2 g S^3 h for the mean slot a = 1
        fam1, fam2, fam3 = fams
        spec = ParaproductSpec(
            params=1,
            families=fams,
            mean_slots=(1,),
            epsilon=EpsilonSequence.constant(1.0, range(1, K + 1)),
        )
        rng = np.random.default_rng(11)
        for _ in range(3):
            f = GridFunction((L,), rng.normal(size=N))
            g = GridFunction((L,), rng.normal(size=N))
            h = GridFunction((L,), rng.normal(size=N))
            pairing = abs(paraproduct_pairing(spec, f, g, h))
            mf = adapted_maximal(f, fam1).values.real
            sg = square_function(g, fam2).values.real
            sh = square_function(h, fam3).values.real
            bound = float(np.mean(mf * sg * sh))
            assert pairing <= bound + 1e-12

    def test_empirical_holder_l2xl2_to_l1(self, spec1):
        worst = 0.0
        for seed in range(8):
            f, g = random_grid(100 + seed), random_grid(200 + seed)
            out = paraproduct_1p(spec1, f, g)
            worst = max(worst, lp_norm(out, 1.0) / (lp_norm(f, 2.0) * lp_norm(g, 2.0)))
        assert worst < 5.0

    def test_eps_draw_stability(self, fams):
        corpus = [(random_grid(300 + i), random_grid(400 + i)) for i in range(6)]
        constants = []
        for seed in range(20):
            spec = ParaproductSpec(
                params=1,
                families=fams,
                mean_slots=(3,),
                epsilon=EpsilonSequence.rademacher(seed, range(1, K + 1)),
            )
            constants.append(
                max(
                    lp_norm(paraproduct_1p(spec, f, g), 1.0)
                    / (lp_norm(f, 2.0) * lp_norm(g, 2.0))
                    for f, g in corpus
                )
            )
        spread = (max(constants) - min(constants)) / max(constants)
        assert spread < 0.25

    def test_shifted_growth(self, fams):
        corpus = [(random_grid(500 + i), random_grid(600 + i)) for i in range(4)]
        eps = EpsilonSequence.constant(1.0, range(1, K + 1))

        def constant(n1, n2):
            spec = ParaproductSpec(
                params=1,
                families=fams,
                mean_slots=(3,),
                epsilon=eps,
                shifts=(n1, n2),
            )
            return max(
                lp_norm(paraproduct_1p(spec, f, g), 1.0)
                / (lp_norm(f, 2.0) * lp_norm(g, 2.0))
                for f, g in corpus
            )

        base = constant(0, 0)
        for n in (1, 2, 4):
            assert constant(n, 0) <= 3.0 * (n + 1) * base
            assert constant(n, n) <= 3.0 * (n + 1) ** 2 * base


class TestParaproduct2P:
    def test_separable_factorization(self, fams2d):
        rng = np.random.default_rng(12)
        eps1 = EpsilonSequence.rademacher(1, range(1, K2D + 1))
        eps2 = EpsilonSequence.rademacher(2, range(1, K2D + 1))
        spec2 = ParaproductSpec(
            params=2,
            families=fams2d,
            mean_slots=(3, 3),
            epsilon=EpsilonField2D.separable(eps1, eps2),
        )
        f1 = GridFunction((L2D,), rng.normal(size=2**L2D))
        f2 = GridFunction((L2D,), rng.normal(size=2**L2D))
        g1 = GridFunction((L2D,), rng.normal(size=2**L2D))
        g2 = GridFunction((L2D,), rng.normal(size=2**L2D))
        f = GridFunction((L2D, L2D), np.outer(f1.values, f2.values))
        g = GridFunction((L2D, L2D), np.outer(g1.values, g2.values))
        out = paraproduct_2p(spec2, f, g)
        s1 = ParaproductSpec(
            params=1, families=fams2d[0], mean_slots=(3,), epsilon=eps1
        )
        s2 = ParaproductSpec(
            params=1, families=fams2d[1], mean_slots=(3,), epsilon=eps2
        )
        t1 = paraproduct_1p(s1, f1, g1)
        t2 = paraproduct_1p(s2, f2, g2)
        expect = np.outer(t1.values, t2.values)
        assert np.abs(out.values - expect).max() < 1e-9

    def test_constant_annihilation(self, fams2d):
        spec2 = ParaproductSpec(
            params=2,
            families=fams2d,
            mean_slots=(3, 3),
            epsilon=EpsilonField2D.rademacher(3, range(1, K2D + 1), range(1, K2D + 1)),
        )
        f = GridFunction.constant(1.0, (L2D, L2D))
        rng = np.random.default_rng(13)
        g = GridFunction((L2D, L2D), rng.normal(size=(2**L2D, 2**L2D)))
        out = paraproduct_2p(spec2, f, g)
        assert np.abs(out.values).max() < 1e-10

    def test_empirical_bound_finite(self, fams2d):
        spec2 = ParaproductSpec(
            params=2,
            families=fams2d,
            mean_slots=(3, 3),
            epsilon=EpsilonField2D.rademacher(4, range(1, K2D + 1), range(1, K2D + 1)),
        )
        rng = np.random.default_rng(14)
        worst = 0.0
        for _ in range(4):
            f = GridFunction((L2D, L2D), rng.normal(size=(2**L2D, 2**L2D)))
            g = GridFunction((L2D, L2D), rng.normal(size=(2**L2D, 2**L2D)))
            out = paraproduct_2p(spec2, f, g)
            worst = max(worst, lp_norm(out, 1.0) / (lp_norm(f, 2.0) * lp_norm(g, 2.0)))
        assert worst < 10.0

    def test_pairing_identity(self, fams2d):
        spec = ParaproductSpec(
            params=2,
            families=fams2d,
            mean_slots=(3, 3),
            epsilon=EpsilonField2D.rademacher(5, range(1, K2D + 1), range(1, K2D + 1)),
            shifts=(1, 2),
            average_alpha=True,
            max_offsets=2,
        )
        rng = np.random.default_rng(15)
        n = 2**L2D
        f, g, h = (
            GridFunction((L2D, L2D), rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            for _ in range(3)
        )
        lhs = inner_product(paraproduct_2p(spec, f, g), h)
        assert abs(lhs - paraproduct_pairing(spec, f, g, h)) < 1e-10 * max(1.0, abs(lhs))


class TestBiParameterMajorization:
    def test_pairing_dominated_by_hybrid_product(self, fams2d):
        # |<T^{1,2}(f,g), h>| <= int MSf SMg SSh: the mean slots (1 in the
        # first axis, 2 in the second) make f's aggregate M-in-axis-1 and
        # g's M-in-axis-2, while h pairs against zero-mean slots in both
        from torusharmonics.grid import inner_product
        from torusharmonics.squares import EpsilonField2D, hybrid

        (ax1, ax2) = fams2d
        spec = ParaproductSpec(
            params=2,
            families=fams2d,
            mean_slots=(1, 2),
            epsilon=EpsilonField2D(
                {
                    (k1, k2): np.ones((2**k1, 2**k2), dtype=complex)
                    for k1 in range(1, K2D + 1)
                    for k2 in range(1, K2D + 1)
                }
            ),
        )
        rng = np.random.default_rng(20)
        n = 2**L2D
        for _ in range(2):
            f = GridFunction((L2D, L2D), rng.normal(size=(n, n)))
            g = GridFunction((L2D, L2D), rng.normal(size=(n, n)))
            h = GridFunction((L2D, L2D), rng.normal(size=(n, n)))
            pairing = abs(inner_product(paraproduct_2p(spec, f, g), h))
            msf = hybrid(f, (ax1[0], ax2[0]), "MS").values.real
            smg = hybrid(g, (ax1[1], ax2[1]), "SM").values.real
            ssh = hybrid(h, (ax1[2], ax2[2]), "SS").values.real
            bound = float(np.mean(msf * smg * ssh))
            assert pairing <= bound + 1e-12


class TestShiftedParaproductBruteForce:
    def test_matches_direct_sum(self):
        from torusharmonics.dyadic import DyadicInterval
        from torusharmonics.squares import _alpha_offsets

        L8, K8 = 8, 4
        n_grid = 2**L8
        fams8 = (
            make_adapted_family("from_pou_1", K8, L8),
            make_adapted_family("from_pou_2", K8, L8),
            make_adapted_family("from_pou_1", K8, L8),
        )
        eps = EpsilonSequence.rademacher(3, range(1, K8 + 1))
        spec = ParaproductSpec(
            params=1,
            families=fams8,
            mean_slots=(3,),
            epsilon=eps,
            shifts=(1, 2),
            average_alpha=True,
            max_offsets=4,
        )
        rng = np.random.default_rng(4)
        f = GridFunction((L8,), rng.normal(size=n_grid))
        g = GridFunction((L8,), rng.normal(size=n_grid))
        out = paraproduct_1p(spec, f, g)

        direct = np.zeros(n_grid, dtype=complex)
        for k in range(1, K8 + 1):
            step = 2 ** (L8 - k)
            offsets = _alpha_offsets(step, 4)
            acc = np.zeros(n_grid, dtype=complex)
            for o in offsets:
                for j in range(2**k):
                    m1 = 2.0**-k * np.roll(
                        fams8[0].prototype_values(k), ((j + 1) * step + o) % n_grid
                    )
                    m2 = 2.0**-k * np.roll(
                        fams8[1].prototype_values(k), ((j + 2) * step + o) % n_grid
                    )
                    m3 = 2.0**-k * np.roll(
                        fams8[2].prototype_values(k), (j * step + o) % n_grid
                    )
                    c1 = inner_product(GridFunction((L8,), m1), f) * 2.0 ** (k / 2)
                    c2 = inner_product(GridFunction((L8,), m2), g) * 2.0 ** (k / 2)
                    acc += (
                        eps.at(k)[j]
                        * 2.0 ** (k / 2)
                        * c1
                        * c2
                        * (2.0 ** (k / 2) * m3)
                    )
            direct += acc / len(offsets)
        assert np.abs(out.values - direct).max() < 1e-10
