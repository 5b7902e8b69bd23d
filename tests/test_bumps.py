import numpy as np
import pytest

from torusharmonics import bumps
from torusharmonics.bumps import (
    AdaptedFamily,
    ConstructionError,
    DoubleBumpSystem,
    PlateauProfile,
    build_double_pou,
    build_pou,
    decompose_adapted,
    make_adapted_family,
    smooth_step,
    verify_adapted,
)
from torusharmonics.dyadic import DyadicInterval
from torusharmonics.grid import GridFunction, fourier_coefficients, inner_product

L = 10
K = 7


def periodized_from_samples(theta, k: int, log_size: int, periods: int = 5) -> GridFunction:
    """Directly periodize a scaled line function theta_k(x) = 2^k theta(2^k x).

    Used only as an independent cross-check of the spectral construction.
    """
    n = 2**log_size
    x = np.arange(n) / n
    total = np.zeros(n, dtype=np.complex128)
    for j in range(-periods, periods + 1):
        total += 2.0**k * np.asarray(theta(2.0**k * (x + j)))
    return GridFunction((log_size,), total)


@pytest.fixture(scope="module")
def pou():
    return build_pou(K, L)


@pytest.fixture(scope="module")
def fam1(pou):
    return pou[0]


class TestPlateau:
    def test_plateau_values(self):
        prof = PlateauProfile(-0.25, -0.125, 0.125, 0.25)
        assert prof(0.0) == 1.0
        assert prof(-0.25) == 0.0 and prof(0.25) == 0.0
        assert prof(0.3) == 0.0 and prof(-0.5) == 0.0

    def test_symmetry(self):
        prof = PlateauProfile(-0.25, -0.125, 0.125, 0.25)
        x = np.linspace(-0.3, 0.3, 101)
        assert np.abs(prof(x) - prof(-x)).max() < 1e-12

    def test_monotone_transitions(self):
        prof = PlateauProfile(0.0, 1.0, 2.0, 4.0)
        rise = prof(np.linspace(0, 1, 50))
        fall = prof(np.linspace(2, 4, 50))
        assert (np.diff(rise) >= -1e-15).all()
        assert (np.diff(fall) <= 1e-15).all()

    def test_ordering_violation(self):
        with pytest.raises(ValueError):
            PlateauProfile(0.0, 0.0, 1.0, 2.0)

    def test_smooth_step_range(self):
        x = np.linspace(-1, 2, 301)
        s = smooth_step(x)
        assert (s >= 0).all() and (s <= 1).all()
        assert s[0] == 0.0 and s[-1] == 1.0


class TestPartitionOfUnity:
    def test_telescoping_identity(self, pou):
        fam1, fam2 = pou
        band = 2 ** (K - 4)
        n = np.arange(-band, band + 1)
        total = np.zeros(n.shape)
        for k in range(1, K + 1):
            total = total + fam1.hat(k, n) * fam2.hat(k, -n)
        expected = (n != 0).astype(float)
        assert np.abs(total - expected).max() < 1e-10

    def test_grid_spectra_match_profiles(self, pou):
        fam1, _ = pou
        for k in (1, 4, K):
            s = fourier_coefficients(fam1.prototypes[k])
            freq = s.frequencies()
            assert np.abs(s.coefficients - fam1.hat(k, freq)).max() < 1e-10

    def test_support_annulus(self, pou):
        fam1, _ = pou
        for k in range(1, K + 1):
            s = fourier_coefficients(fam1.prototypes[k])
            freq = np.abs(s.frequencies())
            outside = (freq < 2 ** (k - 4)) | (freq > 2 ** (k - 2))
            assert np.abs(s.coefficients[outside]).max() < 1e-12

    def test_zero_mean(self, pou):
        for fam in pou:
            assert fam.check_zero_mean()

    def test_scale_ceiling(self):
        with pytest.raises(ValueError):
            build_pou(L - 2, L)


@pytest.fixture(scope="module")
def system():
    return build_double_pou(K, L)


class TestDoubleBumps:

    def test_triple_sum_identity(self, system):
        band = system.identity_band
        n1, n2 = np.meshgrid(np.arange(-band, band + 1), np.arange(-band, band + 1))
        total = system.triple_sum(n1, n2)
        expected = ((n1 != 0) | (n2 != 0)).astype(float)
        assert np.abs(total - expected).max() < 1e-9

    def test_wide_band_identity_spectral(self):
        # purely spectral check at a larger scale count than any grid carries
        system = build_double_pou(12, 15) if False else None
        # profiles alone: reuse hats from a legal build but extend k by hand
        sys_small = build_double_pou(K, L)
        band = 16
        ks = range(1, 13)
        n1, n2 = np.meshgrid(np.arange(-band, band + 1), np.arange(-band, band + 1))
        total = np.zeros(n1.shape)
        for a in (1, 2, 3):
            for k in ks:
                total += (
                    sys_small.hat_value(a, 1, k, n1)
                    * sys_small.hat_value(a, 2, k, n2)
                    * sys_small.hat_value(a, 3, k, -n1 - n2)
                )
        expected = ((n1 != 0) | (n2 != 0)).astype(float)
        assert np.abs(total - expected).max() < 1e-9

    def test_annulus_supports(self, system):
        for a in (1, 2, 3):
            for i in (1, 2, 3):
                if a == i:
                    continue
                for k in (2, 5, K):
                    s = fourier_coefficients(system.prototype(a, i, k))
                    freq = np.abs(s.frequencies())
                    outside = (freq < 2 ** (k - 10)) | (freq > 2 ** (k - 2))
                    assert np.abs(s.coefficients[outside]).max() < 1e-12, (a, i, k)

    def test_ball_supports(self, system):
        for a in (1, 2, 3):
            for k in (2, 5, K):
                s = fourier_coefficients(system.prototype(a, a, k))
                freq = np.abs(s.frequencies())
                outside = freq > 2 ** (k - 2)
                assert np.abs(s.coefficients[outside]).max() < 1e-12

    def test_gamma_absorption(self, system):
        # third-slot cutoff is exactly 1 wherever the first two products live
        k = 6
        band = 2**k
        n1, n2 = np.meshgrid(np.arange(-band, band + 1), np.arange(-band, band + 1))
        prod = system.hat_value(2, 1, k, n1) * system.hat_value(2, 2, k, n2)
        active = np.abs(prod) > 0
        gamma = system.hat_value(2, 3, k, -n1 - n2)
        assert np.abs(gamma[active] - 1.0).max() < 1e-12


class TestAdaptedFamilies:
    def test_member_translation(self, fam1):
        iv = DyadicInterval(3, 5)
        member = fam1.member(iv)
        base = fam1.member(DyadicInterval(3, 0))
        shift = 5 * 2 ** (L - 3)
        assert np.abs(member.values - np.roll(base.values, shift)).max() < 1e-15

    def test_l1_bound_uniform(self, fam1):
        # ||phi_I||_1 <= C |I| with a single C across scales; scales whose
        # annulus holds no integer frequency have identically-zero prototypes
        ratios = []
        for k in fam1.scales:
            iv = DyadicInterval(k, 0)
            member = fam1.member(iv)
            if np.abs(member.values).max() == 0.0:
                continue
            ratios.append(np.abs(member.values).mean() / iv.length)
        assert ratios and max(ratios) < 50.0
        assert max(ratios) < 4.0 * min(ratios)

    def test_zero_mean_members(self, fam1):
        for k in (1, 3, K):
            iv = DyadicInterval(k, 1 % 2**k)
            assert abs(fam1.member(iv).mean()) < 1e-12

    def test_l2_normalized_bounded(self, fam1):
        norms = []
        for k in fam1.scales:
            vals = fam1.normalized_member_values(DyadicInterval(k, 0))
            norms.append(np.sqrt(np.mean(np.abs(vals) ** 2)))
        assert max(norms) < 10.0

    def test_lower_bounded_floor(self):
        fam = make_adapted_family("lower_bounded", K, L)
        assert fam.floor is not None and fam.floor > 0
        for k in (1, 2, 4, K):
            iv = DyadicInterval(k, 3 % 2**k)
            member = np.abs(fam.member(iv).values)
            inside = iv.grid_slice(L)
            assert member[inside].min() >= fam.floor - 1e-12

    def test_lower_bounded_zero_mean(self):
        fam = make_adapted_family("lower_bounded", K, L)
        assert fam.check_zero_mean()

    @pytest.mark.parametrize("kind", ["from_pou_1", "from_pou_2", "lower_bounded"])
    def test_build_measures_no_decay_constants(self, kind, monkeypatch):
        # the decay constants are measured on demand, never while building
        def refuse(*args, **kwargs):
            raise AssertionError("verify_adapted ran while building a family")

        monkeypatch.setattr(bumps, "verify_adapted", refuse)
        fam = make_adapted_family(kind, 4, 7)
        assert list(fam.scales) == [1, 2, 3, 4]


class TestVerifyAdapted:
    def test_constants_finite_and_stable(self):
        fam_a = make_adapted_family("from_pou_1", K, L)
        fam_b = make_adapted_family("from_pou_1", K, L + 1)
        ca = verify_adapted(fam_a, 6)["C"]
        cb = verify_adapted(fam_b, 6)["C"]
        for m in range(1, 7):
            assert np.isfinite(ca[m]) and ca[m] > 0
            assert abs(cb[m] - ca[m]) / ca[m] < 0.05

    def test_translation_invariance(self, fam1):
        # constants are a property of the prototypes, hence of every member
        table = verify_adapted(fam1, 3)["C"]
        for k in (2, 5):
            iv = DyadicInterval(k, 7 % 2**k)
            member = np.abs(fam1.member(iv).values)
            x = np.arange(2**L) / 2**L
            d = np.minimum((x - (iv.left + iv.length)) % 1.0, (iv.left - x) % 1.0)
            d[iv.as_torus_interval().contains(x)] = 0.0
            for m in (1, 3):
                bound = table[m] * (1.0 + d / iv.length) ** (-m)
                assert (member <= bound + 1e-12).all()

    def test_peak_lower_bound(self, fam1):
        table = verify_adapted(fam1, 1)["C"]
        k = 4
        proto = np.abs(fam1.prototype_values(k))
        assert table[1] >= proto.max() * 2.0**-k - 1e-12


class TestPeriodizationTransfer:
    def test_spectral_equals_direct_periodization(self):
        # the spectral prototypes coincide with brute-force periodization of
        # the corresponding line functions summed over five periods
        Lp, Kp = 10, 7
        fam1, _ = build_pou(Kp, Lp)
        prof = PlateauProfile(-0.25, -0.125, 0.125, 0.25)

        # line bump whose transform is the scale-k hat profile: sample its
        # inverse transform by quadrature on a fine frequency mesh
        def theta(k):
            def evaluate(x):
                xi = np.linspace(-(2.0 ** (k - 2)), 2.0 ** (k - 2), 8193)
                hat = prof(xi * 2.0**-k) - prof(xi * 2.0 ** (-k + 1))
                # a trapezoid term between two zero samples vanishes: integrate
                # over each run of nonzero samples plus one zero on either side
                keep = np.convolve(hat != 0, np.ones(3), mode="same") > 0
                edges = np.flatnonzero(np.diff(np.concatenate([[0], keep, [0]])))
                runs = [slice(a, b) for a, b in zip(edges[0::2], edges[1::2])]
                x = np.asarray(x, dtype=float)
                out = np.zeros(x.shape, dtype=complex)
                for start in range(0, x.size, 256):
                    blk = x[start : start + 256]
                    for run in runs:
                        phases = np.exp(2j * np.pi * np.outer(blk, xi[run]))
                        out[start : start + 256] += np.trapezoid(
                            hat[None, run] * phases, xi[run], axis=1
                        )
                return out

            return evaluate

        # the exp(-1/x)-based bumps have Gevrey (sub-exponential) line decay
        # ~exp(-sqrt(2^k |x|)), so five periods reach 1e-8 relative agreement
        # at the top scale and ~1e-5 at scale 5
        for k, tol in ((7, 1e-8), (5, 1e-4)):
            direct = periodized_from_samples(theta(k), 0, Lp, periods=5)
            # theta already carries the scale, so compare against prototype
            proto = fam1.prototypes[k]
            assert np.abs(direct.values - proto.values).max() < tol * max(
                1.0, np.abs(proto.values).max()
            )


@pytest.fixture(scope="module")
def fam():
    return make_adapted_family("from_pou_1", K, L)


class TestDecomposition:

    def test_reconstruction(self, fam):
        iv = DyadicInterval(5, 9)
        pieces = decompose_adapted(fam, iv)
        total = sum(w * p.values for w, p in pieces)
        phi = fam.member_values(iv)
        assert np.abs(total - phi).max() < 1e-10

    def test_supports(self, fam):
        iv = DyadicInterval(5, 9)
        pieces = decompose_adapted(fam, iv)
        x = np.arange(2**L) / 2**L
        for k, (_, piece) in enumerate(pieces, start=1):
            if k >= iv.level:
                continue
            dil = 2.0**k * iv.length
            rel = np.abs((x - iv.center + 0.5) % 1.0 - 0.5)
            outside = rel > dil / 2.0
            assert np.abs(piece.values[outside]).max() == 0.0

    def test_first_piece_vanishes_outside_double(self, fam):
        iv = DyadicInterval(4, 3)
        _, piece = decompose_adapted(fam, iv)[0]
        x = np.arange(2**L) / 2**L
        rel = np.abs((x - iv.center + 0.5) % 1.0 - 0.5)
        outside = rel > iv.length
        assert np.abs(piece.values[outside]).max() == 0.0

    def test_mean_preserving(self, fam):
        iv = DyadicInterval(5, 9)
        pieces = decompose_adapted(fam, iv, preserve_mean=True)
        for _, piece in pieces:
            assert abs(piece.mean()) < 1e-12
        total = sum(w * p.values for w, p in pieces)
        assert np.abs(total - fam.member_values(iv)).max() < 1e-10

    def test_coarse_interval(self, fam):
        iv = DyadicInterval(1, 0)
        pieces = decompose_adapted(fam, iv)
        total = sum(w * p.values for w, p in pieces)
        assert np.abs(total - fam.member_values(iv)).max() < 1e-10
