import contextlib
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torusharmonics.multipliers as multipliers
from torusharmonics.grid import (
    GridFunction,
    Spectrum,
    fourier_coefficients,
    inverse_transform,
    lp_norm,
)
from torusharmonics.multipliers import (
    MultiplierSymbol,
    apply_1d,
    apply_bilinear,
    apply_biparameter,
    band_limit,
    reassembly_residual,
    symbol_coefficients,
    symbol_registry,
    trilinear_pairing_check,
    validate_symbol,
)

L = 9
N = 2**L
REG = symbol_registry()


def split_mean_term(m: MultiplierSymbol, f: GridFunction):
    """(m(0) f_hat(0) constant term, remainder operator output).

    Mirrors the reduction that assumes m vanishes at the origin.
    """
    spec = fourier_coefficients(f)
    m0 = complex(np.asarray(m(np.array([0]))).ravel()[0])
    mean_term = m0 * spec.coefficient(0)
    out = apply_1d(m, f)
    return mean_term, GridFunction(f.log_sizes, out.values - mean_term)


def random_band_limited(seed, band, log_size=L):
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(2**log_size, dtype=complex)
    idx = rng.integers(-band, band + 1, size=10)
    coeffs[idx % 2**log_size] = rng.normal(size=10) + 1j * rng.normal(size=10)
    coeffs[(2 ** (log_size - 1))] = 0.0
    return inverse_transform(Spectrum((log_size,), coeffs))


class TestApply1D:
    def test_identity_symbol(self):
        f = random_band_limited(0, N // 3)
        out = apply_1d(REG["constant"], f)
        assert np.abs(out.values - f.values).max() < 1e-10

    def test_hilbert_on_cosine(self):
        f = GridFunction.from_callable(lambda x: np.cos(2 * np.pi * x), (L,))
        out = apply_1d(REG["hilbert"], f)
        expect = np.sin(2 * np.pi * np.arange(N) / N)
        assert np.abs(out.values - expect).max() < 1e-12

    def test_mean_remover(self):
        f = random_band_limited(1, 16)
        out = apply_1d(REG["mean_remover"], f)
        mean = fourier_coefficients(f).coefficient(0)
        assert np.abs(out.values - (f.values - mean)).max() < 1e-10

    def test_linear(self):
        f, g = random_band_limited(2, 16), random_band_limited(3, 16)
        m = REG["hilbert"]
        out = apply_1d(m, f + g).values
        split = apply_1d(m, f).values + apply_1d(m, g).values
        assert np.abs(out - split).max() < 1e-12

    def test_split_mean_term(self):
        f = random_band_limited(4, 16) + GridFunction.constant(2.0, (L,))
        mean_term, rest = split_mean_term(REG["constant"], f)
        assert abs(mean_term - fourier_coefficients(f).coefficient(0)) < 1e-12
        assert abs(fourier_coefficients(rest).coefficient(0)) < 1e-12


class TestBilinear:
    def test_constant_is_product(self):
        f = random_band_limited(5, N // 8)
        g = random_band_limited(6, N // 8)
        out = apply_bilinear(REG["bilinear_constant"], f, g)
        assert np.abs(out.values - f.values * g.values).max() < 1e-10

    def test_single_mode_ratio(self):
        e1 = GridFunction.from_callable(lambda x: np.exp(2j * np.pi * x), (L,))
        out = apply_bilinear(REG["ratio_x2"], e1, e1)
        expect = 0.5 * np.exp(4j * np.pi * np.arange(N) / N)
        assert np.abs(out.values - expect).max() < 1e-12

    def test_bilinear_in_each_slot(self):
        m = REG["ratio_xy"]
        f1, f2, g = (random_band_limited(s, N // 8) for s in (7, 8, 9))
        lhs = apply_bilinear(m, f1 + f2, g).values
        rhs = apply_bilinear(m, f1, g).values + apply_bilinear(m, f2, g).values
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_aliasing_guard(self):
        f = random_band_limited(10, N // 2 - 2)
        with pytest.raises(ValueError):
            apply_bilinear(REG["bilinear_constant"], f, f)
        ok = band_limit(f, N // 4)
        apply_bilinear(REG["bilinear_constant"], ok, ok)


class TestBiparameter:
    def test_constant_is_product(self):
        rng = np.random.default_rng(11)
        base1 = np.zeros((64, 64), dtype=complex)
        base1[:3, :3] = rng.normal(size=(3, 3))
        f = inverse_transform(Spectrum((6, 6), base1))
        base2 = np.zeros((64, 64), dtype=complex)
        base2[:2, :4] = rng.normal(size=(2, 4))
        g = inverse_transform(Spectrum((6, 6), base2))
        out = apply_biparameter(REG["biparameter_constant"], f, g)
        assert np.abs(out.values - f.values * g.values).max() < 1e-10

    def test_product_symbol_factorizes(self):
        # product symbol on separable inputs = tensor of the 1D operators
        rng = np.random.default_rng(12)

        def mode(log_size, idx, c):
            coeffs = np.zeros(2**log_size, dtype=complex)
            for i, v in zip(idx, c):
                coeffs[i % 2**log_size] = v
            return inverse_transform(Spectrum((log_size,), coeffs))

        f1 = mode(6, [1, -2], rng.normal(size=2))
        f2 = mode(6, [3], rng.normal(size=1))
        g1 = mode(6, [2], rng.normal(size=1))
        g2 = mode(6, [-1, 4], rng.normal(size=2))
        f = GridFunction((6, 6), np.outer(f1.values, f2.values))
        g = GridFunction((6, 6), np.outer(g1.values, g2.values))
        out = apply_biparameter(REG["biparameter_product"], f, g)
        part1 = apply_bilinear(REG["ratio_x2"], f1, g1)
        part2 = apply_bilinear(REG["ratio_xy"], f2, g2)
        expect = np.outer(part1.values, part2.values)
        assert np.abs(out.values - expect).max() < 1e-10

    def test_single_modes(self):
        def mode2(n):
            coeffs = np.zeros((64, 64), dtype=complex)
            coeffs[n[0] % 64, n[1] % 64] = 1.0
            return inverse_transform(Spectrum((6, 6), coeffs))

        f = mode2((1, 2))
        g = mode2((2, -1))
        m = REG["biparameter_product"]
        out = apply_biparameter(m, f, g)
        scalar = complex(np.asarray(m(1, 2, 2, -1)).ravel()[0])
        x = np.arange(64) / 64
        expect = scalar * np.exp(2j * np.pi * (3 * x[:, None] + 1 * x[None, :]))
        assert np.abs(out.values - expect).max() < 1e-10


def per_s_lattice_spectrum(m, f, g, band):
    """The lattice sum with one symbol call per first-slot frequency s on the
    full t mesh, the box read from an fftshift copy: the loop the slab
    scatter replaced, kept as its oracle."""

    def box(h):
        centered = np.fft.fftshift(multipliers.fourier_coefficients(h).coefficients)
        return centered[tuple(slice(n // 2 - band, n // 2 + band + 1) for n in h.sizes)]

    fbox, gbox = box(f), box(g)
    t = np.meshgrid(*[np.arange(-band, band + 1)] * f.dims, indexing="ij")
    padded = np.zeros((4 * band + 1,) * f.dims, dtype=complex)
    for idx in itertools.product(range(2 * band + 1), repeat=f.dims):
        fc = fbox[idx]
        if fc == 0.0:
            continue
        s = [i - band for i in idx]
        padded[tuple(slice(i, i + 2 * band + 1) for i in idx)] += m(*s, *t) * fc * gbox
    out = np.zeros(f.sizes, dtype=complex)
    fold = [np.arange(-2 * band, 2 * band + 1) % n for n in f.sizes]
    np.add.at(out, np.ix_(*fold), padded)
    return out


@contextlib.contextmanager
def prescribed_spectra(*spectra):
    """Grid functions whose coefficients, as the lattice sum and its oracle
    read them, are exactly ``spectra``: an FFT round trip would fill the
    exact zeros of a box with round-off."""
    funcs = [inverse_transform(spec) for spec in spectra]
    table = {id(h): spec for h, spec in zip(funcs, spectra)}
    real = multipliers.fourier_coefficients
    with mock.patch.object(
        multipliers, "fourier_coefficients", lambda h: table[id(h)] if id(h) in table else real(h)
    ):
        yield funcs


def _box_spectrum(log_size, dims, band, box):
    """The spectrum with ``box`` at -band..band per axis and zeros elsewhere."""
    n = 2**log_size
    coeffs = np.zeros((n,) * dims, dtype=complex)
    coeffs[np.ix_(*[np.arange(-band, band + 1) % n] * dims)] = box
    return Spectrum((log_size,) * dims, coeffs)


def _band_limited_2d(seed, band, log_size=6):
    rng = np.random.default_rng(seed)
    n = 2**log_size
    coeffs = np.zeros((n, n), dtype=complex)
    idx = rng.integers(-band, band + 1, size=(40, 2)) % n
    coeffs[idx[:, 0], idx[:, 1]] = rng.normal(size=40) + 1j * rng.normal(size=40)
    return inverse_transform(Spectrum((log_size, log_size), coeffs))


class TestSlabbedLatticeSpectrum:
    """The symbol is called once per slab of first-slot frequencies; every
    add into the padded spectrum keeps its order, so the sum is bit-identical
    to the per-s loop."""

    @pytest.mark.parametrize("slab", [1, 7, multipliers._SLAB])
    @pytest.mark.parametrize("name", ["bilinear_constant", "ratio_x2", "ratio_xy"])
    def test_1d_equals_per_s_loop(self, monkeypatch, slab, name):
        monkeypatch.setattr(multipliers, "_SLAB", slab)
        f, g = random_band_limited(31, N // 4), random_band_limited(32, N // 4)
        got = multipliers._lattice_spectrum(REG[name], f, g, N // 4)
        assert np.array_equal(got, per_s_lattice_spectrum(REG[name], f, g, N // 4))

    @pytest.mark.parametrize("slab", [1, 7, multipliers._SLAB])
    @pytest.mark.parametrize("name", ["biparameter_product", "biparameter_constant"])
    def test_2d_equals_per_s_loop(self, monkeypatch, slab, name):
        monkeypatch.setattr(multipliers, "_SLAB", slab)
        f, g = _band_limited_2d(33, 8), _band_limited_2d(34, 8)
        got = multipliers._lattice_spectrum(REG[name], f, g, 8)
        assert np.array_equal(got, per_s_lattice_spectrum(REG[name], f, g, 8))

    @pytest.mark.parametrize("slab", [1, 7, multipliers._SLAB])
    def test_scalar_symbol_is_broadcast(self, monkeypatch, slab):
        # the trilinear check's constant symbol returns one float
        monkeypatch.setattr(multipliers, "_SLAB", slab)
        f, g = _band_limited_2d(35, 8), _band_limited_2d(36, 8)
        got = multipliers._lattice_spectrum(lambda *st: 1.0, f, g, 8)
        assert np.array_equal(got, per_s_lattice_spectrum(lambda *st: 1.0, f, g, 8))

    def test_calls_per_slab(self, monkeypatch):
        monkeypatch.setattr(multipliers, "_SLAB", 7 * 17**2)
        f, g = _band_limited_2d(37, 8), _band_limited_2d(38, 8)
        calls = []
        symbol = REG["biparameter_product"]
        multipliers._lattice_spectrum(lambda *st: calls.append(1) or symbol(*st), f, g, 8)
        nonzero = int(np.count_nonzero(multipliers._band_box(fourier_coefficients(f), 8)))
        assert len(calls) == -(-nonzero // 7)


class TestOrderedScatter:
    """The sparse symbol grid, the slab buffer and the one ordered scatter
    per slab give the per-s loop's sum bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([1, 2]),
        st.integers(1, 8),
        st.sampled_from(["all zero", "single", "random"]),
        st.sampled_from(["one", "seven", "ragged"]),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    def test_equals_per_s_loop(self, dims, band, pattern, slab, seed, data):
        rng = np.random.default_rng(seed)
        side = 2 * band + 1
        names = ["bilinear_constant", "ratio_x2", "ratio_xy"] if dims == 1 else [
            "biparameter_product", "biparameter_constant"]
        name = data.draw(st.sampled_from(names + ["scalar"]))
        m = (lambda *args: 1.0) if name == "scalar" else REG[name]
        shape = (side,) * dims
        fbox = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        if pattern == "all zero":
            fbox[...] = 0.0
        elif pattern == "single":
            keep = tuple(rng.integers(0, side, size=dims))
            single = np.zeros(shape, dtype=complex)
            single[keep] = fbox[keep]
            fbox = single
        else:
            fbox[rng.random(shape) > data.draw(st.floats(0.0, 1.0))] = 0.0
        gbox = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        # one s per slab, a few s per slab, and a slab the box does not divide
        slab_size = {"one": 1, "seven": 7, "ragged": 3 * side**dims + 2}[slab]
        with prescribed_spectra(
            _box_spectrum(5, dims, band, fbox), _box_spectrum(5, dims, band, gbox)
        ) as (f, g), mock.patch.object(multipliers, "_SLAB", slab_size):
            got = multipliers._lattice_spectrum(m, f, g, band)
            want = per_s_lattice_spectrum(m, f, g, band)
        assert np.array_equal(got, want)

    def test_terms_reach_each_frequency_in_s_order(self, monkeypatch):
        # u = 0 gets 2^53 from s = -1, then 1 from s = 0, then -2^53 from
        # s = 1: in that order 2^53 + 1 rounds to 2^53 and the sum is 0,
        # while summing the last two first, or in reverse, gives 1.  Two s
        # per slab put s = 0 and s = 1 in one slab after s = -1.
        big = 2.0**53
        band = 2
        fbox = np.zeros(5, dtype=complex)
        fbox[[0, 1, 2, 3]] = [1.0, big, 1.0, -big]  # s = -2, -1, 0, 1
        gbox = np.zeros(5, dtype=complex)
        gbox[[1, 2, 3]] = 1.0  # t = -1, 0, 1; g_hat(2) = 0, so s = -2 adds 0 at u = 0
        monkeypatch.setattr(multipliers, "_SLAB", 2 * 5)
        fspec, gspec = _box_spectrum(5, 1, band, fbox), _box_spectrum(5, 1, band, gbox)
        with prescribed_spectra(fspec, gspec) as (f, g):
            got = multipliers._lattice_spectrum(REG["bilinear_constant"], f, g, band)
            want = per_s_lattice_spectrum(REG["bilinear_constant"], f, g, band)
        assert np.array_equal(got, want)
        assert got[0] == 0.0
        # the reordered sums
        assert big + (1.0 - big) == 1.0 and (-big + 1.0) + big == 1.0


class TestSymbolContract:
    """The lattice sum calls a symbol on a sparse grid; every registered
    two-slot symbol gives the full mesh's values there."""

    @pytest.mark.parametrize("name", [name for name, m in REG.items() if m.arity == 2])
    def test_sparse_grid_values_equal_full_mesh(self, name):
        m = REG[name]
        axes = [np.arange(-9, 10) + 3 * a for a in range(m.lattice_dim)]
        full = m(*np.meshgrid(*axes, indexing="ij"))
        sparse = m(*np.meshgrid(*axes, indexing="ij", sparse=True))
        assert np.array_equal(np.broadcast_to(sparse, full.shape), full)


class TestBandCheck:
    def test_non_finite_sample_is_rejected(self):
        f = _band_limited_2d(40, 8)
        values = np.array(f.values)
        values[3, 5] = np.nan
        with pytest.raises(ValueError, match="first input: 1 of 4096 samples are NaN or infinite"):
            apply_biparameter(REG["biparameter_product"], GridFunction((6, 6), values), f, band=8)

    def test_negative_band_is_rejected_by_apply_biparameter(self):
        f = _band_limited_2d(41, 8)
        with pytest.raises(ValueError, match="band must be >= 0"):
            apply_biparameter(REG["biparameter_product"], f, f, band=-1)

    def test_negative_band_is_rejected_by_band_limit(self):
        with pytest.raises(ValueError, match="band must be >= 0"):
            band_limit(random_band_limited(42, 16), -1)


class TestValidate:
    def test_constant_symbol(self):
        report = validate_symbol(REG["constant"], probe_radius=32)
        assert report.passed
        for alpha, c in report.constants.items():
            if sum(alpha) > 0:
                assert c < 1e-12

    def test_hilbert_locally_constant(self):
        report = validate_symbol(REG["hilbert"], probe_radius=32)
        assert report.passed
        assert report.constants[(1,)] < 1e-12  # differences vanish off 0

    def test_oscillatory_stable_under_radius(self):
        r1 = validate_symbol(REG["oscillatory"], probe_radius=32)
        r2 = validate_symbol(REG["oscillatory"], probe_radius=64)
        assert r1.passed and r2.passed
        for order in range(1, 5):
            a, b = r1.constants[(order,)], r2.constants[(order,)]
            assert b < 2.0 * max(a, 1e-12) + 1e-12

    def test_registry_all_pass(self):
        for name, sym in symbol_registry().items():
            radius = 16 if sym.lattice_dim == 4 else 32
            report = validate_symbol(sym, probe_radius=radius, max_order=2)
            assert report.passed, name

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            validate_symbol(REG["constant"], probe_radius=8)


class TestSymbolCoefficients:
    def test_constant_mass_independent_of_scale(self):
        masses = []
        for k in (3, 5, 7):
            table = symbol_coefficients(REG["constant"], k)
            idx = np.nonzero(table.frequencies == 0)[0][0]
            masses.append(table.table[idx].real)
        assert np.abs(np.diff(masses)).max() < 1e-6

    def test_decay_uniform_over_scales(self):
        for name in ("hilbert", "oscillatory"):
            worst = []
            for k in range(1, 8):
                table = symbol_coefficients(REG[name], k, n_max=200)
                tail = np.abs(table.frequencies) >= 4
                worst.append(table.decay_products()[tail].max())
            lo, hi = min(worst), max(worst)
            assert hi < 2.0 * lo + 1e-9, name

    def test_reassembly_on_annulus(self):
        for name in ("hilbert", "oscillatory"):
            for k in (5, 7):
                coeffs = symbol_coefficients(REG[name], k)
                lo, hi = 2 ** (k - 4), 2 ** (k - 2)
                annulus = np.concatenate(
                    [np.arange(lo, hi + 1), -np.arange(lo, hi + 1)]
                )
                res = reassembly_residual(REG[name], coeffs, annulus)
                assert res < 1e-6, (name, k, res)

    def test_bilinear_block_uniform_and_decaying(self):
        # the decay constant is large (it scales with inverse transition
        # widths) but uniform in k; the tail must genuinely decay
        for a in (1, 2, 3):
            peaks, tails = [], []
            for k in (2, 4, 6):
                table = symbol_coefficients(REG["ratio_x2"], k, block=a)
                f = np.abs(table.frequencies)
                absc = np.abs(table.table)
                peaks.append(absc.max())
                far = (f[:, None] >= 400) | (f[None, :] >= 400)
                tails.append(absc[far].max())
            assert max(peaks) < 2.0 * min(peaks) + 1e-12
            assert max(tails) < 2.0 * min(tails) + 1e-12
            assert max(tails) < 1e-2 * max(peaks)


class TestTrilinear:
    def test_single_modes(self):
        e = GridFunction.from_callable(lambda x: np.exp(2j * np.pi * x), (L,))
        em2 = GridFunction.from_callable(lambda x: np.exp(-4j * np.pi * x), (L,))
        lattice, integral, gap = trilinear_pairing_check(e, e, em2)
        assert abs(lattice - 1.0) < 1e-12
        assert abs(integral - 1.0) < 1e-12

    def test_random_band_limited(self):
        f = random_band_limited(13, N // 8)
        g = random_band_limited(14, N // 8)
        h = random_band_limited(15, N // 8)
        _, _, gap = trilinear_pairing_check(f, g, h)
        assert gap < 1e-10

    def test_constant_h_reduces_to_parseval(self):
        f = random_band_limited(16, N // 8)
        g = random_band_limited(17, N // 8)
        one = GridFunction.constant(1.0, (L,))
        lattice, integral, gap = trilinear_pairing_check(f, g, one)
        assert gap < 1e-10
        direct = (f * g).mean()
        assert abs(integral - direct) < 1e-12


class TestEmpericalBounds:
    def test_marcinkiewicz_lp_ratios_bounded(self):
        rng = np.random.default_rng(18)
        m = REG["hilbert"]
        for p in (1.5, 2.0, 3.0):
            worst = 0.0
            for seed in range(10):
                f = random_band_limited(100 + seed, N // 4)
                out = apply_1d(m, f)
                worst = max(worst, lp_norm(out, p) / lp_norm(f, p))
            assert worst < 4.0

    def test_cm_holder_ratios_bounded(self):
        m = REG["ratio_x2"]
        for p1, p2, p in ((2.0, 2.0, 1.0), (4.0, 4.0, 2.0), (3.0, 1.5, 1.0)):
            worst = 0.0
            for seed in range(8):
                f = random_band_limited(200 + seed, N // 8)
                g = random_band_limited(300 + seed, N // 8)
                out = apply_bilinear(m, f, g)
                worst = max(
                    worst, lp_norm(out, p) / (lp_norm(f, p1) * lp_norm(g, p2))
                )
            assert worst < 6.0


class TestResolutionStability:
    def test_marcinkiewicz_ratios_stable(self):
        # Lp ratios of the linear operators stay put when the grid doubles
        from torusharmonics.corpus import corpus_descriptors

        descriptors = corpus_descriptors(21, n_trig=4, n_indicator=4, n_spike=2)
        m = REG["hilbert"]
        for p in (1.5, 2.0, 3.0):
            constants = {}
            for log_size in (9, 10):
                worst = 0.0
                for d in descriptors:
                    f = d.sample(log_size)
                    out = apply_1d(m, f)
                    worst = max(worst, lp_norm(out, p) / lp_norm(f, p))
                constants[log_size] = worst
            drift = abs(constants[10] - constants[9]) / constants[9]
            assert drift < 0.10, (p, constants)
