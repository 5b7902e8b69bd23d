import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusharmonics.grid import (
    GridFunction,
    NormSpec,
    Spectrum,
    convolve,
    fourier_coefficients,
    inner_product,
    inverse_transform,
    lp_norm,
    norm,
    weak_lp_norm,
)

L = 8
N = 2**L


def exp_mode(n, log_size=L):
    return GridFunction.from_callable(lambda x: np.exp(2j * np.pi * n * x), (log_size,))


def indicator(a, b, log_size=L):
    return GridFunction.from_callable(
        lambda x: ((x >= a) & (x < b)).astype(complex), (log_size,)
    )


class TestFourier:
    def test_single_mode(self):
        s = fourier_coefficients(exp_mode(1))
        assert abs(s.coefficient(1) - 1.0) < 1e-12
        others = np.abs(s.coefficients.copy())
        others[1] = 0.0
        assert others.max() < 1e-12

    def test_cosine(self):
        f = GridFunction.from_callable(lambda x: np.cos(2 * np.pi * x), (L,))
        s = fourier_coefficients(f)
        assert abs(s.coefficient(1) - 0.5) < 1e-12
        assert abs(s.coefficient(-1) - 0.5) < 1e-12

    def test_constant(self):
        s = fourier_coefficients(GridFunction.constant(3.5, (L,)))
        assert abs(s.coefficient(0) - 3.5) < 1e-12
        assert np.abs(s.coefficients[1:]).max() < 1e-12

    def test_inverse_single_mode(self):
        f = inverse_transform(Spectrum.from_modes({1: 1.0}, (L,)))
        expected = exp_mode(1)
        assert np.abs(f.values - expected.values).max() < 1e-12

    def test_inverse_constant(self):
        f = inverse_transform(Spectrum.from_modes({0: 3.0}, (L,)))
        assert np.abs(f.values - 3.0).max() < 1e-12

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        coeffs = rng.normal(size=N) + 1j * rng.normal(size=N)
        s = Spectrum((L,), coeffs)
        back = fourier_coefficients(inverse_transform(s))
        assert np.abs(back.coefficients - s.coefficients).max() < 1e-12 * np.abs(
            s.coefficients
        ).max()

    def test_round_trip_2d(self):
        rng = np.random.default_rng(2)
        vals = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        f = GridFunction((4, 4), vals)
        back = inverse_transform(fourier_coefficients(f))
        assert np.abs(back.values - f.values).max() < 1e-12 * np.abs(f.values).max()

    def test_parseval_random(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            vals = rng.normal(size=N) + 1j * rng.normal(size=N)
            f = GridFunction((L,), vals)
            s = fourier_coefficients(f)
            lhs = np.mean(np.abs(vals) ** 2)
            rhs = np.sum(np.abs(s.coefficients) ** 2)
            assert abs(lhs - rhs) < 1e-10 * lhs


class TestConvolve:
    def test_mode_squared(self):
        f = exp_mode(1)
        out = convolve(f, f)
        assert np.abs(out.values - f.values).max() < 1e-12

    def test_convolve_with_constant(self):
        f = indicator(0.0, 0.25)
        out = convolve(f, GridFunction.constant(1.0, (L,)))
        mean = fourier_coefficients(f).coefficient(0)
        assert np.abs(out.values - mean).max() < 1e-12

    def test_against_direct_sum(self):
        f = indicator(0.0, 0.5)
        direct = np.zeros(N, dtype=complex)
        fv = f.values
        for i in range(N):
            direct[i] = np.sum(fv * np.roll(fv[::-1], i + 1)) / N
        out = convolve(f, f)
        assert np.abs(out.values - direct).max() < 1e-10

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            convolve(indicator(0, 0.5, 8), indicator(0, 0.5, 9))


class TestInnerProduct:
    def test_self(self):
        assert abs(inner_product(exp_mode(1), exp_mode(1)) - 1.0) < 1e-12

    def test_orthogonality(self):
        assert abs(inner_product(exp_mode(1), exp_mode(2))) < 1e-12

    def test_indicator_against_one(self):
        val = inner_product(indicator(0.0, 0.5), GridFunction.constant(1.0, (L,)))
        assert abs(val - 0.5) < 1e-12

    def test_plancherel(self):
        rng = np.random.default_rng(4)
        f = GridFunction((L,), rng.normal(size=N) + 1j * rng.normal(size=N))
        g = GridFunction((L,), rng.normal(size=N) + 1j * rng.normal(size=N))
        sf, sg = fourier_coefficients(f), fourier_coefficients(g)
        spectral = np.sum(sf.coefficients * np.conj(sg.coefficients))
        assert abs(inner_product(f, g) - spectral) < 1e-12 * abs(spectral)


class TestNorms:
    def test_constant_all_norms(self):
        f = GridFunction.constant(1.0, (L,))
        for spec in [NormSpec.lp(1), NormSpec.lp(2), NormSpec.lp(4), NormSpec.linf()]:
            assert abs(norm(f, spec) - 1.0) < 1e-12

    def test_indicator_l2(self):
        f = indicator(0.0, 0.5)
        assert abs(norm(f, NormSpec.lp(2)) - 2**-0.5) < 1e-12

    def test_indicator_weak(self):
        f = indicator(0.0, 0.25)
        for p in (1.0, 1.5, 2.0):
            assert abs(norm(f, NormSpec.weak(p)) - 0.25 ** (1 / p)) < 1e-12

    def test_weak_below_strong(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            f = GridFunction((L,), rng.normal(size=N))
            for p in (1.0, 1.5, 2.0, 4.0):
                assert weak_lp_norm(f, p) <= lp_norm(f, p) + 1e-12

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.floats(min_value=0, max_value=10), min_size=16, max_size=16),
        st.sampled_from([1.0, 1.5, 2.0, 4.0]),
    )
    def test_monotone(self, vals, p):
        vals = np.array(vals)
        f = GridFunction((4,), vals)
        g = GridFunction((4,), vals + 0.5)
        for spec in [NormSpec.lp(p), NormSpec.weak(p), NormSpec.linf()]:
            assert norm(f, spec) <= norm(g, spec) + 1e-12

    def test_weak_norm_propagates_nan(self):
        vals = np.ones(16)
        vals[3] = np.nan
        assert np.isnan(weak_lp_norm(GridFunction((4,), vals), 1.0))

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            NormSpec("Lp", -1.0)
        with pytest.raises(ValueError):
            NormSpec("bogus")


class TestGridFunction:
    def test_rejects_small_grid(self):
        with pytest.raises(ValueError):
            GridFunction((3,), np.zeros(8))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            GridFunction((4,), np.zeros(15))

    def test_values_immutable(self):
        f = GridFunction.constant(1.0, (4,))
        with pytest.raises(ValueError):
            f.values[0] = 2.0
