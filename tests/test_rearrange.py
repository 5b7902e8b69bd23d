import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rearrange_oracles as oracle
from torusharmonics.corpus import generate_corpus
from torusharmonics.grid import GridFunction, lp_norm, weak_lp_norm
from torusharmonics.rearrange import (
    RearrangementCurve,
    StepProfile,
    _PiecewiseStarCurve,
    kolmogorov_functional,
    lorentz_norm,
    n_star,
    optimal_l1_linf_split,
    rearrangement,
    star_curve,
    two_star,
    zygmund_norm,
)

L = 10
N = 2**L


def indicator(a, b, log_size=L):
    return GridFunction.from_callable(
        lambda x: ((x >= a) & (x < b)).astype(complex), (log_size,)
    )


def random_functions(count, seed=0, log_size=L):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        kind = rng.integers(0, 3)
        if kind == 0:
            out.append(GridFunction((log_size,), rng.normal(size=2**log_size)))
        elif kind == 1:
            out.append(
                GridFunction((log_size,), rng.normal(size=2**log_size) ** 3)
            )
        else:
            vals = np.zeros(2**log_size)
            for _ in range(int(rng.integers(1, 5))):
                a, b = np.sort(rng.integers(0, 2**log_size, size=2))
                vals[a:b] += rng.uniform(0.5, 3.0)
            out.append(GridFunction((log_size,), vals))
    return out


class TestRearrangement:
    def test_two_level_function(self):
        f = GridFunction(
            (L,), 3.0 * indicator(0.0, 0.25).values + 1.0 * indicator(0.5, 0.75).values
        )
        prof = rearrangement(f)
        assert np.allclose(prof.breakpoints, [0.25, 0.5])
        assert np.allclose(prof.values, [3.0, 1.0])

    def test_constant(self):
        prof = rearrangement(GridFunction.constant(2.0, (L,)))
        assert np.allclose(prof.breakpoints, [1.0]) and np.allclose(prof.values, [2.0])

    def test_lp_equality(self):
        for f in random_functions(10, seed=1):
            prof = rearrangement(f)
            for p in (1.0, 2.0, 4.0):
                assert abs(prof.lp_norm(p) - lp_norm(f, p)) < 1e-12 * max(
                    1.0, lp_norm(f, p)
                )

    def test_equimeasurable(self):
        for f in random_functions(10, seed=2):
            prof = rearrangement(f)
            absvals = np.abs(f.values)
            for lam in prof.values:
                assert abs(prof.measure_above(lam) - np.mean(absvals > lam)) < 1e-15
                # also just below the breakpoint value
                lam_minus = lam * (1 - 1e-12)
                assert (
                    abs(prof.measure_above(lam_minus) - np.mean(absvals > lam_minus))
                    < 1e-15
                )

    def test_nan_sample_is_rejected(self):
        vals = np.ones(16)
        vals[3] = np.nan
        with pytest.raises(ValueError, match="1 of 16 samples are NaN"):
            rearrangement(GridFunction((4,), vals))

    def test_subadditive(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            f = GridFunction((L,), rng.normal(size=N))
            g = GridFunction((L,), rng.normal(size=N))
            pf, pg = rearrangement(f), rearrangement(g)
            pfg = rearrangement(f + g)
            for t1 in (0.05, 0.2, 0.4):
                for t2 in (0.05, 0.2, 0.4):
                    lhs = pfg(np.array([t1 + t2]))[0]
                    rhs = pf(np.array([t1]))[0] + pg(np.array([t2]))[0]
                    assert lhs <= rhs + 1e-12


class TestTwoStar:
    def test_indicator(self):
        prof = rearrangement(indicator(0.0, 0.25))
        f2 = two_star(prof)
        t = np.array([0.1, 0.25, 0.5, 1.0])
        expect = np.where(t <= 0.25, 1.0, 0.25 / t)
        assert np.abs(f2(t) - expect).max() < 1e-14

    def test_constant_fixed_point(self):
        prof = rearrangement(GridFunction.constant(1.0, (L,)))
        for order in (2, 3, 5):
            curve = n_star(prof, order)
            assert np.abs(curve.samples - 1.0).max() < 1e-12

    def test_sublinear(self):
        rng = np.random.default_rng(4)
        t = np.linspace(0.01, 1.0, 57)
        for _ in range(5):
            f = GridFunction((L,), rng.normal(size=N))
            g = GridFunction((L,), rng.normal(size=N))
            sf = two_star(rearrangement(f))(t)
            sg = two_star(rearrangement(g))(t)
            sfg = two_star(rearrangement(f + g))(t)
            assert (sfg <= sf + sg + 1e-10).all()

    def test_dominates_profile(self):
        for f in random_functions(5, seed=5):
            prof = rearrangement(f)
            t = np.linspace(0.01, 1.0, 100)
            assert (two_star(prof)(t) >= prof(t) - 1e-12).all()


class TestNStar:
    def test_monotone_in_order(self):
        for f in random_functions(5, seed=6):
            prof = rearrangement(f)
            t = np.logspace(-5, 0, 64)
            prev = star_curve(prof, 2).evaluate(t)
            for order in (3, 4, 5):
                cur = star_curve(prof, order).evaluate(t)
                assert (cur >= prev - 1e-12).all()
                prev = cur

    def test_nonincreasing_samples(self):
        for f in random_functions(3, seed=7):
            curve = n_star(rearrangement(f), 3)
            assert (np.diff(curve.samples) <= 1e-12).all()

    def test_order_validation(self):
        prof = rearrangement(indicator(0, 0.5))
        with pytest.raises(ValueError):
            n_star(prof, 1)

    def test_matches_numeric_quadrature(self):
        # independent check of the closed-form star iterates: trapezoid
        # integration of the previous order on a fine log grid
        prof = rearrangement(
            GridFunction((L,), np.random.default_rng(8).normal(size=N) ** 2)
        )
        t = np.logspace(-4, 0, 3000)
        f2 = star_curve(prof, 2).evaluate(t)
        f3 = star_curve(prof, 3).evaluate(t)
        for ti in (0.01, 0.1, 0.5, 1.0):
            mask = t <= ti
            # trapezoid over (0, ti]: prepend the limiting value at 0+
            ts = np.concatenate([[0.0], t[mask], [ti]])
            ys = np.concatenate([[f2[0]], f2[mask], [star_curve(prof, 2).evaluate(np.array([ti]))[0]]])
            approx = np.trapezoid(ys, ts) / ti
            exact = f3[np.searchsorted(t, ti)] if ti < 1.0 else f3[-1]
            exact = star_curve(prof, 3).evaluate(np.array([ti]))[0]
            assert abs(approx - exact) < 2e-3 * max(1.0, exact)


class TestZygmund:
    def test_norm_of_one_is_one(self):
        f = GridFunction.constant(1.0, (L,))
        for n in range(0, 5):
            for method in ("closed_form", "iterated"):
                assert abs(zygmund_norm(f, n, method) - 1.0) < 1e-6

    def test_log_moment_identity(self):
        # int_0^1 log^n(1/t) dt = n!, via quadrature as an independent oracle
        t = np.linspace(1e-9, 1.0, 400001)
        for n in range(1, 5):
            quad = np.trapezoid(np.log(1.0 / t) ** n, t)
            assert abs(quad - math.factorial(n)) < 1e-2 * math.factorial(n)

    def test_indicator_closed_form(self):
        for frac in (0.25, 0.0625):
            f = indicator(0.0, frac)
            expect = frac * (1.0 + math.log(1.0 / frac))
            assert abs(zygmund_norm(f, 1, "closed_form") - expect) < 1e-10
            assert abs(zygmund_norm(f, 1, "iterated") - expect) < 1e-10

    def test_n_zero_is_l1(self):
        for f in random_functions(5, seed=9):
            assert abs(zygmund_norm(f, 0) - lp_norm(f, 1)) < 1e-12

    def test_two_paths_agree(self):
        for f in random_functions(8, seed=10):
            for n in (1, 2, 3, 4):
                a = zygmund_norm(f, n, "closed_form")
                b = zygmund_norm(f, n, "iterated")
                assert abs(a - b) <= 5e-3 * max(a, 1e-12)

    def test_embedding_chain(self):
        for f in random_functions(8, seed=11):
            n1 = lp_norm(f, 1)
            z1 = zygmund_norm(f, 1)
            z2 = zygmund_norm(f, 2)
            assert n1 <= z1 + 1e-12 <= z2 + 1e-10

    def test_hardy_inequality_on_curves(self):
        # ||f^(*,n+1)||_p <= p' ||f^(*,n)||_p on the sampled curves
        t = np.logspace(-6, 0, 4096)
        weights = np.diff(np.concatenate([[0.0], t]))
        for f in random_functions(4, seed=12):
            prof = rearrangement(f)
            for p in (1.5, 2.0, 3.0):
                pprime = p / (p - 1.0)
                for order in (1, 2, 3):
                    a = star_curve(prof, order).evaluate(t)
                    b = star_curve(prof, order + 1).evaluate(t)
                    na = (np.sum(a**p * weights)) ** (1 / p)
                    nb = (np.sum(b**p * weights)) ** (1 / p)
                    assert nb <= pprime * na * (1 + 1e-6)


class TestLorentz:
    def test_indicator_closed_form(self):
        f = indicator(0.0, 0.25)
        for p, q in ((2.0, 1.0), (2.0, 2.0), (1.5, 3.0)):
            expect = (p / q) ** (1 / q) * 0.25 ** (1 / p)
            assert abs(lorentz_norm(f, p, q) - expect) < 1e-12

    def test_diagonal_is_lp(self):
        for f in random_functions(6, seed=13):
            for p in (1.0, 2.0, 3.0):
                assert abs(lorentz_norm(f, p, p) - lp_norm(f, p)) < 1e-10 * max(
                    1.0, lp_norm(f, p)
                )

    def test_weak_matches_grid_norm(self):
        for f in random_functions(6, seed=14):
            for p in (1.0, 2.0):
                assert abs(lorentz_norm(f, p, math.inf) - weak_lp_norm(f, p)) < 1e-12


class TestKolmogorov:
    def test_indicator(self):
        f = indicator(0.0, 0.25)
        assert abs(kolmogorov_functional(f, 2.0, 1.0) - 0.25**0.5) < 1e-12

    def test_constant(self):
        f = GridFunction.constant(2.0, (L,))
        assert abs(kolmogorov_functional(f, 2.0, 1.0) - 2.0) < 1e-12

    def test_sandwich(self):
        for f in random_functions(8, seed=15):
            for p, r in ((2.0, 1.0), (1.0, 0.5), (3.0, 2.0)):
                weak = weak_lp_norm(f, p)
                kol = kolmogorov_functional(f, p, r)
                assert weak <= kol * (1 + 1e-12)
                assert kol <= (p / (p - r)) ** (1.0 / r) * weak * (1 + 1e-12)


class TestOptimalSplit:
    def test_worked_example(self):
        f = GridFunction(
            (L,), 2.0 * indicator(0.0, 0.25).values + indicator(0.25, 0.5).values
        )
        g, h, value = optimal_l1_linf_split(f, 0.25)
        assert np.abs(g.values - indicator(0.0, 0.25).values).max() < 1e-12
        assert abs(value - 0.5) < 1e-12
        prof = rearrangement(f)
        assert abs(value - 0.25 * two_star(prof)(np.array([0.25]))[0]) < 1e-12

    def test_constant(self):
        f = GridFunction.constant(3.0, (L,))
        g, h, value = optimal_l1_linf_split(f, 0.5)
        assert np.abs(g.values).max() < 1e-12
        assert abs(value - 1.5) < 1e-12

    def test_value_is_t_two_star(self):
        rng = np.random.default_rng(16)
        for f in random_functions(10, seed=17):
            t = float(rng.uniform(0.02, 1.0))
            _, _, value = optimal_l1_linf_split(f, t)
            expect = t * two_star(rearrangement(f))(np.array([t]))[0]
            assert abs(value - expect) < 1e-12 * max(1.0, expect)

    def test_beats_random_splits(self):
        rng = np.random.default_rng(18)
        f = GridFunction((L,), rng.normal(size=N))
        t = 0.3
        _, _, value = optimal_l1_linf_split(f, t)
        for _ in range(100):
            mask = rng.uniform(size=N) < rng.uniform()
            g = np.where(mask, f.values, 0.0)
            h = f.values - g
            alt = np.abs(g).mean() + t * np.abs(h).max()
            assert value <= alt + 1e-12

    def test_reconstruction(self):
        for f in random_functions(5, seed=19):
            g, h, _ = optimal_l1_linf_split(f, 0.2)
            assert np.abs(g.values + h.values - f.values).max() < 1e-12


class TestSharedBreakpointAntiderivatives:
    """Each breakpoint's antiderivative is taken once; the per-piece form,
    which takes both ends of every piece, is the oracle, bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_closed_form_zygmund_equals_per_piece_form(self, n):
        from rearrange_oracles import _log_moment_antideriv

        for f in random_functions(6, seed=n):
            profile = rearrangement(f)
            total, lower = 0.0, 0.0
            for t1, a in zip(profile.breakpoints, profile.values):
                total += a * (_log_moment_antideriv(n, t1) - _log_moment_antideriv(n, lower))
                lower = t1
            assert zygmund_norm(profile, n, "closed_form") == total / math.factorial(n)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_prefix_integrals_equal_per_piece_form(self, order):
        from rearrange_oracles import _basis_antideriv

        for f in random_functions(4, seed=order):
            curve = star_curve(rearrangement(f), order)
            want = np.zeros(len(curve.cuts))
            for m, coef in enumerate(curve.coef):
                t0, t1 = curve.cuts[m], curve.cuts[m + 1]
                piece = 0.0
                for j, c in enumerate(coef):
                    if c != 0.0:
                        piece += c * (_basis_antideriv(j, t1) - _basis_antideriv(j, t0))
                want[m + 1] = want[m] + piece
            assert np.array_equal(curve.prefix_integral_at_cuts(), want)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_star_equals_per_piece_constant_on_corpus_profiles(self, order):
        # each piece's constant term with its lower-cut antiderivatives taken
        # afresh, as a separate pass after the prefix integrals
        from rearrange_oracles import _basis_antideriv

        for _, f in generate_corpus(11, 9).members[::4]:
            curve = star_curve(rearrangement(f), order)
            n_pieces, n_basis = curve.coef.shape
            want = np.zeros((n_pieces, n_basis + 1))
            prefix = curve.prefix_integral_at_cuts()
            for m in range(n_pieces):
                t0, c = curve.cuts[m], curve.coef[m]
                want[m, 0] = c[0]
                want[m, 1] += prefix[m] - sum(
                    c[j] * _basis_antideriv(j, t0) for j in range(n_basis) if c[j] != 0.0
                )
                for j in range(1, n_basis):
                    if c[j] != 0.0:
                        want[m, j + 1] += -c[j] / j
            star = curve.star()
            assert np.array_equal(star.cuts, curve.cuts)
            assert np.array_equal(star.coef, want)


def assert_equals_loop_form(profile, orders=(1, 2, 3, 4)):
    """Coefficients, prefix integrals and closed-form norms, bit for bit."""
    for order in orders:
        curve, want = star_curve(profile, order), oracle.star_curve(profile, order)
        assert np.array_equal(curve.cuts, want.cuts)
        assert np.array_equal(curve.coef, want.coef)
        prefix = oracle.antiderivs_at_cuts(want)[0]
        assert np.array_equal(curve.prefix_integral_at_cuts(), prefix)
    for n in (1, 2, 3):
        assert zygmund_norm(profile, n, "closed_form") == oracle.zygmund_closed_form(profile, n)


@st.composite
def step_profiles(draw):
    """Profiles of grid functions with repeated values, one step, or zeros
    (a profile that ends below 1), and profiles built step by step."""
    kind = draw(st.sampled_from(("repeats", "one_step", "ends_below_1", "steps")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    log_size = draw(st.integers(4, 9))
    n = 2**log_size
    if kind == "repeats":
        return rearrangement(GridFunction((log_size,), rng.choice([0.5, 1.0, 3.0, 1e-3], n)))
    if kind == "one_step":
        return rearrangement(GridFunction.constant(float(rng.lognormal()), (log_size,)))
    if kind == "ends_below_1":
        vals = np.where(rng.uniform(size=n) < 0.7, 0.0, rng.lognormal(sigma=2.0, size=n))
        vals[0] = 1.0
        return rearrangement(GridFunction((log_size,), vals))
    steps = draw(st.integers(1, 12))
    breakpoints = np.unique(rng.uniform(1e-6, 1.0, steps))
    if draw(st.booleans()):
        breakpoints[-1] = 1.0
    values = np.sort(rng.lognormal(sigma=2.0, size=breakpoints.size))[::-1]
    if draw(st.booleans()):
        values[-1] = 0.0
    return StepProfile(breakpoints, values)


class TestArrayFormEqualsLoopForm:
    """The array-form star curves and closed-form norms equal the per-piece
    loops of ``rearrange_oracles`` bit for bit."""

    @pytest.mark.parametrize("log_size", [9, 10])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_every_corpus_member(self, seed, log_size):
        for _, f in generate_corpus(seed, log_size).members:
            assert_equals_loop_form(rearrangement(f))

    @settings(max_examples=60, deadline=None)
    @given(step_profiles())
    def test_random_step_profiles(self, profile):
        assert_equals_loop_form(profile)

    def test_empty_profile(self):
        assert_equals_loop_form(rearrangement(GridFunction.constant(0.0, (4,))))

    def test_singular_term_at_zero_raises(self):
        # b_1 = 1/t on the first piece has no antiderivative from 0
        curve = _PiecewiseStarCurve(np.array([0.0, 0.5, 1.0]), np.array([[1.0, 2.0], [1.0, 0.0]]))
        for call in (curve.star, curve.prefix_integral_at_cuts, curve.integral):
            with pytest.raises(ValueError, match="singular"):
                call()
        with pytest.raises(ValueError, match="singular"):
            oracle.star(curve)
