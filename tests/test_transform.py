import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusharmonics.bumps import make_adapted_family
from torusharmonics.grid import GridFunction, inner_product
from torusharmonics.paraproducts import ParaproductSpec, paraproduct_2p
from torusharmonics.squares import EpsilonField2D, _lattice, coefficient_field
from torusharmonics.transform import Band, analysis, synthesis

KINDS = ("from_pou_1", "from_pou_2", "lower_bounded")


def _random_prototypes(rng, log_sizes):
    """Scales 1..L-3 per axis; complex and asymmetric, unlike the bump families,
    so a correlation cannot pass for a convolution."""
    return [
        [rng.normal(size=2**L) + 1j * rng.normal(size=2**L) for _ in range(L - 3)]
        for L in log_sizes
    ]


def _tensor_member(prototypes, ks, starts):
    """prod_a 2^-k_a psi^a_{k_a} rolled to start at sample starts[a]."""
    factors = [
        2.0**-k * np.roll(axis[k - 1], start) for axis, k, start in zip(prototypes, ks, starts)
    ]
    return functools.reduce(np.multiply.outer, factors)


def _scale_tuples(prototypes):
    return itertools.product(*(range(1, len(axis) + 1) for axis in prototypes))


@pytest.mark.parametrize("log_sizes", [(8,), (6, 6), (4, 4, 4)])
def test_analysis_matches_member_inner_products(log_sizes):
    rng = np.random.default_rng(len(log_sizes))
    prototypes = _random_prototypes(rng, log_sizes)
    shape = tuple(2**L for L in log_sizes)
    f = GridFunction(log_sizes, rng.normal(size=shape) + 1j * rng.normal(size=shape))
    n, offset = 1, 3  # shift I -> I^n, then a fractional shift by 3 samples
    for ks, lags in zip(_scale_tuples(prototypes), analysis(f.values, prototypes)):
        steps = [size >> k for size, k in zip(shape, ks)]
        for js in itertools.product(*({0, 2**k - 1} for k in ks)):
            starts = [
                ((j + n) * step + offset) % size for j, step, size in zip(js, steps, shape)
            ]
            member = GridFunction(log_sizes, _tensor_member(prototypes, ks, starts))
            direct = inner_product(member, f)
            read = 2.0 ** -sum(ks) * lags[tuple(starts)]
            assert abs(read - direct) < 1e-12 * max(1.0, abs(direct))


@pytest.mark.parametrize("log_sizes", [(8,), (6, 6), (4, 4, 4)])
def test_synthesis_matches_member_sum(log_sizes):
    rng = np.random.default_rng(5)
    prototypes = _random_prototypes(rng, log_sizes)
    shape = tuple(2**L for L in log_sizes)
    scale_tuples = list(_scale_tuples(prototypes))
    trains = [rng.normal(size=shape) * (rng.random(shape) < 0.02) for _ in scale_tuples]
    out = synthesis(iter(trains), prototypes)
    direct = np.zeros(shape, dtype=complex)
    for ks, train in zip(scale_tuples, trains):
        for starts in zip(*np.nonzero(train)):
            direct += train[starts] * 2.0 ** sum(ks) * _tensor_member(prototypes, ks, starts)
    assert np.abs(out - direct).max() < 1e-12 * np.abs(direct).max()


def _prototypes(fams):
    return [[fam.prototype_values(k) for k in fam.scales] for fam in fams]


def test_paraproduct_2p_matches_sum_over_rectangles():
    L, K = 6, 3
    pou1, pou2, lower = (make_adapted_family(kind, K, L) for kind in KINDS)
    fams2d = ((pou1, pou2, lower), (pou2, pou1, pou1))
    eps = EpsilonField2D.rademacher(6, range(1, K + 1), range(1, K + 1))
    rng = np.random.default_rng(7)
    n = 2**L
    f = GridFunction((L, L), rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    g = GridFunction((L, L), rng.normal(size=(n, n)))
    # shifts (n_1, n_2) move input slot i's rectangle by n_i intervals on both
    # axes; max_offsets averages over the product of per-axis fractional shifts
    for shifts, average_alpha in (((0, 0), False), ((1, 2), False), ((1, 2), True)):
        spec = ParaproductSpec(
            params=2, families=fams2d, mean_slots=(3, 3), epsilon=eps,
            shifts=shifts, average_alpha=average_alpha, max_offsets=2,
        )
        out = paraproduct_2p(spec, f, g)

        # sum_R eps_R |R|^{-1/2} <phi^1_{R^n1}, f> <phi^2_{R^n2}, g> phi^3_R,
        # L2-normalized, averaged over the shifts R_alpha
        direct = np.zeros((n, n), dtype=complex)
        for k1, k2 in itertools.product(range(1, K + 1), repeat=2):
            ks = (k1, k2)
            norm = 2.0 ** ((k1 + k2) / 2)  # |R|^{-1/2}, and each member's L2 factor
            steps = (n >> k1, n >> k2)
            offsets = [range(0, s, s // 2) if average_alpha else range(1) for s in steps]
            count = len(offsets[0]) * len(offsets[1])
            for j1, j2 in itertools.product(range(2**k1), range(2**k2)):
                for o1, o2 in itertools.product(*offsets):
                    members = []
                    for slot, shift in enumerate((*shifts, 0)):
                        starts = ((j1 + shift) * steps[0] + o1, (j2 + shift) * steps[1] + o2)
                        protos = _prototypes([fams[slot] for fams in fams2d])
                        members.append(norm * _tensor_member(protos, ks, starts))
                    cf = inner_product(GridFunction((L, L), members[0]), f)
                    cg = inner_product(GridFunction((L, L), members[1]), g)
                    direct += eps.at(k1, k2)[j1, j2] * norm * cf * cg * members[2] / count
        assert np.abs(out.values - direct).max() < 1e-10


# --- the lattice fold against the full-grid transform (s = 1) ----------------

_FAMILIES = {}


def _family(kind, log_size):
    if (kind, log_size) not in _FAMILIES:
        _FAMILIES[kind, log_size] = make_adapted_family(kind, log_size - 3, log_size)
    return _FAMILIES[kind, log_size]


def _axis_prototypes(source, log_size, rng):
    """One axis's scales 1..L-3: random complex asymmetric samples, or a
    family's cached bands (band-limited for the pou families; the
    lower_bounded family's coarse prototypes are not)."""
    if source == "random":
        return [rng.normal(size=2**log_size) + 1j * rng.normal(size=2**log_size)
                for _ in range(log_size - 3)]
    fam = _family(source, log_size)
    return [fam.band(k) for k in fam.scales]


@st.composite
def lattice_cases(draw):
    """Axes, prototypes and, per axis and scale, a read lattice (s, o): dyadic
    and integer-shifted reads (s = step), fractional shifts (s = the stride
    of ``_alpha_offsets``) or a coset (s = step, o = round(alpha step))."""
    dims = draw(st.integers(1, 3))
    top = {1: 8, 2: 6, 3: 4}[dims]
    log_sizes = tuple(draw(st.lists(st.integers(4, top), min_size=dims, max_size=dims)))
    sources = [draw(st.sampled_from(("random",) + KINDS)) for _ in log_sizes]
    spacings, offsets = [], []
    for L in log_sizes:
        axis_s, axis_o = [], []
        for k in range(1, L - 2):
            read = draw(st.sampled_from(("dyadic", "fractional", "coset")))
            max_offsets = draw(st.sampled_from((1, 2, 3, 4, 16))) if read == "fractional" else None
            s, _ = _lattice(2**L, k, max_offsets)
            alpha = draw(st.floats(0.0, 1.0)) if read == "coset" else 0.0
            axis_s.append(s)
            axis_o.append(int(round(alpha * (2**L >> k))))
        spacings.append(axis_s)
        offsets.append(axis_o)
    return log_sizes, sources, spacings, offsets, draw(st.integers(0, 2**32 - 1))


def _lattice_reads(full, spacings, offsets):
    """full[o_a + j s_a] over the lattice, per axis."""
    index = [(o + s * np.arange(n // s)) % n for s, o, n in zip(spacings, offsets, full.shape)]
    return full[np.ix_(*index)]


@settings(max_examples=60, deadline=None)
@given(lattice_cases())
def test_folded_analysis_equals_full_grid_lags_on_the_lattice(case):
    log_sizes, sources, spacings, offsets, seed = case
    rng = np.random.default_rng(seed)
    prototypes = [_axis_prototypes(src, L, rng) for src, L in zip(sources, log_sizes)]
    shape = tuple(2**L for L in log_sizes)
    f = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    tuples = itertools.product(*(range(len(axis)) for axis in prototypes))
    folded = analysis(f, prototypes, spacings, offsets)
    for ix, full, lags in zip(tuples, analysis(f, prototypes), folded, strict=True):
        s = [axis[i] for axis, i in zip(spacings, ix)]
        o = [axis[i] for axis, i in zip(offsets, ix)]
        want = _lattice_reads(full, s, o)
        assert lags.shape == want.shape
        assert np.abs(lags - want).max() <= 1e-12 * max(np.abs(full).max(), 1e-300)


@settings(max_examples=40, deadline=None)
@given(lattice_cases())
def test_folded_synthesis_equals_full_grid_train_sum(case):
    log_sizes, sources, spacings, _, seed = case
    rng = np.random.default_rng(seed)
    prototypes = [_axis_prototypes(src, L, rng) for src, L in zip(sources, log_sizes)]
    shape = tuple(2**L for L in log_sizes)
    compressed, full = [], []
    for ix in itertools.product(*(range(len(axis)) for axis in prototypes)):
        s = [axis[i] for axis, i in zip(spacings, ix)]
        train = rng.normal(size=[n // a for n, a in zip(shape, s)]) + 1j * rng.normal(
            size=[n // a for n, a in zip(shape, s)]
        )
        compressed.append(train)
        spread = np.zeros(shape, dtype=complex)
        spread[tuple(slice(None, None, a) for a in s)] = train
        full.append(spread)
    want = synthesis(iter(full), prototypes)
    got = synthesis(iter(compressed), prototypes)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("kind", KINDS)
def test_cached_band_drops_only_rounding_noise(kind):
    # the pou bands keep the DFT where the defining hat is nonzero; the
    # full DFT of the samples differs from them by rounding elsewhere
    L = 9
    fam = make_adapted_family(kind, L - 3, L)
    assert fam._bands == {}  # filled on first use, not when the family is built
    rng = np.random.default_rng(4)
    f = rng.normal(size=2**L) + 1j * rng.normal(size=2**L)
    bands = [[fam.band(k) for k in fam.scales]]
    samples = [[fam.prototype_values(k) for k in fam.scales]]
    for cut, full in zip(analysis(f, bands), analysis(f, samples), strict=True):
        assert np.abs(cut - full).max() <= 1e-12 * max(np.abs(full).max(), 1e-300)
    widths = [fam.band(k).values.size for k in fam.scales]
    if kind == "lower_bounded":
        assert widths == [2**L] * len(widths)
    else:
        assert max(widths) < 2**L // 4
    assert fam.band(3) is fam.band(3)


def test_reflected_band_is_the_dft_of_the_reflected_samples():
    rng = np.random.default_rng(8)
    p = rng.normal(size=64) + 1j * rng.normal(size=64)
    reflected = np.fft.fft(np.roll(p[::-1], 1))
    for limit, lo in ((None, -63), (5, -5)):
        band = Band.of(p, limit).reflected()
        assert band.lo == lo
        assert np.allclose(band.values, reflected[band.indices], rtol=0, atol=1e-12)


@pytest.mark.parametrize("n, alpha", [(0, 0.3), (2, 0.71), (1, 0.999)])
def test_coefficient_field_alpha_reads_the_full_grid_coset(n, alpha):
    # the coset round(alpha step) + step Z, read from the full-grid lags
    L = 9
    fam = _family("lower_bounded", L)
    rng = np.random.default_rng(12)
    f = GridFunction((L,), rng.normal(size=2**L) + 1j * rng.normal(size=2**L))
    field = coefficient_field(f, fam, n=n, alpha=alpha)
    full = analysis(f.values, [[fam.band(k) for k in fam.scales]])
    for k, lags in zip(fam.scales, full, strict=True):
        step = 2**L >> k
        starts = ((np.arange(2**k) + n) * step + int(round(alpha * step))) % 2**L
        want = 2.0**-k * lags[starts]
        assert np.abs(field.at(k) - want).max() <= 1e-12 * max(np.abs(want).max(), 1e-300)


@settings(max_examples=30, deadline=None)
@given(
    log_sizes=st.sampled_from([(4,), (7,), (4, 5), (6, 4), (4, 4, 4), (5, 4, 4)]),
    batch=st.sampled_from([(1,), (3,), (2, 2)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_synthesis_equals_separate_calls(log_sizes, batch, seed):
    # each entry of a batched call is that entry's own synthesis, bit for bit,
    # on compressed trains and on band-limited and full prototypes alike
    rng = np.random.default_rng(seed)
    prototypes = [
        [Band.of(p, int(rng.integers(1, p.size))) if rng.integers(2) else p for p in axis]
        for axis in _random_prototypes(rng, log_sizes)
    ]
    trains = []
    for ks in _scale_tuples(prototypes):
        shape = [2 ** int(rng.integers(k, L + 1)) for k, L in zip(ks, log_sizes)]
        trains.append(rng.normal(size=batch + (*shape, 2)) @ np.array([1.0, 1j]))
    got = synthesis(iter(trains), prototypes)
    assert got.shape == batch + tuple(2**L for L in log_sizes)
    for entry in np.ndindex(batch):
        want = synthesis((train[entry] for train in trains), prototypes)
        assert np.array_equal(got[entry], want)
