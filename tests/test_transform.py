import functools
import itertools

import numpy as np
import pytest

from torusharmonics.bumps import make_adapted_family
from torusharmonics.grid import GridFunction, inner_product
from torusharmonics.paraproducts import ParaproductSpec, paraproduct_2p
from torusharmonics.squares import EpsilonField2D
from torusharmonics.transform import analysis, synthesis

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
