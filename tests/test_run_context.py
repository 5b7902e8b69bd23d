"""The suite's run context: corpora and HL maxima shared within one run, and
never carried from one run, or one standalone check, into the next."""

import numpy as np
import pytest

import torusharmonics.suite as suite_module
from torusharmonics.bumps import make_adapted_family
from torusharmonics.corpus import generate_corpus
from torusharmonics.gfio import RunConfig
from torusharmonics.grid import GridFunction, NormSpec, lp_norm, weak_lp_norm
from torusharmonics.maximal import maximal
from torusharmonics.probes import llogl_maximal_experiment, probe_norm
from torusharmonics.squares import EpsilonField, linearize
from torusharmonics.suite import RunContext, run_suite

SMALL = dict(log_size=8, log_size_2d=6)


def _nan_first_sample(fs, kind="hl", **kwargs):
    """Batched ``maximal`` with NaN in the first sample of each output."""
    outs = []
    for out in maximal(fs, kind, **kwargs):
        values = np.array(out.values)
        values[0] = np.nan
        outs.append(GridFunction(out.log_sizes, values))
    return outs


def _worst_weak_ratio(config):
    return max(weak_lp_norm(maximal(f, "hl"), 1.0) / lp_norm(f, 1.0)
               for f in generate_corpus(config.seed, config.log_size).functions())


def test_context_maxima_equal_maximal_at_the_base_and_resampled_size():
    ctx = RunContext()
    base = generate_corpus(3, 9)
    for log_size in (9, 10):
        corpus = ctx.corpus(3, log_size)
        # the resampled members are the generated ones, name for name and bit for bit
        for (name, f), (want_name, want) in zip(corpus.members, base.resample(log_size).members):
            assert name == want_name and np.array_equal(f.values, want.values)
        maxima = ctx.hl_maxima(3, log_size)
        assert len(maxima) == len(corpus.members)
        for f, mf in zip(corpus.functions(), maxima):
            assert np.array_equal(mf.values, maximal(f, "hl").values)
    # the two sizes share member names but not maxima
    assert ctx.hl_maxima(3, 9)[0].sizes != ctx.hl_maxima(3, 10)[0].sizes
    assert ctx.hl_maxima(3, 9) is ctx.hl_maxima(3, 9)


def test_precomputed_maxima_give_the_same_llogl_report():
    corpus = generate_corpus(4, 9)
    maxima = RunContext().hl_maxima(4, 9)
    a, b = llogl_maximal_experiment(corpus), llogl_maximal_experiment(corpus, maxima=maxima)
    assert a.norm_ratios == b.norm_ratios and a.curve_ratio_range == b.curve_ratio_range


def test_one_run_computes_each_members_maximum_once(monkeypatch, tmp_path):
    config = RunConfig(out_dir=str(tmp_path), **SMALL)
    calls = []

    def counted(f, kind="hl", **kwargs):
        if kind == "hl" and isinstance(f, list):
            calls.append(f)
        return maximal(f, kind, **kwargs)

    monkeypatch.setattr(suite_module, "maximal", counted)
    members = generate_corpus(config.seed, config.log_size).functions()

    def one_call_per_corpus(count):
        # each call holds every member, in order, and nothing else
        assert len(calls) == count
        for batch in calls:
            assert len(batch) == len(members)
            assert all(np.array_equal(f.values, g.values) for f, g in zip(batch, members))

    only = {"maximal_pointwise_oracle", "weak_1_1_ceiling"}
    assert run_suite(config, only=only, echo=lambda line: None) == 0
    one_call_per_corpus(1)
    # standalone, each check builds its own context
    calls.clear()
    suite_module.check_maximal_oracle(config)
    suite_module.check_weak11(config)
    one_call_per_corpus(2)


def test_a_check_after_a_patched_run_sees_fresh_maxima(monkeypatch, tmp_path):
    config = RunConfig(out_dir=str(tmp_path), **SMALL)
    only = {"weak_1_1_ceiling"}
    with monkeypatch.context() as patch:
        patch.setattr(suite_module, "maximal", _nan_first_sample)
        assert run_suite(config, only=only, echo=lambda line: None) == 1
        patched = suite_module.check_weak11(config)
        assert not patched.passed and not patched.crashed
    assert run_suite(config, only=only, echo=lambda line: None) == 0
    result = suite_module.check_weak11(config)
    assert result.passed and result.details["worst"] == _worst_weak_ratio(config)


@pytest.mark.parametrize("seed", [1, 11])
def test_batched_draw_constants_equal_one_probe_per_draw(seed):
    # the T_eps spread's 20 constants, and the drift's field beside them
    L, K = 8, 5
    funcs = generate_corpus(seed, L).functions()
    fam1 = make_adapted_family("from_pou_1", K, L)
    fam2 = make_adapted_family("from_pou_2", K, L)
    fields = [EpsilonField.rademacher(seed, range(1, K + 2))]
    fields += [EpsilonField.rademacher(s, range(1, K + 1)) for s in range(20)]
    l2 = NormSpec.lp(2.0)
    want = [
        probe_norm(lambda f: linearize(f, fam1, fam2, eps), "T_eps", (l2,), l2, funcs).max_ratio
        for eps in fields
    ]
    assert suite_module._linearize_constants(funcs, fam1, fam2, fields) == want
