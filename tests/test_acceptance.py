"""Acceptance gates: every registered verification check must pass within
its runtime budget at the default configuration.  One line is printed per
criterion (run pytest with -s to see them all)."""

import itertools
import json
import math
import time

import numpy as np
import pytest

import torusharmonics.suite as suite_module
from torusharmonics.gfio import RunConfig
from torusharmonics.grid import GridFunction
from torusharmonics.suite import CHECKS, CheckResult, Gate, run_suite, worst


@pytest.fixture(scope="module")
def config(tmp_path_factory):
    return RunConfig(out_dir=str(tmp_path_factory.mktemp("verify")))


@pytest.mark.parametrize("check_id,check", CHECKS, ids=[cid for cid, _ in CHECKS])
def test_acceptance(check_id, check, config):
    start = time.perf_counter()
    result = check(config)
    result.runtime = time.perf_counter() - start
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] {check_id} ({result.runtime:.2f}s <= {result.budget:.0f}s): {result.summary}")
    assert result.passed, result.summary
    assert result.runtime <= result.budget, (
        f"{check_id} exceeded its runtime budget: {result.runtime:.2f}s > {result.budget:.0f}s"
    )


def test_suite_runner_writes_artifacts(tmp_path):
    config = RunConfig(out_dir=str(tmp_path / "out"))
    code = run_suite(config, only={"fs_growth_counterexample", "partition_gate"})
    assert code == 0
    summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert len(summary) == 3  # header + one row per registered check run
    payload = json.loads((tmp_path / "out" / "partition_gate.json").read_text())
    assert [g["name"] for g in payload["gates"]][-1] == "runtime_s"
    for g in payload["gates"]:
        assert set(g) == {"name", "observed", "op", "bound", "passed"} and g["passed"]


def test_suite_runner_flags_designed_failure(tmp_path):
    # a corrupted gate must fail loudly, and so must a crashed check
    config = RunConfig(out_dir=str(tmp_path / "out"))

    def always_red(cfg):
        return CheckResult("designed_failure", [Gate("deliberately corrupted gate", 1.0, 0.0)])

    def crashing(cfg):
        raise RuntimeError("boom")

    original = suite_module.CHECKS
    suite_module.CHECKS = [("designed_failure", always_red), ("crashing", crashing)]
    lines = []
    try:
        assert run_suite(config, echo=lines.append) == 1
    finally:
        suite_module.CHECKS = original
    assert lines[0].startswith("[FAIL] designed_failure")
    assert lines[1] == "[FAIL] crashing: crashed: RuntimeError('boom')"


@pytest.mark.parametrize("op", ["<=", "<", ">=", ">"])
def test_gate_ops_at_the_bound_and_on_nan(op):
    holds = {"<=": (True, True, False), "<": (True, False, False),
             ">=": (False, True, True), ">": (False, False, True)}[op]
    assert tuple(Gate("g", x, 1.0, op).passed for x in (0.5, 1.0, 2.0)) == holds
    assert not Gate("g", math.nan, 1.0, op).passed
    assert math.isnan(worst([Gate("g", 1.0, 1.0, op), Gate("g", math.nan, 1.0, op)])[0].observed)
    with pytest.raises(ValueError):
        Gate("g", 1.0, 1.0, "==")


# NaN outputs of the operators a check calls must fail the check; a running
# builtin max(worst, nan) used to keep ``worst`` and pass
SMALL = dict(log_size=8, log_size_2d=6)


def test_nan_bilinear_output_fails_multiplier_identities(monkeypatch, tmp_path):
    def nan_bilinear(symbol, f, g):
        return GridFunction(f.log_sizes, np.full(f.values.shape, np.nan))

    monkeypatch.setattr(suite_module, "apply_bilinear", nan_bilinear)
    result = suite_module.check_multiplier_identities(RunConfig(out_dir=str(tmp_path), **SMALL))
    assert not result.passed, result.summary


def test_nan_hybrid_output_fails_tensor_factorizations(monkeypatch, tmp_path):
    def nan_hybrid(f, fams, kind, **kwargs):
        return GridFunction(f.log_sizes, np.full(f.values.shape, np.nan))

    monkeypatch.setattr(suite_module, "hybrid", nan_hybrid)
    result = suite_module.check_tensor_factorizations(RunConfig(out_dir=str(tmp_path), **SMALL))
    assert not result.passed, result.summary


def test_one_nan_maximal_sample_fails_weak_1_1_ceiling(monkeypatch, tmp_path):
    exact = suite_module.maximal

    def one_nan_sample(f, kind="hl", **kwargs):
        # the check takes its maxima from one batched call over the corpus
        assert isinstance(f, list)
        outs = []
        for out in exact(f, kind, **kwargs):
            values = np.array(out.values)
            values[0] = np.nan
            outs.append(GridFunction(out.log_sizes, values))
        return outs

    monkeypatch.setattr(suite_module, "maximal", one_nan_sample)
    result = suite_module.check_weak11(RunConfig(out_dir=str(tmp_path), **SMALL))
    assert not result.passed, result.summary
    assert not result.crashed and math.isnan(result.gates[0].observed)


def test_weak_1_1_ceiling_reports_the_supremum(tmp_path):
    # lambda |{Mf > lambda}| peaks as lambda rises to a value of Mf, which a
    # strict count at the sample values themselves misses
    from torusharmonics.corpus import generate_corpus
    from torusharmonics.grid import lp_norm, weak_lp_norm
    from torusharmonics.maximal import maximal

    config = RunConfig(out_dir=str(tmp_path), **SMALL)
    expect = max(weak_lp_norm(maximal(f, "hl"), 1.0) / lp_norm(f, 1.0)
                 for _, f in generate_corpus(config.seed, config.log_size).members)
    assert suite_module.check_weak11(config).details["worst"] == expect


def test_boundedness_sweeps_read_one_eps_field_at_both_sizes(monkeypatch, tmp_path):
    # each drift compares one operator at two resolutions, so both sizes
    # must read the same eps_R on their common scale tuples; drawn
    # separately in product order, the 2D fields differed from (2, 1) on
    seen = {}
    for name in ("paraproduct_1p", "paraproduct_2p"):
        def record(spec, f, g, _real=getattr(suite_module, name)):
            seen.setdefault(f.log_sizes, spec.epsilon)
            return _real(spec, f, g)

        monkeypatch.setattr(suite_module, name, record)
    config = RunConfig(out_dir=str(tmp_path), **SMALL)
    suite_module.check_boundedness_sweeps(config)
    L, L2 = config.log_size, config.log_size_2d
    for coarse, fine in (((L,), (L + 1,)), ((L2, L2), (L2 + 1, L2 + 1))):
        K = coarse[0] - config.scale_margin
        tuples = list(itertools.product(range(1, K + 1), repeat=len(coarse)))
        assert len(tuples) == K ** len(coarse)
        for ks in tuples:
            assert np.array_equal(seen[coarse].at(*ks), seen[fine].at(*ks))


def test_para2_drift_gate_catches_a_scaled_operator(monkeypatch, tmp_path):
    # paraproduct_2p scaled by 1.15 at the finer 2D size (grids 9/7): with
    # one eps field the drift is the operator's own, and the gate fails
    exact = suite_module.paraproduct_2p

    def scaled_at_fine_size(spec, f, g):
        out = exact(spec, f, g)
        factor = 1.15 if f.log_sizes == (8, 8) else 1.0
        return GridFunction(out.log_sizes, factor * out.values)

    config = RunConfig(out_dir=str(tmp_path), log_size=9, log_size_2d=7, seed=11)
    assert suite_module.check_boundedness_sweeps(config).details["drifts"]["para2"] < 1e-4
    monkeypatch.setattr(suite_module, "paraproduct_2p", scaled_at_fine_size)
    result = suite_module.check_boundedness_sweeps(config)
    assert result.details["drifts"]["para2"] > 0.10
    assert [g.name for g in result.gates if not g.passed] == ["para2 drift over one doubling"]
