"""Integration tests: every machine configuration over real workloads.

These are the heavyweight checks: the detailed processor co-simulates
against the architectural golden trace at every retirement, so simply
completing a run proves the recovery machinery (selective squash,
restart, redispatch, selective reissue, memory ordering) preserved
architectural correctness.
"""

import pytest

from repro.core import (
    CompletionModel,
    CoreConfig,
    GoldenTrace,
    Preemption,
    Processor,
    ReconvPolicy,
    RepredictMode,
)
from repro.cfg import ReconvergenceTable
from repro.workloads import WORKLOAD_NAMES, build_workload

SCALE = 0.06


@pytest.fixture(scope="module")
def bundles():
    out = {}
    for name in WORKLOAD_NAMES:
        program = build_workload(name, SCALE).program
        out[name] = (program, GoldenTrace(program), ReconvergenceTable(program))
    return out


def run_with(bundles, name, **kw):
    program, golden, table = bundles[name]
    kw.setdefault("window_size", 128)
    kw.setdefault("max_cycles", 3_000_000)
    config = CoreConfig(**kw)
    return Processor(program, config, golden, table).run()


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
class TestAllWorkloads:
    def test_base(self, bundles, name):
        stats = run_with(bundles, name, reconv_policy=ReconvPolicy.NONE)
        assert stats.retired > 0

    def test_ci(self, bundles, name):
        stats = run_with(bundles, name, reconv_policy=ReconvPolicy.POSTDOM)
        assert stats.retired > 0

    def test_ci_instant(self, bundles, name):
        stats = run_with(
            bundles,
            name,
            reconv_policy=ReconvPolicy.POSTDOM,
            instant_redispatch=True,
        )
        assert stats.retired > 0

    def test_simple_preemption(self, bundles, name):
        stats = run_with(
            bundles,
            name,
            reconv_policy=ReconvPolicy.POSTDOM,
            preemption=Preemption.SIMPLE,
        )
        assert stats.retired > 0

    def test_heuristic_reconvergence(self, bundles, name):
        stats = run_with(
            bundles, name, reconv_policy=ReconvPolicy.RETURN_LOOP_LTB
        )
        assert stats.retired > 0

    def test_segmented_rob(self, bundles, name):
        stats = run_with(
            bundles, name, reconv_policy=ReconvPolicy.POSTDOM, segment_size=16
        )
        assert stats.retired > 0


@pytest.mark.parametrize("model", list(CompletionModel))
def test_completion_models_on_compress(bundles, model):
    stats = run_with(
        bundles, "compress", reconv_policy=ReconvPolicy.POSTDOM,
        completion_model=model,
    )
    assert stats.retired > 0


@pytest.mark.parametrize("mode", list(RepredictMode))
def test_repredict_modes_on_go(bundles, mode):
    stats = run_with(
        bundles, "go", reconv_policy=ReconvPolicy.POSTDOM, repredict_mode=mode
    )
    assert stats.retired > 0


def test_hfm_on_compress(bundles):
    stats = run_with(
        bundles,
        "compress",
        reconv_policy=ReconvPolicy.POSTDOM,
        completion_model=CompletionModel.SPEC,
        hide_false_mispredictions=True,
    )
    assert stats.retired > 0


class TestQualitativeResults:
    """Run-to-run determinism; the paper's claims are tests/test_claims.py."""

    def test_determinism(self, bundles):
        a = run_with(bundles, "gcc", reconv_policy=ReconvPolicy.POSTDOM)
        b = run_with(bundles, "gcc", reconv_policy=ReconvPolicy.POSTDOM)
        assert a.cycles == b.cycles
        assert a.recoveries == b.recoveries
