"""Machine registry: names, config materialization, uniform dispatch."""

import pytest

from repro.core import (
    CoreConfig,
    Preemption,
    Processor,
    ReconvPolicy,
)
from repro.errors import ConfigError
from repro.harness import load_bundle
from repro.ideal import IdealConfig, IdealModel, simulate
from repro.machines import (
    DETAILED_MACHINE_NAMES,
    HEURISTIC_POLICIES,
    MACHINES,
    detailed_machines,
    get_machine,
    heuristic_machine,
    ideal_machine,
)

SCALE = 0.02


@pytest.fixture(scope="module")
def bundle():
    return load_bundle("go", SCALE)


class TestRegistryContents:
    def test_detailed_machines_present(self):
        for name in DETAILED_MACHINE_NAMES:
            assert MACHINES[name].family == "detailed"

    def test_every_ideal_model_registered(self):
        for model in IdealModel:
            machine = ideal_machine(model)
            assert machine.family == "ideal"
            assert machine.model is model

    def test_every_heuristic_policy_resolves(self):
        for policy in HEURISTIC_POLICIES:
            machine = heuristic_machine(policy)
            assert machine.family == "detailed"
            assert machine.core_config().reconv_policy is policy

    def test_postdom_heuristic_is_the_canonical_ci(self):
        assert heuristic_machine(ReconvPolicy.POSTDOM) is MACHINES["CI"]

    def test_registry_is_the_canonical_machines(self):
        # BASE, CI, CI-I, seven CI/<heuristic>, six ideal models and the
        # functional reference: one entry per machine model, no twins.
        assert len(MACHINES) == 17
        assert not [name for name in MACHINES if "@" in name]

    def test_functional_machine_registered(self):
        assert MACHINES["functional"].family == "functional"

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError, match="no-such-machine"):
            get_machine("no-such-machine")


class TestConfigMaterialization:
    def test_detailed_machines_match_legacy_configs(self):
        # The configs the harness used to hand-build.
        legacy = {
            "BASE": CoreConfig(reconv_policy=ReconvPolicy.NONE),
            "CI": CoreConfig(reconv_policy=ReconvPolicy.POSTDOM),
            "CI-I": CoreConfig(
                reconv_policy=ReconvPolicy.POSTDOM, instant_redispatch=True
            ),
        }
        assert detailed_machines() == legacy

    def test_overrides_layer_on_base_knobs(self):
        config = get_machine("CI-I").core_config(window_size=512)
        assert config.window_size == 512
        assert config.reconv_policy is ReconvPolicy.POSTDOM
        assert config.instant_redispatch is True

    def test_core_config_guarded_by_family(self):
        with pytest.raises(ConfigError, match="ideal"):
            ideal_machine(IdealModel.ORACLE).core_config()

    def test_ideal_config_guarded_by_family(self):
        with pytest.raises(ConfigError, match="detailed"):
            get_machine("BASE").ideal_config()

    def test_unknown_knobs_rejected(self):
        with pytest.raises(ConfigError, match="'bogus'"):
            get_machine("BASE").core_config(bogus=1)
        with pytest.raises(ConfigError, match="'bogus'"):
            ideal_machine(IdealModel.ORACLE).ideal_config(bogus=1)

    def test_ideal_config_materializes_overrides(self):
        config = ideal_machine(IdealModel.ORACLE).ideal_config(window_size=64)
        assert config == IdealConfig(window_size=64)


class TestUniformSimulate:
    def test_detailed_matches_direct_processor(self, bundle):
        via_registry = get_machine("CI").simulate(
            bundle, overrides={"window_size": 128}
        )
        direct = Processor(
            bundle.program,
            CoreConfig(window_size=128, reconv_policy=ReconvPolicy.POSTDOM),
            bundle.golden,
            bundle.reconv,
        ).run()
        assert via_registry == direct

    def test_ideal_matches_direct_scheduler(self, bundle):
        via_registry = ideal_machine(IdealModel.WR_FD).simulate(
            bundle, overrides={"window_size": 64}
        )
        direct = simulate(
            bundle.annotated(), IdealModel.WR_FD, IdealConfig(window_size=64)
        )
        assert via_registry.ipc == direct.ipc

    def test_functional_returns_the_trace(self, bundle):
        trace = get_machine("functional").simulate(bundle)
        assert len(trace) > 0

    def test_functional_rejects_overrides(self, bundle):
        with pytest.raises(ConfigError, match="overrides"):
            get_machine("functional").simulate(
                bundle, overrides={"window_size": 64}
            )

    def test_tfr_collectors_only_on_detailed(self, bundle):
        with pytest.raises(ConfigError, match="TFR"):
            ideal_machine(IdealModel.ORACLE).simulate(
                bundle, tfr_collectors=(object(),)
            )

    def test_preemption_override_changes_behaviour(self, bundle):
        simple = get_machine("CI").simulate(
            bundle,
            overrides={"window_size": 128, "preemption": Preemption.SIMPLE},
        )
        assert simple.retired > 0
