"""Machine-invariant sanitizer: clean runs stay clean and statistically
untouched; structural faults are localized to the structure they broke."""

import pytest

from repro.analysis import STRUCTURES, MachineSanitizer
from repro.cfg import ReconvergenceTable
from repro.core import (
    CompletionModel,
    CoreConfig,
    CoreStats,
    GoldenTrace,
    Processor,
    ReconvPolicy,
)
from repro.errors import ConfigError, SanitizerError
from repro.robustness import (
    LSQDropFault,
    PredictorStateFault,
    RegisterValueFault,
    ROBOrderFault,
    RenameMapFault,
    TagAliasFault,
    run_with_fault,
)
from repro.core import CosimulationError
from repro.workloads import build_workload

SCALE = 0.05


@pytest.fixture(scope="module")
def bundle():
    program = build_workload("compress", SCALE).program
    return program, GoldenTrace(program), ReconvergenceTable(program)


def run(program, golden, table, **cfg_kwargs):
    cfg = CoreConfig(window_size=128, **cfg_kwargs)
    return Processor(program, cfg, golden, table).run()


class TestCleanRuns:
    @pytest.mark.parametrize(
        "policy", [ReconvPolicy.NONE, ReconvPolicy.POSTDOM, ReconvPolicy.RETURN_LOOP_LTB]
    )
    def test_no_false_positives_at_stride_one(self, bundle, policy):
        program, golden, table = bundle
        stats = run(program, golden, table, reconv_policy=policy,
                    sanitize=True, sanitize_stride=1)
        assert stats.retired == len(golden)

    def test_sanitizer_does_not_change_statistics(self, bundle):
        program, golden, table = bundle
        plain = run(program, golden, table, sanitize=False)
        checked = run(program, golden, table, sanitize=True, sanitize_stride=1)
        assert isinstance(plain, CoreStats)
        assert plain == checked  # dataclass equality over every counter

    def test_stride_skips_cycles(self, bundle):
        program, golden, table = bundle
        sanitizer = MachineSanitizer(stride=64)
        cfg = CoreConfig(window_size=128)
        proc = Processor(program, cfg, golden, table)
        proc.add_cycle_hook(sanitizer)
        stats = proc.run()
        assert 0 < sanitizer.checks_run <= stats.cycles // 64 + 1


class TestConfigWiring:
    def test_env_opt_in(self, bundle, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert CoreConfig().sanitize_enabled()
        monkeypatch.setenv("REPRO_SANITIZE", "off")
        assert not CoreConfig().sanitize_enabled()
        monkeypatch.delenv("REPRO_SANITIZE")
        assert not CoreConfig().sanitize_enabled()

    def test_explicit_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert not CoreConfig(sanitize=False).sanitize_enabled()
        monkeypatch.delenv("REPRO_SANITIZE")
        assert CoreConfig(sanitize=True).sanitize_enabled()

    def test_processor_attaches_sanitizer_hook(self, bundle):
        program, golden, table = bundle
        proc = Processor(
            program, CoreConfig(sanitize=True, sanitize_stride=8), golden, table
        )
        assert any(isinstance(h, MachineSanitizer) for h in proc._cycle_hooks)
        plain = Processor(program, CoreConfig(sanitize=False), golden, table)
        assert not plain._cycle_hooks

    def test_bad_stride_rejected(self):
        with pytest.raises(ConfigError):
            CoreConfig(sanitize_stride=0).validate()
        with pytest.raises(ValueError):
            MachineSanitizer(stride=0)


class TestFaultLocalization:
    """Each structural injector must be caught AND named correctly."""

    CASES = [
        (ROBOrderFault, "rob-links"),
        (TagAliasFault, "broadcast-network"),
        (RenameMapFault, "rename-map"),
        (LSQDropFault, "lsq"),
    ]

    @pytest.mark.parametrize("cls,structure", CASES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_structure_named(self, bundle, cls, structure, seed):
        program, golden, table = bundle
        fault = cls(seed=seed, trigger_retired=40)
        cfg = CoreConfig(window_size=128, sanitize=True, sanitize_stride=1)
        with pytest.raises(SanitizerError) as excinfo:
            run_with_fault(program, cfg, fault, golden, table)
        assert fault.fired and fault.description
        err = excinfo.value
        assert err.structure == structure
        assert structure in STRUCTURES
        assert f"sanitizer[{structure}]" in str(err)
        assert err.snapshot is not None  # diagnosable from the message alone

    @pytest.mark.parametrize("cls,structure", CASES)
    def test_fault_is_deterministic(self, bundle, cls, structure):
        program, golden, table = bundle
        messages = set()
        for _ in range(2):
            fault = cls(seed=7, trigger_retired=40)
            cfg = CoreConfig(window_size=128, sanitize=True, sanitize_stride=1)
            with pytest.raises(SanitizerError) as excinfo:
                run_with_fault(program, cfg, fault, golden, table)
            messages.add(str(excinfo.value))
        assert len(messages) == 1

    def test_structural_faults_undetected_without_sanitizer_still_flagged(
        self, bundle
    ):
        # Without the sanitizer the same corruption either survives to a
        # cosim/value mismatch or silently heals — the point of the
        # sanitizer is the *localization*, so just document that the
        # structure name is only available with it on.
        program, golden, table = bundle
        fault = ROBOrderFault(seed=0, trigger_retired=40)
        cfg = CoreConfig(window_size=128, sanitize=False)
        try:
            run_with_fault(program, cfg, fault, golden, table)
        except SanitizerError:  # pragma: no cover - must not happen
            pytest.fail("sanitizer ran while disabled")
        except Exception:
            pass  # any other checker may legitimately trip later


class TestBranchGateIndex:
    """Planted violations of the ``branch-gates`` clauses.  A test-local
    cycle hook, registered after the sanitizer, corrupts the index at
    the end of one cycle; the next cycle's check must name it."""

    @staticmethod
    def _run_with_hook(bundle, hook, **cfg_kwargs):
        program, golden, table = bundle
        cfg = CoreConfig(
            window_size=128, sanitize=True, sanitize_stride=1, **cfg_kwargs
        )
        proc = Processor(program, cfg, golden, table)
        proc.add_cycle_hook(hook)
        with pytest.raises(SanitizerError) as excinfo:
            proc.run()
        return excinfo.value

    def test_dropped_key_is_named(self, bundle):
        dropped = []

        def drop_one_key(proc):
            # A never-issued branch cannot complete before the next
            # check, so the hole is still there when it runs.
            if dropped:
                return
            for h in proc._incomplete_branches:
                if proc.pool.issue_count[h] == 0:
                    del proc._incomplete_branches[h]
                    dropped.append(h)
                    return

        err = self._run_with_hook(bundle, drop_one_key)
        assert dropped
        assert err.structure == "branch-gates"
        assert "missing from the incomplete-branch index" in str(err)

    def test_stale_oldest_gate_is_named(self, bundle):
        planted = []

        def misname_oldest(proc):
            index = proc._incomplete_branches
            if planted or not proc._oldest_gate_valid or len(index) < 2:
                return
            youngest = list(index)[-1]
            if youngest != proc._oldest_gate:
                proc._oldest_gate = youngest
                planted.append(youngest)

        err = self._run_with_hook(
            bundle, misname_oldest, completion_model=CompletionModel.SPEC_D
        )
        assert planted
        assert err.structure == "branch-gates"
        assert "oldest-gate cache" in str(err)


class TestFaultLocalizationOnGeneratedWorkloads:
    """The localization is not tuned to the paper benchmarks: every
    structural injector is still caught and correctly named under
    fuzz-generated family workloads (``fam:<family>:<seed>``)."""

    FAMILY_WORKLOADS = ["fam:branchy:0", "fam:aliasing:1"]

    @pytest.fixture(scope="class", params=FAMILY_WORKLOADS)
    def generated(self, request):
        program = build_workload(request.param, 0.5).program
        return program, GoldenTrace(program), ReconvergenceTable(program)

    # Whether one corruption *trips* depends on what is in flight at the
    # trigger (a swap in a near-empty ROB is a no-op), so each fault
    # gets a couple of injection points; it must trip at least once and
    # every trip must name its own structure.
    ATTEMPTS = [(0, 30), (0, 150)]

    @pytest.mark.parametrize("cls,structure", TestFaultLocalization.CASES)
    def test_structure_named_on_generated_program(
        self, generated, cls, structure
    ):
        program, golden, table = generated
        assert len(golden) > 200  # the faults need room to fire and trip
        tripped = 0
        for seed, trigger in self.ATTEMPTS:
            fault = cls(seed=seed, trigger_retired=trigger)
            cfg = CoreConfig(
                window_size=128, sanitize=True, sanitize_stride=1
            )
            try:
                run_with_fault(program, cfg, fault, golden, table)
            except SanitizerError as err:
                tripped += 1
                assert err.structure == structure
                assert err.snapshot is not None
            assert fault.fired
        assert tripped >= 1


class TestValueFaultsStillCaughtUnderSanitizer:
    """The sanitizer checks structure, not values: the existing
    co-simulation checkers keep catching value corruption with the
    sanitizer enabled."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_register_value_fault(self, bundle, seed):
        program, golden, table = bundle
        fault = RegisterValueFault(seed=seed)
        cfg = CoreConfig(window_size=128, sanitize=True, sanitize_stride=1)
        with pytest.raises(CosimulationError):
            run_with_fault(program, cfg, fault, golden, table)

    def test_predictor_state_fault(self, bundle):
        program, golden, table = bundle
        fault = PredictorStateFault(seed=1)
        cfg = CoreConfig(window_size=128, sanitize=True, sanitize_stride=1)
        with pytest.raises(CosimulationError):
            run_with_fault(program, cfg, fault, golden, table)
