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
from repro.errors import SanitizerError
from repro.core import CosimulationError
from repro.workloads import build_workload

from faults import (
    lsq_drop,
    predictor_state,
    register_value,
    rename_map,
    rob_order,
    run_with_hooks,
    tag_alias,
)

SCALE = 0.05


@pytest.fixture(autouse=True)
def no_env_sanitizer(monkeypatch):
    # Each test attaches exactly the sanitizer it means to, so the
    # REPRO_SANITIZE switch must not add a second one.
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)


@pytest.fixture(scope="module")
def bundle():
    program = build_workload("compress", SCALE).program
    return program, GoldenTrace(program), ReconvergenceTable(program)


def run(program, golden, table, *hooks, **cfg_kwargs):
    cfg = CoreConfig(window_size=128, **cfg_kwargs)
    return run_with_hooks(program, cfg, golden, table, *hooks)


def run_checked(program, golden, table, fault, **cfg_kwargs):
    """Run with a stride-1 sanitizer first, then ``fault``: a fault
    landing at the end of cycle N is caught at the end of cycle N+1."""
    return run(program, golden, table, MachineSanitizer(stride=1), fault,
               **cfg_kwargs)


class TestCleanRuns:
    @pytest.mark.parametrize(
        "policy", [ReconvPolicy.NONE, ReconvPolicy.POSTDOM, ReconvPolicy.RETURN_LOOP_LTB]
    )
    def test_no_false_positives_at_stride_one(self, bundle, policy):
        program, golden, table = bundle
        stats = run(program, golden, table, MachineSanitizer(stride=1),
                    reconv_policy=policy)
        assert stats.retired == len(golden)

    def test_sanitizer_does_not_change_statistics(self, bundle):
        program, golden, table = bundle
        plain = run(program, golden, table)
        checked = run(program, golden, table, MachineSanitizer(stride=1))
        assert isinstance(plain, CoreStats)
        assert plain == checked  # dataclass equality over every counter

    def test_stride_skips_cycles(self, bundle):
        program, golden, table = bundle
        sanitizer = MachineSanitizer(stride=64)
        stats = run(program, golden, table, sanitizer)
        assert 0 < sanitizer.checks_run <= stats.cycles // 64 + 1


class TestConfigWiring:
    """``REPRO_SANITIZE`` is the one switch: it attaches one sanitizer,
    at stride 64, as the processor's first cycle hook."""

    @staticmethod
    def _hooks(bundle):
        program, golden, table = bundle
        return Processor(program, CoreConfig(), golden, table)._cycle_hooks

    def test_env_opt_in(self, bundle, monkeypatch):
        for value in ("1", "true", " Yes ", "ON"):
            monkeypatch.setenv("REPRO_SANITIZE", value)
            assert len(self._hooks(bundle)) == 1, value
        for value in ("off", "0", ""):
            monkeypatch.setenv("REPRO_SANITIZE", value)
            assert self._hooks(bundle) == [], value
        monkeypatch.delenv("REPRO_SANITIZE")
        assert self._hooks(bundle) == []

    def test_processor_attaches_sanitizer_hook(self, bundle, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        hooks = self._hooks(bundle)
        assert len(hooks) == 1
        assert isinstance(hooks[0], MachineSanitizer)
        assert hooks[0].stride == 64

    def test_bad_stride_rejected(self):
        with pytest.raises(ValueError, match="stride must be >= 1"):
            MachineSanitizer(stride=0)


class TestFaultLocalization:
    """Each structural fault must be caught AND named correctly."""

    CASES = [
        pytest.param(rob_order, "rob-links", id="ROBOrderFault-rob-links"),
        pytest.param(tag_alias, "broadcast-network",
                     id="TagAliasFault-broadcast-network"),
        pytest.param(rename_map, "rename-map", id="RenameMapFault-rename-map"),
        pytest.param(lsq_drop, "lsq", id="LSQDropFault-lsq"),
    ]

    @pytest.mark.parametrize("make,structure", CASES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_structure_named(self, bundle, make, structure, seed):
        program, golden, table = bundle
        fault = make(seed=seed, trigger=40)
        with pytest.raises(SanitizerError) as excinfo:
            run_checked(program, golden, table, fault)
        assert fault.description
        err = excinfo.value
        assert err.structure == structure
        assert structure in STRUCTURES
        assert f"sanitizer[{structure}]" in str(err)
        assert err.snapshot is not None  # diagnosable from the message alone

    @pytest.mark.parametrize("make,structure", CASES)
    def test_fault_is_deterministic(self, bundle, make, structure):
        program, golden, table = bundle
        messages = set()
        for _ in range(2):
            fault = make(seed=7, trigger=40)
            with pytest.raises(SanitizerError) as excinfo:
                run_checked(program, golden, table, fault)
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
        fault = rob_order(seed=0, trigger=40)
        try:
            run(program, golden, table, fault)
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
        with pytest.raises(SanitizerError) as excinfo:
            run_checked(*bundle, hook, **cfg_kwargs)
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
    structural fault is still caught and correctly named under
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

    @pytest.mark.parametrize("make,structure", TestFaultLocalization.CASES)
    def test_structure_named_on_generated_program(
        self, generated, make, structure
    ):
        program, golden, table = generated
        assert len(golden) > 200  # the faults need room to fire and trip
        tripped = 0
        for seed, trigger in self.ATTEMPTS:
            fault = make(seed=seed, trigger=trigger)
            try:
                run_checked(program, golden, table, fault)
            except SanitizerError as err:
                tripped += 1
                assert err.structure == structure
                assert err.snapshot is not None
            assert fault.description
        assert tripped >= 1


class TestValueFaultsStillCaughtUnderSanitizer:
    """The sanitizer checks structure, not values: the existing
    co-simulation checkers keep catching value corruption with the
    sanitizer enabled."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_register_value_fault(self, bundle, seed):
        program, golden, table = bundle
        with pytest.raises(CosimulationError):
            run_checked(program, golden, table, register_value(seed=seed))

    def test_predictor_state_fault(self, bundle):
        program, golden, table = bundle
        with pytest.raises(CosimulationError):
            run_checked(program, golden, table, predictor_state(seed=1))
