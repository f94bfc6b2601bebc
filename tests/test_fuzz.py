"""Differential fuzzing subsystem: generator legality, workload
families, the oracle (clean machines + planted-bug mutants), the
delta-debugging shrinker, the checkpointed campaign runner, and the
committed reproducer corpus replay."""

import json
from pathlib import Path

import pytest

from repro.errors import ConfigError, HarnessError, WorkloadError
from repro.fuzz import (
    GenConfig,
    generate_program,
    generate_source,
    load_corpus,
    run_oracle,
    save_reproducer,
    shrink_program,
)
from repro.fuzz.campaign import CampaignConfig, run_campaign
from repro.fuzz.corpus import load_reproducer, program_source
from repro.fuzz.mutants import MUTANT_NAMES, mutant_machine, run_mutant
from repro.fuzz.shrink import divergence_predicate
from repro.analysis.invariants import check_core_stats
from repro.analysis.lint import check_program
from repro.core import CoreStats
from repro.functional import run as run_functional
from repro.isa import Op
from repro.workloads import build_workload
from repro.workloads.families import (
    FAMILY_NAMES,
    family_config,
    family_workload_name,
    parse_family_name,
)

#: a small, fast machine slice for oracle tests (full registry is the
#: campaign's job, exercised by examples/fuzz_campaign.py in CI)
FAST_MACHINES = ("BASE", "CI", "ideal/oracle", "functional")

CORPUS_DIR = Path(__file__).parent / "corpus"

#: small-and-quick generator shape used by the shrinker/oracle tests
SMALL = dict(size=30, branch_density=0.3, loop_nesting=1, loop_trips=2,
             call_depth=0, aliasing=0.5, chain_depth=2, outer_trips=1)


class TestGenerator:
    def test_deterministic_per_seed(self):
        cfg = GenConfig(seed=42)
        assert generate_source(cfg) == generate_source(cfg)

    def test_seeds_differ(self):
        a = generate_source(GenConfig(seed=0))
        b = generate_source(GenConfig(seed=1))
        assert a != b

    @pytest.mark.parametrize("seed", range(5))
    def test_programs_are_legal_and_terminate(self, seed):
        program = generate_program(GenConfig(seed=seed, **SMALL))
        # zero lint suppressions: the generator emits clean programs
        check_program(program, suppressions=())
        trace = run_functional(program, max_steps=200_000)
        assert trace[-1].instr.op is Op.HALT
        assert len(trace) > len(program.instructions) // 2

    def test_knobs_shape_the_program(self):
        dense = generate_program(GenConfig(seed=3, size=120, branch_density=0.8))
        sparse = generate_program(GenConfig(seed=3, size=120, branch_density=0.05))
        def branches(p):
            return sum(1 for i in p.instructions if i.is_control)
        assert branches(dense) > branches(sparse)

    @pytest.mark.parametrize("kwargs", [
        dict(size=2), dict(branch_density=1.5), dict(loop_nesting=-1),
        dict(loop_trips=0), dict(call_depth=99), dict(chain_depth=0),
        dict(outer_trips=0),
    ])
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            GenConfig(**kwargs).validate()

    def test_scaled_changes_trips_only(self):
        base = GenConfig(seed=1, loop_trips=10)
        scaled = base.scaled(0.2)
        assert scaled.loop_trips == 2
        assert scaled.seed == base.seed and scaled.size == base.size


class TestFamilies:
    def test_family_names_route_through_build_workload(self):
        workload = build_workload("fam:branchy:7", 0.3)
        assert workload.program.name == "fam:branchy:7"
        check_program(workload.program, suppressions=())

    def test_variant_offsets_the_seed(self):
        a = family_config("loopy", 0, 1.0)
        b = family_config("loopy", 1, 1.0)
        assert a.seed + 1 == b.seed

    def test_name_round_trip(self):
        name = family_workload_name("aliasing", 12)
        assert parse_family_name(name) == ("aliasing", 12)

    @pytest.mark.parametrize("bad", ["fam:", "fam:nope:1", "fam:branchy:x",
                                     "fam:branchy"])
    def test_bad_names_rejected(self, bad):
        with pytest.raises((ConfigError, Exception)):
            build_workload(bad, 0.3)

    def test_every_family_generates(self):
        for family in FAMILY_NAMES:
            workload = build_workload(family_workload_name(family, 0), 0.2)
            assert len(workload.program.instructions) > 10


class TestOracle:
    def test_machines_agree_on_generated_program(self):
        program = generate_program(GenConfig(seed=4, **SMALL))
        report = run_oracle(program, machines=FAST_MACHINES,
                            overrides={"watchdog_cycles": 20_000})
        assert report.ok, report.describe()
        assert report.golden_length > 0
        assert set(report.summaries) == set(FAST_MACHINES)

    def test_full_registry_clean_on_generated_program(self):
        program = generate_program(GenConfig(seed=7, size=60, branch_density=0.4,
                                             loop_nesting=2, loop_trips=3,
                                             aliasing=0.5, chain_depth=3))
        report = run_oracle(program, overrides={"watchdog_cycles": 20_000})
        assert report.ok, report.describe()

    def test_unknown_machine_rejected_before_work(self):
        program = generate_program(GenConfig(seed=4, **SMALL))
        with pytest.raises(ConfigError):
            run_oracle(program, machines=("no-such-machine",))

    @pytest.mark.parametrize(
        "overrides, match",
        [({"bogus": 1}, "'bogus'"), ({"window_size": 0}, "window_size")],
        ids=["unknown", "out-of-range"],
    )
    def test_bad_overrides_rejected_before_work(self, overrides, match):
        program = generate_program(GenConfig(seed=4, **SMALL))
        with pytest.raises(ConfigError, match=match):
            run_oracle(program, machines=("BASE", "functional"),
                       overrides=overrides)

    def test_mutant_is_caught(self):
        # seed 0 with the SMALL shape triggers the alu-xor mutant
        program = generate_program(GenConfig(seed=0, **SMALL))
        report = run_oracle(program, machines=("functional",),
                            mutants=("alu-xor",), max_steps=100_000)
        assert not report.ok
        assert report.kinds() == {"alu-xor": "arch-reg"}

    def test_unknown_mutant_rejected(self):
        with pytest.raises(ConfigError):
            mutant_machine("not-a-mutant")

    def test_mutants_only_differ_on_their_trigger(self):
        # A program with no XOR runs identically under the alu-xor mutant.
        program = generate_program(GenConfig(seed=4, **SMALL))
        if any(i.op is Op.XOR for i in program.instructions):
            pytest.skip("generated program happens to contain XOR")
        trace, _ = run_mutant(mutant_machine("alu-xor"), program)
        ref = run_functional(program)
        assert [(e.pc, e.next_pc) for e in trace] == [
            (e.pc, e.next_pc) for e in ref
        ]

    def test_invariants_catch_bad_accounting(self):
        stats = CoreStats()
        stats.retired = 10
        stats.fetched = 5  # retired > fetched is impossible
        stats.cycles = 1
        violations = check_core_stats("X", stats, golden_length=10)
        assert any("fetched" in v for v in violations)


class TestShrinker:
    def test_minimizes_mutant_divergence_below_25(self):
        program = generate_program(GenConfig(seed=0, **SMALL))
        signature = {"alu-xor": "arch-reg"}
        predicate = divergence_predicate(
            ("functional",), ("alu-xor",), signature, max_steps=100_000
        )
        small = shrink_program(program, predicate)
        assert len(small.instructions) <= 25
        assert len(small.instructions) < len(program.instructions)
        # the minimized program still shows exactly the same divergence
        report = run_oracle(small, machines=("functional",),
                            mutants=("alu-xor",), max_steps=100_000)
        assert report.kinds() == signature

    def test_refuses_non_divergent_input(self):
        program = generate_program(GenConfig(seed=4, **SMALL))
        with pytest.raises(ValueError):
            shrink_program(program, lambda p: False)


class TestCampaign:
    MACHS = ("functional",)

    def config(self, tmp_path, **kwargs):
        defaults = dict(seed=0, cases=4, machines=self.MACHS, scale=0.2,
                        jobs=1, checkpoint_path=str(tmp_path / "ckpt.json"))
        defaults.update(kwargs)
        return CampaignConfig(**defaults)

    @pytest.mark.parametrize(
        "overrides, match",
        [((("bogus", 1),), "'bogus'"), ((("window_size", 0),), "window_size")],
        ids=["unknown", "out-of-range"],
    )
    def test_bad_overrides_rejected_by_validate(self, tmp_path, overrides, match):
        # A bad knob would fail every detailed machine on every case;
        # it must not reach the oracle as a stream of "crash" findings.
        cfg = self.config(tmp_path, machines=("BASE", "functional"),
                          overrides=overrides)
        with pytest.raises(ConfigError, match=match):
            cfg.validate()
        with pytest.raises(ConfigError, match=match):
            run_campaign(cfg)
        assert not (tmp_path / "ckpt.json").exists()

    @pytest.mark.parametrize(
        "kwargs, error, match",
        [
            ({"jobs": 0}, ConfigError, "jobs"),
            ({"jobs": -3}, ConfigError, "jobs"),
            ({"jobs": "many"}, ConfigError, "jobs"),
            ({"jobs": 2, "timeout_seconds": -1}, ConfigError, "timeout_seconds"),
            ({"scale": -1.0}, WorkloadError, "scale"),
        ],
        ids=["jobs-zero", "jobs-negative", "jobs-word", "timeout", "scale"],
    )
    def test_bad_execution_input_rejected_before_any_case_runs(
        self, tmp_path, monkeypatch, kwargs, error, match
    ):
        # These used to run serially, raise a TypeError mid-run, or file
        # every case as an error row.
        import repro.fuzz.campaign as campaign_mod

        def explode(*args, **kw):  # pragma: no cover - must not run
            raise AssertionError("a case ran despite bad execution input")

        monkeypatch.setattr(campaign_mod, "run_case", explode)
        cfg = self.config(tmp_path, cases=2, machines=("BASE",), **kwargs)
        with pytest.raises(error, match=match):
            cfg.validate()
        with pytest.raises(error, match=match):
            run_campaign(cfg)
        assert not (tmp_path / "ckpt.json").exists()

    def test_auto_jobs_runs_the_campaign(self, tmp_path):
        report = run_campaign(self.config(tmp_path, cases=2, jobs="auto"))
        assert report["counts"]["clean"] == 2

    def test_pool_reports_what_the_serial_loop_reports(self, tmp_path):
        kwargs = dict(cases=6, mutants=("alu-xor", "branch-bge"), shrink=False,
                      checkpoint_path=None)
        serial = run_campaign(self.config(tmp_path, jobs=1, **kwargs))
        pooled = run_campaign(self.config(tmp_path, jobs=2, **kwargs))
        assert serial["counts"]["divergent"] > 0
        for field in ("counts", "statuses", "signature_groups", "divergences"):
            assert pooled[field] == serial[field], field

    def test_interrupted_campaign_keeps_its_finished_cases(self, tmp_path, monkeypatch):
        import repro.fuzz.campaign as campaign_mod

        real_run_case = campaign_mod.run_case
        finished = []

        def interrupt_after_two(*args):
            if len(finished) == 2:
                raise KeyboardInterrupt
            finished.append(real_run_case(*args))
            return finished[-1]

        cfg = self.config(tmp_path, cases=6)
        with monkeypatch.context() as patch:
            patch.setattr(campaign_mod, "run_case", interrupt_after_two)
            with pytest.raises(KeyboardInterrupt):
                run_campaign(cfg)
        # Fewer cases than one checkpoint batch: only the flush on the
        # way out saved them.
        resumed = run_campaign(cfg)
        assert resumed["counts"]["resumed"] == 2
        assert resumed["counts"]["executed"] == 4
        assert resumed["counts"]["clean"] == 6

    def test_clean_campaign(self, tmp_path):
        report = run_campaign(self.config(tmp_path))
        assert report["counts"]["clean"] == 4
        assert report["counts"]["executed"] == 4
        assert report["cases_per_second"] > 0

    def test_resume_re_executes_nothing(self, tmp_path, monkeypatch):
        import repro.fuzz.campaign as campaign_mod

        cfg = self.config(tmp_path)
        first = run_campaign(cfg)
        assert first["counts"]["executed"] == 4

        def explode(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("a completed case was re-executed")

        monkeypatch.setattr(campaign_mod, "run_case", explode)
        second = run_campaign(cfg)
        assert second["counts"]["resumed"] == 4
        assert second["counts"]["executed"] == 0
        assert second["counts"]["clean"] == 4

    def test_budget_skips_undispatched_cases(self, tmp_path):
        cfg = self.config(tmp_path, budget_seconds=0.000001)
        report = run_campaign(cfg)
        counts = report["counts"]
        assert counts["skipped"] + counts["executed"] == 4
        assert counts["skipped"] >= 3

    def test_fault_injection_produces_small_reproducer(self, tmp_path):
        corpus_dir = tmp_path / "corpus"
        cfg = self.config(
            tmp_path, cases=1, mutants=("mem-store",),
            families=("aliasing",), scale=0.3,
            corpus_dir=str(corpus_dir),
        )
        report = run_campaign(cfg)
        assert report["counts"]["divergent"] == 1
        (entry,) = report["divergences"]
        assert entry["signature"]["mem-store"] in ("arch-mem", "arch-reg",
                                                   "stream")
        reproducers = load_corpus(corpus_dir)
        assert len(reproducers) == 1
        assert reproducers[0].is_mutant_repro

    def test_case_keys_are_stable_and_distinct(self, tmp_path):
        cfg = self.config(tmp_path)
        keys = [cfg.case_key(i) for i in range(4)]
        assert len(set(keys)) == 4
        assert keys == [cfg.case_key(i) for i in range(4)]
        # a different machine set must not collide in the checkpoint
        other = self.config(tmp_path, machines=("BASE", "functional"))
        assert other.case_key(0) != cfg.case_key(0)


class TestCorpusFormat:
    def test_round_trip(self, tmp_path):
        program = generate_program(GenConfig(seed=2, **SMALL))
        path = save_reproducer(
            tmp_path, program, signature={"alu-xor": "arch-reg"},
            machines=("functional",), mutants=("alu-xor",),
            provenance={"note": "test"},
        )
        repro = load_reproducer(path)
        rebuilt = repro.program()
        assert [
            (i.op, i.rd, i.rs1, i.rs2, i.imm, i.target)
            for i in rebuilt.instructions
        ] == [
            (i.op, i.rd, i.rs1, i.rs2, i.imm, i.target)
            for i in program.instructions
        ]
        assert rebuilt.entry == program.entry
        assert rebuilt.data == program.data

    def test_source_render_is_pc_stable(self):
        program = generate_program(GenConfig(seed=3, **SMALL))
        from repro.isa import assemble

        rebuilt = assemble(program_source(program), name=program.name)
        ref = [(e.pc, e.next_pc) for e in run_functional(program)]
        got = [(e.pc, e.next_pc) for e in run_functional(rebuilt)]
        assert got == ref

    def test_version_mismatch_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"version": 999}))
        with pytest.raises(HarnessError):
            load_reproducer(bad)

    def test_missing_directory_is_empty_corpus(self, tmp_path):
        assert load_corpus(tmp_path / "nope") == []


class TestCommittedCorpusReplay:
    """The regression corpus in tests/corpus/: every committed
    reproducer must still (a) run clean on real machines and (b) make
    its recorded mutant diverge with the recorded kind."""

    REPRODUCERS = load_corpus(CORPUS_DIR)

    def test_corpus_is_present_and_minimized(self):
        assert self.REPRODUCERS, "tests/corpus/ must hold reproducers"
        assert {m for r in self.REPRODUCERS for m in r.mutants} == set(
            MUTANT_NAMES
        ), "every mutant needs at least one committed reproducer"

    @pytest.mark.parametrize(
        "repro", load_corpus(CORPUS_DIR), ids=lambda r: r.name
    )
    def test_replay(self, repro):
        program = repro.program()
        machines = ("BASE", "CI", "functional")
        report = run_oracle(
            program,
            machines=machines,
            mutants=repro.mutants,
            overrides={"watchdog_cycles": 20_000},
            max_steps=500_000,
        )
        kinds = report.kinds()
        # real machines stay clean ...
        for machine in machines:
            assert machine not in kinds, report.describe()
        # ... and the planted bug still diverges exactly as recorded
        for mutant, kind in repro.signature.items():
            assert kinds.get(mutant) == kind, report.describe()
