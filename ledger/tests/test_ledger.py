"""Smoke-size checks of the ledger.

    PYTHONPATH=src python -m pytest ledger/tests -q

One ``run.py --smoke`` invocation runs every workload untraced and
traced; the tests read its printed lines and its ``--out`` records.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
LEDGER = ROOT / "ledger"
sys.path.insert(0, str(LEDGER))

import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

#: per-layer metrics that must be nonzero on the workload doing most of
#: that layer's work (the ledger README's layer table)
MOST_WORK = {
    "paper-study": [
        "core.run_s", "core.build_s", "core.cells", "core.cycles", "core.retired",
        "core.issues", "core.recoveries", "core.pool_claims", "core.host_us_per_cycle",
        "core.stage_fetch_cycles", "core.stage_dispatch_cycles", "core.stage_issue_cycles",
        "core.stage_complete_cycles", "core.stage_recover_cycles",
        "core.stage_retire_cycles", "harness.spec.row_self_s", "harness.spec.rows",
        "harness.runner.cells", "harness.runner.attempts", "harness.runner.cell_p50_ms",
        "harness.tables.format_s", "harness.cache.lookup_s", "harness.cache.memory_hits",
    ],
    "paper-study-jobs2": [
        "harness.parallel.pool_s", "harness.parallel.tasks", "harness.parallel.efficiency",
        "harness.checkpoint.records", "harness.checkpoint.record_s",
        "harness.checkpoint.bytes", "harness.checkpoint.resumed",
        "harness.checkpoint.resume_mismatch_rows", "harness.cache.disk_hits",
        "harness.cache.misses", "core.golden_s", "cfg.reconv_s", "workloads.builds",
        "core.cells",
    ],
    "ideal-sweep": [
        "ideal.schedule_s", "ideal.cells", "ideal.cycles", "ideal.retired",
        "ideal.host_ns_per_cycle", "ideal.wrong_path_per_retired", "ideal.annotate_s",
        "bpred.measure_s", "functional.run_s", "functional.steps",
    ],
    "fuzz-campaign": [
        "fuzz.cases", "fuzz.case_p50_ms", "fuzz.oracle_self_s", "analysis.invariants_s",
        "functional.run_s", "functional.steps", "workloads.build_s", "workloads.builds",
        "core.golden_s", "cfg.reconv_s", "core.cells",
    ],
}


def ledger(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "ledger" / "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "ledger.json"
    proc = ledger("--smoke", "--seconds", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(out.read_text())["runs"]
    return {
        "stdout": proc.stdout,
        "result": json.loads(proc.stdout.splitlines()[-1]),
        "runs": {(r["workload"], r["trace"]): r for r in runs},
    }


def test_every_end_to_end_metric_prints_with_its_unit(smoke):
    for workload in WORKLOADS:
        for metric in BENCH["end_to_end"]:
            name, unit = metric["name"], metric["unit"]
            printed = smoke["result"]["metrics"][f"{workload}.{name}"]
            assert printed["unit"] == unit
            assert printed["value"] > 0, (workload, name)
            assert any(
                line.split()[:2] == [workload, name] and line.split()[-1] == unit
                for line in smoke["stdout"].splitlines()
            ), (workload, name)
    assert smoke["result"]["correct"] is True
    assert smoke["result"]["failed"] == 0


def test_single_workload_result_line_has_the_declared_metrics(tmp_path):
    proc = ledger("--workload", "ideal-sweep", "--seed", "3", "--seconds", "1",
                  "--trace", "0", "--smoke", "--out", str(tmp_path / "l.json"))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert result["attempted"] >= 1


def test_every_span_fires_on_its_most_work_workload(smoke):
    declared = {m["name"] for m in BENCH["per_layer"]}
    for workload in WORKLOADS:
        metrics = smoke["runs"][(workload, 1)]["metrics"]
        assert set(metrics) == declared
        assert metrics["trace.spans"] > 0
    for workload, names in MOST_WORK.items():
        metrics = smoke["runs"][(workload, 1)]["metrics"]
        silent = [name for name in names if not metrics[name] > 0]
        assert not silent, (workload, silent)


def test_ideal_sweep_bypasses_the_detailed_core(smoke):
    metrics = smoke["runs"][("ideal-sweep", 1)]["metrics"]
    assert {k: v for k, v in metrics.items() if k.startswith("core.") and v} == {}


def test_traced_and_untraced_digests_match(smoke):
    for workload in WORKLOADS:
        untraced = smoke["runs"][(workload, 0)]["units"][0]["digests"]
        plain, traced = smoke["runs"][(workload, 1)]["units"]
        assert untraced and traced["digests"] == plain["digests"] == untraced
        assert traced["instructions"] == plain["instructions"] > 0


def test_study_digests_do_not_depend_on_the_seed(smoke):
    study = smoke["runs"][("paper-study", 0)]["units"][0]["digests"]
    parallel = smoke["runs"][("paper-study-jobs2", 0)]["units"][0]["digests"]
    assert len(study) == 14 and study == parallel


def test_a_pinned_digest_mismatch_names_the_artifact(tmp_path, monkeypatch):
    import unit

    pins = tmp_path / "digests.json"
    pins.write_text(json.dumps({"paper-study": {"table2": "0" * 64, "figure5": "ab"}}))
    monkeypatch.setattr(unit, "PINNED", pins)
    assert unit.pinned_mismatches("paper-study", {"table2": "f" * 64, "figure5": "ab"}) == [
        "table2"
    ]
    record = {"units": [{"mismatches": ["table2"], "facts": {}}], "failed": 0,
              "attempted": 1}
    assert run.problems(record) == ["digest mismatch: table2"]


def test_benchmark_json_declares_what_the_code_reports():
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in spans.LAYER_METRICS.items()
    ]
    for metric in BENCH["end_to_end"]:
        assert run.END_TO_END[metric["name"]] == metric["unit"]
    assert WORKLOADS == list(run.WORKLOADS)


def test_exits_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(LEDGER, tmp_path / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = ledger("--workload", "paper-study", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert spans.tail([1.0] * 19) == (0.0, 0.0)
    pct, value = spans.tail([float(i) for i in range(1, 101)])
    assert (pct, value) == (90.0, 90.0)


def test_self_time_subtracts_same_process_children_only():
    spans_ = [
        {"id": "1-0", "parent": None, "pid": 1, "start": 0.0, "end": 10.0},
        {"id": "1-1", "parent": "1-0", "pid": 1, "start": 1.0, "end": 4.0},
        {"id": "1-2", "parent": "1-0", "pid": 1, "start": 3.0, "end": 5.0},
        {"id": "2-0", "parent": "1-0", "pid": 2, "start": 0.0, "end": 9.0},
    ]
    selfs = spans.self_times(spans_)
    assert selfs["1-0"] == pytest.approx(6.0)
    assert selfs["2-0"] == pytest.approx(9.0)


@pytest.mark.parametrize(
    "change, expected",
    [
        ([10.0 + 0.01 * i for i in range(10)], "same"),
        ([8.0 + 0.01 * i for i in range(10)], "gain"),
        ([13.0 + 0.01 * i for i in range(10)], "regression"),
        ([5.0, 15.0] * 5, "unresolved"),
        ([2.0, 8.0] * 5, "better"),
        ([10.0] * 9, "insufficient"),
    ],
)
def test_compare_verdicts(change, expected):
    parent = [10.0 + 0.01 * i for i in range(10)]
    assert compare.verdict(parent, change, bound=0.2, better="lower") == expected


def test_compare_reads_run_files_and_flags_regressions(tmp_path):
    def runs(wall):
        return {"runs": [
            {"workload": "ideal-sweep", "trace": 0, "smoke": False,
             "metrics": {m["name"]: wall + 0.01 * i for m in BENCH["end_to_end"]}}
            for i in range(10)
        ]}

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(runs(10.0)))
    b.write_text(json.dumps(runs(10.0)))
    assert compare.main([str(a), str(b)]) == 0
    b.write_text(json.dumps(runs(14.0)))
    assert compare.main([str(a), str(b)]) == 1
