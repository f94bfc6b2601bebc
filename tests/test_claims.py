"""The paper's qualitative claims, asserted over all five kernels.

One fault-free study of every runnable artifact at :data:`SCALE` feeds
every claim: its cell memo shares each distinct detailed simulation
across the artifacts, and Figure 6 derives from Figure 5.  Each
``check_<artifact>`` takes that artifact's data (what ``run_spec``
returns) and asserts the shape the paper reports, so the same checks
run on any scale's data.

``SCALE`` is the smallest scale at which every claim holds on all five
kernels, vortex included: up to 0.06 vortex reconverges none of its few
mispredictions, so its Table 2 and 3 claims would hold vacuously; at
0.07 it reconverges half of them.  (At 0.02, Figure 13's CI-OR/CI ratio
on go also falls to 0.894.)  The two thinnest margins are noted at their
asserts.  Regenerate the tables themselves with
``examples/paper_tables.py``.
"""

import copy

import pytest

from repro.harness import run_study, spec_names, study_artifacts
from repro.harness.specs import DETAILED_WINDOWS, IDEAL_WINDOWS

SCALE = 0.07


@pytest.fixture(scope="module")
def artifacts():
    study = run_study(scale=SCALE, jobs=1)
    assert study["failures"] == []
    return study_artifacts(study["results"])


def check_table1(rows):
    """Table 1: benchmark instruction counts and misprediction rates."""
    assert len(rows) == 5
    rates = {r["benchmark"]: r["misprediction_rate"] for r in rows}
    assert rates["go"] == max(rates.values())       # paper: go 16.7%, hardest
    assert rates["vortex"] == min(rates.values())   # paper: vortex 1.4%, easiest


def check_figure3(data):
    """Figure 3: IPC of the six idealized models vs window size."""
    for name, models in data.items():
        for window in IDEAL_WINDOWS:
            oracle = models["oracle"][window]
            base = models["base"][window]
            wrfd = models["WR-FD"][window]
            # oracle bounds everything; WR-FD lands between base and oracle
            assert base <= oracle * 1.02
            assert wrfd <= oracle * 1.02
            assert wrfd >= base * 0.95, (name, window)


def check_figure5(data):
    """Figure 5: detailed-machine IPC (BASE / CI / CI-I) per window size."""
    for name, machines in data.items():
        for window in DETAILED_WINDOWS:
            assert machines["CI"][window] > 0
            # CI never loses badly to BASE; on go it clearly wins
            assert machines["CI"][window] >= machines["BASE"][window] * 0.9
    go = data["go"]
    assert go["CI"][max(DETAILED_WINDOWS)] > go["BASE"][max(DETAILED_WINDOWS)]


def check_figure6(data):
    """Figure 6: percent IPC improvement of CI over BASE."""
    biggest = max(DETAILED_WINDOWS)
    # paper: go shows the most benefit, vortex the least
    assert data["go"][biggest] > data["vortex"][biggest]


def check_table2(rows):
    """Table 2: statistics for restart/redispatch sequences."""
    by_name = {r["benchmark"]: r for r in rows}
    for name, row in by_name.items():
        assert row["pct_reconverge"] > 40, name      # paper: 46.8 - 90.8%
        assert row["avg_ci_renamed"] < 15, name      # paper: ~2-3
    assert by_name["compress"]["pct_reconverge"] > 60


def check_table3(rows):
    """Table 3: work saved by exploiting control independence."""
    by_name = {r["benchmark"]: r for r in rows}
    for row in rows:
        assert 0 <= row["work_saved"] <= row["fetch_saved"] <= 1
    assert by_name["vortex"]["fetch_saved"] > 0  # vortex reconverges too
    # paper: go/compress save much more work than vortex
    assert by_name["go"]["fetch_saved"] > by_name["vortex"]["fetch_saved"]


def check_table4(rows):
    """Table 4: instruction issues per retired instruction."""
    for row in rows:
        assert row["noci_total"] >= 1.0
        assert row["ci_total"] >= row["noci_total"] * 0.9  # CI adds reissues
    by_name = {r["benchmark"]: r for r in rows}
    # paper: compress has the most reissue traffic
    assert by_name["compress"]["ci_total"] >= by_name["vortex"]["ci_total"]


def check_figure8(data):
    """Figure 8: simple vs optimal preemption of restart sequences."""
    for name, row in data.items():
        # paper: simple performs close to optimal at a 256 window.
        # Thin margin at SCALE: go's simple/optimal is 0.934.
        assert row["simple"] >= row["optimal"] * 0.85, name


def check_figure9(data):
    """Figure 9: branch completion models and false mispredictions."""
    for name, row in data.items():
        # hiding false mispredictions never hurts
        assert row["spec-HFM"] >= row["spec"] * 0.95, name
        assert row["spec-C-HFM"] >= row["spec-C"] * 0.95, name


def check_figure10(data):
    """Figure 10: identifying false mispredictions with TFR history."""
    for name, schemes in data.items():
        for scheme in ("static", "dynamic_pc", "dynamic_xor"):
            curve = schemes[scheme]
            true_total, false_total = schemes["counts"][scheme]
            assert curve[-1][0] == 1.0
            if false_total:
                assert curve[-1][1] == 1.0
            xs = [x for x, _ in curve]
            assert xs == sorted(xs)


def check_figure12(data):
    """Figure 12: impact of oracle global branch history."""
    for name, row in data.items():
        # paper: effect is bounded (about +/-5% at full scale; allow slack)
        ratio = row["oracle-history"] / row["timing"]
        assert 0.7 < ratio < 1.4, (name, ratio)


def check_figure13(data):
    """Figure 13: evaluation of re-predict sequences."""
    for name, row in data.items():
        # oracle re-prediction is the ceiling for the CI heuristic.
        # Thin margin at SCALE: go's CI-OR/CI is 0.940.
        assert row["CI-OR"] >= row["CI"] * 0.9, name


def check_figure14(data):
    """Figure 14: segmented reorder buffer granularity."""
    for name, row in data.items():
        # fragmentation costs capacity; at small scale second-order effects
        # allow small inversions, so bound the deviation rather than the sign
        assert row["seg16"] <= row["seg1"] * 1.15, name
        assert row["seg1"] > 0 and row["seg4"] > 0


def check_figure17(data):
    """Figure 17: hardware heuristics for identifying reconvergent points."""
    for name, row in data.items():
        # full post-dominator information is the reference point; the
        # combined heuristic recovers part of it (paper: 1/3 to 3/4)
        assert row["postdom"] >= -5.0


CHECKS = {name: globals()[f"check_{name}"] for name in spec_names()}


@pytest.mark.parametrize("name", spec_names())
def test_claim(artifacts, name):
    CHECKS[name](artifacts[name])


def test_ci_improves_unpredictable_workloads(artifacts):
    for name in ("go", "compress"):
        machines = artifacts["figure5"][name]
        for window in DETAILED_WINDOWS:
            assert machines["CI"][window] > machines["BASE"][window], (name, window)


def test_vortex_benefits_least(artifacts):
    gains = artifacts["figure6"]
    for window in DETAILED_WINDOWS:
        others = [gains[name][window] for name in gains if name != "vortex"]
        assert gains["vortex"][window] < min(others), window


def test_most_mispredictions_reconverge(artifacts):
    by_name = {r["benchmark"]: r for r in artifacts["table2"]}
    assert by_name["compress"]["pct_reconverge"] > 50


def test_redispatch_repairs_are_rare(artifacts):
    """Paper Table 2: only ~2-3 CI instructions get new names."""
    by_name = {r["benchmark"]: r for r in artifacts["table2"]}
    assert by_name["go"]["avg_ci_renamed"] < 10


def _swap_go_ci_and_base(a):
    go = a["figure5"]["go"]
    go["CI"], go["BASE"] = go["BASE"], go["CI"]


def _swap_go_and_vortex_rates(a):
    rows = {r["benchmark"]: r for r in a["table1"]}
    go, vortex = rows["go"], rows["vortex"]
    go["misprediction_rate"], vortex["misprediction_rate"] = (
        vortex["misprediction_rate"], go["misprediction_rate"])


def _halve_go_oracle_repredict(a):
    a["figure13"]["go"]["CI-OR"] /= 2


def _zero_vortex_reconvergence(a):
    (row,) = [r for r in a["table2"] if r["benchmark"] == "vortex"]
    row["pct_reconverge"] = 0.0


@pytest.mark.parametrize(
    "doctor, name",
    [
        (_swap_go_ci_and_base, "figure5"),
        (_swap_go_and_vortex_rates, "table1"),
        (_halve_go_oracle_repredict, "figure13"),
        (_zero_vortex_reconvergence, "table2"),
    ],
    ids=["figure5-go-ci-base-swapped", "table1-go-vortex-swapped",
         "figure13-go-ci-or-halved", "table2-vortex-reconvergence-zeroed"],
)
def test_doctored_result_fails_its_claim(artifacts, doctor, name):
    # The checks must see the data: a doctored copy fails its claim.
    doctored = copy.deepcopy(artifacts)
    doctor(doctored)
    with pytest.raises(AssertionError):
        CHECKS[name](doctored[name])
