"""Every paper table and figure, regenerated at bench scale and checked.

One benchmark per registered artifact (``test_artifact[table1]`` ...
``test_artifact[figure17]``): each runs through ``run_spec`` (Figure 6
derives from Figure 5), prints the rows the paper reports through
``format_experiment``, and asserts the artifact's qualitative claims.
Select one artifact with ``-k``, e.g. ``-k table1``.
"""

import pytest

from conftest import run_once
from repro.harness import derive, format_experiment, run_spec, spec_names


def check_table1(rows, windows):
    """Table 1: benchmark instruction counts and misprediction rates."""
    assert len(rows) == 5
    rates = {r["benchmark"]: r["misprediction_rate"] for r in rows}
    assert rates["go"] == max(rates.values())       # paper: go 16.7%, hardest
    assert rates["vortex"] == min(rates.values())   # paper: vortex 1.4%, easiest


def check_figure3(data, windows):
    """Figure 3: IPC of the six idealized models vs window size."""
    for name, models in data.items():
        for window in windows:
            oracle = models["oracle"][window]
            base = models["base"][window]
            wrfd = models["WR-FD"][window]
            # oracle bounds everything; WR-FD lands between base and oracle
            assert base <= oracle * 1.02
            assert wrfd <= oracle * 1.02
            assert wrfd >= base * 0.95, (name, window)


def check_figure5(data, windows):
    """Figure 5: detailed-machine IPC (BASE / CI / CI-I) per window size."""
    for name, machines in data.items():
        for window in windows:
            assert machines["CI"][window] > 0
            # CI never loses badly to BASE; on go it clearly wins
            assert machines["CI"][window] >= machines["BASE"][window] * 0.9
    go = data["go"]
    assert go["CI"][max(windows)] > go["BASE"][max(windows)]


def check_figure6(data, windows):
    """Figure 6: percent IPC improvement of CI over BASE."""
    biggest = max(windows)
    # paper: go shows the most benefit, vortex the least
    assert data["go"][biggest] > data["vortex"][biggest]


def check_table2(rows, windows):
    """Table 2: statistics for restart/redispatch sequences."""
    by_name = {r["benchmark"]: r for r in rows}
    for name, row in by_name.items():
        if name == "vortex":
            continue  # too few mispredictions at bench scale
        assert row["pct_reconverge"] > 40, name      # paper: 46.8 - 90.8%
        assert row["avg_ci_renamed"] < 15, name      # paper: ~2-3
    assert by_name["compress"]["pct_reconverge"] > 60


def check_table3(rows, windows):
    """Table 3: work saved by exploiting control independence."""
    by_name = {r["benchmark"]: r for r in rows}
    for row in rows:
        assert 0 <= row["work_saved"] <= row["fetch_saved"] <= 1
    # paper: go/compress save much more work than vortex
    assert by_name["go"]["fetch_saved"] > by_name["vortex"]["fetch_saved"]


def check_table4(rows, windows):
    """Table 4: instruction issues per retired instruction."""
    for row in rows:
        assert row["noci_total"] >= 1.0
        assert row["ci_total"] >= row["noci_total"] * 0.9  # CI adds reissues
    by_name = {r["benchmark"]: r for r in rows}
    # paper: compress has the most reissue traffic
    assert by_name["compress"]["ci_total"] >= by_name["vortex"]["ci_total"]


def check_figure8(data, windows):
    """Figure 8: simple vs optimal preemption of restart sequences."""
    for name, row in data.items():
        # paper: simple performs close to optimal at a 256 window
        assert row["simple"] >= row["optimal"] * 0.85, name


def check_figure9(data, windows):
    """Figure 9: branch completion models and false mispredictions."""
    for name, row in data.items():
        # hiding false mispredictions never hurts
        assert row["spec-HFM"] >= row["spec"] * 0.95, name
        assert row["spec-C-HFM"] >= row["spec-C"] * 0.95, name


def check_figure10(data, windows):
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


def check_figure12(data, windows):
    """Figure 12: impact of oracle global branch history."""
    for name, row in data.items():
        # paper: effect is bounded (about +/-5% at full scale; allow slack)
        ratio = row["oracle-history"] / row["timing"]
        assert 0.7 < ratio < 1.4, (name, ratio)


def check_figure13(data, windows):
    """Figure 13: evaluation of re-predict sequences."""
    for name, row in data.items():
        # oracle re-prediction is the ceiling for the CI heuristic
        assert row["CI-OR"] >= row["CI"] * 0.9, name


def check_figure14(data, windows):
    """Figure 14: segmented reorder buffer granularity."""
    for name, row in data.items():
        # fragmentation costs capacity; at bench scale second-order effects
        # allow small inversions, so bound the deviation rather than the sign
        assert row["seg16"] <= row["seg1"] * 1.15, name
        assert row["seg1"] > 0 and row["seg4"] > 0


def check_figure17(data, windows):
    """Figure 17: hardware heuristics for identifying reconvergent points."""
    for name, row in data.items():
        # full post-dominator information is the reference point; the
        # combined heuristic recovers part of it (paper: 1/3 to 3/4)
        assert row["postdom"] >= -5.0


def regenerate(name, core_scale, ideal_scale, windows):
    """One artifact at bench scale: the trace-driven studies (Table 1,
    Figure 3) at the idealized scale, the detailed-core ones at the core
    scale, and the window sweeps over ``windows``."""
    if name == "table1":
        return run_spec(name, ideal_scale)
    if name == "figure3":
        return run_spec(name, ideal_scale, windows=windows)
    if name == "figure5":
        return run_spec(name, core_scale, windows=windows)
    if name == "figure6":
        # The figure6 builder takes no windows: derive from Figure 5.
        return derive(name, run_spec("figure5", core_scale, windows=windows))
    return run_spec(name, core_scale)


@pytest.mark.parametrize("name", spec_names())
def test_artifact(benchmark, name, core_scale, ideal_scale, windows):
    check = globals()[f"check_{name}"]
    data = run_once(benchmark, regenerate, name, core_scale, ideal_scale, windows)
    print()
    print(format_experiment(name, data))
    check(data, windows)
