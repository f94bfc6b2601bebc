"""Plain-text formatters that print experiment results paper-style.

Each per-artifact formatter takes the artifact's assembled result
(:func:`repro.harness.spec.assemble_rows`) and returns its text.  The
registry entries in :mod:`repro.harness.specs` name their formatter in
``ExperimentSpec.format``; :func:`format_experiment` prints any spec
through it, and map-shaped artifacts without one fall back to
:func:`format_simple_map` under the spec's own title.
"""

from __future__ import annotations

from ..bpred import coverage_at_true_fraction


def format_table1(rows: list[dict]) -> str:
    lines = ["TABLE 1. Benchmark information.",
             f"{'benchmark':10s} {'instructions':>12s} {'mispred rate':>12s}"]
    for row in rows:
        lines.append(
            f"{row['benchmark']:10s} {row['instructions']:12d} "
            f"{row['misprediction_rate'] * 100:11.1f}%"
        )
    return "\n".join(lines)


def format_figure3(data: dict) -> str:
    lines = ["FIGURE 3. IPC of the six idealized models vs window size."]
    for name, models in data.items():
        lines.append(f"-- {name}")
        windows = sorted(next(iter(models.values())).keys())
        header = f"{'model':10s}" + "".join(f"{w:>8d}" for w in windows)
        lines.append(header)
        for model, per_window in models.items():
            lines.append(
                f"{model:10s}"
                + "".join(f"{per_window[w]:8.2f}" for w in windows)
            )
    return "\n".join(lines)


def format_figure5(data: dict) -> str:
    lines = ["FIGURE 5. IPC with and without control independence."]
    for name, machines in data.items():
        windows = sorted(next(iter(machines.values())).keys())
        lines.append(f"-- {name}")
        lines.append(f"{'machine':8s}" + "".join(f"{w:>8d}" for w in windows))
        for machine, per_window in machines.items():
            lines.append(
                f"{machine:8s}" + "".join(f"{per_window[w]:8.2f}" for w in windows)
            )
    return "\n".join(lines)


def format_figure6(data: dict) -> str:
    lines = ["FIGURE 6. Percent IPC improvement of CI over BASE."]
    windows = sorted(next(iter(data.values())).keys())
    lines.append(f"{'benchmark':10s}" + "".join(f"{w:>8d}" for w in windows))
    for name, per_window in data.items():
        lines.append(
            f"{name:10s}" + "".join(f"{per_window[w]:7.1f}%" for w in windows)
        )
    return "\n".join(lines)


def format_table2(rows: list[dict]) -> str:
    lines = [
        "TABLE 2. Statistics for restart/redispatch sequences.",
        f"{'benchmark':10s} {'%reconv':>8s} {'removed':>8s} {'inserted':>9s} "
        f"{'CI instr':>9s} {'renamed':>8s}",
    ]
    for row in rows:
        lines.append(
            f"{row['benchmark']:10s} {row['pct_reconverge']:7.1f}% "
            f"{row['avg_removed']:8.1f} {row['avg_inserted']:9.1f} "
            f"{row['avg_ci']:9.1f} {row['avg_ci_renamed']:8.2f}"
        )
    return "\n".join(lines)


def format_table3(rows: list[dict]) -> str:
    lines = [
        "TABLE 3. Work saved by exploiting control independence.",
        f"{'benchmark':10s} {'fetch':>7s} {'work':>7s} {'discard':>8s} {'onlyftch':>9s}",
    ]
    for row in rows:
        lines.append(
            f"{row['benchmark']:10s} {row['fetch_saved'] * 100:6.0f}% "
            f"{row['work_saved'] * 100:6.0f}% {row['work_discarded'] * 100:7.0f}% "
            f"{row['had_only_fetched'] * 100:8.0f}%"
        )
    return "\n".join(lines)


def format_table4(rows: list[dict]) -> str:
    lines = [
        "TABLE 4. Instruction issues per retired instruction.",
        f"{'benchmark':10s} {'noCI tot':>9s} {'noCI mem':>9s} "
        f"{'CI tot':>7s} {'CI mem':>7s} {'CI reg':>7s}",
    ]
    for row in rows:
        lines.append(
            f"{row['benchmark']:10s} {row['noci_total']:9.2f} {row['noci_memory']:9.3f} "
            f"{row['ci_total']:7.2f} {row['ci_memory']:7.3f} {row['ci_register']:7.3f}"
        )
    return "\n".join(lines)


def format_reconv_report(rows: list[dict]) -> str:
    """Heuristic-vs-exact reconvergence report (repro.analysis).

    ``rows`` come from :func:`repro.analysis.reconvergence_report_row`:
    one per workload, scoring each hardware heuristic's candidate sets
    against the exact post-dominator table (static upper bound).
    """
    lines = [
        "RECONVERGENCE. Hardware heuristics vs exact post-dominators "
        "(static precision/recall).",
    ]
    for row in rows:
        lines.append(
            f"-- {row['benchmark']}: {row['branches']} static branches, "
            f"exact coverage {row['exact_coverage'] * 100:.0f}%"
        )
        lines.append(
            f"   {'heuristic':10s} {'recall':>7s} {'precision':>10s} "
            f"{'hits':>5s} {'miss':>5s} {'cand':>5s}"
        )
        for name, score in row["heuristics"].items():
            lines.append(
                f"   {name:10s} {score.recall * 100:6.1f}% "
                f"{score.precision * 100:9.1f}% {score.hits:5d} "
                f"{score.misses:5d} {score.candidates:5d}"
            )
    return "\n".join(lines)


def format_simple_map(title: str, data: dict, percent: bool = False) -> str:
    """Generic formatter for {workload: {config: value}} results."""
    lines = [title]
    configs = list(next(iter(data.values())).keys())
    lines.append(f"{'benchmark':10s}" + "".join(f"{c:>14s}" for c in configs))
    for name, per_config in data.items():
        cells = []
        for config in configs:
            value = per_config[config]
            cells.append(f"{value:13.1f}%" if percent else f"{value:14.2f}")
        lines.append(f"{name:10s}" + "".join(cells))
    return "\n".join(lines)


def format_figure10(data: dict) -> str:
    lines = [
        "FIGURE 10. False-misprediction coverage while delaying 10% / 20% of "
        "true mispredictions."
    ]
    for name, schemes in data.items():
        counts = schemes.get("counts", {})
        lines.append(f"-- {name}")
        for scheme in ("static", "dynamic_pc", "dynamic_xor"):
            if scheme not in schemes:
                continue
            curve = schemes[scheme]
            total = counts.get(scheme, ("?", "?"))
            lines.append(
                f"   {scheme:12s} @10%true={coverage_at_true_fraction(curve, 0.10) * 100:5.1f}% "
                f"@20%true={coverage_at_true_fraction(curve, 0.20) * 100:5.1f}% "
                f"(true={total[0]}, false={total[1]})"
            )
    return "\n".join(lines)


def format_figure17(data: dict) -> str:
    return format_simple_map(
        "FIGURE 17. Hardware reconvergence heuristics, percent over BASE",
        data,
        percent=True,
    )


def format_experiment(name: str, data) -> str:
    """Format one artifact's assembled result with its spec's formatter."""
    from .spec import get_spec

    spec = get_spec(name)  # rejects unknown names loudly
    if spec.format is not None:
        return spec.format(data)
    return format_simple_map(f"{spec.artifact.upper()}. {spec.title}", data)
