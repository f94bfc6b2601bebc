"""The ledger's four workloads: set-up, one timed unit, and the outputs.

Each workload is a batch job of the kind users run.  ``setup`` does what
precedes the timed run in a fresh process: import ``repro``, load the
spec registry, and derive the workload's artifacts into the default
cache.
``run`` is the timed unit.  Both return plain data; ``run`` returns the
per-artifact digests that check the outputs, the operations attempted
and failed, and the facts only the workload can observe.

Only default execution paths are used: no ``@batch``/``@v1`` machines,
no ``order_scheme``, no ``batch=``, no backend pinning.
"""

from __future__ import annotations

import hashlib
import json
import random
import tempfile
from pathlib import Path

from repro.fuzz import campaign
from repro.harness import run_study, tables
from repro.harness.cache import get_default_cache
from repro.harness.spec import CellRow, assemble_rows, derive, get_spec, spec_names
from repro.machines import MACHINES
from repro.workloads import WORKLOAD_NAMES

#: the paper-study scale.  The study's cost has a floor near this scale
#: (the gcc kernel is 4,333 instructions at every scale up to 0.12), and
#: one full 65-cell study here is the largest unit that fits a run.
STUDY_SCALE = 0.03
FUZZ_SEED = 0
FUZZ_CASES = 48
FUZZ_SCALE = 0.5
#: the registry's canonical machines: no ``@batch``/``@v1`` twins
CANONICAL_MACHINES = tuple(name for name in MACHINES if "@" not in name)

#: the --smoke size: same code paths, seconds instead of minutes
SMOKE = {"names": ("vortex",), "study_scale": 0.01, "ideal_scale": 0.05,
         "fuzz_cases": 3}


def digest(*parts: str) -> str:
    return hashlib.sha256("\n".join(parts).encode() + b"\n").hexdigest()


def canonical(value) -> str:
    """JSON text as a checkpoint would store it (int keys become strings)."""
    return json.dumps(json.loads(json.dumps(value)), sort_keys=True)


def artifact_digests(results: dict, names) -> dict[str, str]:
    """sha256 of each artifact's data and formatted table, in paper order.

    Rows are folded in ``WORKLOAD_NAMES`` order whatever order the study
    ran them in; derived artifacts (Figure 6) derive from their base.
    """
    names = [n for n in WORKLOAD_NAMES if n in names]
    data: dict = {}
    out = {}
    for name in spec_names():
        spec = get_spec(name)
        if spec.derives is not None:
            if spec.derives not in data:
                continue
            data[name] = derive(name, data[spec.derives])
        elif name in results:
            rows = results[name]
            data[name] = assemble_rows(spec, [CellRow(name, w, rows[w]) for w in names])
        else:
            continue
        text = tables.format_experiment(name, data[name])
        out[name] = digest(json.dumps(data[name], sort_keys=True), text)
    return out


class StudyWorkload:
    """All 13 runnable artifacts x the five kernels, plus Figure 6 and
    every formatted table; ``jobs=2`` adds a disk cache, a checkpoint
    and a second, fully resumed call."""

    def __init__(self, jobs: int):
        self.jobs = jobs

    def setup(self, seed: int, smoke: bool) -> dict:
        names = list(SMOKE["names"] if smoke else WORKLOAD_NAMES)
        scale = SMOKE["study_scale"] if smoke else STUDY_SCALE
        experiments = [n for n in spec_names() if get_spec(n).cells]
        cache = get_default_cache()
        for name in names:
            cache.artifacts(name, scale)
        # The seed only permutes run order; results do not depend on it.
        rng = random.Random(seed)
        rng.shuffle(experiments)
        rng.shuffle(names)
        return {"names": names, "scale": scale, "experiments": experiments}

    def run(self, ctx: dict, workdir: Path) -> dict:
        kwargs = dict(experiments=ctx["experiments"], scale=ctx["scale"],
                      names=ctx["names"], jobs=self.jobs)
        facts: dict = {}
        if self.jobs == 1:
            study = run_study(**kwargs)
        else:
            with tempfile.TemporaryDirectory(dir=workdir) as tmp:
                kwargs.update(cache_dir=str(Path(tmp) / "cache"),
                              checkpoint_path=str(Path(tmp) / "checkpoint.json"))
                study = run_study(**kwargs)
                again = run_study(**kwargs)
            facts = resume_facts(study, again)
        cells = len(ctx["experiments"]) * len(ctx["names"])
        return {
            "digests": artifact_digests(study["results"], ctx["names"]),
            "attempted": cells + facts.get("resumed", 0),
            "failed": len(study["failures"]) + facts.get("diverged_rows", 0),
            "facts": facts,
        }


def resume_facts(fresh: dict, resumed: dict) -> dict:
    """How the fully resumed pass compares with the fresh one.

    A row not ``==`` to the fresh row is a mismatch (checkpoints return
    int window keys as strings); it counts as a failure only when its
    stored JSON differs too, i.e. when the values themselves diverged.
    """
    mismatch = diverged = 0
    for experiment, rows in fresh["results"].items():
        for workload, row in rows.items():
            again = resumed["results"][experiment][workload]
            mismatch += again != row
            diverged += canonical(again) != canonical(row)
    return {
        "resumed": resumed["resumed"],
        "resume_mismatch_rows": mismatch,
        "diverged_rows": diverged + len(resumed["failures"]),
    }


class IdealSweep:
    """Table 1 and Figure 3 at their registry default scales."""

    ARTIFACTS = ("table1", "figure3")

    def setup(self, seed: int, smoke: bool) -> dict:
        names = list(SMOKE["names"] if smoke else WORKLOAD_NAMES)
        scales = {
            a: SMOKE["ideal_scale"] if smoke else get_spec(a).default_scale
            for a in self.ARTIFACTS
        }
        cache = get_default_cache()
        for name in names:
            cache.program(name, scales["table1"])
            cache.artifacts(name, scales["figure3"])
        rng = random.Random(seed)
        order = list(self.ARTIFACTS)
        rng.shuffle(order)
        rng.shuffle(names)
        return {"names": names, "scales": scales, "order": order}

    def run(self, ctx: dict, workdir: Path) -> dict:
        results: dict = {}
        failed = 0
        for artifact in ctx["order"]:
            study = run_study([artifact], scale=ctx["scales"][artifact],
                              names=ctx["names"], jobs=1)
            results.update(study["results"])
            failed += len(study["failures"])
        return {
            "digests": artifact_digests(results, ctx["names"]),
            "attempted": len(self.ARTIFACTS) * len(ctx["names"]),
            "failed": failed,
            "facts": {},
        }


class FuzzCampaign:
    """The development campaign (seed 0, 48 cases) over the 17 canonical
    machines: many short detailed runs, so per-program and per-run fixed
    costs weigh far more than in a study cell.

    The cases do not depend on the ledger seed.  One case's host time
    per simulated cycle ranges over two orders of magnitude, so the
    24-case prefixes of campaign seeds 3 and 7 differed by 29% in wall
    time; equalising instructions, cycles, issues or fetches did not
    remove it, and a spread across seeds would measure the inputs, not
    the code.
    """

    def setup(self, seed: int, smoke: bool) -> dict:
        spec_names()
        return {"cases": SMOKE["fuzz_cases"] if smoke else FUZZ_CASES}

    def run(self, ctx: dict, workdir: Path) -> dict:
        payloads: list[dict] = []
        original = campaign.run_case

        def capture(*args, **kwargs):
            payload = original(*args, **kwargs)
            payloads.append(payload)
            return payload

        campaign.run_case = capture
        try:
            report = campaign.run_campaign(campaign.CampaignConfig(
                seed=FUZZ_SEED, cases=ctx["cases"], scale=FUZZ_SCALE,
                jobs=1, machines=CANONICAL_MACHINES,
            ))
        finally:
            campaign.run_case = original
        cases = [
            (p["workload"], p["ok"], p["golden_length"], p["static_instructions"])
            for p in payloads
        ]
        counts = report["counts"]
        return {
            "digests": {f"campaign-seed-{FUZZ_SEED}": digest(json.dumps(cases))},
            "attempted": counts["total"],
            "failed": counts["total"] - counts["clean"],
            "facts": {"divergent_cases": [d["workload"] for d in report["divergences"]]},
        }


WORKLOADS = {
    "paper-study": StudyWorkload(jobs=1),
    "paper-study-jobs2": StudyWorkload(jobs=2),
    "ideal-sweep": IdealSweep(),
    "fuzz-campaign": FuzzCampaign(),
}
