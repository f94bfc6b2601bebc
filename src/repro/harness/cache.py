"""Content-addressed cache for study-wide shared artifacts.

A study is a cross-product of experiments × workloads × configurations,
but three expensive artifacts depend only on the *workload*: the
assembled :class:`~repro.isa.Program`, its architectural
:class:`~repro.core.GoldenTrace` and its post-dominator
:class:`~repro.cfg.ReconvergenceTable`.  The seed harness re-derived all
three per cell, so a thirteen-experiment study traced every workload
thirteen times.  This module derives them at most once:

* **in-memory LRU** — per process, bounded by :data:`MAX_ENTRIES`;
  repeated cells in one process share the same objects;
* **optional on-disk pickle layer** — shared across processes, so the
  parallel scheduler's workers load traces the parent already derived
  instead of re-tracing.

Entries are **content-addressed**: the key is a
:func:`~repro.harness.runner.config_hash` over the assembled program's
instructions plus the trace parameters (:data:`HISTORY_BITS`,
:data:`MAX_STEPS`), *not* over the workload name.  Two workloads that
assemble to the same program share one trace; editing a kernel changes
the key, so stale disk entries are never served — invalidation is
automatic and there is nothing to flush (old files are merely dead
weight).

Corrupt or unreadable disk entries are treated as misses and rewritten.
Only an unusable cache directory raises :class:`~repro.errors.CacheError`.

:meth:`ArtifactCache.artifacts` hands the artifacts out as a fresh
:class:`~repro.harness.spec.WorkloadBundle` per call, so each caller
memoizes its own annotated trace.

Sharing hazard: cached artifacts are returned by reference and must be
treated as immutable.  The simulators only read them; the fault
injectors in :mod:`repro.robustness` deliberately corrupt reconvergence
tables in place, so fault-injection harnesses must build their own
tables rather than pull from a cache (they already do — the injectors
construct machines directly, not through
:func:`~repro.harness.spec.load_bundle`).
"""

from __future__ import annotations

import os
import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..cfg import ReconvergenceTable
from ..core import GoldenTrace
from ..errors import CacheError
from ..isa import Program
from ..workloads import build_workload
from .runner import config_hash
from .spec import WorkloadBundle

#: bump when the pickled payload layout changes; keys embed this, so a
#: new version simply misses old files instead of mis-reading them.
#: v2: Instruction grew precomputed decoded-metadata slots — pickles
#: from v1 would unpickle with those slots unset.
#: v3: the spec-engine row schema epoch (CellRow payloads, checkpoint
#: version 2).  Cached artifacts themselves are unchanged, but the bump
#: keeps shared study cache dirs aligned with the new checkpoint layout
#: so a mixed-version resume can never pair old rows with new artifacts;
#: old entries are simply ignored and re-derived once.
#: v4: Instruction's decoded slots took their public names (``is_branch``,
#: ``sources``, ``dest``, ...).  Slot values pickle by position, so v3
#: entries would still load; the bump keeps one slot layout per version.
CACHE_VERSION = 4

#: entries per in-memory LRU (workloads × scales)
MAX_ENTRIES = 32

#: the golden trace's branch-history length and dynamic-step budget;
#: both are part of the disk key, so cache directories stay valid
HISTORY_BITS = 16
MAX_STEPS = 5_000_000


@dataclass
class CacheStats:
    """Hit/miss accounting, split by layer."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0  # artifact had to be derived from scratch
    evictions: int = 0
    disk_write_errors: int = 0

    @property
    def lookups(self) -> int:
        return self.memory_hits + self.disk_hits + self.misses

    @property
    def hit_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return (self.memory_hits + self.disk_hits) / self.lookups

    def as_dict(self) -> dict[str, Any]:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "disk_write_errors": self.disk_write_errors,
            "hit_rate": self.hit_rate,
        }


class _LRU:
    """Minimal thread-safe LRU over an OrderedDict (no TTL needed: keys
    are content hashes, so an entry can never become wrong, only cold)."""

    def __init__(self):
        self._data: OrderedDict[str, Any] = OrderedDict()
        self._lock = threading.Lock()
        self.evictions = 0

    def get(self, key: str) -> Any | None:
        with self._lock:
            if key not in self._data:
                return None
            self._data.move_to_end(key)
            return self._data[key]

    def put(self, key: str, value: Any) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > MAX_ENTRIES:
                self._data.popitem(last=False)
                self.evictions += 1


def program_fingerprint(program: Program) -> str:
    """Content hash of an assembled program (instructions + data + entry)."""
    return config_hash(
        (
            "program",
            CACHE_VERSION,
            tuple(program.instructions),
            tuple(sorted(program.data.items())),
            program.entry,
        )
    )


class ArtifactCache:
    """Two-layer (memory LRU + optional disk pickle) artifact cache."""

    def __init__(self, disk_dir: str | Path | None = None):
        self._lru = _LRU()
        self._programs = _LRU()
        self.stats = CacheStats()
        self.disk_dir: Path | None = None
        if disk_dir is not None:
            path = Path(disk_dir)
            try:
                path.mkdir(parents=True, exist_ok=True)
                # Probe name is per-process/instance: pool workers probe a
                # shared directory concurrently, and a shared name lets one
                # worker unlink another's probe mid-check.
                probe = path / f".repro-cache-probe.{os.getpid()}.{id(self):x}"
                probe.write_bytes(b"")
                probe.unlink(missing_ok=True)
            except OSError as exc:
                raise CacheError(
                    f"cache directory {path} is not writable: {exc}"
                ) from exc
            self.disk_dir = path

    # -- programs ------------------------------------------------------

    def program(self, name: str, scale: float) -> tuple[Program, str]:
        """Assemble (or reuse) a workload program and its content hash.

        Assembly is cheap relative to tracing, so programs live only in
        the memory layer; the fingerprint is computed once per entry.
        """
        key = f"prog/{name}/{scale!r}"
        hit = self._programs.get(key)
        if hit is not None:
            return hit
        program = build_workload(name, scale).program
        entry = (program, program_fingerprint(program))
        self._programs.put(key, entry)
        return entry

    # -- trace + table artifacts ---------------------------------------

    def artifacts(self, name: str, scale: float) -> WorkloadBundle:
        """Golden trace + reconvergence table for one workload, cached.

        The key is content-addressed by the assembled program, so any
        two cells over the same program share one derivation per
        process — or one per *study* when a disk layer is shared with
        the parallel scheduler's workers.
        """
        program, fingerprint = self.program(name, scale)
        key = config_hash(
            ("artifacts", CACHE_VERSION, fingerprint, HISTORY_BITS, MAX_STEPS)
        )

        cached = self._lru.get(key)
        if cached is not None:
            self.stats.memory_hits += 1
            golden, reconv = cached
        else:
            payload = self._disk_read(key)
            if payload is not None:
                self.stats.disk_hits += 1
                golden, reconv = payload
            else:
                self.stats.misses += 1
                golden = GoldenTrace(
                    program, history_bits=HISTORY_BITS, max_steps=MAX_STEPS
                )
                reconv = ReconvergenceTable(program)
                self._disk_write(key, (golden, reconv))
            self._lru.put(key, (golden, reconv))
            self.stats.evictions = self._lru.evictions
        return WorkloadBundle(
            name=name, scale=scale, program=program, golden=golden, reconv=reconv
        )

    # -- disk layer ----------------------------------------------------

    def _disk_path(self, key: str) -> Path | None:
        if self.disk_dir is None:
            return None
        return self.disk_dir / f"{key}.pkl"

    def _disk_read(self, key: str) -> Any | None:
        path = self._disk_path(key)
        if path is None or not path.exists():
            return None
        try:
            with path.open("rb") as fh:
                return pickle.load(fh)
        except Exception:
            # A truncated/corrupt entry is a miss, not an error; drop it
            # so the rewrite below replaces it.
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def _disk_write(self, key: str, payload: Any) -> None:
        path = self._disk_path(key)
        if path is None:
            return
        tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
        try:
            with tmp.open("wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)  # atomic: concurrent writers race benignly
        except OSError:
            self.stats.disk_write_errors += 1
            try:
                tmp.unlink()
            except OSError:
                pass


# ----------------------------------------------------------------------
# Default (per-process) cache

_default: ArtifactCache | None = None
_default_lock = threading.Lock()


def get_default_cache() -> ArtifactCache:
    """The process-wide cache, built on first use; ``REPRO_CACHE_DIR``
    enables its shared disk layer."""
    global _default
    with _default_lock:
        if _default is None:
            _default = ArtifactCache(disk_dir=os.environ.get("REPRO_CACHE_DIR") or None)
        return _default


def configure_default_cache(disk_dir: str | Path | None) -> ArtifactCache:
    """Replace the process-wide cache with one over ``disk_dir`` (None:
    memory only); parallel workers use this to point at the study's
    shared disk layer."""
    global _default
    with _default_lock:
        _default = ArtifactCache(disk_dir=disk_dir)
        return _default


def reset_default_cache() -> None:
    """Drop the process-wide cache (tests use this for isolation)."""
    global _default
    with _default_lock:
        _default = None


__all__ = [
    "CACHE_VERSION",
    "HISTORY_BITS",
    "MAX_ENTRIES",
    "MAX_STEPS",
    "ArtifactCache",
    "CacheStats",
    "configure_default_cache",
    "get_default_cache",
    "program_fingerprint",
    "reset_default_cache",
]
