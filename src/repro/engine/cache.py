"""Content-addressed result cache: in-memory LRU plus optional disk tier.

Keys are content fingerprints (:mod:`repro.engine.fingerprint`), values
are arbitrary picklable results (:class:`RunResult`s, GA fitness
readings, and the plain-data records of the stressmark generator and
the control studies, read through :meth:`ResultCache.get_or_compute`).
The in-memory tier is a bounded LRU shared process-wide by default, so
every consumer layer — experiment drivers, sweep functions,
the scheduler, the GA — transparently reuses each other's runs.  The
optional disk tier (``--cache-dir`` / ``$REPRO_CACHE_DIR``, defaulting
to ``~/.cache/repro-noise`` when enabled without a path) persists
results across processes: a second CLI invocation of the same
experiment replays from disk instead of re-solving the PDN.

This replaces the three ad-hoc caches the consumer layers used to keep
(the experiment context's ΔI-dataset memo, the scheduler's per-count
study dict, the GA's fitness dict) with one instrumented, bounded,
shareable store.
"""

from __future__ import annotations

import os
import pickle
import time
from collections import OrderedDict
from pathlib import Path
from typing import Callable

from ..ioutil import atomic_write_bytes
from ..obs import Telemetry, get_telemetry

__all__ = [
    "ResultCache",
    "global_cache",
    "configure_cache",
    "default_cache_dir",
    "merge_cache_dirs",
    "QUARANTINE_MAX_ENTRIES",
    "QUARANTINE_MAX_AGE_S",
]

_SENTINEL = object()

#: Bounds on the quarantine parking lot: corrupt entries are kept for
#: post-mortems but aged out on cache open so a long-lived cache
#: directory cannot accumulate junk without bound.
QUARANTINE_MAX_ENTRIES = 64
QUARANTINE_MAX_AGE_S = 7 * 86400.0


def default_cache_dir() -> Path:
    """The conventional on-disk cache location."""
    return Path(os.path.expanduser("~")) / ".cache" / "repro-noise"


class ResultCache:
    """Two-tier content-addressed cache.

    Parameters
    ----------
    max_entries:
        Bound of the in-memory LRU tier.
    cache_dir:
        Optional directory for the persistent tier; ``None`` keeps the
        cache memory-only.
    telemetry:
        Telemetry sink for hit/miss counters.  When omitted, the
        *current* process default is looked up per operation — the
        cache outlives ``set_telemetry`` swaps, so a long-lived global
        cache reports into whichever sink is active.
    """

    def __init__(
        self,
        max_entries: int = 4096,
        cache_dir: str | Path | None = None,
        telemetry: Telemetry | None = None,
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._telemetry = telemetry
        self._memory: OrderedDict[str, object] = OrderedDict()
        if self.cache_dir is not None:
            # Created eagerly: anything else that keys off the cache
            # directory (a CampaignManifest handed the same path, a
            # fleet fold) must see a directory, not a missing path.
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            self.prune_quarantine()

    @property
    def telemetry(self) -> Telemetry:
        return self._telemetry or get_telemetry()

    # -- lookup ---------------------------------------------------------
    def get(self, key: str, default: object = None) -> object:
        """The cached value for *key*, or *default*.

        Memory hits refresh LRU recency; disk hits are promoted into
        the memory tier.  Every lookup's latency feeds the
        ``engine.cache.lookup_seconds`` histogram, so a campaign's
        profile distinguishes memory replays from disk unpickles.
        """
        start = time.perf_counter()
        try:
            value = self._memory.get(key, _SENTINEL)
            if value is not _SENTINEL:
                self._memory.move_to_end(key)
                self.telemetry.increment("engine.cache.hits")
                return value
            value = self._disk_get(key)
            if value is not _SENTINEL:
                self._memory_put(key, value)
                self.telemetry.increment("engine.cache.hits")
                self.telemetry.increment("engine.cache.disk_hits")
                return value
            self.telemetry.increment("engine.cache.misses")
            return default
        finally:
            self.telemetry.observe(
                "engine.cache.lookup_seconds", time.perf_counter() - start
            )

    def get_or_compute(
        self,
        key: str,
        compute: Callable[[], object],
        to_record: Callable[[object], object] = lambda value: value,
        from_record: Callable[[object], object] = lambda record: record,
    ) -> object:
        """The value rebuilt from the record cached under *key*, or
        *compute*'s value with its record published under *key*.

        A record is what the cache stores of a value: the value itself
        by default, or the plain data *to_record* extracts and
        *from_record* rebuilds from.  A torn disk record is quarantined
        by :meth:`get` and reads as a miss, so it is recomputed.
        """
        record = self.get(key)
        if record is not None:
            return from_record(record)
        value = compute()
        self.put(key, to_record(value))
        return value

    def __contains__(self, key: str) -> bool:
        if key in self._memory:
            return True
        path = self._disk_path(key)
        return path is not None and path.exists()

    def __len__(self) -> int:
        return len(self._memory)

    # -- store ----------------------------------------------------------
    def put(self, key: str, value: object) -> None:
        """Store *value* under *key* in both tiers."""
        self._memory_put(key, value)
        self._disk_put(key, value)

    def peek_bytes(self, key: str) -> bytes | None:
        """The raw pickled disk-tier payload for *key*, or ``None``.

        A pure read: no LRU mutation, no unpickling, no quarantine —
        safe to call from any thread (the serve layer answers ``fetch``
        requests with it from handler threads while the executor thread
        owns the live cache object).  The receiver unpickles, so a torn
        payload fails on *their* side and their own corruption
        quarantine handles it.
        """
        path = self._disk_path(key)
        if path is None:
            return None
        try:
            return path.read_bytes()
        except OSError:
            return None

    def clear(self) -> None:
        """Drop the memory tier (the disk tier, being a durable
        artifact store, is left alone)."""
        self._memory.clear()

    # -- internals ------------------------------------------------------
    def _memory_put(self, key: str, value: object) -> None:
        self._memory[key] = value
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_entries:
            self._memory.popitem(last=False)
            self.telemetry.increment("engine.cache.evictions")

    def _disk_path(self, key: str) -> Path | None:
        if self.cache_dir is None:
            return None
        return self.cache_dir / key[:2] / f"{key}.pkl"

    def quarantine_dir(self) -> Path | None:
        """Where corrupt entries are parked for post-mortem inspection
        (``None`` when the disk tier is disabled)."""
        if self.cache_dir is None:
            return None
        return self.cache_dir / "quarantine"

    def prune_quarantine(
        self,
        max_entries: int = QUARANTINE_MAX_ENTRIES,
        max_age_s: float = QUARANTINE_MAX_AGE_S,
        now: float | None = None,
    ) -> int:
        """Age out quarantined entries: drop everything older than
        *max_age_s*, then the oldest beyond *max_entries*.

        Runs automatically when a disk-tier cache is opened (the only
        moment a long-lived cache directory is guaranteed a visitor).
        Returns the number of files removed; removal is best-effort —
        a concurrent campaign pruning the same directory must never
        wedge this one.
        """
        quarantine = self.quarantine_dir()
        if quarantine is None or not quarantine.is_dir():
            return 0
        now = time.time() if now is None else now
        aged: list[tuple[float, Path]] = []
        for path in quarantine.iterdir():
            if not path.is_file():
                continue
            try:
                mtime = path.stat().st_mtime
            except OSError:  # pruned by a concurrent opener
                continue
            aged.append((mtime, path))
        aged.sort()  # oldest first
        victims = [p for mtime, p in aged if now - mtime > max_age_s]
        survivors = len(aged) - len(victims)
        if survivors > max_entries:
            fresh = [p for mtime, p in aged if now - mtime <= max_age_s]
            victims.extend(fresh[: survivors - max_entries])
        pruned = 0
        for path in victims:
            try:
                path.unlink()
                pruned += 1
            except OSError:
                pass
        if pruned:
            self.telemetry.increment("engine.cache.quarantine_pruned", pruned)
        return pruned

    def _disk_get(self, key: str) -> object:
        path = self._disk_path(key)
        if path is None or not path.exists():
            return _SENTINEL
        try:
            with path.open("rb") as handle:
                return pickle.load(handle)
        except Exception:
            # Corrupt/truncated entry (torn write from a killed
            # process, disk fault, version skew): quarantine it and
            # report a miss, so the engine recomputes and republishes
            # the entry instead of aborting the campaign.
            self._quarantine(key, path)
            return _SENTINEL

    def _quarantine(self, key: str, path: Path) -> None:
        self.telemetry.increment("engine.cache.quarantined")
        quarantine = self.quarantine_dir()
        try:
            if quarantine is not None:
                quarantine.mkdir(parents=True, exist_ok=True)
                os.replace(path, quarantine / path.name)
            else:  # pragma: no cover - disk tier disabled mid-flight
                path.unlink()
        except OSError:  # racy cleanup: a reader beat us to it
            try:
                path.unlink()
            except OSError:
                pass

    def _disk_put(self, key: str, value: object) -> None:
        path = self._disk_path(key)
        if path is None:
            return
        try:
            # Atomic publish (write + rename) so a concurrent reader or
            # an interrupted process never sees a half-written pickle.
            atomic_write_bytes(
                path, pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
            )
            self.telemetry.increment("engine.cache.disk_writes")
        except OSError:  # disk tier is best-effort
            pass

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        tier = f", disk={self.cache_dir}" if self.cache_dir else ""
        return f"ResultCache({len(self._memory)}/{self.max_entries}{tier})"


#: Process-wide shared cache (lazily built so env configuration can
#: happen first).
_GLOBAL: ResultCache | None = None


def global_cache() -> ResultCache:
    """The process-wide shared :class:`ResultCache`.

    On first use, the disk tier is enabled if ``$REPRO_CACHE_DIR`` is
    set (an empty value selects :func:`default_cache_dir`).
    """
    global _GLOBAL
    if _GLOBAL is None:
        env_dir = os.environ.get("REPRO_CACHE_DIR")
        cache_dir: Path | None = None
        if env_dir is not None:
            cache_dir = Path(env_dir) if env_dir else default_cache_dir()
        _GLOBAL = ResultCache(cache_dir=cache_dir)
    return _GLOBAL


def configure_cache(
    max_entries: int | None = None,
    cache_dir: str | Path | None | object = _SENTINEL,
) -> ResultCache:
    """Rebuild the process-wide cache with new settings (CLI flags).

    ``cache_dir=None`` explicitly disables the disk tier; omitting it
    keeps the current directory setting.
    """
    global _GLOBAL
    current = global_cache()
    new_dir = current.cache_dir if cache_dir is _SENTINEL else cache_dir
    _GLOBAL = ResultCache(
        max_entries=max_entries or current.max_entries,
        cache_dir=new_dir,
        telemetry=current._telemetry,
    )
    return _GLOBAL


def merge_cache_dirs(
    dest: str | Path, *sources: str | Path
) -> tuple[int, int]:
    """Fold worker disk caches into *dest*; returns ``(copied, skipped)``.

    Entries are content-addressed, so two workers can never disagree
    about a key — an entry already present in *dest* is simply skipped.
    Copies go through the atomic publish path, so a merge racing a
    reader (or another merge) never exposes a torn pickle.  Quarantine
    parking lots are deliberately not merged: a corrupt entry is a
    per-host post-mortem artifact, not campaign state.
    """
    dest = Path(dest)
    copied = skipped = 0
    for source in sources:
        source = Path(source)
        if not source.is_dir():
            continue
        for path in sorted(source.glob("??/*.pkl")):
            target = dest / path.parent.name / path.name
            if target.exists():
                skipped += 1
                continue
            try:
                atomic_write_bytes(target, path.read_bytes())
                copied += 1
            except OSError:  # unreadable source entry: recomputable
                skipped += 1
    get_telemetry().increment("engine.cache.merged_entries", copied)
    return copied, skipped
