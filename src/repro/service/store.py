"""The content-addressed run store.

Every :class:`~repro.api.specs.RunSpec` is JSON-round-trippable and all of
its randomness is derived from its own seed, so a canonical fingerprint of
the spec (:func:`repro.api.specs.run_fingerprint`) fully determines the
:class:`~repro.api.specs.RunRecord` it produces.  :class:`RunStore` keys
records by that fingerprint on the filesystem:

.. code-block:: text

    <root>/
      v3/                    # one directory per SPEC_SCHEMA_VERSION
        3f/                  # two-hex-char shard (first fingerprint byte)
          3f9a...e1.json     # {"schema": 3, "fingerprint": ..., "record": ...}

Writes are atomic (temp file in the final directory + ``os.replace``), so
concurrent writers — sweep worker processes, several service event loops,
a resumed run racing a dying one — can share a store without locking: the
worst case is two processes computing the same cell and one ``replace``
winning with an identical payload.

Schema-versioned invalidation: the schema version is hashed into every
fingerprint *and* partitions the directory layout, so bumping
:data:`~repro.api.specs.SPEC_SCHEMA_VERSION` makes every old entry
unreachable at once; :meth:`RunStore.gc` reclaims the dead version
directories (plus any temp files a killed writer left behind).
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple, Union

from ..api.specs import (
    SPEC_SCHEMA_VERSION,
    RunRecord,
    RunSpec,
    canonical_json,
)

__all__ = ["RunStore", "StoreStats", "GCReport", "SERVICE_COUNTERS_FILENAME"]

#: Sidecar file (inside the version directory, so GC keeps it) holding the
#: accumulated ``ServiceMetrics.to_counters()`` totals of every submit
#: against this store, in the shared dotted counter schema.
SERVICE_COUNTERS_FILENAME = "service_counters.json"


@dataclass(frozen=True)
class StoreStats:
    """A point-in-time summary of one store's contents."""

    root: str
    schema_version: int
    #: Records reachable under the current schema version.
    entries: int
    #: Bytes held by reachable records.
    bytes: int
    #: Records stranded under other (stale) schema versions.
    stale_entries: int
    #: Bytes held by stale records and leftover temp files.
    stale_bytes: int

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class GCReport:
    """What one :meth:`RunStore.gc` pass removed."""

    removed_files: int
    removed_bytes: int
    #: Reachable records kept in place.
    kept_entries: int
    dry_run: bool = False

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


class RunStore:
    """Filesystem-backed content-addressed store of run records."""

    def __init__(
        self,
        root: Union[str, Path],
        schema_version: int = SPEC_SCHEMA_VERSION,
    ):
        self.root = Path(root)
        self.schema_version = int(schema_version)
        self._version_dir = self.root / f"v{self.schema_version}"

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def path_for(self, fingerprint: str) -> Path:
        """Where the record for ``fingerprint`` lives (whether or not it
        exists yet)."""
        return self._version_dir / fingerprint[:2] / f"{fingerprint}.json"

    @staticmethod
    def _fingerprint_of(key: Union[str, RunSpec]) -> str:
        return key.fingerprint() if isinstance(key, RunSpec) else str(key)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def __contains__(self, key: Union[str, RunSpec]) -> bool:
        return self.path_for(self._fingerprint_of(key)).exists()

    def load(self, fingerprint: str) -> Optional[RunRecord]:
        """The stored record for ``fingerprint``, or ``None`` on a miss."""
        path = self.path_for(fingerprint)
        try:
            payload = json.loads(path.read_text())
        except (FileNotFoundError, json.JSONDecodeError):
            # A decode error means a torn write from a pre-atomic tool or
            # manual tampering; treat it as a miss (the cell recomputes
            # and the atomic put repairs the entry).
            return None
        if payload.get("schema") != self.schema_version:
            return None
        return RunRecord.from_dict(payload["record"])

    def get(self, spec: RunSpec) -> Optional[RunRecord]:
        """The cached record for ``spec``, rebound to it, or ``None``.

        Rebinding re-attaches the requesting spec (its bookkeeping tags
        may differ from the spec the record was first computed under), so
        a hit is indistinguishable from a fresh ``execute_run(spec)``.
        """
        record = self.load(spec.fingerprint())
        return record.rebind(spec) if record is not None else None

    def fingerprints(self) -> Iterator[str]:
        """Every fingerprint reachable under the current schema version."""
        if not self._version_dir.is_dir():
            return
        for shard in sorted(self._version_dir.iterdir()):
            if not shard.is_dir():
                continue
            for entry in sorted(shard.glob("*.json")):
                yield entry.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.fingerprints())

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def put(self, record: RunRecord, fingerprint: Optional[str] = None) -> str:
        """Persist ``record`` under its spec's fingerprint, atomically.

        Returns the fingerprint.  Safe under concurrent writers: the
        payload is staged in the destination directory and moved into
        place with ``os.replace``, so readers only ever see complete
        files.
        """
        fingerprint = fingerprint or record.spec.fingerprint()
        path = self.path_for(fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = canonical_json(
            {
                "schema": self.schema_version,
                "fingerprint": fingerprint,
                "record": record.to_dict(),
            }
        )
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{fingerprint[:12]}.", suffix=".tmp", dir=path.parent
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return fingerprint

    # ------------------------------------------------------------------
    # Service counter sidecar
    # ------------------------------------------------------------------
    def service_counters(self) -> Dict[str, int]:
        """Accumulated service counters (shared schema), empty when none."""
        path = self._version_dir / SERVICE_COUNTERS_FILENAME
        try:
            payload = json.loads(path.read_text())
        except (FileNotFoundError, json.JSONDecodeError):
            return {}
        return {str(name): int(value) for name, value in payload.items()}

    def merge_service_counters(self, counters: Dict[str, int]) -> Dict[str, int]:
        """Fold one submit's counters into the sidecar, atomically.

        Counters are monotone, so accumulation across submits is
        well-defined; the atomic replace keeps concurrent submits from
        tearing the file (one writer's addition can still be lost in a
        race, which is acceptable for observability totals).
        """
        merged = self.service_counters()
        for name, value in counters.items():
            merged[name] = merged.get(name, 0) + int(value)
        self._version_dir.mkdir(parents=True, exist_ok=True)
        path = self._version_dir / SERVICE_COUNTERS_FILENAME
        fd, tmp_name = tempfile.mkstemp(
            prefix=".counters.", suffix=".tmp", dir=self._version_dir
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(canonical_json(merged))
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return merged

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def stats(self) -> StoreStats:
        """Entry/byte counts, split into reachable vs stale.

        The service-counter sidecar is bookkeeping, not a record: it is
        excluded from both the live and the stale tallies.
        """
        entries = live_bytes = stale_entries = stale_bytes = 0
        if self.root.is_dir():
            for dirpath, _dirnames, filenames in os.walk(self.root):
                directory = Path(dirpath)
                reachable = self._version_dir in (directory, *directory.parents)
                for name in filenames:
                    if (
                        directory == self._version_dir
                        and name == SERVICE_COUNTERS_FILENAME
                    ):
                        continue
                    size = (directory / name).stat().st_size
                    if reachable and name.endswith(".json"):
                        entries += 1
                        live_bytes += size
                    else:
                        stale_entries += 1
                        stale_bytes += size
        return StoreStats(
            root=str(self.root),
            schema_version=self.schema_version,
            entries=entries,
            bytes=live_bytes,
            stale_entries=stale_entries,
            stale_bytes=stale_bytes,
        )

    def gc(self, dry_run: bool = False) -> GCReport:
        """Reclaim everything unreachable under the current schema version.

        Removes stale schema-version directories wholesale plus any
        leftover ``*.tmp`` staging files from killed writers.  Reachable
        records are never touched — GC is always safe to run while
        sweeps are in flight.
        """
        removed_files = removed_bytes = 0
        if self.root.is_dir():
            for child in sorted(self.root.iterdir()):
                if child == self._version_dir:
                    continue
                files, size = _tree_size(child)
                removed_files += files
                removed_bytes += size
                if not dry_run:
                    if child.is_dir():
                        shutil.rmtree(child)
                    else:
                        child.unlink()
            if self._version_dir.is_dir():
                for tmp in self._version_dir.glob(".*.tmp"):
                    removed_files += 1
                    removed_bytes += tmp.stat().st_size
                    if not dry_run:
                        tmp.unlink()
                for tmp in self._version_dir.glob("*/.*.tmp"):
                    removed_files += 1
                    removed_bytes += tmp.stat().st_size
                    if not dry_run:
                        tmp.unlink()
        return GCReport(
            removed_files=removed_files,
            removed_bytes=removed_bytes,
            kept_entries=len(self),
            dry_run=dry_run,
        )


def _tree_size(path: Path) -> Tuple[int, int]:
    """``(file count, total bytes)`` under a file or directory."""
    if path.is_file():
        return 1, path.stat().st_size
    files = total = 0
    for dirpath, _dirnames, filenames in os.walk(path):
        for name in filenames:
            files += 1
            total += (Path(dirpath) / name).stat().st_size
    return files, total
