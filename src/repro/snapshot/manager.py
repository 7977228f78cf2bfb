"""Snapshot file format: versioned header + integrity-hashed pickle.

A snapshot is a single file::

    {"magic": "repro-snapshot", "version": 4, "sha256": "...", ...}\\n
    <pickle bytes>

The first line is a JSON header carrying the format magic/version, the
sha256 of the payload, the snapshot *kind* (which experiment family
wrote it), the simulated time at save, and caller metadata.  The rest of
the file is one :mod:`pickle` of the live object graph — a single root
pickle so that every shared reference (heap events aliased by port
in-flight deques, buffer-occupancy lists shared between ports and their
managers, the one RNG stream registry) survives with identity intact.

Writes are atomic (temp file + ``os.replace``) so an autosave killed
mid-write never clobbers the previous good snapshot; loads verify the
hash before unpickling and refuse corrupt or foreign files with
:class:`~repro.errors.SnapshotIntegrityError` /
:class:`~repro.errors.SnapshotError`.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from ..errors import SnapshotError, SnapshotIntegrityError

PathLike = Union[str, Path]

SNAPSHOT_MAGIC = "repro-snapshot"
#: Bumped whenever a pickled class changes shape, so an older file is
#: refused by its header instead of failing somewhere inside unpickle
#: (2: the trace recorder's per-topic handlers and the bus's tuples;
#: 3: the simulator keeps one event queue — a version-2 world saved on
#: the second one keeps its pending events where nothing reads them and
#: would restore to an empty heap and finish silently; 4: ports keep the
#: scheduler's enqueue hook, schedulers their bound queues and forwarding
#: tables their single-port routes, none of which a version-3 world has;
#: 5: ports lose the transmit-batch state and the arrival predictor a
#: version-4 world carries; 6: every port memoises transmission times
#: and finds its in-flight packets by heap scan — a version-5 world
#: built in reference mode holds ``_tx_cache = None`` and no scan flag).
SNAPSHOT_VERSION = 6

_JSON_SCALARS = (str, int, float, bool, type(None))


def _json_safe(meta: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Coerce caller metadata into JSON-serialisable scalars."""
    safe: Dict[str, Any] = {}
    for key, value in (meta or {}).items():
        safe[str(key)] = value if isinstance(value, _JSON_SCALARS) else repr(value)
    return safe


class SnapshotManager:
    """Reads and writes versioned, integrity-hashed snapshot files."""

    magic = SNAPSHOT_MAGIC
    version = SNAPSHOT_VERSION

    # -- writing ---------------------------------------------------------------

    def save(self, obj: Any, path: PathLike, *, kind: str = "world",
             sim_now: int = 0, meta: Optional[Dict[str, Any]] = None) -> Path:
        """Atomically write ``obj`` to ``path``; returns the final path."""
        path = Path(path)
        try:
            payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise SnapshotError(
                f"cannot pickle {kind!r} snapshot: {exc}") from exc
        header = {
            "magic": self.magic,
            "version": self.version,
            "sha256": hashlib.sha256(payload).hexdigest(),
            "payload_bytes": len(payload),
            "kind": kind,
            "sim_now": int(sim_now),
            "meta": _json_safe(meta),
        }
        if path.parent and not path.parent.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        try:
            with tmp.open("wb") as handle:
                handle.write(json.dumps(header, sort_keys=True).encode("utf-8"))
                handle.write(b"\n")
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except OSError as exc:
            raise SnapshotError(f"cannot write snapshot {path}: {exc}") from exc
        return path

    # -- reading ---------------------------------------------------------------

    def peek(self, path: PathLike) -> Dict[str, Any]:
        """Parse and validate the header without touching the payload."""
        path = Path(path)
        try:
            with path.open("rb") as handle:
                line = handle.readline()
        except OSError as exc:
            raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
        try:
            header = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise SnapshotError(
                f"{path} is not a snapshot file (unreadable header)") from exc
        if not isinstance(header, dict) or header.get("magic") != self.magic:
            raise SnapshotError(
                f"{path} is not a snapshot file (bad magic)")
        if header.get("version") != self.version:
            raise SnapshotError(
                f"{path}: unsupported snapshot version "
                f"{header.get('version')!r} (this build reads "
                f"version {self.version})")
        return header

    def load(self, path: PathLike, *,
             expect_kind: Optional[str] = None) -> Tuple[Any, Dict[str, Any]]:
        """Verify and unpickle ``path``; returns ``(object, header)``."""
        path = Path(path)
        header = self.peek(path)
        try:
            with path.open("rb") as handle:
                handle.readline()  # skip header
                payload = handle.read()
        except OSError as exc:
            raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
        digest = hashlib.sha256(payload).hexdigest()
        if digest != header.get("sha256"):
            raise SnapshotIntegrityError(
                f"{path}: payload hash mismatch (file truncated or "
                f"corrupted after write); refusing to restore")
        if expect_kind is not None and header.get("kind") != expect_kind:
            raise SnapshotError(
                f"{path}: snapshot kind {header.get('kind')!r} does not "
                f"match this experiment ({expect_kind!r})")
        try:
            obj = pickle.loads(payload)
        except Exception as exc:
            raise SnapshotError(
                f"{path}: cannot unpickle payload: {exc}") from exc
        return obj, header
