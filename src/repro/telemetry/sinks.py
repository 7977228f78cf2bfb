"""Record sinks: where normalised trace records go.

A sink is anything with ``write(record: dict)`` and ``close()``.  The two
stdlib implementations cover the practical cases: stream to a JSONL file
(:class:`JsonlSink`) or keep records in memory for tests and interactive
analysis (:class:`MemorySink`).  A sink with ``write_line(line: str)``
is handed the ``packet.*`` records as already-encoded lines.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Union

from ..errors import SnapshotError

PathLike = Union[str, Path]

#: ``json.dumps(record, sort_keys=True)`` minus an encoder per record.
_encode = json.JSONEncoder(sort_keys=True).encode
#: Same bytes and snapshot ``tell()`` offsets whatever the platform.
_TEXT = {"encoding": "utf-8", "newline": "\n"}


class JsonlSink:
    """Streams records to a JSON-lines file, one object per line.

    Keys are sorted so files diff cleanly; the file is created eagerly so
    a bad path fails at construction, not mid-run.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        self._handle = self.path.open("w", **_TEXT)
        self.records_written = 0

    def write(self, record: Dict[str, Any]) -> None:
        self._handle.write(_encode(record) + "\n")
        self.records_written += 1

    def write_line(self, line: str) -> None:
        """Append one already-encoded record, newline included."""
        self._handle.write(line)
        self.records_written += 1

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    # -- snapshot support ------------------------------------------------------
    #
    # A sink inside a snapshotted object graph records its byte offset at
    # save time; on restore it truncates the file back to that offset so
    # the resumed run rewrites exactly the post-snapshot suffix and the
    # finished file is byte-identical to an uninterrupted run's.

    def __getstate__(self) -> Dict[str, Any]:
        offset = None
        if not self._handle.closed:
            self._handle.flush()
            offset = self._handle.tell()
        return {"path": self.path, "records_written": self.records_written,
                "offset": offset}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.path = state["path"]
        self.records_written = state["records_written"]
        offset = state["offset"]
        if offset is not None and self.path.exists():
            size = self.path.stat().st_size
            if size < offset:  # truncate() would zero-pad the gap
                raise SnapshotError(
                    f"trace file {self.path} is {size} bytes, shorter "
                    f"than the snapshot's offset {offset}; it is not the "
                    f"trace this snapshot was recording")
            self._handle = self.path.open("r+", **_TEXT)
            self._handle.truncate(offset)
            self._handle.seek(offset)
        else:
            # Sink was closed at save time, or the file vanished: reopen
            # (fresh if missing) and immediately match the closed state.
            self._handle = self.path.open("a" if offset is None else "w",
                                          **_TEXT)
            if offset is None:
                self._handle.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class MemorySink:
    """Collects records in a list (tests, notebooks)."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []

    def write(self, record: Dict[str, Any]) -> None:
        self.records.append(record)

    def close(self) -> None:
        pass

    def __len__(self) -> int:
        return len(self.records)
