"""Typed trace records and the JSONL trace-file schema.

Every event the :class:`~repro.sim.trace.TraceBus` carries is normalised
into one flat, JSON-serialisable record so traces from different publish
sites line up column-wise:

========== ======================= =====================================
field      type                    meaning
========== ======================= =====================================
time_ns    int                     simulated time of the event
topic      str                     well-known topic (``packet.drop`` ...)
port       str                     egress port name (may be ``""``)
queue      int or null             service-queue index
flow       int or null             flow id of the packet involved
detail     str                     free-form qualifier (drop reason, ...)
queue_bytes list[int] or null      per-queue occupancy after the event
threshold  list[int] or null       DynaQ ``T_i`` after the event
========== ======================= =====================================

DynaQ events additionally carry ``victim`` / ``gainer`` / ``size``
(``victim == gainer == -1`` marks the (re)initialisation baseline, which
also carries ``satisfaction``).  ``snapshot.lifecycle`` events carry
``path`` / ``saves``; ``diagnosis.snapshot`` events carry ``occupancy``
/ ``limit`` / ``composition`` (flow-id -> buffered bytes, string keys
because the record is JSON).  :func:`validate_record` checks one record
against this schema — including the per-topic required fields of
:data:`REQUIRED_TOPIC_FIELDS` — and :func:`validate_trace_file`
schema-checks a whole JSONL file (the ``repro trace-validate``
subcommand).
"""

from __future__ import annotations

import json
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..sim.trace import (
    ALL_TOPICS,
    TOPIC_COMPETITIVE_ROUND,
    TOPIC_DYNAQ_RECONFIGURE,
    TOPIC_PACKET_DEQUEUE,
    TOPIC_PACKET_DROP,
    TOPIC_PACKET_ENQUEUE,
    TOPIC_PACKET_MARK,
    TOPIC_PARALLEL_JOB,
    TOPIC_QUEUE_SNAPSHOT,
    TOPIC_SERVE_JOB,
    TOPIC_SNAPSHOT_LIFECYCLE,
    TOPIC_SOAK_CASE,
    TOPIC_THRESHOLD_CHANGE,
    TOPIC_VICTIM_STEAL,
)

PathLike = Union[str, Path]

#: Marker topic used by the flight recorder's dump files: the first line
#: of a dump names the anomaly; the remaining lines are ordinary records.
META_TOPIC_DUMP = "telemetry.dump"

#: Topics a schema-valid trace file may contain.
KNOWN_TOPICS = frozenset(ALL_TOPICS) | {META_TOPIC_DUMP}

#: The fixed record columns, in canonical order.
RECORD_FIELDS = ("time_ns", "topic", "port", "queue", "flow", "detail",
                 "queue_bytes", "threshold")

#: Extra columns only some topics carry (DynaQ moves, snapshot
#: lifecycle, diagnosis snapshots).
OPTIONAL_FIELDS = ("victim", "gainer", "size", "satisfaction",
                   "path", "saves", "occupancy", "limit", "composition")

#: Per-topic payload contract: these fields must be present and
#: non-empty for the record to validate.  Generic fields alone used to
#: let malformed ``parallel.job`` / ``dynaq.reconfigure`` payloads slip
#: through ``repro trace-validate``.
REQUIRED_TOPIC_FIELDS = {
    TOPIC_DYNAQ_RECONFIGURE: ("threshold", "satisfaction"),
    TOPIC_PARALLEL_JOB: ("detail",),
    TOPIC_SERVE_JOB: ("detail",),
    TOPIC_COMPETITIVE_ROUND: ("detail",),
    TOPIC_SOAK_CASE: ("detail",),
    TOPIC_SNAPSHOT_LIFECYCLE: ("detail", "path"),
    TOPIC_QUEUE_SNAPSHOT: ("queue", "detail", "composition"),
}


def normalize(topic: str, payload: Dict[str, Any]) -> Dict[str, Any]:
    """Flatten one bus publish into the typed record above.

    ``payload`` is the kwargs dict a publish site handed to the bus; the
    per-topic shapes are documented in ``docs/observability.md``.
    Unknown topics fall through to a generic mapping so ad-hoc probe
    topics still produce parseable records.
    """
    record: Dict[str, Any] = {
        "time_ns": int(payload.get("time", 0)),
        "topic": topic,
        "port": str(payload.get("port", "")),
        "queue": None,
        "flow": None,
        "detail": str(payload.get("detail", "")),
        "queue_bytes": None,
        "threshold": None,
    }
    packet = payload.get("packet")
    if packet is not None:
        record["flow"] = getattr(packet, "flow_id", None)
    if "queue" in payload:
        record["queue"] = payload["queue"]
    if payload.get("queue_bytes") is not None:
        record["queue_bytes"] = list(payload["queue_bytes"])
    if topic == TOPIC_DYNAQ_RECONFIGURE:
        if payload.get("thresholds") is not None:
            record["threshold"] = list(payload["thresholds"])
        if payload.get("satisfaction") is not None:
            record["satisfaction"] = list(payload["satisfaction"])
        if not record["detail"]:
            record["detail"] = "reconfigure"
    elif topic in (TOPIC_THRESHOLD_CHANGE, TOPIC_VICTIM_STEAL):
        victim = payload.get("victim", -1)
        gainer = payload.get("gainer", -1)
        size = payload.get("size", 0)
        record["victim"] = victim
        record["gainer"] = gainer
        record["size"] = size
        record["queue"] = gainer if gainer >= 0 else None
        if payload.get("thresholds") is not None:
            record["threshold"] = list(payload["thresholds"])
        if payload.get("satisfaction") is not None:
            record["satisfaction"] = list(payload["satisfaction"])
        if not record["detail"]:
            if victim < 0:
                record["detail"] = "init"
            else:
                record["detail"] = f"q{gainer} took {size}B from q{victim}"
    elif topic == TOPIC_SNAPSHOT_LIFECYCLE:
        record["path"] = str(payload.get("path", ""))
        record["saves"] = int(payload.get("saves", 0))
    elif topic == TOPIC_QUEUE_SNAPSHOT:
        if payload.get("occupancy") is not None:
            record["occupancy"] = int(payload["occupancy"])
        if payload.get("limit") is not None:
            record["limit"] = int(payload["limit"])
        if payload.get("composition") is not None:
            record["composition"] = {
                str(flow): size
                for flow, size in payload["composition"].items()}
    elif "flow" in payload:
        record["flow"] = payload["flow"]
    return record


# -- the packet topics' straight-line encoder ---------------------------------

#: Topics ports publish with the one fixed payload shape
#: ``port, time, packet, queue, detail, queue_bytes``.
PACKET_TOPICS = frozenset((TOPIC_PACKET_DROP, TOPIC_PACKET_ENQUEUE,
                           TOPIC_PACKET_DEQUEUE, TOPIC_PACKET_MARK))

#: JSON literal of a string.  Port names and drop reasons repeat for the
#: whole run; the cap bounds memory should ``detail`` be free-form.
json_string = lru_cache(maxsize=4096)(encode_basestring_ascii)
_INT_ONLY = frozenset((int,))


def packet_line(topic_json: str, port: Any, time: Any, packet: Any,
                queue: Any, detail: Any, queue_bytes: Any) -> Optional[str]:
    """The JSONL line of one ``packet.*`` event, or ``None``.

    Byte for byte ``json.dumps(normalize(topic, payload), sort_keys=True)
    + "\\n"`` for a payload of exactly these six keys (``topic_json`` is
    ``json_string(topic)``).  ``str()`` of a ``bool``, a float or a
    subclass is not its JSON, so only exact ``int`` / ``str`` /
    ``tuple``-of-``int`` are formatted; anything else returns ``None``
    and the caller goes through :func:`normalize`.
    """
    flow = getattr(packet, "flow_id", None)
    if (type(time) is not int or type(port) is not str
            or type(detail) is not str
            or (flow is not None and type(flow) is not int)
            or (queue is not None and type(queue) is not int)):
        return None
    if queue_bytes is None:
        occupancy = "null"
    elif (type(queue_bytes) is tuple
            and _INT_ONLY.issuperset(map(type, queue_bytes))):
        occupancy = str(list(queue_bytes))
    else:
        return None
    return (f'{{"detail": {json_string(detail)}, '
            f'"flow": {"null" if flow is None else flow}, '
            f'"port": {json_string(port)}, '
            f'"queue": {"null" if queue is None else queue}, '
            f'"queue_bytes": {occupancy}, "threshold": null, '
            f'"time_ns": {time}, "topic": {topic_json}}}\n')


# -- schema checking ----------------------------------------------------------

def _is_int_list(value: Any) -> bool:
    return (isinstance(value, list)
            and all(isinstance(item, int) and not isinstance(item, bool)
                    for item in value))


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_composition(value: Any) -> bool:
    return (isinstance(value, dict)
            and all(isinstance(flow, str) and _is_int(size)
                    for flow, size in value.items()))


def validate_record(record: Any) -> List[str]:
    """Schema-check one parsed record; returns human-readable problems."""
    if not isinstance(record, dict):
        return [f"record is not an object: {record!r}"]
    errors: List[str] = []
    for field in RECORD_FIELDS:
        if field not in record:
            errors.append(f"missing field {field!r}")
    unknown = set(record) - set(RECORD_FIELDS) - set(OPTIONAL_FIELDS)
    if unknown:
        errors.append(f"unknown fields {sorted(unknown)}")
    if errors:
        return errors
    if not _is_int(record["time_ns"]) or record["time_ns"] < 0:
        errors.append(f"time_ns must be a non-negative int, "
                      f"got {record['time_ns']!r}")
    if record["topic"] not in KNOWN_TOPICS:
        errors.append(f"unknown topic {record['topic']!r}")
    if not isinstance(record["port"], str):
        errors.append(f"port must be a string, got {record['port']!r}")
    if not isinstance(record["detail"], str):
        errors.append(f"detail must be a string, got {record['detail']!r}")
    for field in ("queue", "flow"):
        value = record[field]
        if value is not None and not _is_int(value):
            errors.append(f"{field} must be an int or null, got {value!r}")
    for field in ("queue_bytes", "threshold"):
        value = record[field]
        if value is not None and not _is_int_list(value):
            errors.append(f"{field} must be a list of ints or null, "
                          f"got {value!r}")
    for field in ("victim", "gainer", "size"):
        if field in record and not _is_int(record[field]):
            errors.append(f"{field} must be an int, got {record[field]!r}")
    if "satisfaction" in record and not _is_int_list(record["satisfaction"]):
        errors.append(f"satisfaction must be a list of ints, "
                      f"got {record['satisfaction']!r}")
    if "path" in record and not isinstance(record["path"], str):
        errors.append(f"path must be a string, got {record['path']!r}")
    for field in ("saves", "occupancy", "limit"):
        if field in record and not _is_int(record[field]):
            errors.append(f"{field} must be an int, got {record[field]!r}")
    if "composition" in record and not _is_composition(record["composition"]):
        errors.append(f"composition must map flow-id strings to int "
                      f"bytes, got {record['composition']!r}")
    for field in REQUIRED_TOPIC_FIELDS.get(record["topic"], ()):
        value = record.get(field)
        if value is None or value == "":
            errors.append(f"{record['topic']} record must carry a "
                          f"non-empty {field!r}")
    return errors


def validate_trace_file(path: PathLike,
                        max_errors: int = 20) -> Tuple[int, List[str]]:
    """Schema-check a JSONL trace file.

    Returns ``(record_count, errors)``; an empty error list means the
    file is schema-valid.  Reporting stops after ``max_errors`` problems
    so a corrupt multi-gigabyte trace fails fast.  The cap is exact: a
    single record with many problems stops contributing mid-record, so
    the list never exceeds ``max_errors`` lines plus the truncation
    marker.
    """
    errors: List[str] = []
    count = 0
    with Path(path).open(encoding="utf-8", newline="\n") as handle:
        for line_number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            count += 1
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                errors.append(f"line {line_number}: invalid JSON ({exc})")
            else:
                for problem in validate_record(record):
                    if len(errors) >= max_errors:
                        break
                    errors.append(f"line {line_number}: {problem}")
            if len(errors) >= max_errors:
                errors.append("... (stopping after "
                              f"{max_errors} problems)")
                break
    return count, errors
