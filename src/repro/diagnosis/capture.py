"""Collecting diagnosis sketches from finished experiment worlds.

Ports own their sketches; nothing registers anywhere at construction
time (registration would leak ports across runs and break snapshot
restores).  Instead, an *active* :class:`DiagnosisCapture` — installed
by the :func:`capture_diagnosis` context manager, usually via the CLI's
``--diagnose-out`` — harvests every non-empty sketch when
:func:`~repro.snapshot.world.run_world` finishes a world, labelling it
``<scheme>[@load]/<port>`` from the world's metadata.  Restored worlds
need no special casing: their sketches ride inside the pickle and are
collected exactly like fresh ones.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional

from .sketch import SketchSettings, active_settings, set_settings


class DiagnosisCapture:
    """Accumulates sketch dumps from one or more finished worlds."""

    def __init__(self, settings: Optional[SketchSettings] = None) -> None:
        self.settings = (settings if settings is not None
                         else active_settings())
        #: label -> sketch dump (see PortDiagnosisSketch.to_dict).
        self.ports: Dict[str, Dict[str, Any]] = {}
        self.worlds_collected = 0

    def collect(self, world: Any) -> int:
        """Harvest every non-empty sketch from ``world``; returns how
        many ports contributed."""
        meta = getattr(world, "meta", {}) or {}
        scheme = meta.get("scheme", getattr(world, "kind", "run"))
        load = meta.get("load")
        base = f"{scheme}@{load:g}" if load is not None else str(scheme)
        collected = 0
        for port in world.iter_ports():
            sketch = getattr(port, "_sketch", None)
            if sketch is None or not sketch.updates:
                continue
            label = f"{base}/{sketch.port}"
            unique = label
            suffix = 2
            while unique in self.ports:
                unique = f"{label}#{suffix}"
                suffix += 1
            self.ports[unique] = sketch.to_dict()
            collected += 1
        if collected:
            self.worlds_collected += 1
        return collected

    def as_dict(self) -> Dict[str, Any]:
        from .dump import DIAGNOSIS_SCHEMA

        return {
            "schema": DIAGNOSIS_SCHEMA,
            "window_ns": self.settings.window_ns,
            "worlds": self.worlds_collected,
            "ports": {label: self.ports[label]
                      for label in sorted(self.ports)},
        }


_active: Optional[DiagnosisCapture] = None


def active_capture() -> Optional[DiagnosisCapture]:
    """The capture ``run_world`` hands finished worlds to (or ``None``)."""
    return _active


@contextmanager
def capture_diagnosis(settings: Optional[SketchSettings] = None
                      ) -> Iterator[DiagnosisCapture]:
    """Install a fresh active capture (and, optionally, sketch settings
    for ports constructed inside the block).

    Nesting restores the previous capture on exit, so an inner capture
    (one chaos scheme, say) never swallows an outer session's ports.
    Note this only *collects*; turning the sketches on is the
    ``queue_diagnosis`` perf switch, flipped separately so sketch cost
    can be measured without any capture attached.
    """
    global _active
    previous = _active
    previous_settings = None
    if settings is not None:
        previous_settings = set_settings(settings)
    capture = DiagnosisCapture(settings)
    _active = capture
    try:
        yield capture
    finally:
        _active = previous
        if previous_settings is not None:
            set_settings(previous_settings)
