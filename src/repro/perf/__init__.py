"""repro.perf — hot-path performance layer.

:mod:`repro.perf.config` holds the global feature switches selecting the
fast or the reference datapath; components read them at construction
time.  Event pooling lives inside :class:`repro.sim.engine.Simulator`.
"""

from __future__ import annotations

from .config import (
    FAST,
    REFERENCE,
    PerfConfig,
    active_config,
    fast_mode,
    reference_mode,
    set_config,
    use_config,
)

__all__ = [
    "FAST",
    "REFERENCE",
    "PerfConfig",
    "active_config",
    "fast_mode",
    "reference_mode",
    "set_config",
    "use_config",
]
