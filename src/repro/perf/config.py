"""Hot-path performance configuration.

Most of the simulator's hot-path optimisations are simply the code: the
port's cached publish flags, call elision, inline admission and inline
DRR, shared ``Decision`` singletons, the transmission-time memo, DRR's
opt-in round tracking and the meter's counter reads have no switch and
no second copy (``docs/performance.md`` lists them).  Two optimisations
remain switchable because their reference side is a different
algorithm, kept as the oracle of a differential test:

* ``event_pooling`` — the pooled, generation-counted event heap versus
  a fresh :class:`~repro.sim.engine.Event` per schedule
  (``tests/test_sim_engine.py`` drives both in lockstep);
* ``incremental_victim`` — DynaQ's warm ``T_i - S_i`` argmax versus a
  full rescan on every over-threshold arrival
  (``tests/test_victim.py``).

``FAST`` turns both on, ``REFERENCE`` turns both off.  Both must produce
byte-identical results: the differential tests in
``tests/test_perf_equivalence.py`` run the same seeded scenario under
both and compare JSONL trace hashes and operation counters, the latter
also against the golden counters in ``tests/data/op_counters.json``.
The third switch, ``queue_diagnosis``, is opt-in observability and off
in both presets.

Components read the active config **at construction time** (never per
packet), so flipping modes affects objects built afterwards::

    from repro.perf import reference_mode

    with reference_mode():
        sim = Simulator()          # no event pooling
        net = build_star(...)      # rescanning DynaQ

This module is import-light on purpose: it must be importable from
``repro.sim.engine`` without dragging any experiment code into the core
import graph.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator


class PerfConfig:
    """Feature switches for the hot path.

    Attributes
    ----------
    event_pooling:
        :class:`~repro.sim.engine.Simulator` recycles executed events
        through a free list (generation-counted; see the engine docs).
    incremental_victim:
        DynaQ maintains the ``T_i - S_i`` argmax incrementally under
        threshold moves instead of rebuilding and rescanning the extra
        vector on every over-threshold arrival.
    queue_diagnosis:
        Opt-in observability, not an optimisation: ports maintain a
        :class:`~repro.diagnosis.sketch.PortDiagnosisSketch` (per-window
        flow composition, queueing-delay attribution, threshold-crossing
        snapshots) on the enqueue/dequeue path.  Off by default in
        *both* FAST and REFERENCE so the differential harness keeps
        comparing the unchanged datapaths; when enabled it must be
        enabled on both sides (see the ``fig05_diagnosed`` op-counter
        workload).
    """

    __slots__ = ("event_pooling", "incremental_victim", "queue_diagnosis")

    def __init__(self, *, event_pooling: bool = True,
                 incremental_victim: bool = True,
                 queue_diagnosis: bool = False) -> None:
        self.event_pooling = event_pooling
        self.incremental_victim = incremental_victim
        self.queue_diagnosis = queue_diagnosis

    def clone(self, **overrides: bool) -> "PerfConfig":
        """Copy with some switches flipped."""
        values = {name: getattr(self, name) for name in self.__slots__}
        values.update(overrides)
        return PerfConfig(**values)

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        on = [name for name in self.__slots__ if getattr(self, name)]
        return f"<PerfConfig on={on}>"


#: Every optimisation enabled — the default for all runs.
FAST = PerfConfig()

#: Both switchable optimisations disabled — the oracle side of the
#: differential tests.
REFERENCE = PerfConfig(event_pooling=False, incremental_victim=False,
                       queue_diagnosis=False)

_active: PerfConfig = FAST


def active_config() -> PerfConfig:
    """The config newly constructed components will read."""
    return _active


def set_config(config: PerfConfig) -> PerfConfig:
    """Install ``config`` globally; returns the previous one."""
    global _active
    previous = _active
    _active = config
    return previous


@contextmanager
def use_config(config: PerfConfig) -> Iterator[PerfConfig]:
    """Temporarily install ``config`` (exception-safe)."""
    previous = set_config(config)
    try:
        yield config
    finally:
        set_config(previous)


@contextmanager
def reference_mode() -> Iterator[PerfConfig]:
    """Temporarily run with both switchable optimisations off."""
    with use_config(REFERENCE) as config:
        yield config


@contextmanager
def fast_mode() -> Iterator[PerfConfig]:
    """Temporarily force every optimisation on."""
    with use_config(FAST) as config:
        yield config
