"""Soak scenarios: a bounded grammar of randomized chaos runs.

A :class:`SoakScenario` is one fully declarative test case for the soak
harness (``repro soak``): which scheme to run, how big the topology is,
which perf switches are flipped, which faults fire when, how often to
snapshot, and which torture mode (kill/restore, snapshot corruption) to
apply.  Scenarios round-trip through plain JSON so a failing case can be
written to disk, minimized by the shrinker, attached to a bug report,
and replayed with one command::

    python -m repro soak --replay triage/bundle-<digest>/minimal.json

:class:`ScenarioGenerator` samples scenarios from a deliberately
*bounded* grammar — small topologies, short horizons, fault schedules
that are non-overlapping by construction — so every case finishes in
well under a second and a fixed-seed soak is reproducible forever.
Everything is validated eagerly with
:class:`~repro.errors.ConfigurationError` (unknown schemes, faults past
the horizon, torture without a snapshot cadence) so a hand-edited
scenario file fails at load time, not mid-soak.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..errors import ConfigurationError
from ..faults import FaultSchedule
from ..perf.config import FAST, REFERENCE, PerfConfig
from ..sim.units import milliseconds

PathLike = Union[str, Path]

#: Schemes the generator samples from: the paper's scheme (both victim
#: policies) plus the drop-based comparators.  ECN schemes are excluded
#: only because they pair with DCTCP senders, which would double the
#: grammar without exercising any new invariant.
SCHEMES = ("dynaq", "dynaq-evict", "dt", "fb", "bshare", "lqd", "pql",
           "besteffort")

#: Torture modes: what the harness does *around* the simulation.
TORTURE_MODES = ("none", "kill-restore", "corrupt-snapshot")

#: Perf switches the generator flips on top of its base config: the two
#: still on real datapath branches (event recycling, victim search) —
#: the ones a soak most wants to catch interacting badly.
PERF_SWITCHES = ("event_pooling", "incremental_victim")

#: Fault target used by every generated schedule: the bottleneck port of
#: the bulk-flow star (every packet crosses it, so faults there exercise
#: the most state).
BOTTLENECK = "s0->h0"

_SCENARIO_KEYS = frozenset({
    "name", "seed", "scheme", "num_queues", "flows_per_queue",
    "duration_ms", "sample_interval_ms", "perf_base", "perf", "faults",
    "snapshot_every_ms", "torture", "check_every_ms", "drill",
})


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(f"soak scenario: {message}")


class SoakScenario:
    """One declarative soak case (see module docstring).

    Parameters mirror the JSON form one-to-one; every field has a
    sensible default so hand-written scenarios stay short.  ``perf`` is
    a dict of switch overrides applied on top of ``perf_base``
    ("fast" or "reference").  ``drill`` arms an always-failing
    invariant — the CI known-bad case proving the violation →
    shrink → bundle pipeline works end to end.
    """

    def __init__(self, *, seed: int = 1, scheme: str = "dynaq",
                 num_queues: int = 4, flows_per_queue: int = 2,
                 duration_ms: float = 24.0,
                 sample_interval_ms: float = 3.0,
                 perf_base: str = "fast",
                 perf: Optional[Dict[str, bool]] = None,
                 faults: Optional[Dict[str, Any]] = None,
                 snapshot_every_ms: Optional[float] = None,
                 torture: str = "none",
                 check_every_ms: float = 2.0,
                 drill: bool = False,
                 name: str = "") -> None:
        self.seed = seed
        self.scheme = scheme
        self.num_queues = num_queues
        self.flows_per_queue = flows_per_queue
        self.duration_ms = float(duration_ms)
        self.sample_interval_ms = float(sample_interval_ms)
        self.perf_base = perf_base
        self.perf = dict(perf or {})
        self.faults = faults
        self.snapshot_every_ms = (None if snapshot_every_ms is None
                                  else float(snapshot_every_ms))
        self.torture = torture
        self.check_every_ms = float(check_every_ms)
        self.drill = bool(drill)
        self.name = name
        self._validate()

    # -- validation ------------------------------------------------------------

    def _validate(self) -> None:
        from ..experiments.runner import scheme as lookup_scheme
        lookup_scheme(self.scheme)  # ConfigurationError with valid names
        _require(isinstance(self.seed, int),
                 f"seed must be an integer, got {self.seed!r}")
        _require(1 <= self.num_queues <= 8,
                 f"num_queues must be in [1, 8], got {self.num_queues}")
        _require(1 <= self.flows_per_queue <= 8,
                 f"flows_per_queue must be in [1, 8], "
                 f"got {self.flows_per_queue}")
        _require(self.duration_ms > 0,
                 f"duration_ms must be positive, got {self.duration_ms}")
        _require(0 < self.sample_interval_ms <= self.duration_ms,
                 "sample_interval_ms must be positive and no longer "
                 "than the run")
        _require(self.perf_base in ("fast", "reference"),
                 f"perf_base must be 'fast' or 'reference', "
                 f"got {self.perf_base!r}")
        known = set(PerfConfig.__slots__)
        for key, value in self.perf.items():
            _require(key in known, f"unknown perf switch {key!r}")
            _require(isinstance(value, bool),
                     f"perf switch {key!r} must be a boolean")
        _require(self.torture in TORTURE_MODES,
                 f"torture must be one of {list(TORTURE_MODES)}, "
                 f"got {self.torture!r}")
        _require(self.check_every_ms > 0,
                 "check_every_ms must be positive")
        if self.snapshot_every_ms is not None:
            _require(0 < self.snapshot_every_ms < self.duration_ms,
                     "snapshot_every_ms must fall inside the run")
        if self.torture != "none":
            _require(self.snapshot_every_ms is not None,
                     f"torture {self.torture!r} needs snapshot_every_ms")
        # Parse (and thereby validate) the fault schedule, including the
        # overlap rejection in FaultSchedule itself, then pin every
        # event inside the horizon: a fault past the end would silently
        # never fire, which for a soak means untested coverage that
        # *looks* tested.
        schedule = self.fault_schedule()
        if schedule is not None:
            schedule.validate_horizon(self.duration_ns,
                                      context="soak scenario")

    # -- derived views ---------------------------------------------------------

    @property
    def duration_ns(self) -> int:
        return milliseconds(self.duration_ms)

    @property
    def sample_interval_ns(self) -> int:
        return milliseconds(self.sample_interval_ms)

    @property
    def check_every_ns(self) -> int:
        return milliseconds(self.check_every_ms)

    @property
    def snapshot_every_ns(self) -> Optional[int]:
        if self.snapshot_every_ms is None:
            return None
        return milliseconds(self.snapshot_every_ms)

    def fault_schedule(self) -> Optional[FaultSchedule]:
        if self.faults is None:
            return None
        return FaultSchedule.from_dict(self.faults)

    def perf_config(self) -> PerfConfig:
        base = FAST if self.perf_base == "fast" else REFERENCE
        return base.clone(**self.perf) if self.perf else base

    @property
    def digest(self) -> str:
        """Stable content identity (12 hex chars) for logs and bundles."""
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]

    # -- (de)serialisation -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        spec: Dict[str, Any] = {
            "seed": self.seed, "scheme": self.scheme,
            "num_queues": self.num_queues,
            "flows_per_queue": self.flows_per_queue,
            "duration_ms": self.duration_ms,
            "sample_interval_ms": self.sample_interval_ms,
            "perf_base": self.perf_base,
            "torture": self.torture,
            "check_every_ms": self.check_every_ms,
        }
        if self.name:
            spec["name"] = self.name
        if self.perf:
            spec["perf"] = dict(self.perf)
        if self.faults is not None:
            spec["faults"] = self.faults
        if self.snapshot_every_ms is not None:
            spec["snapshot_every_ms"] = self.snapshot_every_ms
        if self.drill:
            spec["drill"] = True
        return spec

    def replace(self, **overrides: Any) -> "SoakScenario":
        """A validated copy with some fields replaced (shrinker steps)."""
        spec = self.to_dict()
        for key, value in overrides.items():
            if value is None and key in ("faults", "snapshot_every_ms"):
                spec.pop(key, None)
            else:
                spec[key] = value
        return SoakScenario.from_dict(spec)

    @classmethod
    def from_dict(cls, spec: Any) -> "SoakScenario":
        if not isinstance(spec, dict):
            raise ConfigurationError(
                f"soak scenario must be a JSON object, got {spec!r}")
        unknown = set(spec) - _SCENARIO_KEYS
        if unknown:
            raise ConfigurationError(
                f"soak scenario has unknown keys {sorted(unknown)}")
        return cls(**spec)

    @classmethod
    def from_file(cls, path: PathLike) -> "SoakScenario":
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read soak scenario {path}: {exc}") from exc
        try:
            spec = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"soak scenario {path} is not valid JSON: {exc}") from exc
        scenario = cls.from_dict(spec)
        if not scenario.name:
            scenario.name = path.stem
        return scenario

    def write(self, path: PathLike) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2,
                                   sort_keys=True) + "\n")
        return path

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SoakScenario {self.digest} {self.scheme} "
                f"q={self.num_queues} f={self.flows_per_queue} "
                f"{self.perf_base} torture={self.torture}>")


# ---------------------------------------------------------------------------
# The generator
# ---------------------------------------------------------------------------

class ScenarioGenerator:
    """Deterministic scenario sampler: ``(master_seed, index) -> case``.

    Each case gets its own :class:`random.Random` seeded from the master
    seed and the case index (string-seeded, so the derivation is stable
    across interpreter builds), which is what lets a parallel soak hand
    case *i* to any worker and still match the serial case list exactly.
    """

    def __init__(self, seed: int = 1) -> None:
        self.seed = seed

    def scenario(self, index: int) -> SoakScenario:
        rng = random.Random(f"repro-soak:{self.seed}:{index}")
        duration_ms = rng.choice([18.0, 24.0, 30.0, 36.0])
        scheme = rng.choice(SCHEMES)
        num_queues = rng.randint(2, 4)
        spec: Dict[str, Any] = {
            "seed": self.seed,
            "name": f"soak-{self.seed}-{index}",
            "scheme": scheme,
            "num_queues": num_queues,
            "flows_per_queue": rng.randint(1, 3),
            "duration_ms": duration_ms,
            "sample_interval_ms": duration_ms / 8,
            "perf_base": rng.choice(["fast", "fast", "reference"]),
            "check_every_ms": duration_ms / 12,
        }
        perf = self._perf_overrides(rng)
        if perf:
            spec["perf"] = perf
        faults = self._fault_events(rng, scheme, num_queues, duration_ms)
        if faults:
            spec["faults"] = {"name": spec["name"], "events": faults}
        torture = rng.choice(["none", "none", "kill-restore",
                              "kill-restore", "corrupt-snapshot"])
        if torture != "none":
            spec["torture"] = torture
            spec["snapshot_every_ms"] = round(
                duration_ms * rng.choice([0.25, 0.3, 0.35]), 3)
        return SoakScenario.from_dict(spec)

    def generate(self, count: int, start: int = 0) -> List[SoakScenario]:
        return [self.scenario(start + i) for i in range(count)]

    # -- grammar pieces --------------------------------------------------------

    @staticmethod
    def _perf_overrides(rng: random.Random) -> Dict[str, bool]:
        flips = rng.randint(0, 2)
        overrides: Dict[str, bool] = {}
        for switch in rng.sample(PERF_SWITCHES, flips):
            overrides[switch] = rng.random() < 0.5
        return dict(sorted(overrides.items()))

    @staticmethod
    def _fault_events(rng: random.Random, scheme: str, num_queues: int,
                      duration_ms: float) -> List[Dict[str, Any]]:
        """0-3 faults, non-overlapping by slotted construction.

        The window [20%, 80%] of the run is split into equal slots, one
        fault per slot with its duration capped inside the slot — so no
        two intervals can overlap and everything recovers before the
        horizon, satisfying the schedule validators by construction.
        """
        count = rng.randint(0, 3)
        if not count:
            return []
        window_start = duration_ms * 0.2
        slot_ms = (duration_ms * 0.6) / count
        events: List[Dict[str, Any]] = []
        for slot in range(count):
            start_ms = window_start + slot * slot_ms
            kind = rng.choice(["link_flap", "stall", "corrupt",
                               "reconfigure"])
            event: Dict[str, Any] = {
                "time_ms": round(start_ms + slot_ms * 0.1, 3),
                "kind": kind, "target": BOTTLENECK,
            }
            if kind == "reconfigure":
                event["weights"] = [rng.choice([1, 2, 3])
                                    for _ in range(num_queues)]
            else:
                event["duration_ms"] = round(
                    slot_ms * rng.uniform(0.2, 0.6), 3)
                if kind == "corrupt":
                    event["rate"] = round(rng.uniform(0.001, 0.01), 4)
            events.append(event)
        return events
