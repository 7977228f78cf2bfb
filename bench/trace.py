"""The traced child: spans at layer boundaries, recorded from outside.

Only the ``--trace 1`` child imports this.  It wraps the public boundary
methods of each layer at class level (and two module functions where
they are looked up at call time), hands the simulator a profiler that
supplies one root span per event callback, runs the workload once, and
removes every wrapper again.  Spans live in flat arrays until the run
ends; self time is computed afterwards as duration minus the time the
span's children cover.

A second flavour, :func:`run_profiled`, runs the same workload under
``cProfile`` for call counts, which repeat exactly for one seed.
"""

from __future__ import annotations

import cProfile
import functools
import json
from array import array
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from .ledger import LAYERS

OTHER = len(LAYERS)            # repro packages outside the list, and bench
LAYER_NAMES = LAYERS + ("other",)

#: Raw spans written to the spans file (aggregates cover all of them).
SPAN_DUMP_LIMIT = 20_000


def layer_of_module(module: Optional[str]) -> int:
    """Layer index of a dotted module name (``repro.<layer>...``)."""
    parts = (module or "").split(".")
    if len(parts) >= 2 and parts[0] == "repro" and parts[1] in LAYERS:
        return LAYERS.index(parts[1])
    return OTHER


class SpanLog:
    """Spans as parallel arrays: layer, name, start, end, parent."""

    def __init__(self) -> None:
        self.layers = array("b")
        self.names = array("h")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.name_table: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._stack: List[int] = []
        self._orphans: List[int] = []
        self._root_ids: Dict[Any, Tuple[int, int]] = {}
        self.pending_max = 0

    def __reduce__(self):
        # The log rides on the simulator as its profiler; an autosave of
        # the world must not carry the spans along.
        return (SpanLog, ())

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.name_table)
            self.name_table.append(name)
        return self._name_ids[name]

    def wrap(self, function: Callable, layer: int, name: str) -> Callable:
        """``function`` with a span around every call."""
        name_id = self.name_id(name)
        layers, names, starts = self.layers, self.names, self.starts
        ends, parents = self.ends, self.parents
        stack, orphans = self._stack, self._orphans
        clock = perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = len(starts)
            if stack:
                parents.append(stack[-1])
            else:
                parents.append(-1)
                orphans.append(index)
            layers.append(layer)
            names.append(name_id)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return function(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    # -- Simulator.profiler protocol -------------------------------------

    def record(self, callback: Callable, elapsed_s: float,
               heap_len: int) -> None:
        """One root span per event callback, adopting what it called."""
        end = perf_counter()
        key = getattr(callback, "__func__", callback)
        ids = self._root_ids.get(key)
        if ids is None:
            owner = getattr(callback, "__self__", None)
            module = (type(owner).__module__ if owner is not None
                      else getattr(key, "__module__", None))
            label = getattr(key, "__qualname__", repr(key))
            ids = (layer_of_module(module), self.name_id(f"event:{label}"))
            self._root_ids[key] = ids
        index = len(self.starts)
        start = end - elapsed_s
        if self._orphans:
            # Spans opened with nothing above them since the previous
            # event: the callback's own calls, unless they ended before
            # it began (an autosave between two run() calls).
            for orphan in self._orphans:
                if self.ends[orphan] > start:
                    self.parents[orphan] = index
            self._orphans.clear()
        self.layers.append(ids[0])
        self.names.append(ids[1])
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(-1)
        if heap_len > self.pending_max:
            self.pending_max = heap_len

    # -- reduction ---------------------------------------------------------

    def self_times(self) -> List[float]:
        """Per span: duration minus the time its child spans cover."""
        return self_times(self.starts, self.ends, self.parents)

    def __len__(self) -> int:
        return len(self.starts)


def self_times(starts, ends, parents) -> List[float]:
    covered = [0.0] * len(starts)
    for index, parent in enumerate(parents):
        if parent >= 0:
            covered[parent] += ends[index] - starts[index]
    return [ends[index] - starts[index] - covered[index]
            for index in range(len(starts))]


# -- wrapper installation -------------------------------------------------

def boundary_sites() -> List[Tuple[Any, str, int]]:
    """``(owner, attribute, layer)`` for every boundary this trace wraps.

    Owners are classes, except for module functions that their callers
    look up by name at call time.
    """
    from repro.core.dynaq import DynaQBuffer
    from repro.diagnosis.capture import DiagnosisCapture
    from repro.diagnosis.sketch import PortDiagnosisSketch
    from repro.experiments import fleet, parallel, testbed
    from repro.metrics.fct import FCTCollector
    from repro.net.host import Host
    from repro.net.port import EgressPort
    from repro.net.switch import Switch
    from repro.queueing.schedulers.drr import DRRScheduler
    from repro.queueing.schedulers.spq import SPQDRRScheduler
    from repro.sim.trace import TraceBus
    from repro.snapshot.manager import SnapshotManager
    from repro.telemetry.sinks import JsonlSink
    from repro.transport.base import FlowReceiver
    from repro.transport.tcp import TCPSender

    layer = LAYERS.index
    return [
        (EgressPort, "send", layer("net")),
        (EgressPort, "send_many", layer("net")),
        (Host, "receive", layer("net")),
        (Switch, "receive", layer("net")),
        (DynaQBuffer, "admit", layer("core")),
        (DRRScheduler, "select", layer("queueing")),
        (SPQDRRScheduler, "select", layer("queueing")),
        (TCPSender, "on_ack", layer("transport")),
        (TCPSender, "start", layer("transport")),
        (FlowReceiver, "on_data", layer("transport")),
        (testbed, "generate_flows", layer("workloads")),
        (FCTCollector, "record", layer("metrics")),
        (FCTCollector, "summary", layer("metrics")),
        (TraceBus, "publish", layer("telemetry")),
        (TraceBus, "emit", layer("telemetry")),
        (JsonlSink, "write", layer("telemetry")),
        (PortDiagnosisSketch, "record_enqueue", layer("diagnosis")),
        (PortDiagnosisSketch, "record_dequeue", layer("diagnosis")),
        (PortDiagnosisSketch, "record_drop", layer("diagnosis")),
        (DiagnosisCapture, "collect", layer("diagnosis")),
        (SnapshotManager, "save", layer("snapshot")),
        (SnapshotManager, "load", layer("snapshot")),
        (parallel, "parallel_map", layer("experiments")),
        (fleet.WorkerFleet, "launch", layer("experiments")),
        (fleet.WorkerFleet, "poll", layer("experiments")),
    ]


class Wrappers:
    """Installs the span wrappers and takes every one of them off again."""

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        self._originals: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> "Wrappers":
        for owner, attribute, layer in boundary_sites():
            original = vars(owner)[attribute]
            label = f"{owner.__name__.rsplit('.', 1)[-1]}.{attribute}"
            setattr(owner, attribute, self.log.wrap(original, layer, label))
            self._originals.append((owner, attribute, original))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)


# -- the traced and profiled runs --------------------------------------------

def run_traced(run: Callable, seed: int, scale: float,
               out: Path) -> Tuple[Any, Dict[str, Any]]:
    """Run one repetition with spans on; returns ``(rep, ledger)``."""
    from . import probe

    log = SpanLog()
    original_init = probe.StopwatchSimulator.__init__

    def init_with_profiler(sim, *args, **kwargs) -> None:
        original_init(sim, *args, **kwargs)
        sim.profiler = log

    probe.StopwatchSimulator.__init__ = init_with_profiler
    try:
        with Wrappers(log):
            rep = run(seed, scale, out, "measure")
    finally:
        probe.StopwatchSimulator.__init__ = original_init
    return rep, reduce_spans(log, rep, out)


def reduce_spans(log: SpanLog, rep, out: Path) -> Dict[str, Any]:
    """Per-layer self time and span counts, whole run and simulate stage.

    ``self_s``/``spans`` cover every span of the child (flow generation
    happens while the world is built); ``simulate`` restricts the same
    sums to the simulate stage, where they must add up to its length.
    """
    own = log.self_times()
    begin, end = rep.steady_start, rep.simulate_end
    width = len(LAYER_NAMES)
    self_s, inside_s, spans = [0.0] * width, [0.0] * width, [0] * width
    top_level_s = roots_s = 0.0
    by_name: Dict[int, List[float]] = {}
    for index in range(len(log)):
        layer = log.layers[index]
        self_s[layer] += own[index]
        spans[layer] += 1
        entry = by_name.setdefault(log.names[index], [0, 0.0])
        entry[0] += 1
        entry[1] += own[index]
        if begin <= log.starts[index] and log.ends[index] <= end:
            inside_s[layer] += own[index]
            if log.parents[index] < 0:
                duration = log.ends[index] - log.starts[index]
                top_level_s += duration
                if log.name_table[log.names[index]].startswith("event:"):
                    roots_s += duration
    if rep.inside_run_s:
        # Time inside Simulator.run() that no event callback covers is
        # the engine's own loop (and the profiler hook it calls per
        # event).
        loop_s = rep.inside_run_s - roots_s
        sim = LAYERS.index("sim")
        self_s[sim] += loop_s
        inside_s[sim] += loop_s
        top_level_s += loop_s
    else:
        # No simulator in this process (sweep_grid): the workload's own
        # segments, timed around its calls into the executor and the
        # daemon, are the spans; wrapped calls nest inside them.
        for prefix, name in (("sweep.", "experiments"), ("serve.", "serve")):
            seconds = sum(seconds for segment, seconds in rep.segments
                          if segment.startswith(prefix))
            layer = LAYERS.index(name)
            self_s[layer] = inside_s[layer] = seconds
        top_level_s = sum(inside_s)
    simulate_s = end - begin
    ledger = {
        "self_s": dict(zip(LAYER_NAMES, self_s)),
        "spans": dict(zip(LAYER_NAMES, spans)),
        "simulate": {"seconds": simulate_s,
                     "self_s": dict(zip(LAYER_NAMES, inside_s)),
                     "unattributed_s": simulate_s - top_level_s},
        "span_count": len(log),
        "pending_max": log.pending_max,
        "by_name": {log.name_table[name]: entry
                    for name, entry in sorted(by_name.items())},
    }
    write_spans(log, ledger, out.parent / f"{out.name}.spans.json")
    return ledger


def write_spans(log: SpanLog, ledger: Dict[str, Any], path: Path) -> None:
    limit = min(len(log), SPAN_DUMP_LIMIT)
    document = {
        "schema": "bench.spans/1",
        "layers": LAYER_NAMES,
        "names": log.name_table,
        "span_count": len(log),
        "dumped": limit,
        "ledger": ledger,
        "spans": {
            "layer": list(log.layers[:limit]),
            "name": list(log.names[:limit]),
            "start": list(log.starts[:limit]),
            "end": list(log.ends[:limit]),
            "parent": list(log.parents[:limit]),
        },
    }
    path.write_text(json.dumps(document))


def run_profiled(run: Callable, seed: int, scale: float,
                 out: Path) -> Tuple[Any, Dict[str, Any]]:
    """Run one repetition under cProfile; calls and time by layer."""
    profile = cProfile.Profile()
    rep = profile.runcall(run, seed, scale, out, "measure")
    calls = [0] * len(LAYER_NAMES)
    own_s = [0.0] * len(LAYER_NAMES)
    for entry in profile.getstats():
        code = entry.code
        if isinstance(code, str):
            continue  # a builtin: no module of its own
        layer = layer_of_path(code.co_filename)
        if layer is None:
            continue
        calls[layer] += entry.callcount
        own_s[layer] += entry.inlinetime
    return rep, {"calls": dict(zip(LAYER_NAMES, calls)),
                 "profile_self_s": dict(zip(LAYER_NAMES, own_s))}


def layer_of_path(filename: str) -> Optional[int]:
    """Layer of a source file under ``repro/``; ``None`` outside it."""
    marker = "/repro/"
    position = filename.rfind(marker)
    if position < 0:
        return None
    rest = filename[position + len(marker):].split("/")
    if len(rest) >= 2 and rest[0] in LAYERS:
        return LAYERS.index(rest[0])
    return OTHER
