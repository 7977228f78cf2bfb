"""Canonical exception hierarchy and CLI exit-code contract.

A single root (:class:`ReproError`) lets callers catch everything raised
by this library without masking unrelated bugs.  This module is the one
authoritative home of the taxonomy; :mod:`repro.sim.errors` re-exports
the names it historically defined so existing imports keep working.

CLI exit codes
--------------
``repro`` subcommands map outcomes onto process exit codes as follows:

==== =====================================================================
code meaning
==== =====================================================================
0    success — the run completed and every gate passed
1    the run completed but a gate failed: chaos invariant violations or
     watchdog aborts, sweep points that exhausted their retries
2    the run itself failed or was interrupted: any :class:`ReproError`
     (bad configuration, simulation misuse, snapshot corruption) or
     Ctrl-C; partial results may have been printed
3    a snapshot kill-drill halted the run on purpose
     (``--snapshot-kill-after``); the autosave on disk is ready for
     ``--restore``
==== =====================================================================

Worker processes spawned by :mod:`repro.experiments.parallel` use
:data:`WORKER_DRILL_EXIT` (43) when a kill-drill fires inside a worker,
so the parent can tell an intentional drill death from a real crash in
its logs (both are retried the same way: restore from the autosave).

The service tier maps onto the same contract: ``repro serve`` exits 0
on a clean drain (SIGTERM) and 2 on a :class:`ServeError` or any other
:class:`ReproError`; ``repro submit`` exits 0 when the job was accepted
(or already finished), 1 when the daemon refused it (overloaded /
draining) or the job itself failed, and 2 on connection or protocol
errors.  SIGTERM anywhere in the CLI takes the same clean
partial-result path as Ctrl-C (exit 2).  See ``docs/serving.md``.
"""

from __future__ import annotations

#: Exit-code constants documented above.
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_ERROR = 2
EXIT_DRILL = 3

#: ``os._exit`` status used by parallel workers when a snapshot
#: kill-drill fires mid-job (see module docstring).
WORKER_DRILL_EXIT = 43

EXIT_CODES = {
    EXIT_OK: "success, all gates passed",
    EXIT_FAILURE: "completed with failed gates (violations, failed "
                  "points)",
    EXIT_ERROR: "ReproError or interrupt; partial results at best",
    EXIT_DRILL: "snapshot kill-drill halt; autosave ready for --restore",
}


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SimulationError(ReproError):
    """The event loop was used incorrectly (e.g. scheduling in the past)."""


class WatchdogTimeout(SimulationError):
    """A scenario exceeded its wall-clock or simulated-time budget.

    Raised by :class:`repro.faults.ScenarioWatchdog` after it has stopped
    the event loop; catching :class:`SimulationError` therefore also
    covers watchdog aborts (the CLI and the flight recorder rely on
    this).
    """


class ConfigurationError(ReproError, ValueError):
    """An experiment, device, or scheme was configured inconsistently.

    Also a :class:`ValueError`: configuration mistakes are bad values, and
    the double parentage lets old call sites that catch ``ValueError``
    keep working while new code catches the precise type (or
    :class:`ReproError` for anything raised by this library).
    """


class RoutingError(ReproError):
    """No route exists for a packet, or a forwarding table is malformed."""


class TransportError(ReproError):
    """A transport connection was driven through an invalid state change."""


class SnapshotError(ReproError):
    """A snapshot file could not be written, read, or resumed."""


class SnapshotIntegrityError(SnapshotError):
    """A snapshot's payload hash did not match its header.

    The file was truncated or corrupted after it was written; restoring
    from it would silently diverge, so loading refuses instead.
    """


class ServeError(ReproError):
    """The serving tier failed: bad socket, dead daemon, protocol skew.

    Raised by the ``repro serve`` daemon and its clients for transport
    and protocol problems (a socket nobody listens on, a malformed
    frame, a connection that died mid-request).  *Service* refusals —
    overloaded, draining, unknown job — are not errors: they are
    explicit protocol responses, because shedding load is the daemon
    working as designed.
    """


class SnapshotHalt(ReproError):
    """A snapshot kill-drill stopped the run after its Nth autosave.

    Control flow, not a failure: raised by ``run_world`` when
    ``SnapshotPolicy.halt_after_saves`` is reached so drills and the
    differential tests can interrupt a run at a deterministic point.
    The CLI maps it to exit code :data:`EXIT_DRILL`; parallel workers
    turn it into an ``os._exit(WORKER_DRILL_EXIT)`` hard death so the
    executor's crash-recovery path is exercised for real.
    """

    def __init__(self, path: str, saves: int) -> None:
        super().__init__(
            f"snapshot drill: halted after {saves} save(s); "
            f"restore from {path}")
        self.path = path
        self.saves = saves


__all__ = [
    "EXIT_OK", "EXIT_FAILURE", "EXIT_ERROR", "EXIT_DRILL",
    "WORKER_DRILL_EXIT", "EXIT_CODES",
    "ReproError", "SimulationError", "WatchdogTimeout",
    "ConfigurationError", "RoutingError", "TransportError",
    "ServeError", "SnapshotError",
    "SnapshotIntegrityError", "SnapshotHalt",
]
