"""Exception hierarchy for the power-er library.

All library-raised exceptions derive from :class:`PowerError` so callers can
catch every library failure with a single ``except`` clause while still being
able to distinguish configuration mistakes from data problems.
"""

from __future__ import annotations


class PowerError(Exception):
    """Base class for every exception raised by this library."""


class ConfigurationError(PowerError):
    """An invalid parameter or inconsistent configuration was supplied."""


class DataError(PowerError):
    """A table, record, or pair set violates a structural requirement."""


class GraphError(PowerError):
    """A graph operation was attempted on an invalid or inconsistent graph."""


class CrowdError(PowerError):
    """The simulated crowd was asked something it cannot answer."""


class SelectionError(PowerError):
    """A question-selection algorithm reached an invalid state."""


class EngineError(PowerError):
    """The crowd-orchestration engine reached an invalid state (illegal HIT
    transition, corrupt journal header, misconfigured runtime)."""


class JournalError(EngineError):
    """The answer journal is unusable (unreadable header, version mismatch)."""


class SimulatedCrash(EngineError):
    """Raised by the engine's test-only ``crash_after`` knob to abort a run
    mid-flight, leaving a partial journal behind for crash-resume tests."""


class ObservabilityError(PowerError):
    """The tracing/metrics subsystem was misused (a histogram re-requested
    with other boundaries, a metric re-registered under a different type,
    an unbalanced span stack, an unreadable trace file)."""


class ServeError(PowerError):
    """The resolution service reached an invalid state (session registry
    inconsistency, actor failure, misconfigured server)."""


class ProtocolError(ServeError):
    """A serve-protocol request is malformed or speaks an unsupported
    version; carries the machine-readable ``code`` the wire response uses."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


class OverloadedError(ServeError):
    """The server shed a request under admission control; ``retry_after``
    is the seconds a well-behaved client should wait before retrying."""

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class VerificationError(PowerError):
    """A correctness check of :mod:`repro.verify` failed: a production path
    disagreed with its brute-force oracle, or an invariant was violated."""
