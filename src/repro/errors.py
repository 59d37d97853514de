"""Exception taxonomy for the ADA reproduction.

Every error raised by the library derives from :class:`ReproError` so callers
can catch the whole family.  The OOM-kill semantics of the fat-node
experiments (Fig. 10) are expressed with :class:`OutOfMemoryError`, which the
benchmark harness catches and records as a ``killed`` data point exactly the
way the paper plots truncated series.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class FileSystemError(ReproError):
    """Base class for file-system level failures."""


class FileNotFoundInFSError(FileSystemError):
    """A path was looked up in a simulated file system and does not exist."""


class FileExistsInFSError(FileSystemError):
    """Exclusive create of a path that already exists."""


class StorageFullError(FileSystemError):
    """A storage device ran out of capacity during a write."""


class OutOfMemoryError(ReproError):
    """A node exceeded its memory capacity; the process is 'killed'.

    Mirrors the kernel OOM-killer events the paper observes on the 1 TB
    fat-node server when VMD tries to render 1,876,800+ frames.
    """

    def __init__(self, requested: float, in_use: float, capacity: float):
        self.requested = float(requested)
        self.in_use = float(in_use)
        self.capacity = float(capacity)
        super().__init__(
            f"out of memory: requested {requested:.3e} B with "
            f"{in_use:.3e} B in use of {capacity:.3e} B capacity"
        )


class TagNotFoundError(ReproError):
    """A tag-selective read referenced a tag absent from the label index."""


class LabelIndexError(ReproError):
    """The label file for a dataset is missing or corrupt."""


class ContainerError(ReproError):
    """A PLFS container is malformed (missing subdirs, bad index records)."""


class CodecError(ReproError, ValueError):
    """XTC-like codec failure (bad magic, truncated stream, bad precision).

    Also a :class:`ValueError`: argument-domain failures (empty containers,
    out-of-range frame windows, non-integer indices) are value errors to
    callers that do not know the :mod:`repro` taxonomy.
    """


class TopologyError(ReproError):
    """Inconsistent molecular topology (bad atom classes, range overlap)."""


class SimulationError(ReproError):
    """Discrete-event simulation kernel failure (e.g. deadlock detected)."""


class ConfigurationError(ReproError):
    """Invalid platform or scenario configuration."""


class AdmissionRejected(ReproError):
    """A tenant request breached its admission limits (serving layer).

    Raised *synchronously* at submit time -- a rejected request never
    enters the scheduler, so admission control bounds each tenant's
    queue footprint, not just its service share.
    """

    def __init__(self, tenant: str, reason: str, limit: float, value: float):
        self.tenant = str(tenant)
        self.reason = str(reason)
        self.limit = float(limit)
        self.value = float(value)
        super().__init__(
            f"tenant {tenant!r} rejected ({reason}): "
            f"{value:g} would exceed limit {limit:g}"
        )


class FaultError(ReproError):
    """Base class for injected or detected I/O faults (see :mod:`repro.faults`).

    The split below is the transient-vs-permanent classification the retry
    layer keys on: :class:`TransientFaultError` subclasses are retried,
    :class:`PermanentFaultError` subclasses are surfaced immediately.
    """


class TransientFaultError(FaultError):
    """An operation failed in a way a retry can plausibly fix."""


class PermanentFaultError(FaultError):
    """An operation failed in a way no retry will fix (media gone, etc.)."""


class CorruptionError(TransientFaultError):
    """A checksummed payload came back altered (bit flip, short read).

    Classified transient: the at-rest copy is intact, so a re-read serves
    clean bytes -- the re-fetch path the streaming-MD pipelines use.
    """


class RetryExhaustedError(PermanentFaultError):
    """Bounded retries ran out; wraps the last transient failure as its
    ``__cause__``.  Permanent from the caller's point of view."""


class NodeDownError(PermanentFaultError):
    """An ADA middleware node is dead (fail-stop).

    Raised by the sharded front when *every* holder of a subset is gone;
    the router skips a single dead holder."""


class DegradedReadWarning(UserWarning):
    """A read completed without an inactive-tier subset (documented
    degradation, paper's MISC data): surfaced, never silent."""
