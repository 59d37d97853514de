"""Bounded retries with deterministic backoff, and counters.

The streaming-MD pipelines this reproduction grows toward treat transient
I/O failure as the normal case: a dropped stripe or flipped bit triggers a
bounded, backed-off re-read rather than a crash.  :class:`RetryPolicy`
captures the budget and the jitter seed (exponential backoff with
*deterministic* jitter -- a seeded hash of (seed, key, attempt), so a fixed
seed replays the exact same delays); :class:`Retrier` executes DES
operations under it.

Classification contract (see :mod:`repro.errors`):

* :class:`~repro.errors.TransientFaultError` (including corruption) ->
  retried up to ``max_retries`` times, then wrapped in
  :class:`~repro.errors.RetryExhaustedError`;
* :class:`~repro.errors.PermanentFaultError` -> raised immediately;
* anything else (``StorageFullError``, ``CodecError``, ...) -> not ours,
  propagated untouched.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Generator, Optional

from repro.errors import (
    ConfigurationError,
    CorruptionError,
    PermanentFaultError,
    RetryExhaustedError,
    TransientFaultError,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import span
from repro.sim import Simulator

__all__ = ["RetryPolicy", "RetryStats", "Retrier"]

#: The backoff schedule: the first retry waits ``BACKOFF_BASE_S``, each
#: later one ``BACKOFF_FACTOR`` times longer, capped at ``BACKOFF_CAP_S``,
#: each with symmetric jitter of ``JITTER_FRAC``.
BACKOFF_BASE_S = 1e-3
BACKOFF_FACTOR = 2.0
BACKOFF_CAP_S = 0.5
JITTER_FRAC = 0.25


@dataclass(frozen=True)
class RetryPolicy:
    """Retry budget for one class of operations.

    ``delay_s(attempt, key)`` is a pure function of ``(seed, key, attempt)``:
    exponential growth from :data:`BACKOFF_BASE_S` by :data:`BACKOFF_FACTOR`,
    capped at :data:`BACKOFF_CAP_S`, with symmetric jitter of
    :data:`JITTER_FRAC` drawn from a per-(key, attempt) seeded stream --
    reproducible to the femtosecond, yet decorrelated across concurrent
    operations so retries do not stampede in lockstep.
    """

    max_retries: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries {self.max_retries} must be >= 0"
            )

    def delay_s(self, attempt: int, key: str = "") -> float:
        """Backoff before retry number ``attempt + 1`` (deterministic)."""
        if attempt < 0:
            raise ConfigurationError(f"attempt {attempt} must be >= 0")
        raw = min(BACKOFF_CAP_S, BACKOFF_BASE_S * BACKOFF_FACTOR**attempt)
        u = random.Random(f"{self.seed}/{key}/{attempt}").random()
        return raw * (1.0 + JITTER_FRAC * (u - 0.5))


class RetryStats:
    """The ``retry_<field>_total`` counters every retried operation of a
    middleware shares.  Each attribute is the registry counter itself:
    the :class:`Retrier` increments it, everyone else reads the registry.
    """

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        metric_labels: Optional[Dict[str, str]] = None,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        labels = metric_labels or {}

        def counter(field: str):
            return self.metrics.counter(f"retry_{field}_total", **labels)

        self.attempts = counter("attempts")  # tries, including the first
        self.retries = counter("retries")  # re-tries after a transient failure
        self.recovered = counter("recovered")  # succeeded after >= 1 retry
        self.transient_faults = counter("transient_faults")
        self.corruption_detected = counter("corruption_detected")
        self.permanent_failures = counter("permanent_failures")
        self.exhausted = counter("exhausted")  # operations whose retries ran out
        self.backoff_s = counter("backoff_s")  # simulated seconds backing off


class Retrier:
    """Runs DES operations under a :class:`RetryPolicy`.

    ``call`` takes an *operation factory* -- each attempt needs a fresh
    generator, since a failed one cannot be resumed -- and replays it until
    success, permanent failure, or retry exhaustion, paying the policy's
    backoff in simulated time between attempts.
    """

    def __init__(
        self,
        sim: Simulator,
        policy: Optional[RetryPolicy] = None,
        stats: Optional[RetryStats] = None,
    ):
        self.sim = sim
        self.policy = policy if policy is not None else RetryPolicy()
        self.stats = stats if stats is not None else RetryStats()

    def call(
        self, op_factory: Callable[[], Generator], key: str = "op"
    ) -> Generator:
        """Process: run ``op_factory()`` to completion under the policy."""
        attempt = 0
        with span(self.sim, "retry.call", key=key) as sp:
            while True:
                self.stats.attempts.inc()
                try:
                    result = yield from op_factory()
                except PermanentFaultError:
                    self.stats.permanent_failures.inc()
                    sp.tag(retries=attempt)
                    raise
                except TransientFaultError as exc:
                    self.stats.transient_faults.inc()
                    if isinstance(exc, CorruptionError):
                        self.stats.corruption_detected.inc()
                    if attempt >= self.policy.max_retries:
                        self.stats.exhausted.inc()
                        sp.tag(retries=attempt)
                        raise RetryExhaustedError(
                            f"{key}: gave up after {attempt + 1} attempt(s): "
                            f"{exc}"
                        ) from exc
                    delay = self.policy.delay_s(attempt, key)
                    self.stats.backoff_s.inc(delay)
                    with span(self.sim, "retry.backoff", key=key, attempt=attempt):
                        yield self.sim.timeout(delay)
                    attempt += 1
                    self.stats.retries.inc()
                    continue
                if attempt:
                    self.stats.recovered.inc()
                sp.tag(retries=attempt)
                return result
