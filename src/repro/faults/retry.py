"""Bounded retries with deterministic backoff, per-op timeout, and counters.

The streaming-MD pipelines this reproduction grows toward treat transient
I/O failure as the normal case: a dropped stripe or flipped bit triggers a
bounded, backed-off re-read rather than a crash.  :class:`RetryPolicy`
captures the schedule (exponential backoff with *deterministic* jitter -- a
seeded hash of (seed, key, attempt), so a fixed seed replays the exact same
delays); :class:`Retrier` executes DES operations under it.

Classification contract (see :mod:`repro.errors`):

* :class:`~repro.errors.TransientFaultError` (including corruption and
  timeouts) -> retried up to ``max_retries`` times, then wrapped in
  :class:`~repro.errors.RetryExhaustedError`;
* :class:`~repro.errors.PermanentFaultError` -> raised immediately;
* anything else (``StorageFullError``, ``CodecError``, ...) -> not ours,
  propagated untouched.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Generator, List, Optional

from repro.errors import (
    ConfigurationError,
    CorruptionError,
    FaultTimeoutError,
    PermanentFaultError,
    RetryExhaustedError,
    TransientFaultError,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import span
from repro.sim import AnyOf, Simulator

__all__ = ["RetryPolicy", "RetryStats", "Retrier"]

#: Sentinel delivered by the deadline timeout in a timeout race.
_DEADLINE = object()


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff/timeout envelope for one class of operations.

    ``delay_s(attempt, key)`` is a pure function of ``(seed, key, attempt)``:
    exponential growth from ``backoff_base_s`` by ``backoff_factor``, capped
    at ``backoff_cap_s``, with symmetric jitter of ``jitter_frac`` drawn from
    a per-(key, attempt) seeded stream -- reproducible to the femtosecond,
    yet decorrelated across concurrent operations so retries do not
    stampede in lockstep.
    """

    max_retries: int = 4
    backoff_base_s: float = 1e-3
    backoff_factor: float = 2.0
    backoff_cap_s: float = 0.5
    jitter_frac: float = 0.25
    timeout_s: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries {self.max_retries} must be >= 0"
            )
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ConfigurationError("backoff delays must be >= 0")
        if self.backoff_factor < 1.0:
            raise ConfigurationError(
                f"backoff factor {self.backoff_factor} must be >= 1"
            )
        if not 0.0 <= self.jitter_frac <= 1.0:
            raise ConfigurationError(
                f"jitter fraction {self.jitter_frac} outside [0, 1]"
            )
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigurationError(
                f"timeout {self.timeout_s} must be positive"
            )

    @classmethod
    def no_retries(cls, timeout_s: Optional[float] = None) -> "RetryPolicy":
        """Fail-fast configuration: first transient failure is final."""
        return cls(max_retries=0, timeout_s=timeout_s)

    def delay_s(self, attempt: int, key: str = "") -> float:
        """Backoff before retry number ``attempt + 1`` (deterministic)."""
        if attempt < 0:
            raise ConfigurationError(f"attempt {attempt} must be >= 0")
        raw = min(
            self.backoff_cap_s,
            self.backoff_base_s * self.backoff_factor**attempt,
        )
        if self.jitter_frac == 0.0 or raw == 0.0:
            return raw
        u = random.Random(f"{self.seed}/{key}/{attempt}").random()
        return raw * (1.0 + self.jitter_frac * (u - 0.5))

    def schedule(self, key: str = "") -> List[float]:
        """Every backoff delay this policy would use for ``key``, in order."""
        return [self.delay_s(attempt, key) for attempt in range(self.max_retries)]


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
        self.timeouts = counter("timeouts")
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
                    result = yield from self._attempt(op_factory(), key)
                except PermanentFaultError:
                    self.stats.permanent_failures.inc()
                    sp.tag(retries=attempt)
                    raise
                except TransientFaultError as exc:
                    self.stats.transient_faults.inc()
                    if isinstance(exc, CorruptionError):
                        self.stats.corruption_detected.inc()
                    if isinstance(exc, FaultTimeoutError):
                        self.stats.timeouts.inc()
                    if attempt >= self.policy.max_retries:
                        self.stats.exhausted.inc()
                        sp.tag(retries=attempt)
                        raise RetryExhaustedError(
                            f"{key}: gave up after {attempt + 1} attempt(s): "
                            f"{exc}"
                        ) from exc
                    delay = self.policy.delay_s(attempt, key)
                    if delay > 0:
                        self.stats.backoff_s.inc(float(delay))
                        with span(
                            self.sim, "retry.backoff", key=key, attempt=attempt
                        ):
                            yield self.sim.timeout(delay)
                    attempt += 1
                    self.stats.retries.inc()
                    continue
                if attempt:
                    self.stats.recovered.inc()
                sp.tag(retries=attempt)
                return result

    def _attempt(self, op: Generator, key: str) -> Generator:
        """Process: one attempt, raced against the per-op deadline."""
        if self.policy.timeout_s is None:
            result = yield from op
            return result
        proc = self.sim.process(op, name=f"attempt:{key}")
        deadline = self.sim.timeout(self.policy.timeout_s, value=_DEADLINE)
        try:
            outcome = yield AnyOf(self.sim, [proc, deadline])
        except BaseException:
            deadline.cancel()  # op failed first; drop the stale deadline
            raise
        if outcome is _DEADLINE:
            if proc.triggered:
                # Completed at the same instant the deadline fired; honor it.
                if proc.ok:
                    return proc.value
                raise proc.value
            proc.interrupt("deadline")
            raise FaultTimeoutError(
                f"{key}: no completion within {self.policy.timeout_s}s"
            )
        deadline.cancel()
        return outcome
