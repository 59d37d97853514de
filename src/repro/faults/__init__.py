"""Fault injection and recovery for the ADA reproduction.

Two halves, designed to meet in the middle:

* **Injection** (:mod:`repro.faults.plan`): a deterministic, seedable
  :class:`FaultPlan` that file systems, storage devices, and network links
  consult per operation through one :class:`FaultSite` gate -- latency
  spikes, transient/permanent errors, in-flight bit flips, short reads.
* **Recovery** (:mod:`repro.faults.retry`): a :class:`RetryPolicy`
  (bounded retries, exponential backoff with deterministic jitter) driven
  by a :class:`Retrier`, with :class:`RetryStats` counters the middleware
  surfaces to operators.

The chaos test suite (``tests/faults/``) closes the loop: under
transient-only injection with retries enabled, the full ingest ->
tag-selective-read pipeline must be bit-identical to a fault-free run.
"""

from repro.faults.plan import (
    CLEAN,
    PERMANENT,
    TRANSIENT,
    FaultDecision,
    FaultPlan,
    FaultSite,
    FaultSpec,
    raise_fault,
)
from repro.faults.retry import Retrier, RetryPolicy, RetryStats

__all__ = [
    "CLEAN",
    "PERMANENT",
    "TRANSIENT",
    "FaultDecision",
    "FaultPlan",
    "FaultSite",
    "FaultSpec",
    "Retrier",
    "RetryPolicy",
    "RetryStats",
    "raise_fault",
]
