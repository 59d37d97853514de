"""Deterministic, seedable fault injection.

A :class:`FaultPlan` is the single source of injected misbehaviour for a
simulated deployment: every file system, storage device, and network link it
is attached to consults it once per operation and receives a
:class:`FaultDecision` -- extra latency, a transient or permanent error, an
in-flight payload corruption, or a short read.

Determinism is the design center.  Each *site* (``fs:ssd``, ``dev:WD-1TB-HDD``,
``link:ib``) and operation kind owns an independent :class:`random.Random`
stream seeded from ``(plan seed, site, op)``.  The DES dispatches events in a
deterministic order, so the sequence of decisions at every site -- and hence
the whole chaos run -- replays exactly for a fixed seed, which is what lets
the chaos suite assert bit-identical recovery instead of "usually works".

Corruption is injected *in flight* (the returned copy of the payload is
flipped, the at-rest object is untouched), mirroring torn DMA / link noise:
a checksum-triggered re-read observes clean bytes, so corruption is
classified transient.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Dict, Generator, Iterable, Optional

from repro.errors import (
    ConfigurationError,
    PermanentFaultError,
    TransientFaultError,
)

__all__ = [
    "TRANSIENT",
    "PERMANENT",
    "FaultSpec",
    "FaultDecision",
    "FaultPlan",
    "FaultSite",
    "raise_fault",
]

#: Error classifications a :class:`FaultDecision` can carry.
TRANSIENT = "transient"
PERMANENT = "permanent"

_RATE_FIELDS = (
    "transient_rate",
    "permanent_rate",
    "corruption_rate",
    "short_read_rate",
    "latency_rate",
)


@dataclass(frozen=True)
class FaultSpec:
    """Per-site fault envelope: independent per-operation probabilities.

    ``latency_spike_s`` is the extra service delay charged when a latency
    spike fires (an HDD remap or retried SATA command is tens of
    milliseconds; an SSD hiccup is sub-millisecond).
    """

    transient_rate: float = 0.0
    permanent_rate: float = 0.0
    corruption_rate: float = 0.0
    short_read_rate: float = 0.0
    latency_rate: float = 0.0
    latency_spike_s: float = 10e-3

    def __post_init__(self) -> None:
        for field in _RATE_FIELDS:
            rate = getattr(self, field)
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(
                    f"fault {field} {rate!r} outside [0, 1]"
                )
        if self.latency_spike_s < 0:
            raise ConfigurationError(
                f"latency spike {self.latency_spike_s!r} must be >= 0"
            )

    @property
    def is_quiet(self) -> bool:
        """True when this spec can never inject anything."""
        return all(getattr(self, field) == 0.0 for field in _RATE_FIELDS)


@dataclass(frozen=True)
class FaultDecision:
    """What one operation suffers: latency, error, and payload effects."""

    latency_s: float = 0.0
    error: Optional[str] = None  # None | TRANSIENT | PERMANENT
    corrupt: bool = False
    short_read: bool = False


#: Shared "nothing happens" decision (the overwhelmingly common case).
CLEAN = FaultDecision()


def raise_fault(kind: str, site: str, op: str, subject: str = "") -> None:
    """Raise the typed error for an injected failure of ``kind``."""
    detail = f" on {subject!r}" if subject else ""
    message = f"{site}: injected {kind} fault during {op}{detail}"
    if kind == PERMANENT:
        raise PermanentFaultError(message)
    raise TransientFaultError(message)


class FaultSite:
    """Mixin: a piece of hardware that fails at site ``<site_kind>:<name>``.

    File systems, devices and links share this one gate; the host class
    supplies ``sim``, ``name`` and its ``site_kind``.
    """

    faults: Optional[FaultPlan] = None

    def attach_faults(self, plan: FaultPlan):
        """Route this part's operations through a fault plan."""
        self.faults = plan
        return self

    @property
    def fault_site(self) -> str:
        return f"{self.site_kind}:{self.name}"

    def _fault_gate(self, op: str, subject: str = "") -> Generator:
        """Process: pay injected latency, raise injected errors.

        Returns the :class:`FaultDecision` (or ``None`` with no plan
        attached) so a read can reuse it for payload effects.  Callers
        gate *before* mutating any state, so a failed attempt is always
        safe to retry.
        """
        if self.faults is None:
            return None
        decision = self.faults.decide(self.fault_site, op)
        if decision.latency_s > 0:
            yield self.sim.timeout(decision.latency_s)
        if decision.error is not None:
            raise_fault(decision.error, self.fault_site, op, subject)
        return decision


class FaultPlan:
    """Seeded per-site fault schedule with injection accounting.

    ``sites`` maps :func:`fnmatch.fnmatchcase` patterns to
    :class:`FaultSpec` overrides (first matching pattern wins, insertion
    order); unmatched sites use ``default``.  Pass a quiet default plus
    targeted patterns to fault one tier only::

        FaultPlan(seed=7, sites={"fs:hdd": FaultSpec(permanent_rate=1.0)})
    """

    def __init__(
        self,
        seed: int = 0,
        default: Optional[FaultSpec] = None,
        sites: Optional[Dict[str, FaultSpec]] = None,
    ):
        self.seed = int(seed)
        self.default = default if default is not None else FaultSpec()
        self.sites: Dict[str, FaultSpec] = dict(sites or {})
        self._rngs: Dict[str, random.Random] = {}
        #: (site, kind) -> times injected; kinds: latency, transient,
        #: permanent, corruption, short_read.
        self.injected: Counter = Counter()
        self.decisions = 0

    # -- construction helpers ------------------------------------------------

    @classmethod
    def transient_only(
        cls,
        seed: int = 0,
        rate: float = 0.05,
        corruption_rate: Optional[float] = None,
        short_read_rate: Optional[float] = None,
        latency_rate: Optional[float] = None,
        latency_spike_s: float = 5e-3,
    ) -> "FaultPlan":
        """A plan with no permanent faults: everything is recoverable.

        This is the regime the chaos suite's bit-identity property runs
        under -- with retries enabled, results must match a fault-free run.
        """
        spec = FaultSpec(
            transient_rate=rate,
            permanent_rate=0.0,
            corruption_rate=rate / 2 if corruption_rate is None else corruption_rate,
            short_read_rate=rate / 4 if short_read_rate is None else short_read_rate,
            latency_rate=rate / 2 if latency_rate is None else latency_rate,
            latency_spike_s=latency_spike_s,
        )
        return cls(seed=seed, default=spec)

    # -- attachment ----------------------------------------------------------

    def attach(self, *objects: Iterable) -> "FaultPlan":
        """Attach this plan to anything exposing ``attach_faults``."""
        for obj in objects:
            obj.attach_faults(self)
        return self

    def attach_to(self, plane) -> "FaultPlan":
        """Attach to every injection point reachable from a data plane:
        each member's backend FSes, their local device or striped targets,
        and links."""
        for member in plane.members():
            for fs in member.plfs.backends.values():
                fs.attach_faults(self)
                device = getattr(fs, "device", None)
                if device is not None:
                    device.attach_faults(self)
                for target in getattr(fs, "targets", ()) or ():
                    target.device.attach_faults(self)
                    if target.link is not None:
                        target.link.attach_faults(self)
        return self

    # -- decision streams ----------------------------------------------------

    def spec_for(self, site: str) -> FaultSpec:
        for pattern, spec in self.sites.items():
            if fnmatchcase(site, pattern):
                return spec
        return self.default

    def _rng(self, stream: str) -> random.Random:
        rng = self._rngs.get(stream)
        if rng is None:
            rng = self._rngs[stream] = random.Random(f"{self.seed}/{stream}")
        return rng

    def decide(self, site: str, op: str) -> FaultDecision:
        """The fate of the next ``op`` at ``site`` (advances that stream)."""
        self.decisions += 1
        spec = self.spec_for(site)
        if spec.is_quiet:
            return CLEAN
        rng = self._rng(f"{site}:{op}")
        # Always draw every sub-stream so enabling one fault class does not
        # reshuffle the schedule of the others (stable comparisons across
        # spec variations with the same seed).
        u_latency = rng.random()
        u_permanent = rng.random()
        u_transient = rng.random()
        u_corrupt = rng.random()
        u_short = rng.random()
        latency = spec.latency_spike_s if u_latency < spec.latency_rate else 0.0
        error: Optional[str] = None
        if u_permanent < spec.permanent_rate:
            error = PERMANENT
        elif u_transient < spec.transient_rate:
            error = TRANSIENT
        decision = FaultDecision(
            latency_s=latency,
            error=error,
            corrupt=u_corrupt < spec.corruption_rate,
            short_read=u_short < spec.short_read_rate,
        )
        if latency:
            self.injected[(site, "latency")] += 1
        if error is not None:
            self.injected[(site, error)] += 1
        return decision

    # -- payload effects -----------------------------------------------------

    def corrupt_payload(self, site: str, op: str, data: bytes) -> bytes:
        """Flip one deterministic-random bit of an in-flight payload copy."""
        if not data:
            return data
        rng = self._rng(f"{site}:{op}#corrupt")
        position = rng.randrange(len(data))
        bit = 1 << rng.randrange(8)
        self.injected[(site, "corruption")] += 1
        mutable = bytearray(data)
        mutable[position] ^= bit
        return bytes(mutable)

    def short_length(self, site: str, op: str, nbytes: int) -> int:
        """Deterministic strictly-shorter length for a partial read."""
        if nbytes <= 0:
            return 0
        rng = self._rng(f"{site}:{op}#short")
        self.injected[(site, "short_read")] += 1
        return rng.randrange(nbytes)

    # -- accounting ----------------------------------------------------------

    def total(self, kind: Optional[str] = None) -> int:
        """Total injections, optionally of one kind."""
        return sum(
            count
            for (_, k), count in self.injected.items()
            if kind is None or k == kind
        )

    def snapshot(self) -> Dict[str, int]:
        """``{"site:kind": count}`` of everything injected so far."""
        return {
            f"{site}:{kind}": count
            for (site, kind), count in sorted(self.injected.items())
        }

    def __repr__(self) -> str:
        return (
            f"FaultPlan(seed={self.seed}, sites={len(self.sites)}, "
            f"injected={self.total()})"
        )
