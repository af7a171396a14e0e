"""Fault-tolerance policies: retry, timeouts, deadlines, circuit breaker.

The retry/timeout/breaker trio operates in *virtual* time — the same
clock the performance model and the offload runtime use — so a
resilient execution's fault handling is as deterministic and replayable
as its happy path.  :class:`Deadline` is the one wall-clock citizen: it
bounds *real* end-to-end execution of the process-parallel stack.

* :class:`RetryPolicy` — how many times to re-attempt a failed unit and
  how long to wait between attempts (capped exponential backoff, with
  opt-in seeded, deterministic jitter so concurrent retries
  de-synchronize).
* :class:`Timeout` — the watchdog deadline after which a hung or
  straggling offload is declared dead
  (:class:`~repro.exceptions.DeviceTimeout`).
* :class:`Deadline` — an absolute wall-clock expiry carried end-to-end
  through pipeline → pool → shard streaming; picklable, so worker
  processes can check it between chunks.
* :class:`CircuitBreaker` — trips after consecutive failures so a dead
  device stops costing a full retry ladder per unit; after a cooldown it
  admits one half-open probe, closing again only on success.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..exceptions import CircuitOpen, DeadlineExceeded, FaultPlanError

__all__ = [
    "RetryPolicy", "Timeout", "Deadline", "CircuitBreaker", "BreakerState",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff over a bounded number of retries.

    Attempt numbering starts at 0 (the first try); ``max_retries``
    counts the *re*-attempts, so a unit is tried ``max_retries + 1``
    times in total before being abandoned.

    ``jitter`` spreads each delay multiplicatively over
    ``[1 - jitter, 1 + jitter]`` so concurrent retries of many units do
    not synchronize into thundering herds.  The draw is a pure function
    of ``(seed, unit, attempt)`` — deterministic and replayable like
    every other fault-path decision in this package.  Dithering is
    opt-in: the default ``jitter=0.0`` keeps the exact undithered
    ladder, so existing schedules are unchanged unless a caller asks
    for spread.
    """

    max_retries: int = 3
    base_delay: float = 1e-3
    multiplier: float = 2.0
    max_delay: float = 1.0
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise FaultPlanError(
                f"max_retries must be non-negative, got {self.max_retries}"
            )
        if self.base_delay < 0:
            raise FaultPlanError(
                f"base delay must be non-negative, got {self.base_delay}"
            )
        if self.multiplier < 1.0:
            raise FaultPlanError(
                f"backoff multiplier must be >= 1, got {self.multiplier}"
            )
        if self.max_delay < self.base_delay:
            raise FaultPlanError(
                "max delay must be at least the base delay "
                f"({self.max_delay} < {self.base_delay})"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise FaultPlanError(
                f"jitter fraction must be in [0, 1), got {self.jitter}"
            )

    def allows(self, attempt: int) -> bool:
        """Whether attempt number ``attempt`` (0-based) may run."""
        return attempt <= self.max_retries

    def backoff(self, attempt: int, unit: int = 0) -> float:
        """Virtual-time delay before (re-)attempt ``attempt`` starts.

        ``unit`` keys the jitter draw: two units retrying the same
        attempt number back off by *different* (but each individually
        deterministic) amounts.
        """
        if attempt <= 0:
            return 0.0
        delay = min(
            self.base_delay * self.multiplier ** (attempt - 1), self.max_delay
        )
        if self.jitter:
            draw = float(
                np.random.default_rng([self.seed, unit, attempt]).random()
            )
            delay *= 1.0 + self.jitter * (2.0 * draw - 1.0)
        return delay

    def schedule(self, unit: int = 0) -> list[float]:
        """The full backoff ladder, one delay per permitted retry."""
        return [self.backoff(a, unit) for a in range(1, self.max_retries + 1)]


@dataclass(frozen=True)
class Timeout:
    """A fixed per-operation watchdog deadline in virtual seconds."""

    seconds: float

    def __post_init__(self) -> None:
        if self.seconds <= 0:
            raise FaultPlanError(
                f"timeout must be positive, got {self.seconds}"
            )

    def deadline(self, start: float) -> float:
        """Absolute virtual time at which the watchdog fires."""
        return start + self.seconds


@dataclass(frozen=True)
class Deadline:
    """An absolute wall-clock expiry for end-to-end execution.

    Unlike :class:`Timeout` (a per-operation budget in virtual time),
    a deadline is one fixed point in *real* time that every layer of a
    search shares: the driver checks it between shards, the pool's
    collect loop bounds its waits by it, and workers check it before
    scoring a chunk.  It is a frozen, picklable value — comparing
    ``time.time()`` against the same ``expires_at`` is meaningful in
    any process on the host.

    Build one with :meth:`after` and pass it to one search call::

        pipeline.search(query, db, deadline=Deadline.after(30.0))
    """

    expires_at: float  # epoch seconds (time.time() clock)

    def __post_init__(self) -> None:
        if self.expires_at <= 0:
            raise FaultPlanError(
                f"deadline must be a positive epoch time, got "
                f"{self.expires_at}"
            )

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        """A deadline ``seconds`` of wall clock from now."""
        if seconds <= 0:
            raise FaultPlanError(
                f"deadline budget must be positive, got {seconds}"
            )
        return cls(expires_at=time.time() + seconds)

    def remaining(self) -> float:
        """Seconds of budget left (negative once expired)."""
        return self.expires_at - time.time()

    @property
    def expired(self) -> bool:
        """True once the wall clock has passed the expiry."""
        return time.time() >= self.expires_at

    def check(self, what: str = "operation") -> None:
        """Raise :class:`~repro.exceptions.DeadlineExceeded` if expired."""
        rem = self.remaining()
        if rem <= 0:
            raise DeadlineExceeded(
                f"deadline expired {-rem:.3f}s ago before {what} completed",
                remaining=rem,
            )


class BreakerState(Enum):
    """Circuit-breaker states (the classic three-state machine)."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class CircuitBreaker:
    """Trips after ``failure_threshold`` consecutive failures.

    While OPEN, :meth:`check` raises
    :class:`~repro.exceptions.CircuitOpen` until ``cooldown_seconds`` of
    virtual time have passed, after which exactly one probe is admitted
    (HALF_OPEN).  The probe's success closes the breaker; its failure
    re-opens it for another cooldown.
    """

    def __init__(
        self, *, failure_threshold: int = 5, cooldown_seconds: float = 1.0
    ) -> None:
        if failure_threshold < 1:
            raise FaultPlanError(
                f"failure threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown_seconds < 0:
            raise FaultPlanError(
                f"cooldown must be non-negative, got {cooldown_seconds}"
            )
        self.failure_threshold = failure_threshold
        self.cooldown_seconds = cooldown_seconds
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False

    # ------------------------------------------------------------------
    @property
    def state(self) -> BreakerState:
        """Current state (does not advance the half-open transition)."""
        return self._state

    def check(self, now: float) -> None:
        """Admit an operation at virtual time ``now`` or raise.

        Raises :class:`~repro.exceptions.CircuitOpen` when the breaker
        is open (and still cooling down) or a half-open probe is already
        in flight.
        """
        if self._state is BreakerState.OPEN:
            if now - self._opened_at < self.cooldown_seconds:
                raise CircuitOpen(
                    f"circuit open at t={now:g} "
                    f"(cooling down until t={self._opened_at + self.cooldown_seconds:g})"
                )
            self._state = BreakerState.HALF_OPEN
            self._probe_in_flight = False
        if self._state is BreakerState.HALF_OPEN:
            if self._probe_in_flight:
                raise CircuitOpen(
                    f"circuit half-open at t={now:g} with a probe in flight"
                )
            self._probe_in_flight = True

    def record_success(self, now: float) -> None:
        """Note a completed operation; closes a half-open breaker."""
        del now  # symmetry with record_failure; success timing is irrelevant
        self._consecutive_failures = 0
        self._probe_in_flight = False
        self._state = BreakerState.CLOSED

    def record_failure(self, now: float) -> None:
        """Note a failed operation; may trip the breaker."""
        self._consecutive_failures += 1
        self._probe_in_flight = False
        if (
            self._state is BreakerState.HALF_OPEN
            or self._consecutive_failures >= self.failure_threshold
        ):
            self._state = BreakerState.OPEN
            self._opened_at = now
