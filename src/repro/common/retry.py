"""Unified retry policy: jittered exponential backoff under a deadline.

One :class:`RetryPolicy` + :func:`retry_call` pair replaces the ad-hoc
single-timeout calls the service stack grew separately — the client's
idempotent ``/v1`` rows (:meth:`repro.service.client.ProFIPyClient._call`),
the remote dispatcher's poll/mirror loops, and worker heartbeats
(:class:`repro.service.registry.WorkerAgent`) all retry through here.

Semantics:

* **attempts** bound how many times the call runs; the last matching
  failure is re-raised once they are spent.
* **backoff** between attempts is exponential
  (``base_delay * multiplier**n``, capped at ``max_delay``) with a
  ``jitter`` fraction randomized away, so a fleet of dispatchers and
  heartbeating workers never retries in lockstep against one coordinator.
* **deadline** is an overall budget across all attempts *and* sleeps —
  a call that must answer within 15s gets 15s total, not
  ``attempts × timeout``.
* **attempt_timeout** is the per-attempt budget handed to the call,
  clipped to whatever remains of the deadline.

Everything time-related is injectable (``clock``/``sleep``/``rng``), so
policies are testable without real sleeps.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class RetryPolicy:
    """How (and how long) a transient-failure-prone call is retried."""

    #: Total tries, including the first (1 = no retries).
    attempts: int = 3
    #: Backoff before the first retry.
    base_delay: float = 0.1
    multiplier: float = 2.0
    max_delay: float = 2.0
    #: Fraction of each backoff randomized away (0.25 → ±25%).
    jitter: float = 0.25
    #: Overall budget in seconds across attempts and sleeps (None = only
    #: ``attempts`` bounds the call).
    deadline: float | None = None
    #: Per-attempt budget handed to the call (None = the call's own
    #: default timeout applies).
    attempt_timeout: float | None = None

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1:
            raise ValueError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )
        if not 0 <= self.jitter <= 1:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be > 0, got {self.deadline}")

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """The jittered delay before retry number ``attempt`` (1-based:
        the sleep after the first failed try is ``backoff(1, ...)``)."""
        delay = min(self.base_delay * self.multiplier ** (attempt - 1),
                    self.max_delay)
        if self.jitter:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(0.0, delay)


def retry_call(call: Callable, *, policy: RetryPolicy,
               retry_on: tuple = (ConnectionError,),
               clock: Callable[[], float] = time.monotonic,
               sleep: Callable[[float], None] = time.sleep,
               rng: random.Random | None = None):
    """Run ``call(attempt_timeout)`` under ``policy`` and return its value.

    ``call`` receives the per-attempt timeout — ``policy.attempt_timeout``
    clipped to what remains of the overall deadline, or ``None`` when
    neither bounds it (the call then applies its own default).  Failures
    matching ``retry_on`` are retried with jittered exponential backoff
    until attempts or the deadline run out, then the last failure is
    re-raised.  Any other exception propagates immediately: an
    authoritative error (an HTTP-level rejection, a domain error) must
    not be hammered into a server that already answered.
    """
    rng = rng if rng is not None else random.Random()
    started = clock()
    last_error: BaseException | None = None
    for attempt in range(1, policy.attempts + 1):
        remaining = None
        if policy.deadline is not None:
            remaining = policy.deadline - (clock() - started)
            if remaining <= 0:
                break
        attempt_timeout = policy.attempt_timeout
        if remaining is not None:
            attempt_timeout = (remaining if attempt_timeout is None
                               else min(attempt_timeout, remaining))
        try:
            return call(attempt_timeout)
        except retry_on as error:  # noqa: PERF203 - the whole point
            last_error = error
            if attempt >= policy.attempts:
                break
            delay = policy.backoff(attempt, rng)
            if policy.deadline is not None:
                room = policy.deadline - (clock() - started)
                if room <= 0:
                    break
                delay = min(delay, room)
            if delay > 0:
                sleep(delay)
    if last_error is None:
        raise TimeoutError(
            f"retry deadline of {policy.deadline:g}s expired before the "
            "first attempt"
        )
    raise last_error


__all__ = ["RetryPolicy", "retry_call"]
