"""Retry-with-exponential-backoff policy for transient failures.

One policy object serves both recovery sites: the storage layer retries
individual page IOs (:meth:`repro.storage.disk.DiskSimulator.execute_page_io`)
and the batch executor retries whole queries after a worker crash
(:func:`repro.exec.dispatch._run_with_recovery`). Delays grow
geometrically from ``base_delay_s`` up to ``max_delay_s``; when
``max_attempts`` is spent the policy raises
:class:`~repro.errors.RetryExhaustedError` wrapping the last transient
failure, so callers see one final, structured error instead of the raw
fault.

The ``sleep`` hook is injectable so tests and the deterministic chaos
harness can run with zero real waiting.

Jitter
------
A fleet of pool workers that all hit the same transient fault at the
same moment must not retry in lockstep (the thundering herd re-creates
the very contention that caused the fault). Each delay is therefore
shortened by a deterministic, seed-derived fraction: a ``blake2b`` hash
of ``(jitter_salt, attempt)`` — the same pure-function seeding style
:mod:`repro.faults.inject` uses — drawn in ``[0, 1)`` and scaled by
``jitter``. With the default ``jitter_salt=None`` the salt is the
worker's own pid, so real processes decorrelate automatically; chaos
and regression runs pass a fixed salt and get bit-identical schedules.
Jittered delays always stay inside the existing ``[0, max_delay_s]``
bounds, and :data:`NO_RETRY` never sleeps at all.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ReproError, RetryExhaustedError
from repro.obs import hooks as _obs

__all__ = ["RetryPolicy", "NO_RETRY"]


def _jitter_draw(salt, attempt: int) -> float:
    """A pure-function draw in [0, 1) for (salt, attempt)."""
    token = f"{salt}|{attempt}"
    digest = hashlib.blake2b(token.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2**64


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to retry a transient failure, and how long to wait.

    Parameters
    ----------
    max_attempts:
        Total attempts including the first one (``1`` disables retries).
    base_delay_s:
        Backoff before the first retry; attempt ``n`` waits
        ``base_delay_s * multiplier**(n-1)``, capped at ``max_delay_s``.
    jitter:
        Fraction of each delay subject to decorrelation, in ``[0, 1]``.
        The jittered delay is ``d * (1 - jitter * u)`` with ``u`` the
        deterministic draw for ``(jitter_salt, attempt)`` — never longer
        than the unjittered delay, never negative. ``0`` restores the
        exact geometric ladder.
    jitter_salt:
        Seed for the jitter draws. ``None`` (the default) uses the
        calling process's pid, so concurrent pool workers sharing one
        policy decorrelate; pass any fixed value for reproducible
        schedules (the chaos harness does).
    sleep:
        The wait primitive (``time.sleep``); tests pass a no-op.
    """

    max_attempts: int = 4
    base_delay_s: float = 0.001
    multiplier: float = 2.0
    max_delay_s: float = 0.050
    jitter: float = 0.5
    jitter_salt: int | str | None = None
    sleep: Callable[[float], None] = field(default=time.sleep, compare=False)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ReproError(
                f"retry policy needs max_attempts >= 1, got {self.max_attempts}"
            )
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ReproError("retry delays must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ReproError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay_for(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based), jittered."""
        delay = min(
            self.max_delay_s, self.base_delay_s * self.multiplier ** (attempt - 1)
        )
        if self.jitter <= 0.0 or delay <= 0.0:
            return delay
        salt = self.jitter_salt if self.jitter_salt is not None else os.getpid()
        return delay * (1.0 - self.jitter * _jitter_draw(salt, attempt))

    def backoff(self, attempt: int, error: Exception) -> None:
        """Wait before retry ``attempt``, or raise when the budget is spent.

        ``attempt`` counts the failures seen so far; when it reaches
        ``max_attempts`` the transient ``error`` is wrapped in a
        :class:`~repro.errors.RetryExhaustedError` and re-raised.
        """
        if attempt >= self.max_attempts:
            if _obs.enabled:
                _obs.inc("repro_retry_exhausted_total")
            raise RetryExhaustedError(
                f"gave up after {attempt} attempts: {error}",
                attempts=attempt,
                last_error=error,
            ) from error
        if _obs.enabled:
            _obs.inc("repro_retry_backoffs_total")
        delay = self.delay_for(attempt)
        if delay > 0:
            self.sleep(delay)


#: Fail on the first transient error (the pre-faults behaviour).
NO_RETRY = RetryPolicy(max_attempts=1)
