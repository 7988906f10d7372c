"""Per-key circuit breakers: stop hammering a dependency that keeps failing.

The service keys breakers by *database name*: a database whose requests keep
failing (corrupt relation, planner bug, poisoned artifacts) trips its breaker
open, and further requests fail fast with :class:`CircuitOpenError` instead
of burning a full pipeline run each -- classic open/half-open/closed
semantics:

* **closed** -- requests flow; consecutive failures are counted;
* **open** -- after ``failure_threshold`` consecutive failures, requests are
  rejected immediately for ``reset_seconds``;
* **half-open** -- after the cool-down one probe request is let through; its
  success closes the breaker, its failure re-opens it, and an outcome that
  is no health signal releases the slot for the next probe.

Every admitted request settles exactly once -- ``record_success``,
``record_failure`` or ``release`` -- passing back the token ``acquire``
handed out.  The token marks the half-open probe, so only the probe's
outcome settles the half-open state: a request admitted before the breaker
opened cannot close it, re-open it or free the probe slot while the probe
runs.

Breakers are deliberately conservative about what counts as a failure: the
caller decides (the service records only unexpected pipeline errors --
client mistakes, deadline expiry and cancellations are not dependency-health
signals, and it releases them instead).
"""

from __future__ import annotations

import threading
import time


class CircuitOpenError(RuntimeError):
    """A request was rejected because the key's circuit breaker is open."""

    def __init__(self, key: str, retry_after: float):
        super().__init__(
            f"circuit breaker open for {key!r}; retry in {retry_after:.3f}s"
        )
        self.key = key
        self.retry_after = retry_after


class CircuitBreaker:
    """One key's breaker (thread-safe)."""

    def __init__(self, key: str, *, failure_threshold: int = 5, reset_seconds: float = 30.0):
        if failure_threshold < 1:
            raise ValueError(f"failure_threshold must be positive, got {failure_threshold}")
        if reset_seconds <= 0:
            raise ValueError(f"reset_seconds must be positive, got {reset_seconds}")
        self.key = key
        self.failure_threshold = failure_threshold
        self.reset_seconds = reset_seconds
        self._lock = threading.Lock()
        self._consecutive_failures = 0
        self._opened_at: float | None = None
        self._probe: object | None = None
        self.total_failures = 0
        self.total_rejections = 0

    # -- state ------------------------------------------------------------------------
    @property
    def state(self) -> str:
        with self._lock:
            return self._state_locked()

    def _state_locked(self) -> str:
        if self._opened_at is None:
            return "closed"
        if time.monotonic() - self._opened_at >= self.reset_seconds:
            return "half-open"
        return "open"

    # -- the protocol -----------------------------------------------------------------
    def acquire(self) -> object | None:
        """Admit one request or raise :class:`CircuitOpenError`.

        Returns the request's token: a fresh probe token when it is the
        half-open probe, ``None`` otherwise.  In the half-open state exactly
        one probe request is admitted at a time; concurrent requests keep
        failing fast until the probe settles.
        """
        with self._lock:
            state = self._state_locked()
            if state == "closed":
                return None
            if state == "half-open" and self._probe is None:
                self._probe = object()
                return self._probe
            self.total_rejections += 1
            retry_after = max(
                0.0, self.reset_seconds - (time.monotonic() - float(self._opened_at))
            )
            raise CircuitOpenError(self.key, retry_after)

    def _is_probe(self, token: object | None) -> bool:
        return token is not None and token is self._probe

    def record_success(self, token: object | None) -> None:
        """Settle an admitted request that succeeded.

        The probe's success closes the breaker; any other success resets the
        failure streak of a closed breaker and leaves an open one alone.
        """
        with self._lock:
            if self._is_probe(token):
                self._probe = None
                self._opened_at = None
            if self._opened_at is None:
                self._consecutive_failures = 0

    def release(self, token: object | None) -> None:
        """Settle a request whose outcome says nothing about health.

        Changes no count and no state; the probe's release frees the
        half-open slot so the next request may probe.
        """
        with self._lock:
            if self._is_probe(token):
                self._probe = None

    def record_failure(self, token: object | None) -> None:
        """Settle an admitted request that failed.

        The probe's failure re-opens the breaker for a fresh cool-down; on a
        closed breaker the failure extends the streak and opens it at the
        threshold.  A failure of a request admitted before the breaker
        opened is counted and changes no state.
        """
        with self._lock:
            self.total_failures += 1
            if self._is_probe(token):
                self._probe = None
                self._consecutive_failures += 1
                self._opened_at = time.monotonic()
            elif self._opened_at is None:
                self._consecutive_failures += 1
                if self._consecutive_failures >= self.failure_threshold:
                    self._opened_at = time.monotonic()

    def as_dict(self) -> dict:
        with self._lock:
            return {
                "state": self._state_locked(),
                "consecutive_failures": self._consecutive_failures,
                "total_failures": self.total_failures,
                "total_rejections": self.total_rejections,
            }


class BreakerRegistry:
    """Breakers by key, created on first use with shared thresholds."""

    def __init__(self, *, failure_threshold: int = 5, reset_seconds: float = 30.0):
        self.failure_threshold = failure_threshold
        self.reset_seconds = reset_seconds
        self._breakers: dict[str, CircuitBreaker] = {}
        self._lock = threading.Lock()

    def breaker(self, key: str) -> CircuitBreaker:
        with self._lock:
            if key not in self._breakers:
                self._breakers[key] = CircuitBreaker(
                    key,
                    failure_threshold=self.failure_threshold,
                    reset_seconds=self.reset_seconds,
                )
            return self._breakers[key]

    def acquire(self, *keys: str) -> dict[str, object | None]:
        """Admit a request touching every key, or raise for the first open one.

        Returns the admission: each distinct key mapped to its breaker's
        token.  Settle it once with :meth:`release`, :meth:`record_success`
        or :meth:`record_failure`.  A key named twice is one breaker,
        acquired once.  When a later key rejects, the keys already admitted
        are released again.
        """
        admission: dict[str, object | None] = {}
        try:
            for key in dict.fromkeys(keys):
                admission[key] = self.breaker(key).acquire()
        except CircuitOpenError:
            self.release(admission)
            raise
        return admission

    def release(self, admission: dict[str, object | None]) -> None:
        for key, token in admission.items():
            self.breaker(key).release(token)

    def record_success(self, admission: dict[str, object | None]) -> None:
        for key, token in admission.items():
            self.breaker(key).record_success(token)

    def record_failure(self, admission: dict[str, object | None]) -> None:
        for key, token in admission.items():
            self.breaker(key).record_failure(token)

    def states(self) -> dict[str, dict]:
        with self._lock:
            breakers = list(self._breakers.values())
        return {breaker.key: breaker.as_dict() for breaker in breakers}

    def any_open(self) -> bool:
        return any(state["state"] != "closed" for state in self.states().values())
