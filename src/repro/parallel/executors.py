"""The supervised advance-phase executor.

The REWL driver alternates *advance* phases (every walker runs a block of
Wang-Landau steps) with *exchange/merge* phases.  :class:`SerialExecutor`
runs the advance tasks in a plain loop in the calling process; the
campaign-scale parallel paths are the fused and shm backends
(:mod:`repro.parallel.fused`), which bypass executors entirely.  Callers
inject an executor with its own fault and retry settings through the
``executor=`` argument of :class:`~repro.parallel.rewl.REWLDriver`.

The task function has the shape ``fn(walker, *args) -> walker``.

Supervision
-----------
Days-long campaigns must survive transient task failures, so the executor
supervises its tasks:

- **bounded retry with backoff** (``max_retries``, ``retry_backoff``) — a
  failed attempt is rerun; the caller's input objects are untouched until
  ``map`` returns, so a retry recomputes the same deterministic result and
  the run stays bit-identical to a failure-free one,
- **deterministic chaos** — a :class:`repro.faults.FaultInjector` (explicit
  argument or the ``REPRO_FAULTS`` env knob) wraps each attempt; injected
  faults fire before the task body runs, so surviving runs are bit-identical
  to fault-free ones.  A hung task in the calling process cannot be
  preempted; injected hangs raise after their sleep, so retry covers them.

Retries are counted and emitted through ``repro.obs`` (metrics
``task.retries``, ``task.failures``, ``fault.injected``; events
``task_retry``, ``task_failed``).

Partial completion
------------------
``map`` is all-or-nothing: one task exhausting its retry budget aborts the
whole phase.  ``map_partial`` instead returns
``(results, failures: dict[index, Exception])`` with ``None`` in the result
slot of each failed task, so a campaign supervisor
(:mod:`repro.resilience`) can quarantine the failing window while the rest
of the fleet keeps its completed work.  Both paths share one retry loop and
one ``(index, attempt)`` fault-key space, so a run that never exhausts a
budget is bit-identical under either entry point.
"""

from __future__ import annotations

import time

from repro.faults import FaultInjector, InjectedFault, faults_from_env
from repro.obs import Telemetry

__all__ = ["SerialExecutor"]


class SerialExecutor:
    """Run tasks in a plain loop in the calling process, with retries."""

    def __init__(self, max_retries: int | None = None,
                 retry_backoff: float = 0.02, faults: FaultInjector | None = None,
                 telemetry: Telemetry | None = None):
        if max_retries is not None and max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries!r}")
        if retry_backoff < 0:
            raise ValueError(f"retry_backoff must be >= 0, got {retry_backoff!r}")
        self.faults = faults if faults is not None else faults_from_env()
        # Default retry budget: zero without fault injection (failures
        # propagate exactly as before), generous under chaos.
        self.max_retries = (
            max_retries if max_retries is not None
            else (8 if self.faults is not None else 0)
        )
        self.retry_backoff = retry_backoff
        self.obs = telemetry if telemetry is not None else Telemetry()
        self._obs_bound = telemetry is not None

    def bind_telemetry(self, telemetry: Telemetry | None) -> None:
        """Adopt a driver's telemetry handle unless one was set explicitly."""
        if telemetry is not None and not self._obs_bound:
            self.obs = telemetry
            self._obs_bound = True

    def map(self, fn, walkers, *args) -> list:
        return self._map_impl(fn, walkers, args, failures=None)

    def map_partial(self, fn, walkers, *args) -> tuple[list, dict]:
        """Like ``map``, but failed tasks yield ``None`` + an entry in the
        returned ``{index: exception}`` dict instead of aborting the phase."""
        failures: dict[int, Exception] = {}
        return self._map_impl(fn, walkers, args, failures=failures), failures

    def _map_impl(self, fn, walkers, args, failures) -> list:
        out = []
        for index, walker in enumerate(walkers):
            attempt = 0
            while True:
                try:
                    out.append(self._wrap(fn, index, attempt)(walker, *args))
                    break
                except Exception as exc:  # noqa: BLE001 - supervised retry
                    attempt += 1
                    if attempt > self.max_retries:
                        if failures is None:
                            raise
                        failures[index] = exc
                        out.append(None)
                        self._note_exhausted(index, exc)
                        break
                    self._note_retry(index, attempt, exc)
                    self._backoff(attempt)
        return out

    def _wrap(self, fn, index: int, attempt: int):
        """Fault-wrap one attempt (no-op without an injector)."""
        if self.faults is None:
            return fn
        return self.faults.wrap(fn, index, attempt)

    def _note_retry(self, index: int, attempt: int, exc) -> None:
        self.obs.metrics.inc("task.retries")
        if isinstance(exc, InjectedFault):
            self.obs.metrics.inc("fault.injected")
        if self.obs.enabled:
            self.obs.emit(
                "task_retry", executor=type(self).__name__, index=index,
                attempt=attempt, reason="error",
                error=f"{type(exc).__name__}: {exc}",
            )

    def _note_exhausted(self, index: int, exc) -> None:
        """A task burned its whole retry budget in partial mode."""
        self.obs.metrics.inc("task.failures")
        if self.obs.enabled:
            self.obs.emit(
                "task_failed", executor=type(self).__name__, index=index,
                error=f"{type(exc).__name__}: {exc}",
            )

    def _backoff(self, attempt: int) -> None:
        if self.retry_backoff > 0:
            time.sleep(self.retry_backoff * (2 ** max(attempt - 1, 0)))

    def close(self) -> None:
        return None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
