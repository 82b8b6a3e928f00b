"""The driver-facing instrumentation bundle.

:class:`~repro.parallel.rewl.REWLDriver` takes its five observability
subsystems (telemetry, profiler, health, convergence, timeseries) — knobs
that always travel together — as one :class:`Instrumentation` value::

    REWLDriver(..., instrumentation=Instrumentation(telemetry=Telemetry()))

Each field accepts an instance, a config object where the driver supports
one, or None for the environment default; the driver resolves environment
defaults per field, so an empty bundle is indistinguishable from passing
nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["Instrumentation"]


@dataclass
class Instrumentation:
    """Observability wiring for a campaign driver, as one bundle.

    Fields:

    - ``telemetry`` — :class:`repro.obs.Telemetry`,
    - ``profiler`` — :class:`repro.obs.profile.SectionProfiler`,
    - ``health`` — :class:`repro.obs.health.HealthMonitor` or
      ``HealthConfig``,
    - ``convergence`` — :class:`repro.obs.convergence.ConvergenceLedger`
      or ``ConvergenceConfig``,
    - ``timeseries`` — :class:`repro.obs.timeseries.TimeSeriesRecorder`
      or ``TimeSeriesConfig``.

    ``None`` fields fall back to the corresponding environment knobs
    (``REPRO_PROFILE``, ``REPRO_HEALTH``, …) inside the driver.
    """

    telemetry: Any = None
    profiler: Any = None
    health: Any = None
    convergence: Any = None
    timeseries: Any = None
