"""Parallel MC framework (S6).

The paper runs replica-exchange Wang-Landau (REWL) across thousands of GPUs
with MPI.  Here the same algorithm runs at laptop scale:

- :mod:`repro.parallel.executors` — :class:`SerialExecutor`, the supervised
  advance-phase loop: bounded retry with backoff and deterministic chaos
  via :mod:`repro.faults` — a run that survives injected faults is
  bit-identical to the fault-free run.
- :mod:`repro.parallel.fused` — the fused SPMD campaign super-step, run
  in-process (``backend="fused"``) or across worker processes over
  shared-memory segments (``backend="shm"``, built on
  :mod:`repro.parallel.comm`'s :class:`ShmWorld` and :class:`ShmChannel`);
  both are bit-identical to the batched serial campaign.
- :mod:`repro.parallel.checkpoint` — crash-consistent snapshots (atomic
  tmp+rename writes, SHA-256 integrity framing, ``.prev`` rotation with
  fallback) so interrupted campaigns auto-resume bit-identically.

On top sits the REWL driver:

- :func:`make_windows` — overlapping energy-window decomposition,
- :class:`REWLDriver` — windows × walkers, synchronized Wang-Landau
  iterations, inter-window configuration exchanges, within-window ln g
  merging; returns per-window pieces ready for DoS stitching
  (:mod:`repro.dos`).
"""

from repro.parallel.comm import ShmChannel, ShmWorld
from repro.parallel.executors import SerialExecutor
from repro.parallel.windows import WindowSpec, make_windows, surviving_pairs
from repro.parallel.rewl import (
    BACKENDS,
    REWLDriver,
    REWLConfig,
    REWLResult,
    WalkerSnapshot,
)
from repro.parallel.fused import (
    FusedCampaignState,
    FusedEngine,
    FusedTeam,
    ShmEngine,
    fused_advance,
)
from repro.parallel.checkpoint import (
    CHECKPOINT_VERSION,
    load_checkpoint,
    load_latest_checkpoint,
    maybe_resume,
    previous_checkpoint_path,
    save_checkpoint,
)

__all__ = [
    "ShmChannel",
    "ShmWorld",
    "SerialExecutor",
    "WindowSpec",
    "make_windows",
    "surviving_pairs",
    "BACKENDS",
    "REWLDriver",
    "REWLConfig",
    "REWLResult",
    "WalkerSnapshot",
    "FusedCampaignState",
    "FusedEngine",
    "FusedTeam",
    "ShmEngine",
    "fused_advance",
    "CHECKPOINT_VERSION",
    "save_checkpoint",
    "load_checkpoint",
    "load_latest_checkpoint",
    "maybe_resume",
    "previous_checkpoint_path",
]
