"""Replica-exchange Wang–Landau (REWL) driver.

The parallel backbone of DeepThermo: the global energy range is cut into
overlapping windows (:mod:`repro.parallel.windows`), each window is sampled
by a team of independent Wang-Landau walkers, and the driver alternates

1. **advance** — every unconverged walker runs ``exchange_interval`` WL
   steps (through the supervised executor, or as one fused super-step
   under the fused/shm backends; walker RNG state travels with the walker,
   so every backend is bit-identical),
2. **exchange** — walkers in adjacent windows swap configurations with the
   exact REWL acceptance rule
   ``ln u < [ln g_A(E_A) − ln g_A(E_B)] + [ln g_B(E_B) − ln g_B(E_A)]``,
   possible only when both energies lie in both windows (the overlap),
3. **synchronize** — when *all* walkers of a window are flat, their ln g
   estimates are merged (bin-wise mean over walkers that visited the bin),
   histograms reset, and the window's modification factor advances jointly
   (Vogel, Li, Wüst & Landau 2013).

A window is converged when its ``ln f`` reaches ``ln_f_final``; converged
windows stop advancing and exchanging.  The per-window ln g pieces are
stitched into a global density of states by :mod:`repro.dos.stitching`.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.hamiltonians.base import Hamiltonian
from repro.obs import Instrumentation, Telemetry
from repro.obs.convergence import (
    ConvergenceConfig,
    ConvergenceLedger,
    convergence_from_env,
)
from repro.obs.costattr import COST_KIND, attribute_cost, publish_cost
from repro.obs.events import TRACE_ENV_VAR, worker_log
from repro.obs.health import HealthConfig, HealthMonitor, health_from_env
from repro.obs.profile import SectionProfiler, contribute_profile, profile_from_env
from repro.obs.timeseries import (
    TimeSeriesConfig,
    TimeSeriesRecorder,
    timeseries_from_env,
)
from repro.parallel.executors import SerialExecutor
from repro.parallel.windows import WindowSpec, make_windows, surviving_pairs
from repro.resilience.supervisor import (
    CampaignSupervisor,
    ResilienceConfig,
    resilience_from_env,
)
from repro.sampling.batched import BatchedWangLandauSampler
from repro.sampling.binning import EnergyGrid
from repro.sampling.wang_landau import (
    WalkerCounters,
    WangLandauSampler,
    WLConfig,
    drive_into_range,
)
from repro.util.rng import RngFactory
from repro.util.validation import check_in_range, check_integer, check_probability

__all__ = ["REWLConfig", "REWLDriver", "REWLResult", "WalkerSnapshot"]


def _advance_walker(walker, n_steps: int):
    """One advance task: step a walker (or batched team) in place.

    ``n_steps`` is per walker: a scalar walker takes ``n_steps`` WL steps, a
    batched team takes ``n_steps`` super-steps (one step per slot each).

    When ``REPRO_TRACE_DIR`` is set, each task emits one ``worker_span``
    record — tagged (pid, window, walker) via the walker's ``obs_tag`` — to
    this process's worker JSONL file, so shm worker ranks and the host can
    be merged into one timeline by ``repro obs export-trace``.
    """
    log = worker_log()
    t0 = time.perf_counter() if log.enabled else 0.0
    batched = getattr(walker, "steps", None)
    if batched is not None:
        batched(n_steps)
    else:
        for _ in range(n_steps):
            walker.step()
    if log.enabled:
        window, slot = getattr(walker, "obs_tag", (None, None))
        log.emit(
            "worker_span", name="advance", dur_s=time.perf_counter() - t0,
            window=window, walker=slot,
            steps=n_steps * int(getattr(walker, "n_slots", 1)),
        )
    return walker


#: Advance backends ``REWLConfig.backend`` accepts: executor-driven
#: per-window stepping ("serial") or the fused SPMD campaign super-step,
#: in-process ("fused") or multiprocess over shared-memory segments
#: ("shm"); see :mod:`repro.parallel.fused`.
BACKENDS = ("serial", "fused", "shm")


@dataclass(frozen=True)
class REWLConfig:
    """Tuning knobs for :class:`REWLDriver`.

    ``batched_walkers`` switches each window's team from N independent
    scalar walkers to one :class:`BatchedWangLandauSampler` stepping N
    walker slots per super-step against a shared ln g (the within-window
    throughput mode; see :mod:`repro.sampling.batched`).  Default off —
    scalar teams remain bit-identical to previous releases.

    ``backend`` selects how the campaign advances: ``"serial"`` steps each
    window through the supervised executor
    (:class:`repro.parallel.executors.SerialExecutor`), while ``"fused"``
    and ``"shm"`` step all windows as one SPMD array program
    (:mod:`repro.parallel.fused`; both imply ``batched_walkers``).
    ``shm_ranks`` caps the worker ranks of the shm backend (default: one
    per window, bounded by the CPU count).

    ``n_windows`` / ``walkers_per_window`` / ``overlap`` accept ``None``
    to be auto-tuned from the machine performance model at driver
    construction (:func:`repro.machine.autotune.plan_campaign`).
    """

    n_windows: int | None = 4
    walkers_per_window: int | None = 2
    overlap: float | None = 0.5
    exchange_interval: int = 2_000
    ln_f_init: float = 1.0
    ln_f_final: float = 1e-6
    flatness: float = 0.8
    check_interval: int | None = None  # per-walker WL flatness cadence
    seed: int = 0
    max_rounds: int = 100_000
    drive_max_steps: int = 2_000_000
    checkpoint_interval: int = 0  # rounds between snapshots (0 = off)
    batched_walkers: bool = False
    backend: str = "serial"
    shm_ranks: int | None = None

    def __post_init__(self):
        if self.n_windows is not None:
            check_integer("n_windows", self.n_windows, minimum=1)
        if self.walkers_per_window is not None:
            check_integer(
                "walkers_per_window", self.walkers_per_window, minimum=1
            )
        check_integer("exchange_interval", self.exchange_interval, minimum=1)
        check_probability("flatness", self.flatness)
        # Fail here rather than deep inside make_windows / drive_into_range.
        if self.overlap is not None:
            check_in_range("overlap", self.overlap, 0.1, 0.9)
        check_integer("max_rounds", self.max_rounds, minimum=1)
        check_integer("drive_max_steps", self.drive_max_steps, minimum=1)
        check_integer("checkpoint_interval", self.checkpoint_interval, minimum=0)
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS}"
            )
        if self.shm_ranks is not None:
            check_integer("shm_ranks", self.shm_ranks, minimum=1)


@dataclass
class WalkerSnapshot:
    """Post-run view of one walker (diagnostics)."""

    window: int
    walker: int
    n_steps: int
    acceptance_rate: float
    final_energy: float
    counters: WalkerCounters = field(default_factory=WalkerCounters)


@dataclass
class REWLResult:
    """Merged per-window densities of states plus run statistics."""

    global_grid: EnergyGrid
    windows: list[WindowSpec]
    window_ln_g: list[np.ndarray]
    window_visited: list[np.ndarray]
    window_iterations: list[int]
    converged: bool
    rounds: int
    total_steps: int
    exchange_attempts: np.ndarray
    exchange_accepts: np.ndarray
    walkers: list[WalkerSnapshot] = field(default_factory=list)
    telemetry: dict = field(default_factory=dict)
    degraded: bool = False
    quarantined: list[int] = field(default_factory=list)
    window_dispositions: list[dict] = field(default_factory=list)

    @property
    def exchange_rates(self) -> np.ndarray:
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(
                self.exchange_attempts > 0,
                self.exchange_accepts / np.maximum(self.exchange_attempts, 1),
                np.nan,
            )

    def stitched(self, allow_gaps: bool | None = None):
        """Global ln g stitched over windows (see :mod:`repro.dos`).

        Quarantined windows are stitched *around* (skipped, with gap
        bookkeeping on the returned :class:`~repro.dos.stitching.
        StitchedDoS`); ``allow_gaps`` defaults to True exactly when some
        window was quarantined, so complete runs keep the strict
        everything-must-connect behavior.
        """
        from repro.dos.stitching import stitch_windows

        if allow_gaps is None:
            allow_gaps = bool(self.quarantined)
        t0 = time.perf_counter()
        out = stitch_windows(
            self.global_grid, self.windows, self.window_ln_g,
            self.window_visited, skip=tuple(self.quarantined),
            allow_gaps=allow_gaps,
        )
        self._note_stitch_cost(time.perf_counter() - t0)
        return out

    def _note_stitch_cost(self, seconds: float) -> None:
        """Fold stitch wall time into this result's cost attribution.

        Stitching happens after the driver's profile was harvested, so the
        ``rewl.stitch`` section is appended to the profile dict here and
        the attribution recomputed — only when profiling was on (the run
        carries a profile) and only for the first stitch (repeat calls on
        the same result would inflate the section).
        """
        profile = self.telemetry.get("profile")
        if not isinstance(profile, dict) or "rewl.stitch" in profile:
            return
        seconds = float(seconds)
        profile["rewl.stitch"] = {
            "calls": 1, "timed": 1, "total_s": seconds, "mean_s": seconds,
            "est_total_s": seconds, "min_s": seconds, "max_s": seconds,
        }
        self.telemetry["cost"] = attribute_cost(profile)


class REWLDriver:
    """Windows × walkers replica-exchange Wang-Landau.

    Keyword-only construction::

        REWLDriver(
            hamiltonian=ham, proposal_factory=make_prop, grid=grid,
            initial_config=cfg0, config=REWLConfig(...),
        )

    Parameters
    ----------
    hamiltonian : Hamiltonian
    proposal_factory : callable
        ``proposal_factory() -> Proposal``; called once per walker so
        stateful proposals (DL caches) are never shared.  Must be
        picklable for ``backend="shm"`` (worker ranks build their own
        proposals from it — module-level factories qualify, lambdas don't;
        the driver calls it in-process and ships the instances).
    grid : EnergyGrid
        The global energy grid.
    initial_config : numpy.ndarray
        A valid configuration; each walker gets an independently shuffled
        copy driven into its window.
    config : REWLConfig
        Campaign shape and backend (``backend="serial"`` steps windows
        through the executor; ``"fused"``/``"shm"`` step the whole campaign
        as one SPMD super-step — :mod:`repro.parallel.fused`).
    executor : SerialExecutor, optional
        Explicit advance-phase executor, e.g. one carrying its own fault
        injector or retry budget; defaults to a fresh
        :class:`~repro.parallel.executors.SerialExecutor`.  Rejected for
        the fused/shm backends, which manage their own stepping.
    instrumentation : repro.obs.Instrumentation, optional
        Observability bundle — ``telemetry`` (metrics/spans/events handle),
        ``profiler`` (sampling section profiler), ``health`` (heartbeats +
        stall/anomaly detection), ``convergence`` (scientific diagnostics
        ledger), and ``timeseries`` (live status-board recorder) in one
        value.  Every field falls back to its environment knob
        (``REPRO_PROFILE``, ``REPRO_HEALTH``, ``REPRO_CONVERGENCE``,
        ``REPRO_TIMESERIES`` — and ``REPRO_OBS_PORT`` implies a recorder);
        none of them draw RNG, so an instrumented run stays bit-identical.
    checkpoint_path : path-like, optional
        Where periodic snapshots land when ``config.checkpoint_interval``
        is set; resume with :func:`repro.parallel.checkpoint.maybe_resume`.
    resilience : repro.resilience.CampaignSupervisor or ResilienceConfig,
        optional.  Campaign self-healing — numerical guard rails at
        super-step boundaries, bounded rollback to last-good in-memory
        snapshots, window quarantine with exchange re-pairing, and
        wall-clock/round/step budgets with clean terminate-and-harvest
        (DESIGN.md §14).  Defaults to the ``REPRO_RESILIENCE`` environment
        knob; guards draw no random numbers, so a guarded run that never
        trips is bit-identical to an unguarded one.  Under the fused/shm
        backends, guard trips mask *rows* of the campaign arrays (rollback
        rebinds the window's slots in place; quarantine drops the window
        from the schedule) — worker processes are never killed.
    """

    def __init__(self, *, hamiltonian=None, proposal_factory=None, grid=None,
                 initial_config=None, config=None, executor=None,
                 instrumentation=None, checkpoint_path=None, resilience=None):
        inst = instrumentation if instrumentation is not None else Instrumentation()
        missing = [
            k for k, v in (
                ("hamiltonian", hamiltonian),
                ("proposal_factory", proposal_factory),
                ("grid", grid),
                ("initial_config", initial_config),
            )
            if v is None
        ]
        if missing:
            raise TypeError(f"REWLDriver() missing required arguments {missing}")
        telemetry: Telemetry | None = inst.telemetry
        profiler: SectionProfiler | None = inst.profiler
        health = inst.health
        convergence = inst.convergence
        timeseries = inst.timeseries

        self.hamiltonian = hamiltonian
        self.grid = grid
        self.proposal_factory = proposal_factory
        cfg = config or REWLConfig()
        if (
            cfg.n_windows is None or cfg.walkers_per_window is None
            or cfg.overlap is None
        ):
            from repro.machine.autotune import plan_campaign

            plan = plan_campaign(
                n_bins=grid.n_bins, n_sites=hamiltonian.n_sites,
                walkers_per_window=cfg.walkers_per_window,
                overlap=cfg.overlap,
            )
            cfg = replace(
                cfg,
                n_windows=(
                    plan.n_windows if cfg.n_windows is None else cfg.n_windows
                ),
                walkers_per_window=(
                    plan.walkers_per_window
                    if cfg.walkers_per_window is None
                    else cfg.walkers_per_window
                ),
                overlap=plan.overlap if cfg.overlap is None else cfg.overlap,
            )
        if cfg.backend in ("fused", "shm") and not cfg.batched_walkers:
            # The fused super-step is defined on batched window teams.
            cfg = replace(cfg, batched_walkers=True)
        self.cfg = cfg
        if executor is not None and cfg.backend in ("fused", "shm"):
            raise TypeError(
                f"backend={cfg.backend!r} manages its own stepping; "
                "drop the executor= argument"
            )
        self.executor = executor or SerialExecutor()
        self._engine = None
        self.obs = telemetry if telemetry is not None else Telemetry()
        self.checkpoint_path = checkpoint_path
        self.profiler = profiler if profiler is not None else profile_from_env()
        if health is None:
            health_cfg = health_from_env()
            self.health = (
                HealthMonitor(self.obs, health_cfg) if health_cfg is not None else None
            )
        elif isinstance(health, HealthConfig):
            self.health = HealthMonitor(self.obs, health)
        else:
            self.health = health
        if convergence is None:
            conv_cfg = convergence_from_env()
            self.convergence = (
                ConvergenceLedger(conv_cfg) if conv_cfg is not None else None
            )
        elif isinstance(convergence, ConvergenceConfig):
            self.convergence = ConvergenceLedger(convergence)
        else:
            self.convergence = convergence
        if resilience is None:
            res_cfg = resilience_from_env()
            self.supervisor = (
                CampaignSupervisor(res_cfg, self.obs)
                if res_cfg is not None else None
            )
        elif isinstance(resilience, ResilienceConfig):
            self.supervisor = CampaignSupervisor(resilience, self.obs)
        else:
            self.supervisor = resilience
        if timeseries is None:
            ts_cfg = timeseries_from_env()
            if ts_cfg is None and os.environ.get("REPRO_OBS_PORT", "").strip():
                # Serving implies sampling: a live /metrics endpoint with
                # nothing behind it would only report an idle board.
                ts_cfg = TimeSeriesConfig()
            self.timeseries = (
                TimeSeriesRecorder(ts_cfg) if ts_cfg is not None else None
            )
        elif isinstance(timeseries, TimeSeriesConfig):
            self.timeseries = TimeSeriesRecorder(timeseries)
        else:
            self.timeseries = timeseries
        if self.timeseries is not None:
            from repro.obs.server import get_board, server_from_env

            server_from_env()  # starts the singleton iff REPRO_OBS_PORT set
            get_board().publish_recorder(self.timeseries)
            trace = os.environ.get(TRACE_ENV_VAR, "").strip()
            if trace and trace not in ("stderr", "-"):
                get_board().publish_trace(trace)
        # Executors constructed without their own telemetry adopt ours, so
        # retry/fault events land in this run's trace.
        bind = getattr(self.executor, "bind_telemetry", None)
        if bind is not None:
            bind(self.obs)
        self.windows = make_windows(grid, self.cfg.n_windows, self.cfg.overlap)
        self._rngs = RngFactory(self.cfg.seed)
        self._exchange_rng = self._rngs.make("rewl-exchange")

        initial_config = hamiltonian.validate_config(np.asarray(initial_config))
        wl_cfg = WLConfig(
            ln_f_init=self.cfg.ln_f_init, ln_f_final=self.cfg.ln_f_final,
            flatness=self.cfg.flatness, check_interval=self.cfg.check_interval,
            batch_size=self.cfg.walkers_per_window,
        )
        self.walkers: list[list] = []
        for w, spec in enumerate(self.windows):
            driven_rows = []
            for k in range(self.cfg.walkers_per_window):
                rng = self._rngs.make("rewl-walker", w * 10_000 + k)
                cfg0 = initial_config.copy()
                rng.shuffle(cfg0)
                driven = drive_into_range(
                    hamiltonian, proposal_factory(), spec.grid, cfg0,
                    rng=self._rngs.make("rewl-drive", w * 10_000 + k),
                    max_steps=self.cfg.drive_max_steps,
                )
                driven_rows.append((driven, rng))
            if self.cfg.batched_walkers:
                # One stepping object per window: the walkers become slots of
                # a shared-ln g batched team (same drive/shuffle streams as
                # scalar mode, so the starting states match walker-for-walker).
                team = [
                    BatchedWangLandauSampler(
                        hamiltonian=hamiltonian, proposal=proposal_factory(),
                        grid=spec.grid,
                        initial_config=np.stack([d for d, _ in driven_rows]),
                        rng=self._rngs.make("rewl-team", w), config=wl_cfg,
                    )
                ]
            else:
                team = [
                    WangLandauSampler(
                        hamiltonian=hamiltonian, proposal=proposal_factory(),
                        grid=spec.grid, initial_config=driven, rng=rng,
                        config=wl_cfg,
                    )
                    for driven, rng in driven_rows
                ]
            self.walkers.append(team)
        if self.profiler is not None and self.cfg.backend != "shm":
            # One independent profiler per walker (merged back in
            # result()).  shm workers build
            # their own profilers rank-side (the engine ships the stride) and
            # return samples with each round's reply.
            for team in self.walkers:
                for walker in team:
                    walker.enable_profiling(
                        SectionProfiler(sample_every=self.profiler.sample_every)
                    )
        if self.cfg.backend == "fused":
            from repro.parallel.fused import FusedEngine

            self._engine = FusedEngine(self)
        elif self.cfg.backend == "shm":
            from repro.parallel.fused import ShmEngine

            self._engine = ShmEngine(self, n_ranks=self.cfg.shm_ranks)
        # (window, walker) identity rides on the walker objects themselves:
        # executors pass the same extra args to every task, so this is how
        # worker-side spans know which lane they belong to.  A batched team
        # is one object covering all of its window's slots.  With a fused
        # engine the same loop also binds each team's rows into the campaign
        # arrays (see _retag_window).
        for w in range(len(self.walkers)):
            self._retag_window(w)
        self.window_converged = [False] * len(self.windows)
        self.window_quarantined = [False] * len(self.windows)
        # One slot per *adjacent window pair*: zero-length for a single
        # window (no phantom pair with a NaN rate in the result).
        self.exchange_attempts = np.zeros(len(self.windows) - 1, dtype=np.int64)
        self.exchange_accepts = np.zeros_like(self.exchange_attempts)
        self.rounds = 0
        if self.convergence is not None:
            self.convergence.attach(self)
        if self.supervisor is not None:
            self.supervisor.bind(self)

    # ------------------------------------------------------------- helpers

    def _retag_window(self, w: int) -> None:
        """(Re-)stamp ``obs_tag`` identities onto window ``w``'s walkers
        (needed after walker objects are replaced, e.g. a rollback).

        This is also the fused backends' rebind hook: whenever a window's
        team object is replaced (rollback restores a pickled snapshot, a
        checkpoint load swaps teams in), the engine re-adopts it so its rows
        of the campaign arrays track the new state — masked-row recovery
        instead of process restarts.
        """
        team = self.walkers[w]
        for k, walker in enumerate(team):
            walker.obs_tag = (w, k if len(team) > 1 else None)
        if self._engine is not None:
            self._engine.bind_window(self, w)

    def close(self) -> None:
        """Release backend resources (idempotent).

        Required after a ``backend="shm"`` run: worker ranks are stopped and
        joined, and the shared-memory segments unlinked.  Teams are detached
        back onto private arrays first, so ``result()`` and checkpoints
        taken after ``close()`` stay valid.  A no-op for executor backends.
        """
        if self._engine is not None:
            self._engine.close(self)
            self._engine = None

    def _settled(self) -> bool:
        """True when every window is either converged or quarantined."""
        return all(
            c or q
            for c, q in zip(self.window_converged, self.window_quarantined)
        )

    def total_steps(self) -> int:
        """WL steps taken so far across all walkers (budget accounting)."""
        total = 0
        for team in self.walkers:
            for walker in team:
                slot_steps = getattr(walker, "slot_steps", None)
                total += (
                    int(slot_steps.sum()) if slot_steps is not None
                    else int(walker.n_steps)
                )
        return total

    def _exchange_pairs(self) -> list[tuple[int, int]]:
        """The round's exchange pair schedule.

        Adjacent neighbors normally; with quarantined windows the surviving
        neighbors are re-paired around the holes (when their specs still
        overlap).  Pair statistics live in ``exchange_attempts[left]`` —
        slot ``left`` means "the pair whose left member is window *left*",
        which coincides with the adjacent pair when nothing is quarantined
        and reuses the dead slot after window ``left + 1`` is removed.
        """
        if self.supervisor is None or not any(self.window_quarantined):
            return [(w, w + 1) for w in range(len(self.windows) - 1)]
        alive = [not q for q in self.window_quarantined]
        return surviving_pairs(self.windows, alive)

    # ------------------------------------------------------------- phases

    def _advance_phase(self) -> None:
        if self._engine is not None:
            # Fused SPMD super-step: all active windows advance as rows of
            # one campaign array program (one stacked ΔE gather per step).
            active = [
                w for w in range(len(self.walkers))
                if not self.window_converged[w]
                and not self.window_quarantined[w]
            ]
            steps = len(active) * self.cfg.exchange_interval
            prof = self.profiler
            t0 = prof.start_always("rewl.advance") if prof is not None else None
            with self.obs.span("advance", round=self.rounds,
                               walkers=len(active), steps=steps):
                self._engine.advance(self, active, self.cfg.exchange_interval)
            if prof is not None:
                prof.stop("rewl.advance", t0)
            self.obs.metrics.inc("rewl.steps", steps)
            return
        tasks: list[tuple[int, int]] = [
            (w, k)
            for w, team in enumerate(self.walkers)
            for k in range(len(team))
            if not self.window_converged[w] and not self.window_quarantined[w]
        ]
        steps = len(tasks) * self.cfg.exchange_interval
        prof = self.profiler
        t0 = prof.start_always("rewl.advance") if prof is not None else None
        with self.obs.span("advance", round=self.rounds, walkers=len(tasks),
                           steps=steps):
            payload = [self.walkers[w][k] for w, k in tasks]
            if self.supervisor is not None:
                # Partial completion: a window whose tasks exhaust their
                # retry budget is handed to the supervisor (rollback /
                # quarantine) instead of aborting the whole campaign.
                moved, failures = self.executor.map_partial(
                    _advance_walker, payload, self.cfg.exchange_interval
                )
                for (w, k), walker in zip(tasks, moved):
                    if walker is not None:
                        self.walkers[w][k] = walker
                failed: dict[int, Exception] = {}
                for idx, exc in failures.items():
                    failed.setdefault(tasks[idx][0], exc)
                for w in sorted(failed):
                    self.supervisor.on_window_failure(self, w, failed[w])
            else:
                moved = self.executor.map(
                    _advance_walker, payload, self.cfg.exchange_interval
                )
                for (w, k), walker in zip(tasks, moved):
                    self.walkers[w][k] = walker
        if prof is not None:
            prof.stop("rewl.advance", t0)
        self.obs.metrics.inc("rewl.steps", steps)

    def _exchange_phase(self) -> None:
        prof = self.profiler
        t0 = prof.start_always("rewl.exchange_round") if prof is not None else None
        with self.obs.span("exchange", round=self.rounds):
            start = self.rounds % 2
            # pairs[start::2] over adjacent pairs reproduces the classic
            # odd/even alternation exactly; with quarantined windows the
            # schedule is the surviving re-paired topology instead.
            for left, right in self._exchange_pairs()[start::2]:
                self._exchange_pair(left, right)
        if prof is not None:
            prof.stop("rewl.exchange_round", t0)

    def _exchange_pair(self, left: int, right: int) -> None:
        """One replica-exchange attempt between windows ``left``/``right``.

        Each side picks one of its window's walker slots with one
        ``integers(n)`` draw — a scalar team is ``n`` one-slot walkers, a
        batched team one ``n``-slot object — and a uniform is drawn only
        when ``log_alpha < 0``.  States move through the ``slot_*`` /
        ``set_slot`` accessors.  This is also the unit the overlapped shm
        round drives directly (pairs settle as their windows finish
        stepping, in strict schedule order, so the exchange RNG stream
        matches the phase-at-a-time loop draw-for-draw).  Converged or
        quarantined endpoints make the attempt a silent no-op without draws.
        """
        if self.window_converged[left] or self.window_converged[right]:
            return
        if self.window_quarantined[left] or self.window_quarantined[right]:
            # Only reachable when quarantine lands mid-round (overlapped
            # engine); the phase schedule already excludes these pairs.
            return
        team_a, team_b = self.walkers[left], self.walkers[right]
        per_a, per_b = team_a[0].n_slots, team_b[0].n_slots
        ia = int(self._exchange_rng.integers(len(team_a) * per_a))
        ib = int(self._exchange_rng.integers(len(team_b) * per_b))
        a, ka = team_a[ia // per_a], ia % per_a
        b, kb = team_b[ib // per_b], ib % per_b
        self.exchange_attempts[left] += 1
        a.counters.exchange_attempts += 1
        b.counters.exchange_attempts += 1
        self.obs.metrics.inc("rewl.exchange.attempts")
        accepted = False
        in_overlap = True
        bin_a_in_b = b.grid.index(a.slot_energy(ka))
        bin_b_in_a = a.grid.index(b.slot_energy(kb))
        if bin_a_in_b < 0 or bin_b_in_a < 0:
            in_overlap = False  # not both in the overlap
        else:
            log_alpha = (
                a.ln_g[a.slot_bin(ka)]
                - a.ln_g[bin_b_in_a]
                + b.ln_g[b.slot_bin(kb)]
                - b.ln_g[bin_a_in_b]
            )
            if log_alpha >= 0.0 or np.log(self._exchange_rng.random()) < log_alpha:
                cfg_a = a.slot_config(ka).copy()
                e_a = a.slot_energy(ka)
                a.set_slot(ka, b.slot_config(kb), b.slot_energy(kb), bin_b_in_a)
                b.set_slot(kb, cfg_a, e_a, bin_a_in_b)
                self.exchange_accepts[left] += 1
                a.counters.exchange_accepts += 1
                b.counters.exchange_accepts += 1
                self.obs.metrics.inc("rewl.exchange.accepts")
                accepted = True
        if self.convergence is not None:
            self.convergence.note_exchange(left, ia, right, ib, accepted, in_overlap)
        if self.obs.enabled:
            self.obs.emit("exchange_attempt", round=self.rounds, pair=left,
                          accepted=accepted, in_overlap=in_overlap)

    def _sync_phase(self) -> None:
        prof = self.profiler
        t0 = prof.start_always("rewl.sync") if prof is not None else None
        with self.obs.span("synchronize", round=self.rounds):
            for w in range(len(self.walkers)):
                self._sync_window(w)
        if prof is not None:
            prof.stop("rewl.sync", t0)

    def _sync_window(self, w: int) -> None:
        """Merge/advance window ``w`` if its whole team is flat.

        The unit the overlapped shm round drives directly — a window syncs
        as soon as its exchange pairs have settled, which reads and writes
        exactly the state the phase-at-a-time loop would."""
        if self.window_converged[w] or self.window_quarantined[w]:
            return
        team = self.walkers[w]
        if not all(walker.is_flat() for walker in team):
            return
        merged, union = self._merge_window(team)
        for walker in team:
            walker.ln_g[...] = merged
            walker.visited[...] = union
            walker.advance_modification_factor()
        if team[0].ln_f <= self.cfg.ln_f_final:
            self.window_converged[w] = True
        if self.convergence is not None:
            self.convergence.note_sync(
                w, self.rounds, team[0].ln_f, team[0].n_iterations,
                self.window_converged[w],
            )
        self.obs.metrics.inc("rewl.syncs")
        if self.obs.enabled:
            self.obs.emit(
                "sync", round=self.rounds, window=w,
                ln_f=team[0].ln_f, iteration=team[0].n_iterations,
                converged=self.window_converged[w],
            )

    @staticmethod
    def _merge_window(team: list) -> tuple[np.ndarray, np.ndarray]:
        """Bin-wise mean of ln g over the walkers that visited each bin.

        A batched team is a single shared-ln g object, so the "merge" is the
        identity (modulo the min-shift every sync applies in scalar mode
        too).

        Pure function of the team state (callers decide whether to write the
        merge back — ``result()`` must *not* mutate walkers, or checkpoints
        taken after a run would diverge from uninterrupted runs).
        """
        n_bins = team[0].ln_g.shape[0]
        acc = np.zeros(n_bins)
        cnt = np.zeros(n_bins)
        for walker in team:
            mask = walker.visited
            ln_g = walker.ln_g.copy()
            if mask.any():
                ln_g -= ln_g[mask].min()
            acc[mask] += ln_g[mask]
            cnt[mask] += 1
        union = cnt > 0
        merged = np.zeros(n_bins)
        merged[union] = acc[union] / cnt[union]
        return merged, union

    def _maybe_checkpoint(self) -> None:
        """Periodic crash-consistent snapshot (``cfg.checkpoint_interval``)."""
        if (
            self.checkpoint_path is None
            or not self.cfg.checkpoint_interval
            or self.rounds % self.cfg.checkpoint_interval != 0
        ):
            return
        from repro.parallel.checkpoint import save_checkpoint

        prof = self.profiler
        t0 = prof.start_always("rewl.checkpoint") if prof is not None else None
        save_checkpoint(self, self.checkpoint_path)
        if prof is not None:
            prof.stop("rewl.checkpoint", t0)

    # ----------------------------------------------------------------- run

    def run(self, max_rounds: int | None = None) -> REWLResult:
        """Iterate advance/exchange/sync until every window converges."""
        limit = self.cfg.max_rounds if max_rounds is None else max_rounds
        self.obs.emit(
            "run_start", scope="rewl", n_windows=len(self.windows),
            walkers_per_window=self.cfg.walkers_per_window,
            exchange_interval=self.cfg.exchange_interval,
            ln_f_final=self.cfg.ln_f_final, seed=self.cfg.seed,
            n_bins=self.grid.n_bins, max_rounds=limit,
        )
        if self.supervisor is not None:
            # Round-0 baseline snapshots: a failure in the very first round
            # still has a guard-clean state to roll back to.
            self.supervisor.snapshot(self)
        with self.obs.span("rewl"):
            while not self._settled() and self.rounds < limit:
                if self.supervisor is not None and self.supervisor.budget_exceeded(self):
                    # Clean terminate-and-harvest: break out and report
                    # whatever converged, instead of dying to the job
                    # scheduler's SIGKILL with nothing.
                    break
                if self._engine is not None and self._engine.overlapped:
                    # Non-blocking replica exchange: the engine drains
                    # worker replies as windows finish stepping, settling
                    # exchange pairs and syncs per window instead of
                    # barriering the whole campaign between phases.
                    self._engine.run_round(self)
                else:
                    self._advance_phase()
                    self.rounds += 1
                    self.obs.metrics.inc("rewl.rounds")
                    if self.supervisor is not None:
                        # Guards run before exchange, so corrupted ln g never
                        # feeds an acceptance decision of a healthy neighbor.
                        prof = self.profiler
                        tg = (
                            prof.start_always("rewl.guard")
                            if prof is not None else None
                        )
                        self.supervisor.guard_round(self)
                        self.supervisor.snapshot(self)
                        if prof is not None:
                            prof.stop("rewl.guard", tg)
                    self._exchange_phase()
                    self._sync_phase()
                if self.convergence is not None:
                    # Before the health monitor, whose heartbeats read the
                    # ledger's ETA projection.
                    self.convergence.observe_round(self)
                if self.health is not None:
                    self.health.observe_round(self)
                if self.timeseries is not None:
                    self.timeseries.observe_round(self)
                self._maybe_checkpoint()
        if self.profiler is not None:
            merged = self.merged_profile()
            merged.publish(self.obs.metrics)
            cost = attribute_cost(merged.as_dict())
            publish_cost(cost, self.obs.metrics)
            if self.timeseries is not None:
                self.timeseries.note_cost(cost)
            contribute_profile(merged)
            if self.obs.enabled:
                self.obs.emit("profile", sections=merged.as_dict())
                self.obs.emit(COST_KIND, **cost)
        if self.timeseries is not None:
            # Final forced sample so the served view reflects the end state
            # (converged flags, final cost gauges) even off-stride.
            self.timeseries.observe_round(self, force=True)
        if self.convergence is not None and self.obs.enabled:
            self.obs.emit("convergence", **self.convergence.summary(self))
        if self.supervisor is not None and self.obs.enabled:
            self.obs.emit("resilience", **self.supervisor.summary())
        result = self.result()
        self.obs.emit(
            "run_end", scope="rewl", rounds=self.rounds,
            converged=result.converged, total_steps=result.total_steps,
            exchange_attempts=int(self.exchange_attempts.sum()),
            exchange_accepts=int(self.exchange_accepts.sum()),
            degraded=result.degraded, quarantined=result.quarantined,
        )
        return result

    def merged_profile(self) -> SectionProfiler:
        """Round-phase sections merged with every walker's hot-path profile.

        Walker profilers travel with the walkers, so this reduction works
        identically for every backend.  Returns a fresh profiler; nothing
        is mutated.
        """
        merged = SectionProfiler(
            sample_every=self.profiler.sample_every if self.profiler else 1
        )
        if self.profiler is not None:
            merged.merge(self.profiler)
        for team in self.walkers:
            for walker in team:
                if walker.profiler is not None:
                    merged.merge(walker.profiler)
                shm_prof = getattr(walker, "_shm_profiler", None)
                if shm_prof is not None:
                    # Rank-side profile shipped back with the last shm round
                    # reply (the walker's own .profiler stays None under
                    # backend="shm").
                    merged.merge(shm_prof)
        return merged

    def result(self) -> REWLResult:
        window_ln_g = []
        window_visited = []
        window_iterations = []
        snapshots = []
        for w, team in enumerate(self.walkers):
            # Merge for reporting only — walker state is left untouched so a
            # checkpoint taken after result() still resumes bit-identically.
            merged, union = self._merge_window(team)
            ln_g = merged.copy()
            if union.any():
                ln_g -= ln_g[union].min()
            ln_g[~union] = 0.0
            window_ln_g.append(ln_g)
            window_visited.append(union)
            window_iterations.append(team[0].n_iterations)
            if self.cfg.batched_walkers:
                # One snapshot per slot.  Event counters are accumulated
                # team-wide in batched mode, so they ride on slot 0 only
                # (summing snapshots then stays double-count-free).
                team_obj = team[0]
                for k in range(team_obj.n_slots):
                    slot_steps = int(team_obj.slot_steps[k])
                    snapshots.append(
                        WalkerSnapshot(
                            window=w,
                            walker=k,
                            n_steps=slot_steps,
                            acceptance_rate=(
                                int(team_obj.slot_accepted[k]) / slot_steps
                                if slot_steps else 0.0
                            ),
                            final_energy=team_obj.slot_energy(k),
                            counters=(
                                replace(team_obj.counters) if k == 0
                                else WalkerCounters()
                            ),
                        )
                    )
            else:
                for k, walker in enumerate(team):
                    snapshots.append(
                        WalkerSnapshot(
                            window=w,
                            walker=k,
                            n_steps=walker.n_steps,
                            acceptance_rate=(
                                walker.n_accepted / walker.n_steps
                                if walker.n_steps else 0.0
                            ),
                            final_energy=walker.energy,
                            counters=replace(walker.counters),
                        )
                    )
        telemetry = self.obs.summary()
        if self.profiler is not None:
            telemetry["profile"] = self.merged_profile().as_dict()
            telemetry["cost"] = attribute_cost(telemetry["profile"])
        if self.health is not None:
            telemetry["health"] = self.health.summary()
        if self.convergence is not None:
            telemetry["convergence"] = self.convergence.summary(self)
        if self.supervisor is not None:
            telemetry["resilience"] = self.supervisor.summary()
        if self.timeseries is not None:
            telemetry["timeseries"] = self.timeseries.summary()
        quarantined = [
            w for w, q in enumerate(self.window_quarantined) if q
        ]
        degraded = (
            self.supervisor.degraded if self.supervisor is not None
            else bool(quarantined)
        )
        return REWLResult(
            global_grid=self.grid,
            windows=self.windows,
            window_ln_g=window_ln_g,
            window_visited=window_visited,
            window_iterations=window_iterations,
            converged=all(self.window_converged),
            rounds=self.rounds,
            total_steps=sum(s.n_steps for s in snapshots),
            exchange_attempts=self.exchange_attempts.copy(),
            exchange_accepts=self.exchange_accepts.copy(),
            walkers=snapshots,
            telemetry=telemetry,
            degraded=degraded,
            quarantined=quarantined,
            window_dispositions=(
                self.supervisor.dispositions()
                if self.supervisor is not None else []
            ),
        )
