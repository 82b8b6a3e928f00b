"""Fused SPMD campaign super-steps (DESIGN.md §16).

The classic REWL advance phase treats every window team as an opaque
stepping object: W windows × K walkers mean W independent ``propose_many``
/ ``delta_energy_*_many`` dispatches per super-step.  This module fuses the
whole campaign into one SPMD array program:

- :class:`FusedCampaignState` — all W·K walker configurations live as rows
  of a single ``(W·K, n_sites)`` array, with per-window ``ln g`` /
  histogram planes and per-window ``ln f`` scalars packed alongside;
- :class:`FusedTeam` — a :class:`~repro.sampling.batched.
  BatchedWangLandauSampler` whose arrays are *views* into the campaign
  state and whose scalars live in shared blocks, so the existing commit
  logic (and every driver phase that reads team state) works unchanged;
- :func:`fused_advance` — the fused super-step: each window's proposal
  draws its move fields from its own RNG stream
  (:meth:`~repro.proposals.base.Proposal.draw_fields`), the fields are
  stacked, and **one** ``delta_energy_*_many`` gather prices every
  window's moves before the per-team masked commits
  (:meth:`~repro.sampling.batched.BatchedWangLandauSampler.commit_batch`);
- :class:`FusedEngine` — in-process driver hook (``backend="fused"``);
- :class:`ShmEngine` — multiprocess driver hook (``backend="shm"``): the
  campaign state is allocated in :mod:`multiprocessing.shared_memory`
  segments (:class:`~repro.parallel.comm.ShmWorld`), worker ranks attach
  zero-copy and step their windows' rows in place, and the controller
  drains per-rank completions *without a barrier* — replica-exchange pairs
  are processed (in strict schedule order, preserving the exchange RNG
  stream) as soon as both endpoints land, while other ranks keep stepping.

Bit-identity: the draw/price split consumes each window's RNG streams in
exactly the per-window order (fields, then acceptance noise inside
``commit_batch``), the ``*_many`` kernels reduce row-wise, and the
exchange stream is consumed in pair-schedule order — so ``backend="fused"``
and ``backend="shm"`` reproduce the per-window batched campaign bit for
bit (pinned by ``tests/test_fused_campaign.py``).
"""

from __future__ import annotations

import os
import time
from dataclasses import fields as dataclass_fields, replace

import numpy as np

from repro.faults import faults_from_env
from repro.lattice.configuration import CONFIG_DTYPE
from repro.obs.events import worker_log
from repro.parallel.comm import ShmChannel, ShmWorld
from repro.proposals.base import assemble_move
from repro.sampling.batched import BatchedWangLandauSampler
from repro.sampling.wang_landau import WalkerCounters
from repro.util.rng import as_generator

__all__ = [
    "FusedCampaignState",
    "FusedTeam",
    "FusedEngine",
    "ShmEngine",
    "fused_advance",
]

#: Message-wait slice for the controller drain loop: short enough that a
#: dead worker is noticed promptly, long enough not to busy-spin.
_POLL_S = 1.0

#: Worker-side retry budget for injected faults (mirrors SerialExecutor's
#: default under chaos).
_WORKER_RETRIES = 8


# --------------------------------------------------------------------------
# campaign state
# --------------------------------------------------------------------------


class FusedCampaignState:
    """All W windows × K walkers as one set of flat campaign arrays.

    ========== ==================== =========================================
    array      shape                contents
    ========== ==================== =========================================
    configs    (W·K, n_sites)       walker configurations, window-major rows
    energies   (W·K,)               current energies
    bins       (W·K,)               current window-grid bin per walker
    ln_g       (W, width)           per-window shared ln g estimate
    histogram  (W, width)           per-window visit histogram
    visited    (W, width)           per-window visited mask
    slot_steps (W, K)               per-slot step counters
    slot_accepted (W, K)            per-slot accept counters
    ln_f       (W,)                 per-window modification factor
    counts     (W, 3)               n_steps / n_accepted / steps-this-iter
    ========== ==================== =========================================

    ``make_windows`` gives every window the same integer bin width, which is
    what makes the rectangular ``(W, width)`` planes possible.  Allocation
    is pluggable: plain ``np.zeros`` for the in-process fused engine, or
    :meth:`~repro.parallel.comm.ShmWorld.alloc_array` for named
    shared-memory segments that worker ranks map zero-copy.
    """

    FIELDS = ("configs", "energies", "bins", "ln_g", "histogram", "visited",
              "slot_steps", "slot_accepted", "ln_f", "counts")

    def __init__(self, n_windows: int, walkers_per_window: int, arrays: dict):
        self.n_windows = int(n_windows)
        self.walkers_per_window = int(walkers_per_window)
        for name in self.FIELDS:
            setattr(self, name, arrays[name])

    @classmethod
    def specs(cls, n_windows: int, walkers_per_window: int, n_sites: int,
              width: int, config_dtype=CONFIG_DTYPE) -> dict:
        """``{name: (shape, dtype)}`` for every campaign array."""
        w, k = int(n_windows), int(walkers_per_window)
        rows = w * k
        return {
            "configs": ((rows, int(n_sites)), np.dtype(config_dtype)),
            "energies": ((rows,), np.dtype(np.float64)),
            "bins": ((rows,), np.dtype(np.int64)),
            "ln_g": ((w, int(width)), np.dtype(np.float64)),
            "histogram": ((w, int(width)), np.dtype(np.int64)),
            "visited": ((w, int(width)), np.dtype(np.bool_)),
            "slot_steps": ((w, k), np.dtype(np.int64)),
            "slot_accepted": ((w, k), np.dtype(np.int64)),
            "ln_f": ((w,), np.dtype(np.float64)),
            "counts": ((w, 3), np.dtype(np.int64)),
        }

    @classmethod
    def allocate(cls, *, n_windows: int, walkers_per_window: int,
                 n_sites: int, width: int, config_dtype=CONFIG_DTYPE,
                 alloc=None) -> "FusedCampaignState":
        """Allocate fresh campaign arrays (``alloc=None`` → host memory)."""
        if alloc is None:
            def alloc(name, shape, dtype):
                return np.zeros(shape, dtype=dtype)
        arrays = {
            name: alloc(name, shape, dtype)
            for name, (shape, dtype) in
            cls.specs(n_windows, walkers_per_window, n_sites, width,
                      config_dtype).items()
        }
        return cls(n_windows, walkers_per_window, arrays)

    @classmethod
    def attach(cls, comm: ShmChannel, n_windows: int,
               walkers_per_window: int) -> "FusedCampaignState":
        """Map the campaign arrays of an :class:`ShmWorld` (worker side)."""
        arrays = {name: comm.shared_array(name) for name in cls.FIELDS}
        return cls(n_windows, walkers_per_window, arrays)

    def rows(self, w: int) -> slice:
        """Row slice of window ``w``'s walkers in the flat arrays."""
        k = self.walkers_per_window
        return slice(w * k, (w + 1) * k)


class _FusedRef:
    """A team's binding into the campaign state: (state, window index)."""

    __slots__ = ("state", "w")

    def __init__(self, state: FusedCampaignState, w: int):
        self.state = state
        self.w = w


# --------------------------------------------------------------------------
# view-backed team
# --------------------------------------------------------------------------


class FusedTeam(BatchedWangLandauSampler):
    """A batched window team whose storage lives in a campaign state.

    Array attributes (``configs``, ``ln_g``, …) are plain instance-dict
    entries rebound to views of the fused arrays — every in-place update in
    :meth:`~repro.sampling.batched.BatchedWangLandauSampler.commit_batch`
    lands directly in campaign (possibly shared) memory.  Scalar walker
    state (``ln_f``, ``n_steps``, ``n_accepted``, the per-iteration step
    counter) is promoted to properties over the state's scalar blocks, so a
    controller halving ``ln_f`` is immediately visible to the worker rank
    stepping that window.

    Pickling (:meth:`__getstate__`) materializes every view into an owned
    copy and drops the binding: supervisor snapshots and checkpoints stay
    plain data, and an unpickled team behaves as an ordinary batched
    sampler until :meth:`adopt` rebinds it (the driver's ``_retag_window``
    hook does this after any rollback/restore).
    """

    _ARRAYS = ("configs", "energies", "bins", "ln_g", "histogram", "visited",
               "slot_steps", "slot_accepted")
    _SCALARS = ("ln_f", "n_steps", "n_accepted", "_steps_this_iteration")

    # -- shared scalars ----------------------------------------------------

    @property
    def ln_f(self) -> float:
        ref = self.__dict__.get("_fused")
        if ref is None:
            return self.__dict__["ln_f"]
        return float(ref.state.ln_f[ref.w])

    @ln_f.setter
    def ln_f(self, value) -> None:
        ref = self.__dict__.get("_fused")
        if ref is None:
            self.__dict__["ln_f"] = value
        else:
            ref.state.ln_f[ref.w] = float(value)

    @property
    def n_steps(self) -> int:
        ref = self.__dict__.get("_fused")
        if ref is None:
            return self.__dict__["n_steps"]
        return int(ref.state.counts[ref.w, 0])

    @n_steps.setter
    def n_steps(self, value) -> None:
        ref = self.__dict__.get("_fused")
        if ref is None:
            self.__dict__["n_steps"] = value
        else:
            ref.state.counts[ref.w, 0] = int(value)

    @property
    def n_accepted(self) -> int:
        ref = self.__dict__.get("_fused")
        if ref is None:
            return self.__dict__["n_accepted"]
        return int(ref.state.counts[ref.w, 1])

    @n_accepted.setter
    def n_accepted(self, value) -> None:
        ref = self.__dict__.get("_fused")
        if ref is None:
            self.__dict__["n_accepted"] = value
        else:
            ref.state.counts[ref.w, 1] = int(value)

    @property
    def _steps_this_iteration(self) -> int:
        ref = self.__dict__.get("_fused")
        if ref is None:
            return self.__dict__["_steps_this_iteration"]
        return int(ref.state.counts[ref.w, 2])

    @_steps_this_iteration.setter
    def _steps_this_iteration(self, value) -> None:
        ref = self.__dict__.get("_fused")
        if ref is None:
            self.__dict__["_steps_this_iteration"] = value
        else:
            ref.state.counts[ref.w, 2] = int(value)

    # -- binding -----------------------------------------------------------

    @classmethod
    def adopt(cls, team, state: FusedCampaignState, w: int,
              push: bool = True):
        """Bind ``team``'s storage into ``state``'s window-``w`` slots.

        ``push=True`` (controller side) writes the team's current values
        into the campaign arrays first — the authoritative state moves into
        the fused storage.  ``push=False`` (worker attach, and rebinds
        where the shared arrays already hold the truth) only installs the
        views, discarding whatever the team object held.  Idempotent: a
        team that is already bound may be adopted again after a rollback
        replaced its arrays.
        """
        if push:
            scalars = {n: getattr(team, n) for n in cls._SCALARS}
            arrays = {n: np.asarray(getattr(team, n)) for n in cls._ARRAYS}
        if team.__class__ is not cls:
            team.__class__ = cls
        d = team.__dict__
        for n in cls._SCALARS:
            d.pop(n, None)
        d["_fused"] = _FusedRef(state, w)
        rows = state.rows(w)
        if push:
            state.configs[rows] = arrays["configs"]
            state.energies[rows] = arrays["energies"]
            state.bins[rows] = arrays["bins"]
            state.ln_g[w] = arrays["ln_g"]
            state.histogram[w] = arrays["histogram"]
            state.visited[w] = arrays["visited"]
            state.slot_steps[w] = arrays["slot_steps"]
            state.slot_accepted[w] = arrays["slot_accepted"]
            for n, v in scalars.items():
                setattr(team, n, v)  # through the property → shared block
        d["configs"] = state.configs[rows]
        d["energies"] = state.energies[rows]
        d["bins"] = state.bins[rows]
        d["ln_g"] = state.ln_g[w]
        d["histogram"] = state.histogram[w]
        d["visited"] = state.visited[w]
        d["slot_steps"] = state.slot_steps[w]
        d["slot_accepted"] = state.slot_accepted[w]
        return team

    @classmethod
    def detach(cls, team) -> None:
        """Un-bind: copy shared state into owned arrays/scalars.

        Called before the shared segments are unlinked so the controller's
        teams (and anything holding them, e.g. a result built later) never
        dangle into freed memory.
        """
        ref = team.__dict__.pop("_fused", None)
        if ref is None:
            return
        d = team.__dict__
        for n in cls._ARRAYS:
            d[n] = np.array(d[n], copy=True)
        d["ln_f"] = float(ref.state.ln_f[ref.w])
        d["n_steps"] = int(ref.state.counts[ref.w, 0])
        d["n_accepted"] = int(ref.state.counts[ref.w, 1])
        d["_steps_this_iteration"] = int(ref.state.counts[ref.w, 2])

    @classmethod
    def attach(cls, *, state: FusedCampaignState, w: int, hamiltonian,
               proposal, grid, wl_cfg, rng=None) -> "FusedTeam":
        """Construct a worker-side team over existing shared state.

        Unlike ``__init__``, nothing is computed or written: the shared
        arrays already hold the controller's authoritative walker state,
        and the RNG stream arrives with every advance command.
        """
        team = object.__new__(cls)
        cfg = replace(wl_cfg, batch_size=state.walkers_per_window)
        d = team.__dict__
        d["cfg"] = cfg
        d["hamiltonian"] = hamiltonian
        d["proposal"] = proposal
        d["grid"] = grid
        d["rng"] = as_generator(rng)
        d["ln_f_final"] = float(cfg.ln_f_final)
        d["flatness"] = float(cfg.flatness)
        d["schedule"] = cfg.schedule
        d["check_interval"] = (
            max(1000, 100 * grid.n_bins)
            if cfg.check_interval is None
            else int(cfg.check_interval)
        )
        d["n_iterations"] = 0
        d["iteration_steps"] = []
        d["counters"] = WalkerCounters()
        d["profiler"] = None
        cls.adopt(team, state, w, push=False)
        return team

    # -- pickling ----------------------------------------------------------

    def __getstate__(self):
        d = {k: v for k, v in self.__dict__.items() if k != "_fused"}
        for n in self._ARRAYS:
            d[n] = np.array(getattr(self, n), copy=True)
        for n in self._SCALARS:
            d[n] = getattr(self, n)
        return d

    def __setstate__(self, state):
        self.__dict__.update(state)


# --------------------------------------------------------------------------
# the fused super-step
# --------------------------------------------------------------------------


def _gather_configs(teams, windows, idxs, state):
    """Stacked configuration rows for the windows in ``idxs``.

    When every team participates and their windows are consecutive, the
    campaign array itself is sliced — the one-gather fast path with no
    copies; otherwise rows are concatenated (still a single kernel call).
    """
    if len(idxs) == 1:
        return teams[idxs[0]].configs
    if state is not None:
        ws = [windows[i] for i in idxs]
        if ws[-1] - ws[0] + 1 == len(ws):
            k = state.walkers_per_window
            return state.configs[ws[0] * k:(ws[-1] + 1) * k]
    return np.concatenate([teams[i].configs for i in idxs], axis=0)


def fused_advance(teams, windows, n_steps, hamiltonian, profiler=None,
                  state=None) -> None:
    """``n_steps`` fused super-steps across several window teams.

    Per super-step: every team's proposal draws its move fields from its
    own RNG stream (``draw_fields``), same-kind fields are stacked, and one
    ``delta_energy_*_many`` gather per kind prices the whole batch (timed
    under ``rewl.fused_gather``); each team then commits its rows against
    its own ln g with its own acceptance noise.  Teams whose proposal does
    not support the draw/price split (``draw_fields`` → None, e.g. mixture
    proposals) fall back to their monolithic ``step_batch`` — consuming the
    identical RNG stream, since the default ``draw_fields`` draws nothing.
    """
    for _ in range(int(n_steps)):
        fields = [
            t.proposal.draw_fields(t.configs, t.hamiltonian, t.rng)
            for t in teams
        ]
        by_kind: dict[str, list[int]] = {}
        for i, f in enumerate(fields):
            if f is not None:
                by_kind.setdefault(f.kind, []).append(i)
        deltas: list = [None] * len(teams)
        for kind, idxs in by_kind.items():
            cfgs = _gather_configs(teams, windows, idxs, state)
            if len(idxs) == 1:
                a, b = fields[idxs[0]].a, fields[idxs[0]].b
            else:
                a = np.concatenate([fields[i].a for i in idxs])
                b = np.concatenate([fields[i].b for i in idxs])
            t0 = (
                profiler.start("rewl.fused_gather")
                if profiler is not None else None
            )
            if kind == "swap":
                d = hamiltonian.delta_energy_swap_many(cfgs, a, b)
            else:
                d = hamiltonian.delta_energy_flip_many(cfgs, a, b)
            if profiler is not None:
                profiler.stop("rewl.fused_gather", t0)
            off = 0
            for i in idxs:
                n = fields[i].a.shape[0]
                deltas[i] = d[off:off + n]
                off += n
        for i, team in enumerate(teams):
            f = fields[i]
            if f is None:
                team.step_batch()
            else:
                team.commit_batch(assemble_move(f, team.configs, deltas[i]))


# --------------------------------------------------------------------------
# in-process engine (backend="fused")
# --------------------------------------------------------------------------


def _campaign_width(windows) -> int:
    widths = {spec.grid.n_bins for spec in windows}
    if len(widths) != 1:
        raise ValueError(
            f"fused campaign needs a common window width, got {sorted(widths)}"
        )
    return widths.pop()


class FusedEngine:
    """In-process fused SPMD engine: one gather serves every window.

    Plugged in by ``REWLConfig(backend="fused")``.  ``overlapped`` is False
    — the driver's classic round structure (advance barrier, then exchange,
    then sync) is kept; only the advance phase's *internals* are fused.
    """

    overlapped = False

    def __init__(self, driver):
        k = driver.cfg.walkers_per_window
        first = driver.walkers[0][0].configs
        self.state = FusedCampaignState.allocate(
            n_windows=len(driver.windows), walkers_per_window=k,
            n_sites=first.shape[1], width=_campaign_width(driver.windows),
            config_dtype=first.dtype,
        )

    def bind_window(self, driver, w: int) -> None:
        """(Re-)bind window ``w``'s team into the campaign arrays."""
        FusedTeam.adopt(driver.walkers[w][0], self.state, w, push=True)

    def advance(self, driver, active, n_steps: int) -> None:
        teams = [driver.walkers[w][0] for w in active]
        fused_advance(
            teams, list(active), n_steps, driver.hamiltonian,
            profiler=driver.profiler, state=self.state,
        )

    def close(self, driver) -> None:
        for team in (t[0] for t in driver.walkers):
            FusedTeam.detach(team)


# --------------------------------------------------------------------------
# shared-memory engine (backend="shm")
# --------------------------------------------------------------------------


def _merge_counters(dst: WalkerCounters, delta: WalkerCounters) -> None:
    for f in dataclass_fields(dst):
        setattr(dst, f.name, getattr(dst, f.name) + getattr(delta, f.name))


def _shm_campaign_worker(handle, rank, blob):
    """Worker-rank main: attach the campaign state, serve advance commands.

    Stateless between commands by construction — walker arrays live in the
    shared segments and the RNG stream arrives with every command — so a
    crashed rank can be respawned with the same blob and simply resume.
    Stale commands left queued by a crashed predecessor are fenced off by
    ``min_epoch``.
    """
    from repro.obs.profile import SectionProfiler
    from repro.parallel.rewl import _advance_walker

    comm = ShmChannel(world=handle, rank=rank)
    try:
        state = FusedCampaignState.attach(
            comm, blob["n_windows"], blob["walkers_per_window"]
        )
        injector = faults_from_env()
        ham = blob["hamiltonian"]
        teams = {}
        for spec in blob["windows"]:
            team = FusedTeam.attach(
                state=state, w=spec["w"], hamiltonian=ham,
                proposal=spec["proposal"], grid=spec["grid"],
                wl_cfg=blob["wl_cfg"],
            )
            team.obs_tag = (spec["w"], None)
            if blob["profile_every"]:
                team.enable_profiling(
                    SectionProfiler(sample_every=blob["profile_every"])
                )
            teams[spec["w"]] = team
        min_epoch = blob.get("min_epoch", 0)
        max_retries = _WORKER_RETRIES if injector is not None else 0
        log = worker_log()
        while True:
            msg = comm.recv(source=0)
            if msg[0] == "stop":
                break
            _, epoch, n_steps, jobs = msg
            if epoch < min_epoch:
                continue  # predecessor's command; controller rolled back
            t0 = time.perf_counter() if log.enabled else 0.0
            report = {}
            for w, rng_state in jobs:
                team = teams[w]
                team.rng.bit_generator.state = rng_state
                team.counters = WalkerCounters()
            if injector is None:
                ws = [w for w, _ in jobs]
                live = [teams[w] for w in ws]
                prof = live[0].profiler
                try:
                    fused_advance(live, ws, n_steps, ham, profiler=prof,
                                  state=state)
                except Exception as exc:  # pragma: no cover - defensive
                    err = f"{type(exc).__name__}: {exc}"
                    report = {w: {"ok": False, "error": err} for w in ws}
            else:
                # Chaos mode steps windows individually so fault targeting
                # (and the retry-from-same-state contract: faults fire at
                # attempt entry) stays per window.  RNG draws are identical
                # either way — window streams are independent.
                for w, _ in jobs:
                    team, attempt = teams[w], 0
                    while True:
                        fn = injector.wrap(_advance_walker, key=w,
                                           attempt=attempt)
                        try:
                            fn(team, n_steps)
                            break
                        except Exception as exc:
                            attempt += 1
                            if attempt > max_retries:
                                report[w] = {
                                    "ok": False,
                                    "error": f"{type(exc).__name__}: {exc}",
                                }
                                break
            for w, _ in jobs:
                if w not in report:
                    team = teams[w]
                    report[w] = {
                        "ok": True,
                        "counters": team.counters,
                        "rng": team.rng.bit_generator.state,
                        "profile": team.profiler,
                    }
            if log.enabled:
                log.emit(
                    "worker_span", name="advance",
                    dur_s=time.perf_counter() - t0, window=None, walker=None,
                    steps=n_steps * state.walkers_per_window * len(jobs),
                )
            comm.send(("done", epoch, rank, report), dest=0)
    finally:
        comm.close()


class ShmEngine:
    """Zero-copy multiprocess campaign engine (``backend="shm"``).

    The controller (rank 0) owns the round structure; worker ranks own
    static window partitions and step them in place in the shared campaign
    arrays.  ``overlapped`` is True: the controller drains per-rank
    completions as they land — guarding, snapshotting, exchanging (strict
    pair-schedule order, so the exchange RNG stream is untouched) and
    syncing each window the moment it is ready, while slower ranks keep
    stepping.  Exchange proposals therefore never barrier the stepping.
    """

    overlapped = True

    def __init__(self, driver, n_ranks: int | None = None):
        n_windows = len(driver.windows)
        k = driver.cfg.walkers_per_window
        if n_ranks is None:
            n_ranks = min(n_windows, max(1, (os.cpu_count() or 2) - 1))
        self.n_workers = max(1, min(int(n_ranks), n_windows))
        self.world = ShmWorld(self.n_workers + 1)
        first = driver.walkers[0][0].configs
        self.state = FusedCampaignState.allocate(
            n_windows=n_windows, walkers_per_window=k,
            n_sites=first.shape[1], width=_campaign_width(driver.windows),
            config_dtype=first.dtype, alloc=self.world.alloc_array,
        )
        self.rank_of = [1 + (w % self.n_workers) for w in range(n_windows)]
        self.comm = ShmChannel(world=self.world.handle(), rank=0)
        wl_cfg = driver.walkers[0][0].cfg
        profile_every = (
            driver.profiler.sample_every if driver.profiler is not None else 0
        )
        self._blobs = {}
        for rank in range(1, self.n_workers + 1):
            wins = [
                {
                    "w": w,
                    "proposal": driver.proposal_factory(),
                    "grid": driver.windows[w].grid,
                }
                for w in range(n_windows) if self.rank_of[w] == rank
            ]
            self._blobs[rank] = {
                "n_windows": n_windows, "walkers_per_window": k,
                "hamiltonian": driver.hamiltonian, "wl_cfg": wl_cfg,
                "windows": wins, "profile_every": profile_every,
                "min_epoch": 0,
            }
        self._proc: dict[int, object] = {}
        self._epoch = 0
        self._started = False
        self._closed = False

    # ------------------------------------------------------------ lifecycle

    def bind_window(self, driver, w: int) -> None:
        """(Re-)bind window ``w``'s team into the shared campaign arrays."""
        FusedTeam.adopt(driver.walkers[w][0], self.state, w, push=True)

    def _spawn(self, rank: int, blob: dict) -> None:
        self._proc[rank] = self.world.spawn(
            _shm_campaign_worker, (self.world.handle(), rank, blob)
        )

    def start(self) -> None:
        """Spawn the worker ranks (lazy: first ``run_round`` call)."""
        if self._started:
            return
        for rank, blob in self._blobs.items():
            self._spawn(rank, blob)
        self._started = True

    def close(self, driver=None) -> None:
        """Stop workers, detach the driver's teams, unlink the segments."""
        if self._closed:
            return
        self._closed = True
        try:
            if driver is not None:
                for team in (t[0] for t in driver.walkers):
                    FusedTeam.detach(team)
            if self._started:
                for rank, proc in self._proc.items():
                    if proc.is_alive():
                        try:
                            self.comm.send(("stop",), dest=rank)
                        except Exception:
                            pass
                for proc in self._proc.values():
                    proc.join(timeout=2.0)
        finally:
            self.comm.close()
            self.world.close()

    # ------------------------------------------------------------ the round

    def run_round(self, driver) -> None:
        """One overlapped advance→guard→exchange→sync round.

        The exchange schedule is fixed at round start; a window quarantined
        *mid-round* has its pairs skipped without RNG draws (the re-paired
        surviving topology starts next round — see DESIGN.md §16), so clean
        rounds are bit-identical to the barriered phases.
        """
        self.start()
        cfg = driver.cfg
        sup = driver.supervisor
        prof = driver.profiler
        n_windows = len(driver.windows)
        active = [
            w for w in range(n_windows)
            if not driver.window_converged[w]
            and not driver.window_quarantined[w]
        ]
        self._epoch += 1
        epoch = self._epoch
        jobs_by_rank: dict[int, list] = {}
        for w in active:
            team = driver.walkers[w][0]
            jobs_by_rank.setdefault(self.rank_of[w], []).append(
                (w, team.rng.bit_generator.state)
            )
        # One batched team is one advance task: metric parity with the
        # classic batched path (steps = tasks × interval, super-steps).
        steps = len(active) * cfg.exchange_interval
        t_adv = prof.start_always("rewl.advance") if prof is not None else None
        with driver.obs.span(
            "advance", round=driver.rounds,
            walkers=len(active), steps=steps,
        ):
            for rank, jobs in jobs_by_rank.items():
                self.comm.send(
                    ("advance", epoch, cfg.exchange_interval, jobs), dest=rank
                )
            driver.rounds += 1
            driver.obs.metrics.inc("rewl.rounds")
            driver.obs.metrics.inc("rewl.steps", steps)

            pairs = driver._exchange_pairs()[driver.rounds % 2::2]
            win_pairs: dict[int, list[int]] = {w: [] for w in range(n_windows)}
            for i, (left, right) in enumerate(pairs):
                win_pairs[left].append(i)
                win_pairs[right].append(i)
            pair_done = [False] * len(pairs)
            pending = set(active)
            ready = set(range(n_windows)) - pending
            synced: set[int] = set()
            next_pair = 0

            def settle_pairs():
                # Strict schedule order keeps the shared exchange RNG
                # stream identical to the barriered exchange phase.
                nonlocal next_pair
                while next_pair < len(pairs):
                    left, right = pairs[next_pair]
                    if left not in ready or right not in ready:
                        return
                    te = (
                        prof.start_always("rewl.exchange_round")
                        if prof is not None else None
                    )
                    with driver.obs.span("exchange", round=driver.rounds,
                                         pair=left):
                        driver._exchange_pair(left, right)
                    if prof is not None:
                        prof.stop("rewl.exchange_round", te)
                    pair_done[next_pair] = True
                    next_pair += 1

            def sync_ready():
                for w in active:
                    if (
                        w in ready and w not in synced
                        and all(pair_done[i] for i in win_pairs[w])
                    ):
                        ts = (
                            prof.start_always("rewl.sync")
                            if prof is not None else None
                        )
                        with driver.obs.span("synchronize",
                                             round=driver.rounds, window=w):
                            driver._sync_window(w)
                        if prof is not None:
                            prof.stop("rewl.sync", ts)
                        synced.add(w)

            def window_done(w, payload, rank):
                team = driver.walkers[w][0]
                if payload["ok"]:
                    _merge_counters(team.counters, payload["counters"])
                    team.rng.bit_generator.state = payload["rng"]
                    if payload.get("profile") is not None:
                        team._shm_profiler = payload["profile"]
                    if sup is not None:
                        tg = (
                            prof.start_always("rewl.guard")
                            if prof is not None else None
                        )
                        sup.guard_window(driver, w)
                        if not driver.window_quarantined[w]:
                            sup.snapshot_window(driver, w)
                        if prof is not None:
                            prof.stop("rewl.guard", tg)
                else:
                    exc = RuntimeError(payload["error"])
                    if sup is None:
                        raise RuntimeError(
                            f"window {w} advance failed on shm rank {rank}: "
                            f"{payload['error']}"
                        ) from exc
                    sup.on_window_failure(driver, w, exc)
                ready.add(w)

            while pending:
                try:
                    src, msg = self.comm.recv_any(timeout=_POLL_S)
                except TimeoutError:
                    self._reap_dead_ranks(driver, pending, ready, epoch)
                    settle_pairs()
                    sync_ready()
                    continue
                if msg[0] != "done" or msg[1] != epoch:
                    continue  # stale reply from a respawned predecessor
                _, _, rank, report = msg
                for w in sorted(report):
                    if w in pending:
                        pending.discard(w)
                        window_done(w, report[w], rank)
                settle_pairs()
                sync_ready()
            settle_pairs()
            sync_ready()
            if sup is not None:
                sup.end_guard_round()
        if prof is not None:
            prof.stop("rewl.advance", t_adv)

    def _reap_dead_ranks(self, driver, pending, ready, epoch) -> None:
        """Fail windows whose rank died; respawn the rank for next round."""
        sup = driver.supervisor
        for rank, proc in list(self._proc.items()):
            if proc.is_alive():
                continue
            dead = [w for w in sorted(pending) if self.rank_of[w] == rank]
            if not dead:
                continue
            if sup is None:
                raise RuntimeError(
                    f"shm worker rank {rank} died while advancing windows "
                    f"{dead} (exitcode {proc.exitcode})"
                )
            # Fence the respawned rank past any command the dead one left
            # unconsumed, then hand the lost windows to the supervisor.
            self._spawn(rank, dict(self._blobs[rank], min_epoch=epoch + 1))
            for w in dead:
                pending.discard(w)
                sup.on_window_failure(
                    driver, w,
                    RuntimeError(f"worker rank {rank} died mid-advance"),
                )
                ready.add(w)
