"""Wang–Landau flat-histogram sampling.

Estimates ``ln g(E)`` over an :class:`~repro.sampling.binning.EnergyGrid` by
biasing acceptance with the running estimate::

    ln u < ln g(E) − ln g(E') + log_q_ratio

and incrementing ``ln g`` at the visited bin by the modification factor
``ln f``.  When the visit histogram is flat (min ≥ flatness·mean over the
reachable bins), ``ln f`` is halved and the histogram reset; the run
converges when ``ln f ≤ ln_f_final``.  The ``"one_over_t"`` schedule caps
``ln f`` at ``n_bins/steps`` once halving would undershoot it, which removes
the saturation error of plain halving (Belardinelli & Pereyra 2007).

Moves landing outside the grid are rejected (standard windowed WL), and the
*current* bin is updated on every step whether or not the move is accepted —
both details are required for convergence to the true density of states.

Reachability: bins never visited (gaps in a discrete spectrum, or windows
overlapping forbidden energies) are excluded from the flatness test once the
run has seen at least one flat check; a bin discovered later simply joins
the reachable set.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from repro.hamiltonians.base import Hamiltonian
from repro.proposals.base import Proposal
from repro.sampling.base import register_sampler
from repro.sampling.binning import EnergyGrid
from repro.util.rng import BufferedDraws, as_generator

__all__ = [
    "WLConfig",
    "WangLandauSampler",
    "WangLandauResult",
    "WalkerCounters",
    "drive_into_range",
]


@dataclass(frozen=True)
class WLConfig:
    """Tuning knobs for Wang-Landau sampling (mirrors ``REWLConfig``).

    Passed as the keyword-only ``config=`` of :class:`WangLandauSampler`
    (and of the batched stepper in :mod:`repro.sampling.batched`); loose
    tuning keywords on the constructors are merged into this via
    ``dataclasses.replace``, so a config object and ad-hoc overrides
    compose.

    ``batch_size`` selects batched multi-walker stepping through the
    :func:`repro.sampling.batched.make_wang_landau` factory: 1 (default)
    is the scalar sampler, K > 1 steps K walkers per super-step against a
    shared ln g.  ``profile_sample_every`` > 0 attaches a
    :class:`repro.obs.profile.SectionProfiler` with that sampling stride at
    construction time.
    """

    ln_f_init: float = 1.0
    ln_f_final: float = 1e-6
    flatness: float = 0.8
    check_interval: int | None = None
    schedule: str = "halving"
    max_steps: int = 50_000_000
    batch_size: int = 1
    profile_sample_every: int = 0

    def __post_init__(self):
        if self.schedule not in ("halving", "one_over_t"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if not 0.0 < self.flatness < 1.0:
            raise ValueError(f"flatness must be in (0, 1), got {self.flatness}")
        if not 0.0 < self.ln_f_final < self.ln_f_init:
            raise ValueError(
                f"need 0 < ln_f_final < ln_f_init, got "
                f"{self.ln_f_final}, {self.ln_f_init}"
            )
        if self.check_interval is not None and int(self.check_interval) < 1:
            raise ValueError(f"check_interval must be >= 1, got {self.check_interval}")
        if int(self.batch_size) < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if int(self.max_steps) < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")
        if int(self.profile_sample_every) < 0:
            raise ValueError(
                f"profile_sample_every must be >= 0, got {self.profile_sample_every}"
            )

    def with_overrides(self, **overrides) -> "WLConfig":
        """``dataclasses.replace`` with ``None`` values dropped.

        The constructors funnel loose legacy tuning keywords through here;
        an explicit ``check_interval=None`` is the field's default anyway,
        so dropping Nones loses nothing.
        """
        overrides = {k: v for k, v in overrides.items() if v is not None}
        return replace(self, **overrides) if overrides else self


def drive_into_range(hamiltonian: Hamiltonian, proposal: Proposal, grid: EnergyGrid,
                     config: np.ndarray, rng=None, max_steps: int = 1_000_000) -> np.ndarray:
    """Steer ``config`` until its energy lies inside ``grid``.

    Greedy drift: accept any move that does not increase the distance to the
    window (ties accepted, so the walk keeps diffusing on plateaus).  Used to
    initialize REWL walkers whose window excludes the typical energy of a
    random configuration.

    Returns the steered configuration (a copy); raises ``RuntimeError`` when
    the window cannot be reached within ``max_steps``.
    """
    rng = as_generator(rng)
    config = np.array(config, copy=True)
    energy = float(hamiltonian.energy(config))

    def distance(e: float) -> float:
        if e < grid.e_min:
            return grid.e_min - e
        if e > grid.e_max:
            return e - grid.e_max
        return 0.0

    for _ in range(max_steps):
        if grid.contains(energy):
            return config
        move = proposal.propose(config, hamiltonian, rng, current_energy=energy)
        if move is None:
            continue
        if distance(energy + move.delta_energy) <= distance(energy):
            move.apply(config)
            energy += move.delta_energy
    raise RuntimeError(
        f"could not reach energy window [{grid.e_min}, {grid.e_max}] in "
        f"{max_steps} steps (last energy {energy:.6g})"
    )


@dataclass
class WalkerCounters:
    """Per-walker event totals, kept as plain integers in the step loop.

    These are the operational statistics the paper (and the flat-histogram
    parallelization literature) reasons about; they are surfaced on
    :class:`WangLandauResult` and on REWL walker snapshots rather than being
    discarded at the end of a run.  Counting never touches ``ln_g`` or RNG
    state, so instrumented runs stay bit-identical.
    """

    proposals: int = 0
    null_proposals: int = 0
    accepted: int = 0
    out_of_grid: int = 0
    flat_checks_passed: int = 0
    flat_checks_failed: int = 0
    exchange_attempts: int = 0
    exchange_accepts: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "proposals": self.proposals,
            "null_proposals": self.null_proposals,
            "accepted": self.accepted,
            "out_of_grid": self.out_of_grid,
            "flat_checks_passed": self.flat_checks_passed,
            "flat_checks_failed": self.flat_checks_failed,
            "exchange_attempts": self.exchange_attempts,
            "exchange_accepts": self.exchange_accepts,
        }


@dataclass
class WangLandauResult:
    """Outcome of a Wang–Landau run.

    ``ln_g`` is *relative* (shifted so its minimum over visited bins is 0);
    absolute normalization — e.g. pinning the total state count to
    ``n_species^n_sites`` — is applied by :mod:`repro.dos`.
    """

    grid: EnergyGrid
    ln_g: np.ndarray
    histogram: np.ndarray
    visited: np.ndarray
    converged: bool
    n_steps: int
    n_iterations: int
    final_ln_f: float
    acceptance_rate: float
    iteration_steps: list[int] = field(default_factory=list)
    counters: WalkerCounters = field(default_factory=WalkerCounters)

    def masked_ln_g(self) -> np.ndarray:
        """ln g with unvisited bins set to −inf."""
        out = np.where(self.visited, self.ln_g, -np.inf)
        if np.any(self.visited):
            out = out - out[self.visited].min()
        return out


#: Legacy loose tuning keywords, merged into :class:`WLConfig`.
_WL_TUNING = ("ln_f_init", "ln_f_final", "flatness", "check_interval", "schedule")


def _resolve_wl_args(cls_name: str, args: tuple, kwargs: dict):
    """Shared constructor-argument resolution for WL samplers.

    Construction is keyword-only (the pre-redesign positional and
    ``config=<ndarray>`` shims completed their deprecation cycle and now
    raise ``TypeError``); loose tuning keywords are folded into the
    :class:`WLConfig`.  Returns ``(kwargs, cfg)`` with ``kwargs`` holding
    only hamiltonian/proposal/grid/initial_config/rng.
    """
    if args:
        raise TypeError(
            f"{cls_name}() takes keyword arguments only; pass hamiltonian=, "
            "proposal=, grid=, initial_config=, rng= and config=WLConfig(...)"
        )
    cfg = kwargs.pop("config", None)
    if cfg is not None and not isinstance(cfg, WLConfig):
        # Pre-redesign name: ``config`` was the initial configuration array.
        raise TypeError(
            f"{cls_name}(config=...) takes a WLConfig; pass the initial "
            "configuration array as initial_config="
        )
    cfg = cfg if cfg is not None else WLConfig()
    tuning = {k: kwargs.pop(k) for k in _WL_TUNING if k in kwargs}
    cfg = cfg.with_overrides(**tuning)
    unknown = set(kwargs) - {"hamiltonian", "proposal", "grid", "initial_config", "rng"}
    if unknown:
        raise TypeError(
            f"{cls_name}() got unexpected keyword arguments {sorted(unknown)}"
        )
    missing = [
        k for k in ("hamiltonian", "proposal", "grid", "initial_config")
        if kwargs.get(k) is None
    ]
    if missing:
        raise TypeError(f"{cls_name}() missing required arguments {missing}")
    return kwargs, cfg


@register_sampler("wang_landau")
class WangLandauSampler:
    """Single-walker Wang–Landau sampler.

    Keyword-only construction (see DESIGN.md §11 for migration notes)::

        WangLandauSampler(
            hamiltonian=ham, proposal=prop, grid=grid,
            initial_config=cfg0, rng=seed, config=WLConfig(...),
        )

    Parameters
    ----------
    hamiltonian : Hamiltonian
    proposal : Proposal
    grid : EnergyGrid
        Energy window (global range, or one REWL window).
    initial_config : numpy.ndarray
        Initial configuration; its energy must lie inside ``grid`` (use
        :func:`drive_into_range` first otherwise).
    rng : seed or Generator
    config : WLConfig
        Schedule/flatness/step tuning; loose ``ln_f_init=...``-style
        keywords are still accepted and merged into it.

    Construction is keyword-only.  Note the attribute ``self.config``
    remains the *configuration array* (REWL exchange and checkpoints rely
    on it); the tuning object is ``self.cfg``.
    """

    def __init__(self, *args, **kwargs):
        kwargs, cfg = _resolve_wl_args(type(self).__name__, args, kwargs)
        hamiltonian = kwargs["hamiltonian"]
        proposal = kwargs["proposal"]
        grid = kwargs["grid"]
        self.cfg = cfg
        self.hamiltonian = hamiltonian
        self.proposal = proposal
        self.grid = grid
        self.rng = BufferedDraws(as_generator(kwargs.get("rng")))
        self.config = hamiltonian.validate_config(
            np.array(kwargs["initial_config"], copy=True)
        )
        self.energy = float(hamiltonian.energy(self.config))
        self.current_bin = grid.index(self.energy)
        if self.current_bin < 0:
            raise ValueError(
                f"initial energy {self.energy:.6g} lies outside the grid "
                f"[{grid.e_min:.6g}, {grid.e_max:.6g}]; use drive_into_range"
            )
        self.ln_f = float(cfg.ln_f_init)
        self.ln_f_final = float(cfg.ln_f_final)
        self.flatness = float(cfg.flatness)
        self.schedule = cfg.schedule
        self.check_interval = (
            max(1000, 100 * grid.n_bins)
            if cfg.check_interval is None
            else int(cfg.check_interval)
        )

        n = grid.n_bins
        self.ln_g = np.zeros(n)
        self.histogram = np.zeros(n, dtype=np.int64)
        self.visited = np.zeros(n, dtype=bool)
        self.n_steps = 0
        self.n_accepted = 0
        self.n_iterations = 0
        self.iteration_steps: list[int] = []
        self._steps_this_iteration = 0
        # Plain-int telemetry (picklable; travels with the walker into
        # checkpoints).  The REWL driver fills the exchange fields.
        self.counters = WalkerCounters()
        # Optional section profiler (repro.obs.profile); None keeps the hot
        # loop at a single attribute check.  Enable via enable_profiling().
        self.profiler = None
        if cfg.profile_sample_every:
            from repro.obs.profile import SectionProfiler

            self.enable_profiling(SectionProfiler(sample_every=cfg.profile_sample_every))

    def enable_profiling(self, profiler) -> None:
        """Attach a :class:`repro.obs.profile.SectionProfiler` to this walker.

        Wraps the proposal and Hamiltonian in profiled views (section-timed
        ΔE and proposal generation) and hooks the histogram update and
        flatness checks.  Profiling draws no random numbers and writes only
        into the profiler, so the sampled trajectory is bit-identical; the
        profiler pickles with the walker.
        """
        if self.profiler is not None:
            raise RuntimeError("profiling is already enabled on this walker")
        self.profiler = profiler
        self.hamiltonian = self.hamiltonian.profiled(profiler)
        self.proposal = self.proposal.profiled(profiler)

    # ----------------------------------------------------------------- slots
    #
    # The slot accessors of BatchedWangLandauSampler, for a one-slot team:
    # the REWL exchange reads and writes walker state through them (``k``
    # is always 0).

    n_slots = 1

    def slot_energy(self, k: int) -> float:
        return self.energy

    def slot_bin(self, k: int) -> int:
        return self.current_bin

    def slot_config(self, k: int) -> np.ndarray:
        """The configuration array itself (copy before mutating)."""
        return self.config

    def set_slot(self, k: int, config: np.ndarray, energy: float, bin_index: int) -> None:
        """Overwrite the walker's state in place (replica exchange)."""
        self.config[...] = config
        self.energy = energy
        self.current_bin = bin_index

    # ----------------------------------------------------------------- step

    def step(self) -> bool:
        """One WL step; returns True when the move was accepted."""
        self.n_steps += 1
        self._steps_this_iteration += 1
        move = self.proposal.propose(
            self.config, self.hamiltonian, self.rng, current_energy=self.energy
        )
        accepted = False
        if move is None:
            self.counters.null_proposals += 1
        else:
            self.counters.proposals += 1
            new_energy = self.energy + move.delta_energy
            new_bin = self.grid.index(new_energy)
            if new_bin < 0:
                self.counters.out_of_grid += 1
            else:
                log_alpha = (
                    self.ln_g[self.current_bin] - self.ln_g[new_bin] + move.log_q_ratio
                )
                if log_alpha >= 0.0 or np.log(self.rng.random()) < log_alpha:
                    move.apply(self.config)
                    self.energy = new_energy
                    self.current_bin = new_bin
                    accepted = True
                    self.n_accepted += 1
                    self.counters.accepted += 1
        # Update the (possibly unchanged) current bin — mandatory for WL.
        prof = self.profiler
        if prof is None:
            self.ln_g[self.current_bin] += self.ln_f
            self.histogram[self.current_bin] += 1
            self.visited[self.current_bin] = True
        else:
            t0 = prof.start("wl.histogram_update")
            self.ln_g[self.current_bin] += self.ln_f
            self.histogram[self.current_bin] += 1
            self.visited[self.current_bin] = True
            prof.stop("wl.histogram_update", t0)
        return accepted

    # ----------------------------------------------------------- iteration

    def is_flat(self) -> bool:
        """Histogram flatness over the reachable-bin set.

        Every call counts as one flatness check in ``self.counters`` —
        whether issued by :meth:`run` or by the REWL driver's sync phase.
        """
        prof = self.profiler
        t0 = prof.start("wl.flat_check") if prof is not None else None
        flat = self._flatness_test()
        if prof is not None:
            prof.stop("wl.flat_check", t0)
        if flat:
            self.counters.flat_checks_passed += 1
        else:
            self.counters.flat_checks_failed += 1
        return flat

    def _flatness_test(self) -> bool:
        mask = self.visited
        if not np.any(mask):
            return False
        h = self.histogram[mask]
        if np.any(h == 0):
            return False
        return float(h.min()) >= self.flatness * float(h.mean())

    def flatness_fraction(self) -> float:
        """min/mean of the visit histogram over visited bins (pure read).

        The quantity the flatness criterion thresholds, exposed as a
        continuous diagnostic for :mod:`repro.obs.convergence`; unlike
        :meth:`is_flat` this touches no counters.
        """
        mask = self.visited
        if not np.any(mask):
            return 0.0
        h = self.histogram[mask]
        mean = float(h.mean())
        return float(h.min()) / mean if mean > 0 else 0.0

    def fill_fraction(self) -> float:
        """Fraction of this window's bins visited so far (pure read)."""
        n = self.visited.shape[0]
        return float(np.count_nonzero(self.visited)) / n if n else 0.0

    def advance_modification_factor(self) -> None:
        """Halve ln f (respecting the 1/t floor) and reset the histogram."""
        self.n_iterations += 1
        self.iteration_steps.append(self._steps_this_iteration)
        self._steps_this_iteration = 0
        new_ln_f = self.ln_f / 2.0
        if self.schedule == "one_over_t":
            sweeps = max(1.0, self.n_steps / max(1, self.hamiltonian.n_sites))
            new_ln_f = max(new_ln_f, 1.0 / sweeps)
            if new_ln_f >= self.ln_f:  # floor reached: 1/t decays on its own
                new_ln_f = 1.0 / sweeps
        self.ln_f = new_ln_f
        self.histogram[:] = 0

    def run(self, max_steps: int | None = None, telemetry=None) -> WangLandauResult:
        """Iterate until ``ln f ≤ ln_f_final`` or ``max_steps`` is exhausted.

        ``max_steps`` defaults to ``self.cfg.max_steps``.  ``telemetry`` (a
        :class:`repro.obs.Telemetry`) is used per *WL iteration*, never per
        step, and is deliberately not stored on the sampler: walkers must
        stay cheaply picklable for checkpoints.  Enabling it changes
        no sampler state (bit-identity is tested).
        """
        from repro.obs.profile import contribute_profile, profile_from_env

        if max_steps is None:
            max_steps = self.cfg.max_steps
        if self.profiler is None:
            env_profiler = profile_from_env()
            if env_profiler is not None:
                self.enable_profiling(env_profiler)
        profile_before = (
            self.profiler.as_dict() if self.profiler is not None else None
        )
        span = telemetry.span("wl.run") if telemetry is not None else nullcontext()
        steps_before = self.n_steps
        with span:
            while self.n_steps < max_steps and self.ln_f > self.ln_f_final:
                budget = min(self.check_interval, max_steps - self.n_steps)
                for _ in range(budget):
                    self.step()
                if self.is_flat():
                    self.advance_modification_factor()
                    if telemetry is not None:
                        telemetry.emit(
                            "wl_iteration",
                            iteration=self.n_iterations,
                            ln_f=self.ln_f,
                            steps=self.n_steps,
                            iteration_steps=self.iteration_steps[-1],
                        )
                elif self.schedule == "one_over_t" and self.ln_f <= 1.0 / max(
                    1.0, self.n_steps / max(1, self.hamiltonian.n_sites)
                ):
                    # In the 1/t regime ln f decays with time, not with flatness.
                    sweeps = max(1.0, self.n_steps / max(1, self.hamiltonian.n_sites))
                    self.ln_f = 1.0 / sweeps
        if telemetry is not None:
            telemetry.metrics.inc("wl.steps", self.n_steps - steps_before)
        if profile_before is not None:
            contribute_profile(self.profiler.delta_since(profile_before))
            if telemetry is not None:
                self.profiler.publish(telemetry.metrics)
        return self.result()

    def result(self) -> WangLandauResult:
        ln_g = self.ln_g.copy()
        if np.any(self.visited):
            ln_g -= ln_g[self.visited].min()
        return WangLandauResult(
            grid=self.grid,
            ln_g=ln_g,
            histogram=self.histogram.copy(),
            visited=self.visited.copy(),
            converged=self.ln_f <= self.ln_f_final,
            n_steps=self.n_steps,
            n_iterations=self.n_iterations,
            final_ln_f=self.ln_f,
            acceptance_rate=self.n_accepted / self.n_steps if self.n_steps else 0.0,
            iteration_steps=list(self.iteration_steps),
            counters=replace(self.counters),
        )
