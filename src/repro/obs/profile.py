"""Deterministic sampling profiler for the Monte Carlo hot paths.

Python-level timing of every ΔE evaluation would swamp the kernels it
measures, so :class:`SectionProfiler` times only every ``sample_every``-th
entry into a section — chosen by a plain call counter, **never** by a random
draw — and counts every entry.  The estimate ``mean(timed) × calls`` then
reconstructs total section time with bounded overhead.  Three properties
make it safe to leave in the hot loops:

- **zero-RNG / zero-state**: profiling reads the clock and writes into its
  own stat dicts only, so a profiled run is bit-identical to a bare one
  (same contract as the rest of :mod:`repro.obs`; tested),
- **picklable + mergeable**: a profiler travels with its walker (into
  checkpoints and back from shm worker ranks) and per-walker profiles
  reduce associatively (calls and timed totals add, min/max combine),
  exactly like :class:`repro.obs.metrics.MetricsRegistry`,
- **cheap when off**: every hook is ``if profiler is None`` on a local.

Hook sites (see DESIGN.md §10): energy-delta evaluation
(:meth:`repro.hamiltonians.base.Hamiltonian.profiled`), proposal generation
(:meth:`repro.proposals.base.Proposal.profiled`), the Wang-Landau histogram
update (:meth:`repro.sampling.wang_landau.WangLandauSampler.enable_profiling`),
and the REWL round phases (:class:`repro.parallel.rewl.REWLDriver`).

Environment wiring: ``REPRO_PROFILE=1`` (or ``every=<N>`` / a bare integer)
activates profiling in any entry point without new flags; the process-wide
collector aggregates finished runs and, when ``REPRO_PROFILE_OUT`` names a
file, dumps the merged sections as JSON at interpreter exit — that file is
how :mod:`repro.obs.bench` embeds per-section profiles in BENCH snapshots.
"""

from __future__ import annotations

import atexit
import json
import math
import os
import time
from dataclasses import dataclass

__all__ = [
    "PROFILE_ENV_VAR",
    "PROFILE_OUT_ENV_VAR",
    "SectionStat",
    "SectionProfiler",
    "ProfiledHamiltonian",
    "ProfiledProposal",
    "profile_from_env",
    "global_collector",
    "reset_global_collector",
    "contribute_profile",
]

PROFILE_ENV_VAR = "REPRO_PROFILE"
PROFILE_OUT_ENV_VAR = "REPRO_PROFILE_OUT"

#: Default sampling stride: time one call in 64.
DEFAULT_SAMPLE_EVERY = 64


@dataclass
class SectionStat:
    """Aggregate for one named section (plain data; merges associatively)."""

    calls: int = 0
    timed: int = 0
    total_s: float = 0.0
    min_s: float = math.inf
    max_s: float = 0.0

    @property
    def mean_s(self) -> float:
        return self.total_s / self.timed if self.timed else 0.0

    @property
    def est_total_s(self) -> float:
        """Estimated wall time over *all* calls (mean of timed × calls)."""
        return self.mean_s * self.calls

    def merge(self, other: "SectionStat") -> None:
        self.calls += other.calls
        self.timed += other.timed
        self.total_s += other.total_s
        self.min_s = min(self.min_s, other.min_s)
        self.max_s = max(self.max_s, other.max_s)

    def as_dict(self) -> dict:
        return {
            "calls": self.calls,
            "timed": self.timed,
            "total_s": self.total_s,
            "mean_s": self.mean_s,
            "est_total_s": self.est_total_s,
            "min_s": None if self.timed == 0 else self.min_s,
            "max_s": None if self.timed == 0 else self.max_s,
        }


class SectionProfiler:
    """Counter-sampled section timings (``sample_every=1`` times every call).

    Hot-path usage::

        t0 = prof.start("hamiltonian.delta_swap")
        ...                      # the measured work
        prof.stop("hamiltonian.delta_swap", t0)

    ``start`` increments the call count unconditionally and returns a clock
    token only on sampled calls; ``stop`` with a ``None`` token is free.
    ``section(name)`` wraps the pair as a context manager for coarse regions.
    """

    __slots__ = ("sample_every", "sections")

    def __init__(self, sample_every: int = DEFAULT_SAMPLE_EVERY):
        if int(sample_every) < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every!r}")
        self.sample_every = int(sample_every)
        self.sections: dict[str, SectionStat] = {}

    # ------------------------------------------------------------ hot path

    def start(self, name: str) -> float | None:
        stat = self.sections.get(name)
        if stat is None:
            stat = self.sections[name] = SectionStat()
        stat.calls += 1
        if (stat.calls - 1) % self.sample_every:
            return None
        return time.perf_counter()

    def start_always(self, name: str) -> float:
        """Like :meth:`start` but times every call (coarse sections — e.g.
        REWL round phases — where per-call cost dwarfs the clock read)."""
        stat = self.sections.get(name)
        if stat is None:
            stat = self.sections[name] = SectionStat()
        stat.calls += 1
        return time.perf_counter()

    def stop(self, name: str, token: float | None) -> None:
        if token is None:
            return
        elapsed = time.perf_counter() - token
        stat = self.sections[name]
        stat.timed += 1
        stat.total_s += elapsed
        if elapsed < stat.min_s:
            stat.min_s = elapsed
        if elapsed > stat.max_s:
            stat.max_s = elapsed

    def section(self, name: str):
        """Context manager over one ``start``/``stop`` pair."""
        return _SectionContext(self, name)

    # ------------------------------------------------------------ plumbing

    def __contains__(self, name: str) -> bool:
        return name in self.sections

    def __getitem__(self, name: str) -> SectionStat:
        return self.sections[name]

    def __len__(self) -> int:
        return len(self.sections)

    def names(self) -> list[str]:
        return sorted(self.sections)

    def merge(self, other: "SectionProfiler") -> "SectionProfiler":
        """Fold ``other`` into this profiler (in place); returns ``self``."""
        for name, theirs in other.sections.items():
            mine = self.sections.get(name)
            if mine is None:
                mine = self.sections[name] = SectionStat()
            mine.merge(theirs)
        return self

    def as_dict(self) -> dict[str, dict]:
        return {name: self.sections[name].as_dict() for name in self.names()}

    @classmethod
    def from_dict(cls, payload: dict[str, dict],
                  sample_every: int = DEFAULT_SAMPLE_EVERY) -> "SectionProfiler":
        prof = cls(sample_every=sample_every)
        for name, entry in payload.items():
            stat = SectionStat(
                calls=int(entry["calls"]),
                timed=int(entry["timed"]),
                total_s=float(entry["total_s"]),
            )
            if stat.timed:
                stat.min_s = float(entry["min_s"])
                stat.max_s = float(entry["max_s"])
            prof.sections[name] = stat
        return prof

    def delta_since(self, before: dict[str, dict]) -> "SectionProfiler":
        """Profile accumulated since a prior ``as_dict()`` snapshot.

        Counts and totals subtract exactly; min/max carry the cumulative
        values (per-period extrema are not recoverable from snapshots).
        Lets a sampler whose profiler outlives many ``run()`` calls
        contribute each run exactly once to the global collector.
        """
        delta = SectionProfiler(sample_every=self.sample_every)
        for name, stat in self.sections.items():
            prev = before.get(name)
            d = SectionStat(
                calls=stat.calls - (int(prev["calls"]) if prev else 0),
                timed=stat.timed - (int(prev["timed"]) if prev else 0),
                total_s=stat.total_s - (float(prev["total_s"]) if prev else 0.0),
                min_s=stat.min_s,
                max_s=stat.max_s,
            )
            if d.calls > 0:
                delta.sections[name] = d
        return delta

    def publish(self, metrics) -> None:
        """Write section aggregates into a :class:`MetricsRegistry`.

        Gauges, not counters, so re-publishing a cumulative profile is
        idempotent (the latest snapshot wins on merge, right-biased).
        """
        for name, stat in self.sections.items():
            metrics.set(f"profile.{name}.calls", float(stat.calls))
            metrics.set(f"profile.{name}.est_total_s", stat.est_total_s)
            metrics.set(f"profile.{name}.mean_us", stat.mean_s * 1e6)


class _SectionContext:
    __slots__ = ("profiler", "name", "token")

    def __init__(self, profiler: SectionProfiler, name: str):
        self.profiler = profiler
        self.name = name

    def __enter__(self):
        self.token = self.profiler.start(self.name)
        return self

    def __exit__(self, *exc) -> None:
        self.profiler.stop(self.name, self.token)


# --------------------------------------------------------------- hot-path views


class ProfiledHamiltonian:
    """Delegating view of a Hamiltonian that times its ΔE/energy kernels.

    Not a :class:`repro.hamiltonians.base.Hamiltonian` subclass — a plain
    forwarding wrapper, so the wrapped instance keeps sole ownership of its
    state and several walkers can hold independent profiled views of one
    shared Hamiltonian.  Picklable as long as the inner model is.
    """

    __slots__ = ("inner", "profiler")

    def __init__(self, inner, profiler: SectionProfiler):
        self.inner = inner
        self.profiler = profiler

    def energy(self, config):
        prof = self.profiler
        t0 = prof.start("hamiltonian.energy")
        out = self.inner.energy(config)
        prof.stop("hamiltonian.energy", t0)
        return out

    def delta_energy_swap(self, config, i, j):
        prof = self.profiler
        t0 = prof.start("hamiltonian.delta_swap")
        out = self.inner.delta_energy_swap(config, i, j)
        prof.stop("hamiltonian.delta_swap", t0)
        return out

    def delta_energy_flip(self, config, site, new_species):
        prof = self.profiler
        t0 = prof.start("hamiltonian.delta_flip")
        out = self.inner.delta_energy_flip(config, site, new_species)
        prof.stop("hamiltonian.delta_flip", t0)
        return out

    def energies(self, configs):
        prof = self.profiler
        t0 = prof.start("hamiltonian.energies")
        out = self.inner.energies(configs)
        prof.stop("hamiltonian.energies", t0)
        return out

    def delta_energy_swap_batch(self, config, sites_i, sites_j):
        prof = self.profiler
        t0 = prof.start("hamiltonian.delta_swap_batch")
        out = self.inner.delta_energy_swap_batch(config, sites_i, sites_j)
        prof.stop("hamiltonian.delta_swap_batch", t0)
        return out

    def delta_energy_flip_batch(self, config, sites, new_species):
        prof = self.profiler
        t0 = prof.start("hamiltonian.delta_flip_batch")
        out = self.inner.delta_energy_flip_batch(config, sites, new_species)
        prof.stop("hamiltonian.delta_flip_batch", t0)
        return out

    def delta_energy_swap_many(self, configs, sites_i, sites_j):
        prof = self.profiler
        t0 = prof.start("hamiltonian.delta_swap_many")
        out = self.inner.delta_energy_swap_many(configs, sites_i, sites_j)
        prof.stop("hamiltonian.delta_swap_many", t0)
        return out

    def delta_energy_flip_many(self, configs, sites, new_species):
        prof = self.profiler
        t0 = prof.start("hamiltonian.delta_flip_many")
        out = self.inner.delta_energy_flip_many(configs, sites, new_species)
        prof.stop("hamiltonian.delta_flip_many", t0)
        return out

    def __getattr__(self, name):
        if name in ("inner", "profiler"):  # slot not yet set (unpickling)
            raise AttributeError(name)
        return getattr(self.inner, name)

    def __getstate__(self):
        return (self.inner, self.profiler)

    def __setstate__(self, state):
        inner, profiler = state
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "profiler", profiler)

    def __repr__(self) -> str:
        return f"ProfiledHamiltonian({self.inner!r})"


class ProfiledProposal:
    """Delegating view of a Proposal that times ``propose``.

    The section name carries the kernel (``proposal.swap``,
    ``proposal.flip``, ...), so mixtures profile their components apart.
    """

    __slots__ = ("inner", "profiler", "_section")

    def __init__(self, inner, profiler: SectionProfiler):
        self.inner = inner
        self.profiler = profiler
        self._section = f"proposal.{getattr(inner, 'name', 'proposal')}"

    def propose(self, config, hamiltonian, rng, current_energy=None):
        prof = self.profiler
        t0 = prof.start(self._section)
        out = self.inner.propose(config, hamiltonian, rng,
                                 current_energy=current_energy)
        prof.stop(self._section, t0)
        return out

    def propose_many(self, configs, hamiltonian, rng, current_energies=None):
        prof = self.profiler
        section = self._section + ".many"
        t0 = prof.start(section)
        out = self.inner.propose_many(configs, hamiltonian, rng,
                                      current_energies=current_energies)
        prof.stop(section, t0)
        return out

    def draw_fields(self, configs, hamiltonian, rng):
        prof = self.profiler
        section = self._section + ".fields"
        t0 = prof.start(section)
        out = self.inner.draw_fields(configs, hamiltonian, rng)
        prof.stop(section, t0)
        return out

    def __getattr__(self, name):
        if name in ("inner", "profiler", "_section"):  # unpickling guard
            raise AttributeError(name)
        return getattr(self.inner, name)

    def __getstate__(self):
        return (self.inner, self.profiler)

    def __setstate__(self, state):
        inner, profiler = state
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "profiler", profiler)
        object.__setattr__(self, "_section",
                           f"proposal.{getattr(inner, 'name', 'proposal')}")

    def __repr__(self) -> str:
        return f"ProfiledProposal({self.inner!r})"


# ------------------------------------------------------------- env activation


def parse_profile_spec(spec: str) -> int | None:
    """Parse ``REPRO_PROFILE``: sampling stride, or None for disabled.

    ``""``/``"0"``/``"off"``/``"false"`` → None; ``"1"``/``"on"``/``"true"``
    → the default stride; ``"every=<N>"`` or a bare integer ≥ 2 → that stride.
    """
    value = spec.strip().lower()
    if value in ("", "0", "off", "false"):
        return None
    if value in ("1", "on", "true"):
        return DEFAULT_SAMPLE_EVERY
    if value.startswith("every="):
        value = value[len("every="):]
    try:
        every = int(value)
    except ValueError as exc:
        raise ValueError(
            f"bad {PROFILE_ENV_VAR} value {spec!r}; expected 1/on/off, "
            f"every=<N>, or an integer stride"
        ) from exc
    if every < 1:
        raise ValueError(f"{PROFILE_ENV_VAR} stride must be >= 1, got {every}")
    return every


def profile_from_env(env_var: str = PROFILE_ENV_VAR) -> SectionProfiler | None:
    """Fresh :class:`SectionProfiler` per the environment knob (or None)."""
    every = parse_profile_spec(os.environ.get(env_var, ""))
    return None if every is None else SectionProfiler(sample_every=every)


_COLLECTOR: SectionProfiler | None = None
_DUMP_REGISTERED = False


def global_collector() -> SectionProfiler | None:
    """Process-wide profile aggregate, created lazily when profiling is on.

    Finished runs contribute their merged profiles here
    (:func:`contribute_profile`); when ``REPRO_PROFILE_OUT`` is set the
    collector is dumped as JSON at interpreter exit, which is how the bench
    harness recovers per-section profiles from a child pytest process.
    """
    global _COLLECTOR, _DUMP_REGISTERED
    if parse_profile_spec(os.environ.get(PROFILE_ENV_VAR, "")) is None:
        return None
    if _COLLECTOR is None:
        _COLLECTOR = SectionProfiler(sample_every=1)
        if not _DUMP_REGISTERED:
            atexit.register(_dump_collector)
            _DUMP_REGISTERED = True
    return _COLLECTOR


def reset_global_collector() -> None:
    global _COLLECTOR
    _COLLECTOR = None


def contribute_profile(profiler: SectionProfiler | None) -> None:
    """Merge a finished run's profile into the global collector (if active).

    Callers own delta semantics: contribute each run's profile exactly once
    (the REWL driver does this at ``run()`` exit).
    """
    if profiler is None:
        return
    collector = global_collector()
    if collector is not None and collector is not profiler:
        collector.merge(profiler)


def _dump_collector() -> None:
    path = os.environ.get(PROFILE_OUT_ENV_VAR, "").strip()
    if not path or _COLLECTOR is None or not _COLLECTOR.sections:
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(_COLLECTOR.as_dict(), fh, indent=2, sort_keys=True)
    except OSError:
        return  # exit-time dump is best-effort; never break shutdown
