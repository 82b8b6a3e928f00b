"""The benchmark's workloads: set-up, one campaign, and its correctness check.

Each workload fixes its problem (system, windows, walkers, ln f target,
exchange interval) and leaves every other knob at the program's default,
so a later change of a default is measured.  A campaign is one REWL run
from a constructed driver to a checked result; campaigns run one at a time
in one process (a closed loop of one client), on the serial or in-process
fused backend, so no workload uses more than one core of its own.

Why these four:

- ``ising-tta``: 4×4 Ising has an exact DoS, and at N=16, z=4 every WL step
  is dispatch-bound: fixed per-call cost in sampling, proposals and the
  scalar ΔE kernel sets time-to-accuracy.
- ``hea-tta``: the paper's NbMoTaW system (54 sites) in experiment E2's
  quick shape: continuous energies, composition-preserving swaps, a
  stitch, and an annealed-grid set-up.
- ``bcc432-fused``: the only batched workload.  128 walker rows per fused
  super-step make the stacked ΔE gather dominate; fixed rounds with an
  unreachable ln f target make the work fixed.
- ``hea-dl``: the 54-site system with a swap/MADE mixture, so the
  network and its pretraining are measured.

``BENCHMARK.json`` gates ``ising-tta`` and ``hea-dl``; NOTES.md says why
the other two are left out.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from hea_reference import load_reference


class CheckFailed(Exception):
    """A campaign's result failed its correctness check."""


@dataclass
class Campaign:
    """What one campaign measured; ``error`` is set when it failed."""

    seed: int
    setup_s: float = 0.0
    setup_samples: list = field(default_factory=list)
    setup_phases: dict = field(default_factory=dict)
    tta_s: float = 0.0
    run_s: float = 0.0
    stitch_s: float = 0.0
    steps: int = 0
    rounds: int = 0
    iterations: int = 0
    accepted: int = 0
    proposals: int = 0
    null_proposals: int = 0
    exchange_attempts: int = 0
    exchange_accepts: int = 0
    check_err: float = 0.0
    span_ratio: float = 0.0
    error: str | None = None


@dataclass
class Problem:
    """A set-up campaign: the driver plus what its check needs."""

    driver: object
    hamiltonian: object
    counts: np.ndarray | None = None


class Phases:
    """Times named set-up phases; also records them as spans when traced."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.seconds: dict[str, float] = {}

    @contextmanager
    def __call__(self, name: str):
        cm = (self.tracer.span(f"setup.{name}", "setup")
              if self.tracer is not None else nullcontext())
        with cm:
            t0 = time.perf_counter()
            yield
            self.seconds[name] = time.perf_counter() - t0


#: A run-to-target campaign still unconverged after this many rounds fails.
MAX_ROUNDS = 5_000


@dataclass(frozen=True)
class Workload:
    """One workload.

    ``rounds`` set means a fixed-work campaign of exactly that many rounds
    (its ln f target is unreachable); unset means run to ``ln_f_final``,
    capped at :data:`MAX_ROUNDS`, then stitch the windows.  ``nominal_s`` is
    about one set-up plus one campaign on a 2-CPU VM; it sizes a run to
    ``--seconds`` while keeping the campaign list a pure function of the
    arguments.  ``setup_reps`` is how many times each campaign's set-up is
    built and timed (the last build runs); a set-up of a few milliseconds
    needs several samples per campaign for a steady median.  ``reference``
    makes what ``check`` compares against, once per run and untimed.
    """

    name: str
    build: Callable
    check: Callable
    nominal_s: float
    rounds: int | None = None
    min_campaigns: int = 3
    setup_reps: int = 1
    reference: Callable | None = None

    def n_campaigns(self, seconds: float) -> int:
        return max(self.min_campaigns, int(np.ceil(seconds / self.nominal_s)))


# ------------------------------------------------------------ ising-tta

ISING_LN_F_FINAL = 1e-3
#: Bound on max over levels of |Δ ln g| against the exact DoS, after the
#: estimate's mean offset to it is removed.  300 correct campaigns at ln f
#: = 1e-3 (seeds 0-59 and 100000-100239) measured at most 0.54, 95% below
#: 0.37.  One level wrong by δ shows as about 14δ/15 on top of that noise,
#: so a degeneracy off by a factor of e^1.65 ≈ 5 or more always fails.
ISING_LN_G_EPS = 1.0


def _build_ising(seed: int, phase: Phases) -> Problem:
    from repro.hamiltonians import IsingHamiltonian
    from repro.lattice import random_configuration, square_lattice
    from repro.parallel import REWLConfig, REWLDriver
    from repro.proposals import FlipProposal
    from repro.sampling import EnergyGrid

    with phase("lattice"):
        lattice = square_lattice(4)
    with phase("hamiltonian"):
        ham = IsingHamiltonian(lattice)
    with phase("grid"):
        grid = EnergyGrid.from_levels(ham.energy_levels())
    with phase("driver"):
        driver = REWLDriver(
            hamiltonian=ham, proposal_factory=FlipProposal, grid=grid,
            initial_config=random_configuration(ham.n_sites, [8, 8], rng=seed),
            config=REWLConfig(
                n_windows=2, walkers_per_window=2, exchange_interval=2_000,
                ln_f_final=ISING_LN_F_FINAL, seed=seed,
            ),
        )
    return Problem(driver, ham)


#: The 15 exact (E, g) levels of the 4×4 torus, committed so that a run
#: never enumerates its 2^16 states (and the enumeration's memory stays out
#: of ``peak_rss_mb``).  The tests check them against the enumeration.
ISING_EXACT_PATH = Path(__file__).resolve().parent / "ising4_exact.json"


def exact_ising_ln_g() -> dict[float, float]:
    """Exact ln g of the 4×4 torus, keyed by energy."""
    data = json.loads(ISING_EXACT_PATH.read_text())
    if sum(data["degeneracies"]) != 2 ** 16:
        raise ValueError(f"{ISING_EXACT_PATH.name}: degeneracies do not sum to 2^16")
    return {float(e): float(np.log(d))
            for e, d in zip(data["energies"], data["degeneracies"])}


def check_ising(problem: Problem, result, stitched, exact) -> tuple[float, float]:
    """Largest per-level ln g error against ``exact`` (energy → ln g)."""
    energies = stitched.grid.centers[stitched.visited]
    if sorted(map(float, energies)) != sorted(exact):
        raise CheckFailed(
            f"visited levels {sorted(map(float, energies))} differ from the "
            f"exact spectrum {sorted(exact)}"
        )
    est = stitched.ln_g[stitched.visited]
    ref = np.array([exact[float(e)] for e in energies])
    diff = est - ref
    err = float(np.max(np.abs(diff - diff.mean())))
    if not err <= ISING_LN_G_EPS:
        raise CheckFailed(f"ln g off by {err:.3f} at one level > {ISING_LN_G_EPS}")
    return err, stitched.span / float(np.ptp(ref))


# -------------------------------------------------------------- hea-tta

#: Experiment E2's quick target, at which E13 measured its WHAM agreement.
HEA_LN_F_FINAL = 1e-3
#: max |U_REWL(T) - U_WHAM(T)| over the check temperatures, in eV.  E13
#: measured 0.23 eV at ln f = 1e-3 on a 14.7 eV energy range.
HEA_U_EPS_EV = 0.3


def _build_hea_tta(seed: int, phase: Phases) -> Problem:
    from repro.experiments.common import default_hea_grid
    from repro.hamiltonians import NbMoTaWHamiltonian
    from repro.lattice import bcc, equiatomic_counts, random_configuration
    from repro.parallel import REWLConfig, REWLDriver
    from repro.proposals import SwapProposal

    with phase("lattice"):
        lattice = bcc(3)
    with phase("hamiltonian"):
        ham = NbMoTaWHamiltonian(lattice, n_shells=2)
        counts = equiatomic_counts(ham.n_sites, 4)
    with phase("grid"):
        grid = default_hea_grid(ham, counts, n_bins=32, rng=seed)
    with phase("driver"):
        driver = REWLDriver(
            hamiltonian=ham, proposal_factory=SwapProposal, grid=grid,
            initial_config=random_configuration(ham.n_sites, counts, rng=seed),
            config=REWLConfig(
                n_windows=2, walkers_per_window=1, overlap=0.6,
                exchange_interval=2_000, ln_f_final=HEA_LN_F_FINAL,
                flatness=0.7, seed=seed,
            ),
        )
    return Problem(driver, ham, counts)


def check_hea_tta(problem: Problem, result, stitched, reference) -> tuple[float, float]:
    """Span under the multinomial bound, and U(T) against the WHAM reference."""
    from repro.dos import thermodynamics
    from repro.dos.thermo import log_multinomial
    from repro.hamiltonians import KB_EV_PER_K

    bound = log_multinomial(problem.counts)
    ratio = stitched.span / bound
    if not ratio <= 1.0:
        raise CheckFailed(
            f"stitched ln g span {stitched.span:.2f} exceeds ln multinomial "
            f"{bound:.2f}, the total number of states"
        )
    temps = reference["params"]["check_temperatures_k"]
    tab = thermodynamics(stitched.energies(), stitched.values(), temps,
                         kb=KB_EV_PER_K)
    gap = float(np.max(np.abs(tab.internal_energy
                              - np.asarray(reference["internal_energy_ev"]))))
    if not gap <= HEA_U_EPS_EV:
        raise CheckFailed(f"U(T) gap to WHAM {gap:.3f} eV > {HEA_U_EPS_EV} eV")
    return gap, ratio


# --------------------------------------------------------- bcc432-fused

#: ln f halves at most once per round, so this target is never reached.
UNREACHABLE_LN_F = 1e-30


def _build_bcc432(seed: int, phase: Phases) -> Problem:
    from repro.experiments.common import default_hea_grid
    from repro.hamiltonians import NbMoTaWHamiltonian
    from repro.lattice import bcc, equiatomic_counts, random_configuration
    from repro.parallel import REWLConfig, REWLDriver
    from repro.proposals import SwapProposal

    with phase("lattice"):
        lattice = bcc(6)
    with phase("hamiltonian"):
        ham = NbMoTaWHamiltonian(lattice, n_shells=2)
        counts = equiatomic_counts(ham.n_sites, 4)
    with phase("grid"):
        grid = default_hea_grid(ham, counts, rng=seed)
    with phase("driver"):
        driver = REWLDriver(
            hamiltonian=ham, proposal_factory=SwapProposal, grid=grid,
            initial_config=random_configuration(ham.n_sites, counts, rng=seed),
            config=REWLConfig(
                n_windows=2, walkers_per_window=64, backend="fused",
                exchange_interval=200, ln_f_final=UNREACHABLE_LN_F, seed=seed,
            ),
        )
    return Problem(driver, ham, counts)


def walker_states(driver):
    """``(configs, tracked_energies)`` of every walker row of ``driver``."""
    configs, energies = [], []
    for team in driver.walkers:
        for walker in team:
            if hasattr(walker, "configs"):
                configs.append(np.asarray(walker.configs))
                energies.append(np.asarray(walker.energies, dtype=float))
            else:
                configs.append(np.asarray(walker.config)[None])
                energies.append(np.array([walker.energy], dtype=float))
    return np.concatenate(configs), np.concatenate(energies)


#: Tracked energies accumulate ΔE in float64 over ~10^4 accepted moves per
#: walker on a ~10-100 eV scale; this is far above that drift and far
#: below any single wrong ΔE.
ENERGY_ATOL_EV = 1e-6


def check_walkers(problem: Problem, result, stitched, _ref) -> tuple[float, float]:
    """Tracked energy equals a fresh evaluation; composition is unchanged."""
    configs, tracked = walker_states(problem.driver)
    fresh = np.array([problem.hamiltonian.energy(c) for c in configs])
    err = float(np.max(np.abs(fresh - tracked)))
    if not err <= ENERGY_ATOL_EV:
        raise CheckFailed(f"tracked energy off by {err:.3g} eV")
    n_species = len(problem.counts)
    for row in configs:
        if not np.array_equal(np.bincount(row, minlength=n_species),
                              problem.counts):
            raise CheckFailed("a walker's composition changed")
    return err, 0.0


# --------------------------------------------------------------- hea-dl

#: MADE pretraining temperature (near the order-disorder transition, as
#: in experiment E5).
DL_TRAIN_T_K = 3000.0


def _build_hea_dl(seed: int, phase: Phases) -> Problem:
    from repro.experiments.common import default_hea_grid
    from repro.hamiltonians import KB_EV_PER_K, NbMoTaWHamiltonian
    from repro.lattice import bcc, equiatomic_counts, random_configuration
    from repro.nn import MADE, MADEConfig
    from repro.parallel import REWLConfig, REWLDriver
    from repro.proposals import MADEProposal, MixtureProposal, SwapProposal
    from repro.training import ProposalTrainer, ReplayBuffer, pretrain_from_chain

    with phase("lattice"):
        lattice = bcc(3)
    with phase("hamiltonian"):
        ham = NbMoTaWHamiltonian(lattice, n_shells=2)
        counts = equiatomic_counts(ham.n_sites, 4)
    with phase("grid"):
        grid = default_hea_grid(ham, counts, n_bins=32, rng=seed)
    with phase("pretrain"):
        rng = np.random.default_rng(seed)
        model = MADE(MADEConfig(ham.n_sites, ham.n_species), rng=rng)
        trainer = ProposalTrainer(
            model, ReplayBuffer(512, ham.n_sites, ham.n_species), rng=rng,
        )
        pretrain_from_chain(
            ham, SwapProposal(), 1.0 / (KB_EV_PER_K * DL_TRAIN_T_K),
            random_configuration(ham.n_sites, counts, rng=rng), trainer,
            seed=seed,
        )

    def mixture():
        return MixtureProposal([(SwapProposal(), 0.9), (MADEProposal(model), 0.1)])

    with phase("driver"):
        driver = REWLDriver(
            hamiltonian=ham, proposal_factory=mixture, grid=grid,
            initial_config=random_configuration(ham.n_sites, counts, rng=seed),
            config=REWLConfig(
                n_windows=2, walkers_per_window=1, exchange_interval=100,
                ln_f_final=UNREACHABLE_LN_F, seed=seed,
            ),
        )
    return Problem(driver, ham, counts)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ising-tta",
            build=_build_ising, check=check_ising, nominal_s=2.9,
            reference=exact_ising_ln_g, setup_reps=9,
        ),
        Workload(
            name="hea-tta",
            build=_build_hea_tta, check=check_hea_tta, nominal_s=60.0,
            reference=load_reference, min_campaigns=1,
        ),
        Workload(
            name="bcc432-fused",
            build=_build_bcc432, check=check_walkers, nominal_s=14.0,
            rounds=35,
        ),
        Workload(
            name="hea-dl",
            build=_build_hea_dl, check=check_walkers, nominal_s=8.0,
            rounds=5,
        ),
    )
}
