"""Replica-exchange Wang-Landau across energy windows — the parallel core.

Demonstrates the full distributed pipeline at laptop scale:

1. decompose the HEA energy range into overlapping windows,
2. run walker teams per window with inter-window configuration exchanges,
3. stitch the per-window ln g pieces into one global density of states,
4. verify the fused SPMD backend (every window stepped as one array
   program) is bit-identical to the batched serial campaign; exits nonzero
   if it is not.

Usage: python examples/distributed_rewl.py
"""

import numpy as np

from repro.experiments.common import estimate_energy_range
from repro.hamiltonians import NbMoTaWHamiltonian
from repro.lattice import bcc, equiatomic_counts, random_configuration
from repro.parallel import REWLConfig, REWLDriver
from repro.proposals import SwapProposal
from repro.sampling import EnergyGrid
from repro.util.tables import format_table


def run_once(backend="serial"):
    ham = NbMoTaWHamiltonian(bcc(3), n_shells=1)
    counts = equiatomic_counts(ham.n_sites, 4)
    # Annealed estimate of the reachable range (rigid bounds are far too
    # loose, and unreachable tail bins stall flat-histogram convergence).
    e_lo, e_hi = estimate_energy_range(ham, counts, rng=5, margin=0.03)
    grid = EnergyGrid.uniform(e_lo, e_hi, 28)
    driver = REWLDriver(
        hamiltonian=ham, proposal_factory=lambda: SwapProposal(), grid=grid,
        initial_config=random_configuration(ham.n_sites, counts, rng=0),
        config=REWLConfig(n_windows=3, walkers_per_window=2, overlap=0.6,
                          exchange_interval=1_500, ln_f_final=5e-3,
                          flatness=0.7, seed=7, batched_walkers=True,
                          backend=backend),
    )
    return driver.run(max_rounds=2_000)


def main() -> None:
    result = run_once()
    print(f"converged={result.converged} after {result.rounds} rounds "
          f"({result.total_steps:,} total MC steps)")
    rows = [
        [w.index, w.lo_bin, w.hi_bin,
         result.window_iterations[w.index],
         None if w.index >= len(result.exchange_rates) else result.exchange_rates[w.index]]
        for w in result.windows
    ]
    print(format_table(
        ["window", "lo bin", "hi bin", "WL iterations", "exchange rate ->"],
        rows, title="per-window state",
    ))

    stitched = result.stitched()
    print(f"\nstitched ln g: span = {stitched.span:.1f}, "
          f"joint residuals = {np.round(stitched.joint_residuals, 3)}")

    # Backend determinism: same seed, fused super-step vs batched serial.
    fused = run_once(backend="fused")
    identical = fused.rounds == result.rounds and all(
        np.array_equal(a, b)
        for a, b in zip(result.window_ln_g, fused.window_ln_g)
    )
    print(f"fused run bit-identical to batched serial: {identical}")
    if not identical:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
