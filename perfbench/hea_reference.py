"""Regenerate the U(T) reference that the ``hea-tta`` workload checks against.

Per-temperature route, as in experiment E13: canonical Metropolis swap
chains on the 54-site NbMoTaW cell at a ladder of temperatures, combined
by WHAM into ln g(E), then U(T) at the check temperatures.  This route
shares no code with the Wang-Landau/REWL path under test beyond the
Hamiltonian, the swap proposal and the energy grid.

Run from the repository root::

    python3 perfbench/hea_reference.py --seed 0

It rewrites ``perfbench/hea_reference.json``.  The file records the
parameters and the command that made it; the benchmark refuses a
reference whose recorded parameters differ from :data:`PARAMS`.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "hea_reference.json"

#: Everything that determines the reference, except the seed.
PARAMS = {
    "length": 3,
    "n_shells": 2,
    "n_bins": 32,
    "grid_rng": 0,
    "ladder_temperatures_k": [1500.0, 2500.0, 3500.0, 5000.0, 8000.0],
    "burn_in_steps": 5_000,
    "chain_steps": 400_000,
    "check_temperatures_k": [2000.0, 3000.0, 4000.0],
}


def compute(seed: int) -> list[float]:
    """U(T) in eV at ``PARAMS["check_temperatures_k"]`` from WHAM."""
    import numpy as np

    from repro.dos import thermodynamics, wham
    from repro.experiments.common import default_hea_grid, hea_system
    from repro.hamiltonians import KB_EV_PER_K
    from repro.lattice import random_configuration
    from repro.proposals import SwapProposal
    from repro.sampling import MetropolisSampler
    from repro.util.rng import RngFactory

    ham, counts = hea_system(PARAMS["length"], PARAMS["n_shells"])
    grid = default_hea_grid(ham, counts, n_bins=PARAMS["n_bins"],
                            rng=PARAMS["grid_rng"])
    rngs = RngFactory(seed)
    betas = np.array([1.0 / (KB_EV_PER_K * t)
                      for t in PARAMS["ladder_temperatures_k"]])
    hists = np.zeros((len(betas), grid.n_bins), dtype=np.int64)
    for k, beta in enumerate(betas):
        sampler = MetropolisSampler(
            ham, SwapProposal(), float(beta),
            random_configuration(ham.n_sites, counts, rng=rngs.make("wham-cfg", k)),
            rng=rngs.make("wham-chain", k),
        )
        sampler.run(PARAMS["burn_in_steps"])
        for _ in range(PARAMS["chain_steps"]):
            sampler.step()
            b = grid.index(sampler.energy)
            if b >= 0:
                hists[k, b] += 1
    res = wham(grid.centers, hists, betas)
    if not res.converged:
        raise RuntimeError("WHAM did not converge")
    sup = res.supported
    tab = thermodynamics(grid.centers[sup], res.ln_g[sup],
                         PARAMS["check_temperatures_k"], kb=KB_EV_PER_K)
    return [float(u) for u in tab.internal_energy]


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    """The committed reference, refused unless it was made with PARAMS."""
    ref = json.loads(path.read_text())
    if ref.get("params") != PARAMS:
        raise ValueError(
            f"{path.name} was made with parameters {ref.get('params')}, "
            f"but the benchmark expects {PARAMS}; regenerate it with "
            f"`{ref.get('command', 'python3 perfbench/hea_reference.py')}`"
        )
    return ref


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE.parent / "src"))
    t0 = time.perf_counter()
    u = compute(args.seed)
    out = {
        "command": f"python3 perfbench/hea_reference.py --seed {args.seed}",
        "seed": args.seed,
        "params": PARAMS,
        "internal_energy_ev": u,
        "elapsed_s": round(time.perf_counter() - t0, 1),
    }
    REFERENCE_PATH.write_text(json.dumps(out, indent=2) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
