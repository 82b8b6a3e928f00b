"""Tests for serial parallel tempering."""

import numpy as np
import pytest

from repro.hamiltonians import enumerate_density_of_states
from repro.lattice import random_configuration
from repro.proposals import FlipProposal
from repro.sampling import ParallelTempering


def make_pt(ising_4x4, betas, seed=0):
    configs = np.stack([
        random_configuration(16, [8, 8], rng=100 + k) for k in range(len(betas))
    ])
    return ParallelTempering(
        ising_4x4, lambda k: FlipProposal(), betas, configs, seed=seed
    ), configs


class TestSerialPT:
    def test_runs_and_records(self, ising_4x4):
        pt, _ = make_pt(ising_4x4, [0.1, 0.2, 0.4])
        res = pt.run(n_rounds=20, steps_per_round=50)
        assert res.energies.shape == (20, 3)
        assert res.exchange_attempts.sum() > 0

    def test_exchange_preserves_energy_bookkeeping(self, ising_4x4):
        pt, _ = make_pt(ising_4x4, [0.1, 0.5])
        pt.run(n_rounds=30, steps_per_round=20)
        for chain in pt.chains:
            assert chain.resync_energy() < 1e-8

    def test_cold_replica_has_lower_energy(self, ising_4x4):
        pt, _ = make_pt(ising_4x4, [0.05, 1.0])
        res = pt.run(n_rounds=60, steps_per_round=100)
        late = res.energies[30:]
        assert late[:, 1].mean() < late[:, 0].mean()

    def test_identical_betas_always_exchange(self, ising_4x4):
        pt, _ = make_pt(ising_4x4, [0.3, 0.3])
        res = pt.run(n_rounds=20, steps_per_round=10)
        assert np.all(res.exchange_rates[~np.isnan(res.exchange_rates)] == 1.0)

    def test_canonical_mean_preserved_by_exchanges(self, ising_4x4):
        """The beta=0.3 replica of a PT run must still match the exact
        canonical mean at beta=0.3 (exchanges must not bias marginals)."""
        levels, degens = enumerate_density_of_states(ising_4x4)
        beta = 0.3
        w = np.log(degens) - beta * levels
        w -= w.max()
        p = np.exp(w) / np.exp(w).sum()
        exact = float(np.dot(p, levels))
        pt, _ = make_pt(ising_4x4, [0.15, 0.3, 0.6], seed=5)
        res = pt.run(n_rounds=400, steps_per_round=100)
        measured = res.energies[100:, 1].mean()
        assert measured == pytest.approx(exact, abs=0.8)

    def test_validation(self, ising_4x4):
        with pytest.raises(ValueError):
            ParallelTempering(ising_4x4, lambda k: FlipProposal(), [0.1],
                              np.zeros((1, 16), dtype=np.int8))
        with pytest.raises(ValueError):
            ParallelTempering(ising_4x4, lambda k: FlipProposal(), [0.1, 0.2],
                              np.zeros((2, 9), dtype=np.int8))
