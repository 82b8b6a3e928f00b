"""Integration tests for the REWL driver (the paper's parallel framework)."""

import hashlib

import numpy as np
import pytest

from repro.hamiltonians import IsingHamiltonian, enumerate_density_of_states
from repro.lattice import square_lattice
from repro.parallel import REWLConfig, REWLDriver
from repro.proposals import FlipProposal
from repro.sampling import EnergyGrid


@pytest.fixture(scope="module")
def ising():
    return IsingHamiltonian(square_lattice(4))


@pytest.fixture(scope="module")
def grid(ising):
    return EnergyGrid.from_levels(ising.energy_levels())


def run_driver(ising, grid, executor=None, seed=11, **cfg_kwargs):
    defaults = dict(
        n_windows=3, walkers_per_window=2, overlap=0.6,
        exchange_interval=1500, ln_f_final=3e-4, seed=seed,
    )
    defaults.update(cfg_kwargs)
    driver = REWLDriver(
        hamiltonian=ising, proposal_factory=lambda: FlipProposal(), grid=grid,
        initial_config=np.zeros(16, dtype=np.int8),
        config=REWLConfig(**defaults), executor=executor,
    )
    return driver.run()


class TestREWLCorrectness:
    @pytest.fixture(scope="class")
    def result(self, ising, grid):
        return run_driver(ising, grid)

    def test_converges(self, result):
        assert result.converged
        assert all(it >= 10 for it in result.window_iterations)

    def test_exchanges_happen(self, result):
        assert result.exchange_attempts.sum() > 0
        rates = result.exchange_rates
        assert np.nanmax(rates) > 0.0

    def test_stitched_matches_exact(self, result, ising):
        stitched = result.stitched()
        levels, degens = enumerate_density_of_states(ising)
        exact = {float(e): float(np.log(d)) for e, d in zip(levels, degens)}
        es, vs = stitched.energies(), stitched.values()
        pairs = [(v, exact[float(e)]) for e, v in zip(es, vs) if float(e) in exact]
        est = np.array([p[0] for p in pairs])
        ex = np.array([p[1] for p in pairs])
        err = np.abs((est - est[0]) - (ex - ex[0]))
        assert err.max() < 0.5

    def test_stitch_residuals_small(self, result):
        assert np.all(result.stitched().joint_residuals < 0.3)

    def test_walker_snapshots(self, result):
        assert len(result.walkers) == 6
        for snap in result.walkers:
            assert snap.n_steps > 0
            assert 0.0 < snap.acceptance_rate <= 1.0


class TestREWLDeterminism:
    def test_same_seed_reproducible(self, ising, grid):
        res_a = run_driver(ising, grid, seed=33, ln_f_final=5e-3)
        res_b = run_driver(ising, grid, seed=33, ln_f_final=5e-3)
        for ga, gb in zip(res_a.window_ln_g, res_b.window_ln_g):
            assert np.array_equal(ga, gb)

    def test_different_seeds_differ(self, ising, grid):
        res_a = run_driver(ising, grid, seed=1, ln_f_final=5e-3)
        res_b = run_driver(ising, grid, seed=2, ln_f_final=5e-3)
        assert any(
            not np.array_equal(ga, gb)
            for ga, gb in zip(res_a.window_ln_g, res_b.window_ln_g)
        )


class TestREWLGolden:
    """Pinned campaign outcomes: a refactor of the driver must keep the RNG
    stream — every walker step and every exchange draw — exactly as it was.

    The expected values were recorded from the scalar and batched exchange
    implementations that preceded the single ``_exchange_pair``; any change
    to draw order, slot picking or state swapping moves at least one of
    them.
    """

    @staticmethod
    def _digest(result) -> str:
        return hashlib.sha256(
            b"".join(np.ascontiguousarray(g).tobytes() for g in result.window_ln_g)
        ).hexdigest()

    @pytest.mark.parametrize(
        "walkers, batched, rounds, steps, attempts, accepts, digest",
        [
            (2, False, 228, 79_600, 85, 35,
             "326e1802b28e2c1c4a5d79c5c019917907fd1c20d94df5e145637bb855cccd05"),
            (4, True, 49, 38_000, 23, 10,
             "a2797bbd081b44f5d645e3f53e86bda2d0bc0077a18e37778b01303153476b06"),
        ],
        ids=["scalar-2x2", "batched-2x4"],
    )
    def test_campaign_matches_recorded_stream(
        self, ising, grid, walkers, batched, rounds, steps, attempts, accepts,
        digest,
    ):
        res = run_driver(
            ising, grid, seed=2024, n_windows=2, walkers_per_window=walkers,
            overlap=0.6, exchange_interval=100, ln_f_final=2e-3,
            batched_walkers=batched,
        )
        assert res.converged
        assert res.rounds == rounds
        assert res.total_steps == steps
        assert res.exchange_attempts.tolist() == [attempts]
        assert res.exchange_accepts.tolist() == [accepts]
        assert self._digest(res) == digest


class TestREWLConfigValidation:
    """Bad knobs fail at construction, not deep inside make_windows/drive."""

    def test_overlap_out_of_range(self):
        with pytest.raises(ValueError, match="overlap"):
            REWLConfig(overlap=0.05)
        with pytest.raises(ValueError, match="overlap"):
            REWLConfig(overlap=0.95)

    def test_max_rounds_positive_integer(self):
        with pytest.raises(ValueError, match="max_rounds"):
            REWLConfig(max_rounds=0)
        with pytest.raises(TypeError, match="max_rounds"):
            REWLConfig(max_rounds=2.5)

    def test_drive_max_steps_positive_integer(self):
        with pytest.raises(ValueError, match="drive_max_steps"):
            REWLConfig(drive_max_steps=0)

    def test_checkpoint_interval_non_negative(self):
        with pytest.raises(ValueError, match="checkpoint_interval"):
            REWLConfig(checkpoint_interval=-1)
        assert REWLConfig(checkpoint_interval=0).checkpoint_interval == 0

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_retired_backends_rejected(self, backend):
        with pytest.raises(ValueError, match=backend) as info:
            REWLConfig(backend=backend)
        for name in ("serial", "fused", "shm"):
            assert repr(name) in str(info.value)


class TestREWLMechanics:
    def test_single_window_single_walker(self, ising, grid):
        res = run_driver(ising, grid, n_windows=1, walkers_per_window=1,
                         ln_f_final=5e-3)
        assert res.converged
        assert res.exchange_attempts.sum() == 0

    def test_single_window_has_no_phantom_exchange_pair(self, ising, grid):
        """Exchange statistics are sized per adjacent *pair*: one window
        means zero pairs, not a bogus pair with a NaN rate."""
        res = run_driver(ising, grid, n_windows=1, walkers_per_window=1,
                         ln_f_final=5e-3)
        assert res.exchange_attempts.shape == (0,)
        assert res.exchange_accepts.shape == (0,)
        assert res.exchange_rates.shape == (0,)
        assert not np.isnan(res.exchange_rates).any()

    def test_multi_window_pair_count(self, ising, grid):
        res = run_driver(ising, grid, ln_f_final=5e-3)
        assert res.exchange_attempts.shape == (2,)  # 3 windows -> 2 pairs

    def test_max_rounds_cutoff(self, ising, grid):
        driver = REWLDriver(
            hamiltonian=ising, proposal_factory=lambda: FlipProposal(),
            grid=grid, initial_config=np.zeros(16, dtype=np.int8),
            config=REWLConfig(n_windows=2, walkers_per_window=1,
                              exchange_interval=100, ln_f_final=1e-12, seed=0),
        )
        res = driver.run(max_rounds=3)
        assert not res.converged
        assert res.rounds == 3

    def test_merge_window_averages_relative_shapes(self, ising, grid):
        """Merging averages the *relative* ln g of each walker (offsets are
        arbitrary WL constants and must not leak into the mean)."""
        driver = REWLDriver(
            hamiltonian=ising, proposal_factory=lambda: FlipProposal(),
            grid=grid, initial_config=np.zeros(16, dtype=np.int8),
            config=REWLConfig(n_windows=1, walkers_per_window=2,
                              exchange_interval=100, seed=0),
        )
        team = driver.walkers[0]
        n = team[0].ln_g.shape[0]
        ramp = np.arange(n, dtype=np.float64)
        team[0].ln_g[:] = ramp  # relative shape: ramp
        team[1].ln_g[:] = 2.0 * ramp + 10.0  # same shape x2, shifted offset
        team[0].visited[:] = True
        team[1].visited[:] = True
        merged, union = driver._merge_window(team)
        assert union.all()
        assert np.allclose(merged, 1.5 * ramp)
        # Pure function: walker state untouched.
        assert np.allclose(team[0].ln_g, ramp)

    def test_merge_respects_visited(self, ising, grid):
        driver = REWLDriver(
            hamiltonian=ising, proposal_factory=lambda: FlipProposal(),
            grid=grid, initial_config=np.zeros(16, dtype=np.int8),
            config=REWLConfig(n_windows=1, walkers_per_window=2,
                              exchange_interval=100, seed=0),
        )
        team = driver.walkers[0]
        team[0].ln_g[:] = 4.0
        team[0].visited[:] = False
        team[0].visited[0] = True
        team[1].ln_g[:] = 8.0
        team[1].visited[:] = False
        team[1].visited[1] = True
        merged, union = driver._merge_window(team)
        assert union[0] and union[1]
        assert not union[2:].any()
        assert merged[0] == 0.0 and merged[1] == 0.0  # each shifted to 0
