"""Tests for the deterministic fault-injection harness (``repro.faults``)."""

import pickle

import numpy as np
import pytest

from repro.faults import (
    FAULTS_ENV_VAR,
    FaultConfig,
    FaultInjector,
    InjectedCrash,
    InjectedFault,
    InjectedHang,
    faults_from_env,
    parse_faults,
)
from repro.hamiltonians import IsingHamiltonian
from repro.lattice import square_lattice
from repro.obs import Instrumentation, Telemetry
from repro.parallel import REWLConfig, REWLDriver, SerialExecutor
from repro.proposals import FlipProposal
from repro.sampling import EnergyGrid


def _double(x):
    return 2 * x


class TestFaultConfig:
    def test_defaults_inject_nothing(self):
        cfg = FaultConfig()
        assert not cfg.any_task_faults
        assert not cfg.any_checkpoint_faults

    @pytest.mark.parametrize("field", ["crash", "hang", "kill", "corrupt"])
    def test_probability_bounds(self, field):
        with pytest.raises(ValueError, match=field):
            FaultConfig(**{field: 1.5})
        with pytest.raises(ValueError, match=field):
            FaultConfig(**{field: -0.1})

    def test_task_probs_must_sum_to_at_most_one(self):
        with pytest.raises(ValueError, match="crash \\+ hang \\+ kill"):
            FaultConfig(crash=0.5, hang=0.4, kill=0.3)

    def test_negative_hang_duration(self):
        with pytest.raises(ValueError, match="hang_s"):
            FaultConfig(hang_s=-1.0)


class TestParsing:
    def test_parse_all_fields(self):
        cfg = parse_faults("crash=0.1,hang=0.05,kill=0.02,corrupt=0.2,hang_s=0.5,seed=7")
        assert cfg == FaultConfig(crash=0.1, hang=0.05, kill=0.02,
                                  corrupt=0.2, hang_s=0.5, seed=7)

    def test_parse_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="explode"):
            parse_faults("explode=1")

    def test_parse_rejects_bad_values(self):
        with pytest.raises(ValueError, match="crash"):
            parse_faults("crash=lots")

    @pytest.mark.parametrize("value", ["", "0", "off", "false"])
    def test_env_disabled(self, monkeypatch, value):
        monkeypatch.setenv(FAULTS_ENV_VAR, value)
        assert faults_from_env() is None

    def test_env_unset(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
        assert faults_from_env() is None

    def test_env_enabled(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "crash=0.25,seed=9")
        injector = faults_from_env()
        assert injector is not None
        assert injector.cfg.crash == 0.25 and injector.cfg.seed == 9


class TestDecisions:
    def test_deterministic_replay(self):
        a = FaultInjector(FaultConfig(crash=0.3, hang=0.2, seed=4))
        b = FaultInjector(FaultConfig(crash=0.3, hang=0.2, seed=4))
        for key in range(40):
            for attempt in range(3):
                assert a.decide_task(key, attempt) == b.decide_task(key, attempt)

    def test_retry_gets_a_fresh_draw(self):
        """A crashed attempt must not doom every retry of the same task."""
        inj = FaultInjector(FaultConfig(crash=0.5, seed=0))
        for key in range(20):
            decisions = {inj.decide_task(key, attempt) for attempt in range(16)}
            assert None in decisions  # some attempt succeeds

    def test_certain_and_impossible(self):
        always = FaultInjector(FaultConfig(crash=1.0, seed=1))
        never = FaultInjector(FaultConfig(seed=1))
        assert all(always.decide_task(k, 0) == "crash" for k in range(20))
        assert all(never.decide_task(k, 0) is None for k in range(20))

    def test_rates_roughly_match_probabilities(self):
        inj = FaultInjector(FaultConfig(crash=0.2, hang=0.1, kill=0.1, seed=3))
        decisions = [inj.decide_task(k, 0) for k in range(2000)]
        rate = lambda kind: sum(d == kind for d in decisions) / len(decisions)  # noqa: E731
        assert abs(rate("crash") - 0.2) < 0.05
        assert abs(rate("hang") - 0.1) < 0.05
        assert abs(rate("kill") - 0.1) < 0.05

    def test_checkpoint_split(self):
        inj = FaultInjector(FaultConfig(corrupt=1.0, seed=2))
        decisions = {inj.decide_checkpoint(k) for k in range(40)}
        assert decisions == {"corrupt", "crash"}
        assert FaultInjector(FaultConfig(seed=2)).decide_checkpoint(0) is None


class TestWrapping:
    def test_no_faults_is_a_passthrough(self):
        inj = FaultInjector(FaultConfig(corrupt=0.5))  # checkpoint-only faults
        assert inj.wrap(_double, 0, 0) is _double

    def test_crash_fires_before_the_task_body(self):
        calls = []
        inj = FaultInjector(FaultConfig(crash=1.0, seed=0))
        with pytest.raises(InjectedCrash):
            inj.wrap(calls.append, 0, 0)("never")
        assert calls == []  # the walker/task input was never touched

    def test_hang_sleeps_then_raises(self):
        inj = FaultInjector(FaultConfig(hang=1.0, hang_s=0.0, seed=0))
        with pytest.raises(InjectedHang):
            inj.wrap(_double, 0, 0)(3)

    def test_kill_degrades_in_process(self):
        """In the origin process a kill must not take the test suite down."""
        inj = FaultInjector(FaultConfig(kill=1.0, seed=0))
        with pytest.raises(InjectedCrash):
            inj.wrap(_double, 0, 0)(3)

    def test_wrapper_is_picklable(self):
        inj = FaultInjector(FaultConfig(crash=0.5, seed=0))
        wrapped = pickle.loads(pickle.dumps(inj.wrap(_double, 3, 1)))
        assert wrapped.key == 3 and wrapped.attempt == 1

    def test_clean_attempt_runs_the_task(self):
        inj = FaultInjector(FaultConfig(crash=0.5, seed=0))
        key = next(k for k in range(50) if inj.decide_task(k, 0) is None)
        assert inj.wrap(_double, key, 0)(21) == 42


class TestExecutorIntegration:
    def test_serial_map_survives_faults_bit_identically(self):
        inj = FaultInjector(FaultConfig(crash=0.3, hang=0.05, hang_s=0.0, seed=8))
        clean = SerialExecutor().map(_double, list(range(50)))
        chaotic = SerialExecutor(faults=inj, retry_backoff=0.0).map(
            _double, list(range(50))
        )
        assert chaotic == clean

    def test_fault_metrics_and_events_recorded(self):
        from repro.obs import EventLog, MemorySink

        sink = MemorySink()
        tel = Telemetry(events=EventLog(run_id="t", sinks=[sink]))
        inj = FaultInjector(FaultConfig(crash=0.4, seed=8))
        SerialExecutor(faults=inj, retry_backoff=0.0, telemetry=tel).map(
            _double, list(range(50))
        )
        metrics = tel.metrics.as_dict()
        assert metrics["task.retries"]["value"] > 0
        assert metrics["fault.injected"]["value"] > 0
        retries = [r for r in sink.records if r["kind"] == "task_retry"]
        assert retries and all("InjectedCrash" in r["error"] for r in retries)

    def test_retries_exhausted_raises_the_fault(self):
        inj = FaultInjector(FaultConfig(crash=1.0, seed=0))
        with pytest.raises(InjectedFault):
            SerialExecutor(faults=inj, max_retries=2, retry_backoff=0.0).map(
                _double, [1]
            )

    def test_env_activation(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "crash=1.0,seed=0")
        ex = SerialExecutor(max_retries=1, retry_backoff=0.0)
        assert ex.faults is not None
        with pytest.raises(InjectedCrash):
            ex.map(_double, [1])

    def test_env_default_retry_budget(self, monkeypatch):
        """Chaos from the environment implies a usable retry budget."""
        monkeypatch.setenv(FAULTS_ENV_VAR, "crash=0.3,seed=8")
        ex = SerialExecutor(retry_backoff=0.0)
        assert ex.max_retries > 0
        assert ex.map(_double, list(range(30))) == [2 * x for x in range(30)]


class TestREWLUnderChaos:
    """The acceptance criterion: injected worker crashes/hangs must not
    change a single bit of the stitched result."""

    @pytest.fixture(scope="class")
    def ising(self):
        return IsingHamiltonian(square_lattice(4))

    @pytest.fixture(scope="class")
    def grid(self, ising):
        return EnergyGrid.from_levels(ising.energy_levels())

    def _run(self, ising, grid, executor=None):
        driver = REWLDriver(
            hamiltonian=ising, proposal_factory=lambda: FlipProposal(),
            grid=grid, initial_config=np.zeros(16, dtype=np.int8),
            config=REWLConfig(n_windows=3, walkers_per_window=2, overlap=0.6,
                              exchange_interval=800, ln_f_final=5e-3, seed=21),
            executor=executor,
        )
        return driver.run()

    @pytest.fixture(scope="class")
    def clean(self, ising, grid):
        return self._run(ising, grid)

    def test_serial_chaos_bit_identical(self, ising, grid, clean):
        inj = FaultInjector(FaultConfig(crash=0.15, hang=0.05, hang_s=0.001, seed=5))
        chaotic = self._run(
            ising, grid, executor=SerialExecutor(faults=inj, retry_backoff=0.0)
        )
        assert chaotic.rounds == clean.rounds
        for a, b in zip(clean.window_ln_g, chaotic.window_ln_g):
            assert np.array_equal(a, b)
        assert np.array_equal(clean.exchange_accepts, chaotic.exchange_accepts)
        assert np.array_equal(
            clean.stitched().ln_g, chaotic.stitched().ln_g
        )

    def test_driver_telemetry_reaches_executor(self, ising, grid):
        """Retry metrics land in the driver's telemetry via bind_telemetry."""
        tel = Telemetry()
        inj = FaultInjector(FaultConfig(crash=0.3, seed=1))
        driver = REWLDriver(
            hamiltonian=ising, proposal_factory=lambda: FlipProposal(),
            grid=grid, initial_config=np.zeros(16, dtype=np.int8),
            config=REWLConfig(n_windows=2, walkers_per_window=1,
                              exchange_interval=200, ln_f_final=5e-3, seed=3),
            executor=SerialExecutor(faults=inj, retry_backoff=0.0),
            instrumentation=Instrumentation(telemetry=tel),
        )
        driver.run(max_rounds=5)
        assert tel.metrics.as_dict()["task.retries"]["value"] > 0


class _PoisonTarget:
    """Walker-shaped object for nan-poisoning tests."""

    def __init__(self):
        self.ln_g = np.zeros(8)
        self.energy = 0.0
        self.obs_tag = (0, None)


def _identity(walker):
    return walker


class TestSilentAndSlowFaults:
    """The PR-7 fault kinds: nan (silent corruption) and slow (delay)."""

    def test_parse_new_fields(self):
        cfg = parse_faults("nan=0.2,slow=0.1,slow_s=0.5,window=1")
        assert cfg.nan == 0.2 and cfg.slow == 0.1
        assert cfg.slow_s == 0.5 and cfg.window == 1

    def test_sum_includes_new_kinds(self):
        with pytest.raises(ValueError, match="nan \\+ slow"):
            FaultConfig(crash=0.5, nan=0.4, slow=0.3)

    def test_validation(self):
        with pytest.raises(ValueError, match="slow_s"):
            FaultConfig(slow_s=-1.0)
        with pytest.raises(ValueError, match="window"):
            FaultConfig(window=-2)

    def test_decisions(self):
        assert all(
            FaultInjector(FaultConfig(nan=1.0)).decide_task(k, 0) == "nan"
            for k in range(10)
        )
        assert all(
            FaultInjector(FaultConfig(slow=1.0)).decide_task(k, 0) == "slow"
            for k in range(10)
        )

    def test_slow_task_still_succeeds(self):
        inj = FaultInjector(FaultConfig(slow=1.0, slow_s=0.0, seed=0))
        target = _PoisonTarget()
        assert inj.wrap(_identity, 0, 0)(target) is target
        assert np.isfinite(target.ln_g).all() and target.energy == 0.0

    def test_nan_poisons_after_the_body_runs(self):
        """The task succeeds and returns — the corruption is silent."""
        inj = FaultInjector(FaultConfig(nan=1.0, seed=0))
        poisoned = [inj.wrap(_identity, key, 0)(_PoisonTarget())
                    for key in range(20)]
        assert all(
            not np.isfinite(w.ln_g).all() or not np.isfinite(w.energy)
            for w in poisoned
        )
        # The secondary mode draw exercises both corruption shapes.
        assert any(not np.isfinite(w.ln_g).all() for w in poisoned)
        assert any(not np.isfinite(w.energy) for w in poisoned)

    def test_nan_poison_is_deterministic(self):
        for key in range(10):
            a = FaultInjector(FaultConfig(nan=1.0, seed=3)).wrap(
                _identity, key, 0)(_PoisonTarget())
            b = FaultInjector(FaultConfig(nan=1.0, seed=3)).wrap(
                _identity, key, 0)(_PoisonTarget())
            assert np.array_equal(a.ln_g, b.ln_g, equal_nan=True)
            assert a.energy == b.energy or (
                np.isnan(a.energy) and np.isnan(b.energy)
            )

    def test_window_targeting(self):
        """Faults gated to window 1 leave other windows' walkers clean."""
        inj = FaultInjector(FaultConfig(crash=1.0, window=1, seed=0))
        safe = _PoisonTarget()  # obs_tag window 0
        assert inj.wrap(_identity, 0, 0)(safe) is safe
        hit = _PoisonTarget()
        hit.obs_tag = (1, None)
        with pytest.raises(InjectedCrash):
            inj.wrap(_identity, 0, 0)(hit)

    def test_window_targeting_untagged_is_safe(self):
        inj = FaultInjector(FaultConfig(crash=1.0, window=2, seed=0))
        assert inj.wrap(_double, 0, 0)(21) == 42  # no obs_tag -> no fault
