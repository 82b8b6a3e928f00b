"""Tests for the supervised walker executor and the experiment DoS cache
format."""

import os

import numpy as np
import pytest

from repro.obs import Telemetry
from repro.parallel import SerialExecutor


def _square(x, k=2):
    return x**k


class _FlakyTask:
    """Fail until a marker file says enough attempts happened.

    Attempt state lives on disk, outside the task object; each call appends
    one byte to the marker.
    """

    def __init__(self, marker, fail_times=1):
        self.marker = os.fspath(marker)
        self.fail_times = fail_times

    def _attempt(self) -> int:
        with open(self.marker, "ab") as f:
            f.write(b".")
            f.flush()
        return os.path.getsize(self.marker)

    def __call__(self, x):
        if self._attempt() <= self.fail_times:
            raise RuntimeError(f"flaky failure for {x}")
        return x**2


class TestSerialExecutor:
    def test_map(self):
        out = SerialExecutor().map(_square, [1, 2, 3])
        assert out == [1, 4, 9]

    def test_extra_args(self):
        out = SerialExecutor().map(_square, [2, 3], 3)
        assert out == [8, 27]

    def test_context_manager(self):
        with SerialExecutor() as ex:
            assert ex.map(_square, [4]) == [16]


class TestSupervision:
    """Per-task bounded retry with backoff."""

    @pytest.mark.parametrize("executor_cls", [SerialExecutor])
    def test_retry_recovers_flaky_task(self, tmp_path, executor_cls):
        task = _FlakyTask(tmp_path / "m", fail_times=2)
        with executor_cls(max_retries=3, retry_backoff=0.0) as ex:
            assert ex.map(task, [5]) == [25]

    def test_retries_exhausted_reraises_original_error(self, tmp_path):
        task = _FlakyTask(tmp_path / "m", fail_times=100)
        with pytest.raises(RuntimeError, match="flaky failure"):
            SerialExecutor(max_retries=2, retry_backoff=0.0).map(task, [5])

    def test_default_is_no_retry(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        task = _FlakyTask(tmp_path / "m", fail_times=1)
        with pytest.raises(RuntimeError, match="flaky failure"):
            SerialExecutor().map(task, [5])

    def test_retry_telemetry(self, tmp_path):
        tel = Telemetry()
        task = _FlakyTask(tmp_path / "m", fail_times=2)
        SerialExecutor(max_retries=3, retry_backoff=0.0, telemetry=tel).map(task, [5])
        assert tel.metrics.as_dict()["task.retries"]["value"] == 2

    def test_invalid_supervision_args(self):
        # A hung task in the calling process cannot be preempted, so the
        # executor takes no timeout at all.
        with pytest.raises(TypeError, match="timeout"):
            SerialExecutor(timeout=1.0)
        with pytest.raises(ValueError, match="max_retries"):
            SerialExecutor(max_retries=-1)
        with pytest.raises(ValueError, match="retry_backoff"):
            SerialExecutor(retry_backoff=-0.1)


class TestLifecycle:
    """close() is idempotent; telemetry binding respects explicit handles."""

    @pytest.mark.parametrize("executor_cls", [SerialExecutor])
    def test_close_is_idempotent(self, executor_cls):
        ex = executor_cls()
        ex.close()
        ex.close()  # second close must be a no-op, not an error

    def test_bind_telemetry_does_not_clobber_explicit_handle(self):
        tel = Telemetry()
        ex = SerialExecutor(telemetry=tel)
        ex.bind_telemetry(Telemetry())
        assert ex.obs is tel

    def test_bind_telemetry_adopts_driver_handle(self):
        ex = SerialExecutor()
        tel = Telemetry()
        ex.bind_telemetry(tel)
        assert ex.obs is tel


class TestHeaDosCache:
    def test_cache_round_trip(self, tmp_path, monkeypatch):
        """The on-disk DoS cache format loads back into an identical HeaDos."""
        import repro.experiments.e02_hea_dos as e02

        monkeypatch.setattr(e02, "results_dir", lambda: tmp_path)
        path = e02._cache_path(3, seed=7)
        path.parent.mkdir(parents=True, exist_ok=True)
        n_bins = 10
        ln_g = np.linspace(0.0, 20.0, n_bins)
        visited = np.ones(n_bins, dtype=bool)
        visited[0] = False
        np.savez(
            path, e_lo=-5.0, e_hi=5.0, n_bins=n_bins, ln_g=ln_g,
            visited=visited, span=20.0, steps=1234, rounds=7, residual=0.05,
            n_sites=54, converged=True,
        )
        dos = e02.load_or_run_hea_dos(3, seed=7)
        assert dos.grid.n_bins == n_bins
        assert dos.grid.e_min == -5.0 and dos.grid.e_max == 5.0
        assert np.allclose(dos.ln_g, ln_g)
        assert dos.visited.tolist() == visited.tolist()
        assert dos.steps == 1234 and dos.rounds == 7
        assert dos.converged
        # Convenience views exclude the unvisited bin.
        assert dos.energies.shape == (n_bins - 1,)
        assert np.allclose(dos.values, ln_g[1:])
