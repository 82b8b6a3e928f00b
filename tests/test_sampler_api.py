"""The unified Sampler API: WLConfig, keyword-only constructors, registry.

Covers the api_redesign migration contract:

- :class:`WLConfig` validates its fields and merges overrides;
- the retired positional and ``config=<ndarray>`` shims (one deprecation
  release has elapsed) now raise ``TypeError`` with a pointer to the
  keyword spelling;
- the driver's retired per-field observability keywords raise
  ``TypeError``; observability travels in one
  :class:`~repro.obs.Instrumentation`;
- every sampler satisfies the structural :class:`Sampler` protocol and is
  reachable through the :data:`SAMPLERS` registry;
- the repo itself is clean of deprecated-path uses (``repro tools
  lint-api``).
"""

import numpy as np
import pytest

from repro.hamiltonians import IsingHamiltonian
from repro.lattice import square_lattice
from repro.parallel import REWLConfig, REWLDriver
from repro.proposals import FlipProposal
from repro.sampling import (
    SAMPLERS,
    BatchedWangLandauSampler,
    EnergyGrid,
    MetropolisSampler,
    MulticanonicalSampler,
    ParallelTempering,
    Sampler,
    WangLandauSampler,
    WLConfig,
    WolffSampler,
    get_sampler,
    make_sampler,
    register_sampler,
)


@pytest.fixture
def ham():
    return IsingHamiltonian(square_lattice(4))


@pytest.fixture
def grid(ham):
    return EnergyGrid.from_levels(ham.energy_levels())


def wl_kwargs(ham, grid, **extra):
    base = dict(
        hamiltonian=ham, proposal=FlipProposal(), grid=grid,
        initial_config=np.zeros(16, dtype=np.int8), rng=0,
    )
    base.update(extra)
    return base


class TestWLConfig:
    def test_defaults(self):
        cfg = WLConfig()
        assert cfg.ln_f_init == 1.0
        assert cfg.ln_f_final == 1e-6
        assert cfg.flatness == 0.8
        assert cfg.schedule == "halving"
        assert cfg.batch_size == 1

    @pytest.mark.parametrize("bad", [
        dict(ln_f_init=0.0),
        dict(ln_f_final=0.0),
        dict(ln_f_init=1e-8, ln_f_final=1e-6),
        dict(flatness=0.0),
        dict(flatness=1.5),
        dict(schedule="linear"),
        dict(check_interval=0),
        dict(batch_size=0),
    ])
    def test_validation_rejects(self, bad):
        with pytest.raises(ValueError):
            WLConfig(**bad)

    def test_with_overrides_drops_nones(self):
        cfg = WLConfig(ln_f_final=1e-4)
        out = cfg.with_overrides(flatness=0.7, check_interval=None)
        assert out.flatness == 0.7
        assert out.ln_f_final == 1e-4
        assert out.check_interval is cfg.check_interval

    def test_frozen(self):
        with pytest.raises(AttributeError):
            WLConfig().flatness = 0.5


class TestRetiredConstruction:
    def test_positional_raises(self, ham, grid):
        with pytest.raises(TypeError, match="keyword arguments only"):
            WangLandauSampler(ham, FlipProposal(), grid,
                              np.zeros(16, dtype=np.int8), 0)

    def test_config_array_kwarg_raises(self, ham, grid):
        with pytest.raises(TypeError, match="initial_config"):
            WangLandauSampler(
                hamiltonian=ham, proposal=FlipProposal(), grid=grid,
                config=np.zeros(16, dtype=np.int8), rng=0,
            )

    def test_unknown_kwarg_raises(self, ham, grid):
        with pytest.raises(TypeError, match="unexpected"):
            WangLandauSampler(**wl_kwargs(ham, grid), wibble=3)

    def test_missing_required_raises(self, ham):
        with pytest.raises(TypeError, match="missing"):
            WangLandauSampler(hamiltonian=ham)

    def test_loose_tuning_kwargs_fold_into_config(self, ham, grid):
        wl = WangLandauSampler(**wl_kwargs(
            ham, grid, ln_f_final=1e-3, flatness=0.65, schedule="one_over_t",
        ))
        assert wl.cfg.ln_f_final == 1e-3
        assert wl.cfg.flatness == 0.65
        assert wl.cfg.schedule == "one_over_t"

    def test_rewl_positional_raises(self, ham, grid):
        cfg = REWLConfig(n_windows=2, walkers_per_window=1,
                         exchange_interval=100, seed=0)
        with pytest.raises(TypeError):
            REWLDriver(ham, lambda: FlipProposal(), grid,
                       np.zeros(16, dtype=np.int8), cfg)


class TestInstrumentationBundle:
    def test_per_field_keywords_raise(self, ham, grid):
        """The retired per-field observability keywords are rejected."""
        from repro.obs import Telemetry

        cfg = REWLConfig(n_windows=2, walkers_per_window=1,
                         exchange_interval=100, seed=0)
        with pytest.raises(TypeError, match="telemetry"):
            REWLDriver(
                hamiltonian=ham, proposal_factory=FlipProposal, grid=grid,
                initial_config=np.zeros(16, dtype=np.int8), config=cfg,
                telemetry=Telemetry(),
            )

    def test_bundle_fields_reach_driver(self, ham, grid):
        from repro.obs import Instrumentation, Telemetry
        from repro.obs.profile import SectionProfiler

        cfg = REWLConfig(n_windows=2, walkers_per_window=1,
                         exchange_interval=100, seed=0)
        obs = Telemetry()
        prof = SectionProfiler(sample_every=4)
        drv = REWLDriver(
            hamiltonian=ham, proposal_factory=FlipProposal, grid=grid,
            initial_config=np.zeros(16, dtype=np.int8), config=cfg,
            instrumentation=Instrumentation(telemetry=obs, profiler=prof),
        )
        assert drv.obs is obs
        assert drv.profiler is prof


class TestSamplerProtocol:
    def test_all_samplers_satisfy_protocol(self):
        for cls in (MetropolisSampler, WangLandauSampler,
                    BatchedWangLandauSampler, MulticanonicalSampler,
                    ParallelTempering, WolffSampler):
            assert issubclass(cls, Sampler)

    def test_instance_check(self, ham, grid):
        wl = WangLandauSampler(**wl_kwargs(ham, grid))
        assert isinstance(wl, Sampler)

    def test_non_sampler_rejected(self):
        class NotASampler:
            pass

        assert not isinstance(NotASampler(), Sampler)


class TestRegistry:
    def test_known_names(self):
        for name in ("metropolis", "wang_landau", "batched_wang_landau",
                     "multicanonical", "tempering", "wolff"):
            assert name in SAMPLERS

    def test_get_sampler(self):
        assert get_sampler("wang_landau") is WangLandauSampler

    def test_unknown_name_lists_registered(self):
        with pytest.raises(KeyError, match="registered"):
            get_sampler("quantum_annealing")

    def test_make_sampler(self, ham, grid):
        wl = make_sampler("wang_landau", **wl_kwargs(ham, grid))
        assert type(wl) is WangLandauSampler

    def test_register_rejects_runless_class(self):
        with pytest.raises(TypeError, match="protocol"):
            register_sampler("bogus")(object)

    def test_register_rejects_duplicate_name(self):
        with pytest.raises(ValueError, match="already registered"):
            register_sampler("wang_landau")(MetropolisSampler)


class TestLintApi:
    def test_repo_is_clean(self):
        from pathlib import Path

        from repro.tools.lint import lint_api

        root = Path(__file__).resolve().parent.parent
        assert lint_api(root) == []

    def test_lint_flags_deprecated_use(self, tmp_path):
        from repro.tools.lint import lint_api

        src = tmp_path / "src"
        src.mkdir()
        (src / "bad.py").write_text(
            "from repro.util.timers import Timer\n"       # lint-api: allow
            "x = ham.energy_batch(cfgs)\n"                # lint-api: allow
            "y = ham.energy_batch(cfgs)  # lint-api: allow\n"
        )
        hits = lint_api(tmp_path)
        assert len(hits) == 2
        assert {h[1] for h in hits} == {1, 2}  # line 3 opted out
