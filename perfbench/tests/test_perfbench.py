"""Tests of the benchmark itself: its checks, its output contract, its tracer.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import ab  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads as wl  # noqa: E402
from hea_reference import PARAMS, load_reference  # noqa: E402

from repro.dos.stitching import StitchedDoS  # noqa: E402
from repro.dos.thermo import log_multinomial  # noqa: E402
from repro.hamiltonians import NbMoTaWHamiltonian  # noqa: E402
from repro.lattice import bcc, equiatomic_counts, random_configuration  # noqa: E402
from repro.sampling import EnergyGrid  # noqa: E402


# ------------------------------------------------------------- contract


def test_printed_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(wl.WORKLOADS)
    assert spec["paths"] == ["perfbench"]


def test_refuses_repro_knobs(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE", "stderr")
    with pytest.raises(run.Refused, match="REPRO_TRACE"):
        run.check_environment()


def test_refuses_checkout_without_program(tmp_path):
    with pytest.raises(run.Refused, match="no program source"):
        run.check_environment(root=tmp_path)


def test_cli_exits_nonzero_without_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ising-tta",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout


def test_reference_with_other_parameters_is_refused(tmp_path):
    ref = json.loads((BENCH / "hea_reference.json").read_text())
    assert load_reference()["params"] == PARAMS
    ref["params"] = {**ref["params"], "chain_steps": 1}
    path = tmp_path / "ref.json"
    path.write_text(json.dumps(ref))
    with pytest.raises(ValueError, match="regenerate"):
        load_reference(path)


def test_campaign_list_is_a_function_of_the_arguments():
    ising = wl.WORKLOADS["ising-tta"]
    a = run.campaign_seeds(ising, 3, 15)
    assert a == run.campaign_seeds(ising, 3, 15)
    assert not set(a) & set(run.campaign_seeds(ising, 4, 15))
    assert len(run.campaign_seeds(wl.WORKLOADS["bcc432-fused"], 0, 1)) == 3


def test_time_cap_stops_a_slow_run_after_min_campaigns(monkeypatch):
    clock = iter(range(0, 1000, 5))
    monkeypatch.setattr(run.time, "perf_counter", lambda: next(clock))
    monkeypatch.setattr(run, "run_campaign",
                        lambda workload, seed, reference, tracer: wl.Campaign(seed))
    slow = SimpleNamespace(min_campaigns=2)
    # The clock advances 5 per reading: the third campaign would start at
    # 25 and, as long as the last (5), end at 30 > 1.08 * 25.
    ran = run.run_campaigns(slow, [0, 1, 2, 3], None, 25.0)
    assert [c.seed for c in ran] == [0, 1]
    ran = run.run_campaigns(SimpleNamespace(min_campaigns=3), [0, 1, 2, 3], None, 25.0)
    assert [c.seed for c in ran] == [0, 1, 2]


@pytest.mark.parametrize("scale, verdict", [
    (1.3, "A better"), (0.7, "B better"), (1.0, "unresolved")])
def test_ab_verdict_follows_the_nine_of_ten_rule(scale, verdict):
    base = [2.0, 2.1, 1.9, 2.05, 2.0, 2.2, 2.1, 1.95, 2.0, 2.02]
    a = [{"metrics": {"tta_s": {"value": v}}} for v in base]
    b = [{"metrics": {"tta_s": {"value": v * scale}}} for v in base]
    assert ab.summarize(a, b, {"tta_s": "lower"})["tta_s"]["verdict"] == verdict


# --------------------------------------------------------------- checks


def _stitched(grid: EnergyGrid, energies, ln_g) -> StitchedDoS:
    values = np.full(grid.n_bins, -np.inf)
    visited = np.zeros(grid.n_bins, dtype=bool)
    for e, v in zip(energies, ln_g):
        k = grid.index(e)
        values[k], visited[k] = v, True
    return StitchedDoS(grid=grid, ln_g=values, visited=visited,
                       joint_residuals=np.zeros(0))


def test_ising_check_passes_exact_and_fails_corrupted_dos():
    exact = wl.exact_ising_ln_g()
    levels = sorted(exact)
    grid = EnergyGrid.from_levels(np.array(levels))
    good = _stitched(grid, levels, [exact[e] for e in levels])
    err, _ = wl.check_ising(None, None, good, exact)
    assert err < 1e-12
    # A constant offset is not an error: ln g is known up to one.
    shifted = _stitched(grid, levels, [exact[e] + 7.0 for e in levels])
    assert wl.check_ising(None, None, shifted, exact)[0] < 1e-12
    # One degeneracy off by a factor of e^1.5 ≈ 4.5 fails.
    bad = [exact[e] for e in levels]
    bad[5] += 1.5
    with pytest.raises(wl.CheckFailed, match="at one level"):
        wl.check_ising(None, None, _stitched(grid, levels, bad), exact)
    with pytest.raises(wl.CheckFailed, match="spectrum"):
        wl.check_ising(None, None, _stitched(grid, levels[1:], bad[1:]), exact)


def test_committed_ising_levels_equal_the_enumeration():
    from repro.dos import exact_ising_dos_bruteforce

    levels, degeneracies = exact_ising_dos_bruteforce(4)
    data = json.loads(wl.ISING_EXACT_PATH.read_text())
    assert data["energies"] == [float(e) for e in levels]
    assert data["degeneracies"] == [int(d) for d in degeneracies]


def test_hea_check_fails_span_over_the_multinomial_bound():
    counts = equiatomic_counts(54, 4)
    problem = wl.Problem(driver=None, hamiltonian=None, counts=counts)
    grid = EnergyGrid.uniform(-20.0, 10.0, 32)
    energies = grid.centers
    bound = log_multinomial(counts)
    reference = load_reference()
    over = _stitched(grid, energies, np.linspace(0.0, 1.1 * bound, 32))
    with pytest.raises(wl.CheckFailed, match="exceeds ln multinomial"):
        wl.check_hea_tta(problem, None, over, reference)
    # Inside the bound but with the wrong shape: U(T) is far from WHAM.
    flat = _stitched(grid, energies, np.zeros(32))
    with pytest.raises(wl.CheckFailed, match="U\\(T\\)"):
        wl.check_hea_tta(problem, None, flat, reference)


def test_walker_check_fails_wrong_tracked_energy_and_composition():
    ham = NbMoTaWHamiltonian(bcc(3), n_shells=2)
    counts = equiatomic_counts(ham.n_sites, 4)
    config = random_configuration(ham.n_sites, counts, rng=0)
    walker = SimpleNamespace(config=config.copy(), energy=ham.energy(config))
    problem = wl.Problem(SimpleNamespace(walkers=[[walker]]), ham, counts)
    assert wl.check_walkers(problem, None, None, None)[0] <= wl.ENERGY_ATOL_EV
    walker.energy += 1e-3
    with pytest.raises(wl.CheckFailed, match="tracked energy"):
        wl.check_walkers(problem, None, None, None)
    other = config.copy()
    other[other == 0] = 1
    walker.config, walker.energy = other, ham.energy(other)
    with pytest.raises(wl.CheckFailed, match="composition"):
        wl.check_walkers(problem, None, None, None)


# --------------------------------------------------------------- tracer

COUNT_FIELDS = ("steps", "rounds", "iterations", "accepted", "proposals",
                "null_proposals", "exchange_attempts", "exchange_accepts")


def _small_hea(backend: str, walkers: int, dl: bool):
    """A few-second stand-in for the 54-site workloads (same code paths)."""
    from repro.nn import MADE, MADEConfig
    from repro.parallel import REWLConfig, REWLDriver
    from repro.proposals import MADEProposal, MixtureProposal, SwapProposal

    def build(seed, phase):
        with phase("hamiltonian"):
            ham = NbMoTaWHamiltonian(bcc(3), n_shells=2)
            counts = equiatomic_counts(ham.n_sites, 4)
        with phase("grid"):
            grid = EnergyGrid.uniform(-14.0, -2.0, 16)
        model = MADE(MADEConfig(ham.n_sites, 4, hidden=(16,)), rng=seed)

        def factory():
            if not dl:
                return SwapProposal()
            return MixtureProposal([(SwapProposal(), 0.7),
                                    (MADEProposal(model), 0.3)])

        with phase("driver"):
            driver = REWLDriver(
                hamiltonian=ham, proposal_factory=factory, grid=grid,
                initial_config=random_configuration(ham.n_sites, counts, rng=seed),
                config=REWLConfig(n_windows=2, walkers_per_window=walkers,
                                  backend=backend, exchange_interval=40,
                                  ln_f_final=wl.UNREACHABLE_LN_F, seed=seed),
            )
        return wl.Problem(driver, ham, counts)

    return wl.Workload(name="small", build=build, check=wl.check_walkers,
                       nominal_s=1.0, rounds=4)


@pytest.mark.parametrize("workload, hot", [
    (wl.WORKLOADS["ising-tta"],
     ("WangLandauSampler.step", "FlipProposal.propose", "ops.delta_flip")),
    (_small_hea("fused", 4, dl=False),
     ("BatchedWangLandauSampler.commit_batch", "SwapProposal.draw_fields",
      "ops.delta_swap_many")),
    (_small_hea("serial", 1, dl=True),
     ("MixtureProposal.propose", "MADE.sample", "MADE.logits")),
], ids=["ising-tta", "fused", "mixture-made"])
def test_traced_run_repeats_every_count(workload, hot):
    reference = run.prepare(workload)
    plain = run.run_campaign(workload, 5, reference)
    originals = {(owner, name): getattr(tracer_mod._resolve(owner), name)
                 for _, owner, names in tracer_mod.HOT_TARGETS for name in names}
    t = tracer_mod.Tracer()
    t.install()
    try:
        traced = run.run_campaign(workload, 5, reference, t)
    finally:
        t.uninstall()
    assert plain.error is None and traced.error is None, (plain.error, traced.error)
    for f in COUNT_FIELDS:
        assert getattr(plain, f) == getattr(traced, f), f
    assert plain.check_err == traced.check_err
    for (owner, name), original in originals.items():
        assert getattr(tracer_mod._resolve(owner), name) is original
    assert len(t.span_seconds("round")) == traced.rounds
    assert all(t.calls[name] > 0 for name in hot), dict(t.calls)
    assert (t.draws > 0) == ("MADE.sample" in hot)
    # Self times of the layers cover the traced rounds, no more.
    layers = ("kernels", "proposals", "nn", "sampling", "parallel",
              "driver_result")
    covered = sum(t.layer_self_s(x) for x in layers)
    assert covered == pytest.approx(sum(t.span_seconds("round")), rel=1e-6)


@pytest.mark.parametrize("trace, key", [(False, "end_to_end"), (True, "per_layer")])
def test_run_prints_every_metric_of_benchmark_json(monkeypatch, capsys, trace, key):
    spec = {m["name"]: m["unit"]
            for m in json.loads((ROOT / "BENCHMARK.json").read_text())[key]}
    monkeypatch.setitem(wl.WORKLOADS, "small", _small_hea("fused", 4, dl=False))
    result = run.measure("small", 0, 1.0, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 3 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    printed = capsys.readouterr().out
    for name, unit in spec.items():
        assert re.search(rf"^# {re.escape(name)} = \S+ {re.escape(unit)}$",
                         printed, re.M), name
