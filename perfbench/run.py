"""Time-to-accuracy benchmark for the REWL campaign stack.

Run from the repository root::

    python3 perfbench/run.py --workload ising-tta --seed 0 --seconds 60 --trace 0

A run executes a fixed list of campaigns, derived from ``--seed`` and sized
from ``--seconds``, one at a time, and checks each result; in a slow phase
of the machine a time cap may cut the list short.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` replays the first campaign
untraced, then runs the list with the outside-in tracer (``tracer.py``)
and reports the per-layer metrics, writing the spans to
``.perfbench/trace-<workload>-seed<seed>.json``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A campaign that raises or fails its check counts in
``failed`` and makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

# One campaign at a time on one core: at these matrix sizes a second BLAS
# thread only spins (MADE.sample(64) took 53 ms with two OpenBLAS threads
# and 35 ms with one on a 2-CPU VM) and makes the timings noisy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import MAX_ROUNDS, WORKLOADS, Campaign, CheckFailed, Phases  # noqa: E402

#: Never used while the benchmark was built or tuned.  A later claim of a
#: gain must also hold on this seed.
HELD_OUT_SEED = 7919

END_TO_END = {
    "tta_s": "s",
    "setup_s": "s",
    "walker_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "kernels.calls": "count",
    "kernels.rows": "count",
    "kernels.self_s": "s",
    "kernels.ns_per_row": "ns",
    "proposals.calls": "count",
    "proposals.self_s": "s",
    "proposals.null_frac": "fraction",
    "nn.forward_calls": "count",
    "nn.self_s": "s",
    "nn.valid_frac": "fraction",
    "sampling.self_s": "s",
    "sampling.steps_to_solution": "count",
    "sampling.iterations": "count",
    "sampling.accept_frac": "fraction",
    "parallel.rounds": "count",
    "parallel.round_s_p50": "s",
    "parallel.round_s_p95": "s",
    "parallel.self_s": "s",
    "parallel.exchange_accept_frac": "fraction",
    "setup.lattice_s": "s",
    "setup.hamiltonian_s": "s",
    "setup.grid_s": "s",
    "setup.driver_s": "s",
    "setup.pretrain_s": "s",
    "dos.stitch_s": "s",
    "dos.check_err": "check-unit",
    "dos.span_ratio": "ratio",
    "trace.overhead_frac": "fraction",
}


class Refused(Exception):
    """The benchmark cannot run here; it exits non-zero without a result."""


# ------------------------------------------------------------ environment


def check_environment(root: Path = ROOT) -> None:
    """Refuse observability/fault knobs and a checkout without the program."""
    knobs = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if knobs:
        raise Refused(f"unset {', '.join(knobs)}: the benchmark measures the "
                      "program with every REPRO_* knob off")
    if not (root / "src" / "repro" / "__init__.py").is_file():
        raise Refused(f"no program source under {root / 'src'}")


def import_program() -> None:
    """Put ``src/`` first on the path and check ``repro`` comes from it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise Refused(f"repro imported from {repro.__file__}, not {src}")


def fingerprint() -> dict:
    commit, dirty = "unknown", None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, capture_output=True, text=True, timeout=30,
                check=True,
            ).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": commit,
        "dirty": dirty,
        "held_out_seed": HELD_OUT_SEED,
    }


# -------------------------------------------------------------- campaigns


def prepare(workload) -> object:
    """What the workload's check compares against (not timed)."""
    if workload.reference is None:
        return None
    try:
        return workload.reference()
    except (OSError, ValueError) as exc:
        raise Refused(str(exc)) from exc


def _advance(driver, workload, tracer):
    limit = workload.rounds or MAX_ROUNDS
    if tracer is None:
        return driver.run(max_rounds=limit)
    while True:
        with tracer.span("round", "parallel"):
            result = driver.run(max_rounds=driver.rounds + 1)
        if result.converged or driver.rounds >= limit:
            return result


def run_campaign(workload, seed: int, reference, tracer=None) -> Campaign:
    """Set up one campaign, run it, and check it.  Never raises.

    ``tta_s`` runs from the constructed driver to the check's verdict, so
    a failed campaign still reports how long it took to fail.
    """
    c = Campaign(seed=seed)
    with (tracer.span("campaign", "campaign") if tracer is not None
          else nullcontext()):
        _run_campaign(c, workload, reference, tracer)
    return c


def _timed_build(workload, seed: int, phases: Phases):
    # Garbage left by the previous campaign is collected outside the clock,
    # so no timed span pays for another's collection.
    gc.collect()
    t0 = time.perf_counter()
    problem = workload.build(seed, phases)
    return problem, time.perf_counter() - t0


def _run_campaign(c: Campaign, workload, reference, tracer) -> None:
    t1 = None
    try:
        for _ in range(workload.setup_reps - 1):
            c.setup_samples.append(_timed_build(workload, c.seed, Phases())[1])
        phases = Phases(tracer)
        problem, c.setup_s = _timed_build(workload, c.seed, phases)
        c.setup_samples.append(c.setup_s)
        c.setup_phases = phases.seconds
        gc.collect()
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.valid_counts = problem.counts
            tracer.active = True
        result = _advance(problem.driver, workload, tracer)
        c.run_s = time.perf_counter() - t1
        stitched = None
        if workload.rounds is None:
            t2 = time.perf_counter()
            with (tracer.span("stitch", "dos") if tracer is not None
                  else nullcontext()):
                stitched = result.stitched()
            c.stitch_s = time.perf_counter() - t2
        if tracer is not None:
            tracer.active = False
        c.steps, c.rounds = result.total_steps, result.rounds
        c.iterations = int(sum(result.window_iterations))
        for w in result.walkers:
            c.accepted += w.counters.accepted
            c.proposals += w.counters.proposals
            c.null_proposals += w.counters.null_proposals
        c.exchange_attempts = int(result.exchange_attempts.sum())
        c.exchange_accepts = int(result.exchange_accepts.sum())
        if workload.rounds is None and not result.converged:
            raise CheckFailed(f"not converged after {result.rounds} rounds")
        c.check_err, c.span_ratio = workload.check(problem, result, stitched,
                                                   reference)
    except CheckFailed as exc:
        c.error = f"check failed: {exc}"
    except Exception as exc:  # a campaign that raises is a failed campaign
        c.error = f"{type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.active = False
        if t1 is not None:
            c.tta_s = time.perf_counter() - t1


def campaign_seeds(workload, seed: int, seconds: float) -> list[int]:
    return [seed * 1000 + i for i in range(workload.n_campaigns(seconds))]


#: A run stops starting campaigns once the next one, as long as the last,
#: would end past this multiple of ``--seconds``.  It only bites in a slow
#: phase of the machine and keeps a run's wall-clock bounded.
OVERRUN = 1.08


def run_campaigns(workload, seeds: list[int], reference, seconds: float,
                  tracer=None) -> list[Campaign]:
    """Run ``seeds`` in order, stopping early only at the time cap."""
    start = time.perf_counter()
    campaigns: list[Campaign] = []
    last = 0.0
    for s in seeds:
        now = time.perf_counter() - start
        if (len(campaigns) >= workload.min_campaigns
                and now + last > OVERRUN * seconds):
            print(f"# time cap: ran {len(campaigns)} of {len(seeds)} campaigns")
            break
        campaigns.append(run_campaign(workload, s, reference, tracer))
        last = time.perf_counter() - start - now
    return campaigns


# ---------------------------------------------------------------- metrics


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def _passing(campaigns: list[Campaign]) -> list[Campaign]:
    """Campaigns that passed, or all of them when none did."""
    return [c for c in campaigns if c.error is None] or campaigns


def end_to_end_metrics(campaigns: list[Campaign]) -> dict[str, float]:
    ok = _passing(campaigns)
    return {
        "tta_s": _median([c.tta_s for c in ok]),
        "setup_s": _median([t for c in campaigns for t in c.setup_samples]),
        "walker_steps_per_s": _ratio(sum(c.steps for c in ok),
                                     sum(c.run_s for c in ok)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(campaigns: list[Campaign], tracer,
                      untraced_first: Campaign) -> dict[str, float]:
    ok = _passing(campaigns)
    rounds = tracer.span_seconds("round")
    rows = tracer.rows
    kernels_s = tracer.layer_self_s("kernels")
    steps = sum(c.steps for c in campaigns)
    nulls = sum(c.null_proposals for c in campaigns)
    out = {
        "kernels.calls": tracer.layer_calls("kernels"),
        "kernels.rows": rows,
        "kernels.self_s": kernels_s,
        "kernels.ns_per_row": _ratio(kernels_s * 1e9, rows),
        "proposals.calls": tracer.layer_calls("proposals"),
        "proposals.self_s": tracer.layer_self_s("proposals"),
        "proposals.null_frac": _ratio(
            nulls, nulls + sum(c.proposals for c in campaigns)),
        "nn.forward_calls": tracer.calls.get("MADE.logits", 0),
        "nn.self_s": tracer.layer_self_s("nn"),
        "nn.valid_frac": _ratio(tracer.valid_draws, tracer.draws),
        "sampling.self_s": tracer.layer_self_s("sampling"),
        "sampling.steps_to_solution": _median([c.steps for c in campaigns]),
        "sampling.iterations": _median([c.iterations for c in campaigns]),
        "sampling.accept_frac": _ratio(sum(c.accepted for c in campaigns), steps),
        "parallel.rounds": sum(c.rounds for c in campaigns),
        "parallel.round_s_p50": float(np.percentile(rounds, 50)) if rounds else 0.0,
        "parallel.round_s_p95": float(np.percentile(rounds, 95)) if rounds else 0.0,
        "parallel.self_s": tracer.layer_self_s("parallel"),
        "parallel.exchange_accept_frac": _ratio(
            sum(c.exchange_accepts for c in campaigns),
            sum(c.exchange_attempts for c in campaigns)),
        "dos.stitch_s": _median([c.stitch_s for c in ok]),
        "dos.check_err": _median([c.check_err for c in ok]),
        "dos.span_ratio": _median([c.span_ratio for c in ok]),
        "trace.overhead_frac": _ratio(campaigns[0].tta_s, untraced_first.tta_s) - 1.0,
    }
    for phase in ("lattice", "hamiltonian", "grid", "driver", "pretrain"):
        out[f"setup.{phase}_s"] = _median(
            [c.setup_phases.get(phase, 0.0) for c in campaigns])
    return out


# ------------------------------------------------------------------- main


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="REWL time-to-accuracy benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object the CLI prints last."""
    workload = WORKLOADS[workload_name]
    reference = prepare(workload)
    seeds = campaign_seeds(workload, seed, seconds)
    info = {**fingerprint(), "workload": workload_name, "seed": seed,
            "campaign_seeds": seeds, "trace": trace}
    print("# fingerprint " + json.dumps(info))
    tracer = untraced_first = None
    if trace:
        from tracer import Tracer

        t0 = time.perf_counter()
        untraced_first = run_campaign(workload, seeds[0], reference)
        seconds -= time.perf_counter() - t0
        tracer = Tracer()
        tracer.install()
    try:
        campaigns = run_campaigns(workload, seeds, reference, seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    for c in campaigns:
        status = "ok" if c.error is None else f"FAILED ({c.error})"
        print(f"# campaign seed={c.seed} setup_s={c.setup_s:.4f} "
            f"tta_s={c.tta_s:.4f} steps={c.steps} rounds={c.rounds} "
            f"check_err={c.check_err:.4g} span_ratio={c.span_ratio:.4g} {status}")
    failed = sum(c.error is not None for c in campaigns)
    if trace:
        values, units = per_layer_metrics(campaigns, tracer, untraced_first), PER_LAYER
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{workload_name}-seed{seed}.json"
        path.write_text(json.dumps({
            "fingerprint": info, **tracer.dump(),
            "campaigns": [vars(c) for c in campaigns],
        }, indent=1))
        print(f"# trace written to {path.relative_to(ROOT)}")
    else:
        values, units = end_to_end_metrics(campaigns), END_TO_END
    for name, unit in units.items():
        print(f"# {name} = {values[name]:.6g} {unit}")
    print(f"# failed_frac = {failed / len(campaigns):.6g} ({failed}/{len(campaigns)})")
    return {
        "correct": failed == 0,
        "attempted": len(campaigns),
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        check_environment()
        import_program()
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except Refused as exc:
        print(f"perfbench: refused: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
