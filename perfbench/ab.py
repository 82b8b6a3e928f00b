"""Interleaved A/B runs of the benchmark on two checkouts.

    python3 perfbench/ab.py --workload ising-tta --pairs 10 A B

``A`` and ``B`` are checkout roots, each holding the program under ``src/``
and an identical copy of this ``perfbench/`` directory (the script refuses
copies that differ).  Pair ``i`` runs both sides on seed ``--seed + i``; A
runs first in even pairs and B first in odd ones, so slow drift of the
machine falls on both sides alike.  ``--seconds`` defaults to
``run_seconds`` of ``BENCHMARK.json``.  For every end-to-end metric it prints
each side's median and quartiles, the pairs each side won, and a verdict by
the rule a claimed difference must meet: one side wins at least nine tenths
of the pairs (ties count for neither), and the medians differ by more than
A's own quartile spread.  Otherwise the metric is unresolved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_FILES = ("run.py", "workloads.py", "tracer.py", "hea_reference.py",
               "hea_reference.json")


def _same_benchmark(a: Path, b: Path) -> bool:
    return all((a / "perfbench" / f).read_bytes() == (b / "perfbench" / f).read_bytes()
               for f in BENCH_FILES)


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=900,
    )
    if out.returncode != 0:
        raise RuntimeError(f"{root}: exit {out.returncode}: {out.stderr.strip()}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(a_runs: list[dict], b_runs: list[dict], better: dict) -> dict:
    """Per metric: each side's median and quartiles, wins, and the verdict."""
    summary = {}
    for name, direction in better.items():
        a = [r["metrics"][name]["value"] for r in a_runs]
        b = [r["metrics"][name]["value"] for r in b_runs]
        qa, qb = statistics.quantiles(a, n=4), statistics.quantiles(b, n=4)
        sign = 1.0 if direction == "lower" else -1.0
        b_wins = sum(sign * (x - y) > 0 for x, y in zip(a, b))
        a_wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        med_a, med_b = statistics.median(a), statistics.median(b)
        gap, a_spread = sign * (med_a - med_b), qa[2] - qa[0]
        if b_wins >= 0.9 * len(a) and gap > a_spread:
            verdict = "B better"
        elif a_wins >= 0.9 * len(a) and -gap > a_spread:
            verdict = "A better"
        else:
            verdict = "unresolved"
        summary[name] = {
            "a_median": med_a, "a_quartiles": [qa[0], qa[2]],
            "b_median": med_b, "b_quartiles": [qb[0], qb[2]],
            "b_over_a": med_b / med_a, "a_wins": a_wins, "b_wins": b_wins,
            "pairs": len(a), "verdict": verdict,
        }
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    if not _same_benchmark(args.a, args.b):
        print("ab: the two checkouts hold different benchmark code", file=sys.stderr)
        return 2
    spec = json.loads((args.a / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    runs = {"a": [], "b": []}
    for i in range(args.pairs):
        order = ("a", "b") if i % 2 == 0 else ("b", "a")
        for side in order:
            res = run_once(getattr(args, side), args.workload, args.seed + i,
                           seconds)
            runs[side].append(res)
            values = {k: round(v["value"], 5) for k, v in res["metrics"].items()}
            print(f"pair {i} {side} correct={res['correct']} {values}", flush=True)
    summary = summarize(runs["a"], runs["b"], better)
    for name, s in summary.items():
        print(f"{name}: A {s['a_median']:.6g} {s['a_quartiles']} | "
              f"B {s['b_median']:.6g} {s['b_quartiles']} | B/A {s['b_over_a']:.3f} "
              f"| wins A {s['a_wins']} B {s['b_wins']} of {s['pairs']} | {s['verdict']}")
    print(json.dumps({"workload": args.workload, "summary": summary}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
