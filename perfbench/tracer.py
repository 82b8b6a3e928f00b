"""Outside-in tracer for the benchmark's traced runs.

The program itself is not instrumented.  Instead this module wraps public
functions of each layer at their module or class attribute for the
duration of a traced run, and restores the originals afterwards:

- **spans** (campaign rounds, set-up phases, the stitch) record
  ``(name, start, end, parent)`` and are kept in memory until the run
  writes them out;
- **hot calls** (ΔE kernels, proposal draws, WL steps, network forwards),
  which take microseconds each, record only a call count and summed time.

Every span and hot call belongs to a layer.  A layer's self time is the
time spent inside it minus the time its children in *other* layers
cover; a call nested in a call of the same layer (a mixture proposal
delegating to its swap component) counts as a call but opens no new frame,
so no time is counted twice.  Hot calls are timed only while ``active`` is
set, so set-up work (the annealed grid's swap chain, MADE pretraining)
stays out of the campaign layers.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (layer, dotted attribute owner, attribute names); owners are resolved
# lazily so importing this module imports nothing from the program.
HOT_TARGETS = (
    ("kernels", "repro.kernels.ops", (
        "energy", "energies", "delta_swap", "delta_flip",
        "delta_swap_alternatives", "delta_flip_alternatives",
        "delta_swap_many", "delta_flip_many",
    )),
    ("proposals", "repro.proposals.SwapProposal",
     ("propose", "propose_many", "draw_fields")),
    ("proposals", "repro.proposals.FlipProposal",
     ("propose", "propose_many", "draw_fields")),
    ("proposals", "repro.proposals.MixtureProposal", ("propose", "propose_many")),
    ("proposals", "repro.proposals.MADEProposal", ("propose", "propose_many")),
    ("nn", "repro.nn.MADE", ("sample", "log_prob", "logits")),
    ("sampling", "repro.sampling.WangLandauSampler", ("step",)),
    ("sampling", "repro.sampling.batched.BatchedWangLandauSampler",
     ("step_batch", "commit_batch")),
    # A traced run calls run() once per round, and each call ends in
    # result(); its own layer keeps that bookkeeping out of parallel.self_s.
    ("driver_result", "repro.parallel.REWLDriver", ("result",)),
)

# Kernel row counts: the batched kernels price one row per index entry.
_ROW_ARG = {
    "energies": 1, "delta_swap_alternatives": 2, "delta_flip_alternatives": 2,
    "delta_swap_many": 2, "delta_flip_many": 2,
}


def _resolve(dotted: str):
    import importlib

    module, _, attr = dotted.rpartition(".")
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        return getattr(importlib.import_module(module), attr)


class Tracer:
    """Spans, hot-call counters and per-layer self time for one traced run.

    ``valid_counts`` (a species-count vector, set per campaign) turns on
    the composition check of MADE draws behind ``nn.valid_frac``.
    """

    def __init__(self):
        self.active = False
        self.spans: list[tuple[str, float, float, int]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.entries: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.rows = 0
        self.draws = 0
        self.valid_draws = 0
        self.valid_counts = None
        self._stack: list[list] = [["root", 0.0, -1]]
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ frames

    def _push(self, layer: str, span_index: int = -1) -> list | None:
        if self._stack[-1][0] == layer:
            return None
        frame = [layer, 0.0, span_index]
        self._stack.append(frame)
        return frame

    def _pop(self, frame: list | None, dt: float) -> None:
        if frame is None:
            return
        self._stack.pop()
        self.self_s[frame[0]] += dt - frame[1]
        self.entries[frame[0]] += 1
        self._stack[-1][1] += dt

    @contextmanager
    def span(self, name: str, layer: str):
        """Record one span of ``layer``; nests under the innermost span."""
        parent = next(
            (f[2] for f in reversed(self._stack) if f[2] >= 0), -1
        )
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        frame = self._push(layer, index)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.spans[index] = (name, t0, t1, parent)
            self._pop(frame, t1 - t0)

    def span_seconds(self, name: str) -> list[float]:
        return [t1 - t0 for n, t0, t1, _ in self.spans if n == name]

    # --------------------------------------------------------- hot calls

    def _wrap(self, layer: str, qualname: str, fn):
        tracer = self
        row_arg = _ROW_ARG.get(fn.__name__) if layer == "kernels" else None
        is_sample = qualname == "MADE.sample"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.calls[qualname] += 1
            if layer == "kernels":
                tracer.rows += 1 if row_arg is None else len(args[row_arg])
            frame = tracer._push(layer)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._pop(frame, time.perf_counter() - t0)
            if is_sample:
                tracer._note_draws(out)
            return out

        return wrapper

    def _note_draws(self, out) -> None:
        configs = out[0] if isinstance(out, tuple) else out
        self.draws += len(configs)
        if self.valid_counts is not None:
            k = len(self.valid_counts)
            counts = np.stack([np.bincount(c, minlength=k) for c in configs])
            self.valid_draws += int((counts == self.valid_counts).all(axis=1).sum())

    def install(self) -> None:
        """Wrap every hot target in place (idempotent per tracer)."""
        if self._saved:
            return
        for layer, dotted, names in HOT_TARGETS:
            owner = _resolve(dotted)
            label = dotted.rpartition(".")[2]
            for attr in names:
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr,
                        self._wrap(layer, f"{label}.{attr}", original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # ----------------------------------------------------------- output

    def layer_self_s(self, layer: str) -> float:
        return float(self.self_s.get(layer, 0.0))

    def layer_calls(self, layer: str) -> int:
        return int(self.entries.get(layer, 0))

    def dump(self) -> dict:
        """Plain-data view for the trace file (spans relative to the first)."""
        t_ref = self.spans[0][1] if self.spans else 0.0
        return {
            "spans": [
                {"name": n, "start": t0 - t_ref, "end": t1 - t_ref, "parent": p}
                for n, t0, t1, p in self.spans
            ],
            "calls": dict(self.calls),
            "layer_entries": dict(self.entries),
            "layer_self_s": dict(self.self_s),
        }
