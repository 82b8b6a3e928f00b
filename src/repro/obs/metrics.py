"""Process-local metrics: counters, gauges, fixed-bucket histograms.

Walker state is pickled into checkpoints and, under ``backend="shm"``,
stepped in worker processes (:mod:`repro.parallel.fused`); anything
measured on a walker must therefore be (a) picklable and (b) *mergeable*,
so per-walker registries can be reduced across walkers, windows, and ranks
after the fact.  All three metric kinds here are plain-data and merge
associatively:

- :class:`Counter` — monotone integer, merged by addition,
- :class:`Gauge` — last-written float, merged right-biased (the right
  operand wins when it has ever been set),
- :class:`Histogram` — fixed bucket edges, merged bucket-wise; edges must
  match exactly (histograms are only mergeable within one schema).

Metrics optionally carry **labels** (``metrics.set("window.ln_f", v,
labels={"window": 3})``): same-name metrics with different label sets are
distinct series of one *family*, which is what the OpenMetrics exposition
(:mod:`repro.obs.promexport`) renders as ``name{window="3"}``.  A per-family
**cardinality guard** caps the number of distinct label sets
(``max_label_sets``): past the cap, new label sets are folded into a single
``other`` bucket (every label value replaced by ``"other"``) and a warning
fires once per family — so W·K per-walker labels cannot blow up exposition
size as campaigns scale.

Metrics never touch sampler state: values live in the registry only, so a
run with metrics enabled is bit-identical to one without (the determinism
guarantee tested in ``tests/test_obs_rewl.py``).
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass, field

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "merge_registries"]

#: Default per-family cap on distinct label sets (the cardinality guard).
DEFAULT_MAX_LABEL_SETS = 256


def _normalize_labels(labels) -> tuple:
    """Canonical label form: sorted tuple of ``(key, value)`` string pairs."""
    if not labels:
        return ()
    if isinstance(labels, tuple):
        return labels
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _series_key(name: str, labels: tuple) -> str:
    """Registry key for one series: ``name`` or ``name{k=v,...}``."""
    if not labels:
        return name
    return name + "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"

#: Default histogram bucket upper bounds (seconds-flavored, log-spaced).
DEFAULT_BUCKETS = (
    1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0, 600.0
)


@dataclass
class Counter:
    """Monotonically increasing integer metric."""

    name: str
    value: int = 0
    labels: tuple = ()

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {n})")
        self.value += n

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def as_dict(self) -> dict:
        out = {"kind": "counter", "value": self.value}
        if self.labels:
            out["name"] = self.name
            out["labels"] = dict(self.labels)
        return out


@dataclass
class Gauge:
    """Last-written float metric (e.g. current ln f, rolling loss)."""

    name: str
    value: float = 0.0
    updated: bool = False
    labels: tuple = ()

    def set(self, value: float) -> None:
        self.value = float(value)
        self.updated = True

    def merge(self, other: "Gauge") -> None:
        # Right-biased: the most recently merged writer wins.  Associative
        # (though not commutative), which is what executor reduction needs.
        if other.updated:
            self.value = other.value
        self.updated = self.updated or other.updated

    def as_dict(self) -> dict:
        out = {"kind": "gauge", "value": self.value, "updated": self.updated}
        if self.labels:
            out["name"] = self.name
            out["labels"] = dict(self.labels)
        return out


@dataclass
class Histogram:
    """Fixed-bucket histogram with count/sum/min/max summary statistics.

    ``buckets`` are upper bounds; an implicit +inf bucket catches overflow.
    """

    name: str
    buckets: tuple = DEFAULT_BUCKETS
    counts: list = field(default_factory=list)
    count: int = 0
    sum: float = 0.0
    min: float = math.inf
    max: float = -math.inf
    labels: tuple = ()

    def __post_init__(self):
        self.buckets = tuple(float(b) for b in self.buckets)
        if list(self.buckets) != sorted(set(self.buckets)):
            raise ValueError(f"histogram {self.name!r} buckets must be strictly increasing")
        if not self.counts:
            self.counts = [0] * (len(self.buckets) + 1)
        elif len(self.counts) != len(self.buckets) + 1:
            raise ValueError(
                f"histogram {self.name!r}: {len(self.counts)} counts for "
                f"{len(self.buckets)} buckets"
            )

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        if other.buckets != self.buckets:
            raise ValueError(
                f"histogram {self.name!r}: cannot merge mismatched buckets "
                f"{other.buckets} into {self.buckets}"
            )
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def as_dict(self) -> dict:
        out = {
            "kind": "histogram",
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": None if self.count == 0 else self.min,
            "max": None if self.count == 0 else self.max,
        }
        if self.labels:
            out["name"] = self.name
            out["labels"] = dict(self.labels)
        return out


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Named collection of metrics; picklable and mergeable.

    Metric kinds are fixed at first registration: asking for an existing
    name with a different kind raises ``TypeError`` (silent kind morphing
    would make merges undefined).

    ``max_label_sets`` caps the distinct label sets per metric family; the
    cap applies on direct registration and on merge, so a reduction over
    thousands of per-walker registries stays bounded too.
    """

    def __init__(self, max_label_sets: int = DEFAULT_MAX_LABEL_SETS):
        if int(max_label_sets) < 1:
            raise ValueError(
                f"max_label_sets must be >= 1, got {max_label_sets!r}"
            )
        self.max_label_sets = int(max_label_sets)
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._label_sets: dict[str, set] = {}
        self._overflowed: set[str] = set()

    # ------------------------------------------------------------ creation

    def _guard_labels(self, name: str, labels: tuple) -> tuple:
        """Apply the cardinality guard: past the cap, fold into ``other``."""
        if not labels:
            return labels
        seen = self._label_sets.setdefault(name, set())
        if labels in seen or len(seen) < self.max_label_sets:
            seen.add(labels)
            return labels
        if name not in self._overflowed:
            self._overflowed.add(name)
            warnings.warn(
                f"metric family {name!r} exceeded {self.max_label_sets} "
                f"label sets; further series aggregate into an 'other' "
                f"bucket (raise MetricsRegistry(max_label_sets=...) if the "
                f"cardinality is intended)",
                RuntimeWarning,
                stacklevel=4,
            )
        return tuple((k, "other") for k, _ in labels)

    def _get(self, name: str, cls, labels=None, **kwargs):
        labels = self._guard_labels(name, _normalize_labels(labels))
        key = _series_key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name=name, labels=labels, **kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {key!r} is a {type(metric).__name__}, "
                f"not a {cls.__name__}"
            )
        return metric

    def counter(self, name: str, labels=None) -> Counter:
        return self._get(name, Counter, labels=labels)

    def gauge(self, name: str, labels=None) -> Gauge:
        return self._get(name, Gauge, labels=labels)

    def histogram(self, name: str, buckets=DEFAULT_BUCKETS,
                  labels=None) -> Histogram:
        return self._get(name, Histogram, labels=labels,
                         buckets=tuple(buckets))

    # --------------------------------------------------------- convenience

    def inc(self, name: str, n: int = 1, labels=None) -> None:
        self.counter(name, labels=labels).inc(n)

    def set(self, name: str, value: float, labels=None) -> None:
        self.gauge(name, labels=labels).set(value)

    def observe(self, name: str, value: float, buckets=DEFAULT_BUCKETS,
                labels=None) -> None:
        self.histogram(name, buckets, labels=labels).observe(value)

    # ------------------------------------------------------------ plumbing

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __getitem__(self, name: str):
        return self._metrics[name]

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry (in place); returns ``self``.

        Labeled series merge family-wise through the cardinality guard, so
        reducing many per-walker registries cannot exceed the cap either.
        """
        for key in other.names():
            theirs = other._metrics[key]
            mine = self._metrics.get(_series_key(
                theirs.name, self._guard_labels(theirs.name, theirs.labels)
            ))
            if mine is None:
                # Re-register a same-kind copy so later merges stay isolated.
                mine = self._get(
                    theirs.name, type(theirs), labels=theirs.labels,
                    **({"buckets": theirs.buckets} if isinstance(theirs, Histogram) else {}),
                )
            elif type(mine) is not type(theirs):
                raise TypeError(
                    f"metric {key!r}: cannot merge {type(theirs).__name__} "
                    f"into {type(mine).__name__}"
                )
            mine.merge(theirs)
        return self

    def as_dict(self) -> dict[str, dict]:
        return {name: self._metrics[name].as_dict() for name in self.names()}

    @classmethod
    def from_dict(cls, payload: dict[str, dict]) -> "MetricsRegistry":
        reg = cls()
        for key, entry in payload.items():
            kind = entry.get("kind")
            # Labeled entries carry their family name + labels explicitly
            # (the payload key is the composed series key).
            name = entry.get("name", key)
            labels = entry.get("labels") or None
            if kind == "counter":
                reg.counter(name, labels=labels).value = int(entry["value"])
            elif kind == "gauge":
                g = reg.gauge(name, labels=labels)
                g.value = float(entry["value"])
                g.updated = bool(entry.get("updated", True))
            elif kind == "histogram":
                h = reg.histogram(name, tuple(entry["buckets"]), labels=labels)
                h.counts = [int(c) for c in entry["counts"]]
                h.count = int(entry["count"])
                h.sum = float(entry["sum"])
                h.min = math.inf if entry.get("min") is None else float(entry["min"])
                h.max = -math.inf if entry.get("max") is None else float(entry["max"])
            else:
                raise ValueError(f"unknown metric kind {kind!r} for {key!r}")
        return reg


def merge_registries(registries) -> MetricsRegistry:
    """Reduce an iterable of registries into a fresh one (left to right)."""
    out = MetricsRegistry()
    for reg in registries:
        out.merge(reg)
    return out
