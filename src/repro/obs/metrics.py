"""Counters, gauges and latency histograms with Prometheus text export.

Stdlib-only.  Each instrument family owns one lock ("lock per shard"):
observations touch only their family's lock, never a registry-wide one,
so concurrent request handlers contend only when they update the same
instrument.  Histograms use fixed log-spaced bucket bounds
(:func:`log_buckets`), which keeps ``observe()`` to a ``bisect`` plus
two adds and renders directly as Prometheus cumulative ``_bucket``
samples.

The registry is an instance, not module state: every
``AllocationService`` builds its own, so tests and embedded servers
never fight over metric names.  :func:`validate_prometheus_text` is the
shared exposition-format checker used by the tests and the CI obs-smoke
load generator.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Any, Iterable, Mapping, Sequence

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def log_buckets(start: float = 1e-5, factor: float = 2.0, count: int = 24) -> tuple[float, ...]:
    """Log-spaced histogram bounds: ``start * factor**i`` for i < count.

    The default spans 10 us .. ~84 s at 2x resolution -- wide enough for
    a 35 us warm cache hit and a two-minute exact solve in one family.
    """
    if start <= 0 or factor <= 1.0 or count <= 0:
        raise ValueError("log_buckets needs start > 0, factor > 1, count > 0")
    return tuple(start * factor**i for i in range(count))


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if value != value:  # NaN
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')


def _render_labels(names: Sequence[str], values: Sequence[str], extra: str = "") -> str:
    parts = [f'{name}="{_escape_label_value(value)}"' for name, value in zip(names, values)]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class _Family:
    """Base for instrument families: name, help text, label names, children."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str, label_names: Sequence[str] = ()):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name: {name!r}")
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name: {label!r}")
        self.name = name
        self.help_text = help_text
        self.label_names = tuple(label_names)
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], Any] = {}

    def labels(self, **label_values: Any):
        """The child instrument for one label-value combination."""
        if set(label_values) != set(self.label_names):
            raise ValueError(
                f"{self.name}: expected labels {self.label_names}, got {tuple(label_values)}"
            )
        key = tuple(str(label_values[name]) for name in self.label_names)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                self._children[key] = child
            return child

    def _child_items(self) -> list[tuple[tuple[str, ...], Any]]:
        with self._lock:
            return sorted(self._children.items())

    def _make_child(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def _default_child(self):
        """The unlabelled child (only valid when the family has no labels)."""
        if self.label_names:
            raise ValueError(f"{self.name} is labelled; call .labels(...) first")
        with self._lock:
            child = self._children.get(())
            if child is None:
                child = self._make_child()
                self._children[()] = child
            return child

    def render(self) -> list[str]:
        lines = [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} {self.kind}",
        ]
        for key, child in self._child_items():
            lines.extend(child.render_samples(self.name, self.label_names, key))
        return lines


class _CounterChild:
    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    def mirror(self, total: float) -> None:
        """Take the value of a monotone count kept elsewhere (sampled at
        scrape time); a reset of that count reads as a counter reset."""
        with self._lock:
            self._value = float(total)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def render_samples(self, name: str, label_names, label_values) -> list[str]:
        labels = _render_labels(label_names, label_values)
        return [f"{name}{labels} {_format_value(self.value)}"]


class Counter(_Family):
    """Monotone counter family (optionally labelled)."""

    kind = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    @property
    def value(self) -> float:
        return self._default_child().value


class _GaugeChild:
    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def render_samples(self, name: str, label_names, label_values) -> list[str]:
        labels = _render_labels(label_names, label_values)
        return [f"{name}{labels} {_format_value(self.value)}"]


class Gauge(_Family):
    """Settable gauge family (optionally labelled)."""

    kind = "gauge"

    def _make_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default_child().dec(amount)

    @property
    def value(self) -> float:
        return self._default_child().value


class _HistogramChild:
    __slots__ = ("_lock", "_bounds", "_counts", "_sum", "_count")

    def __init__(self, bounds: tuple[float, ...]):
        self._lock = threading.Lock()
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot is +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = bisect_left(self._bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    def snapshot(self) -> tuple[list[int], float, int]:
        with self._lock:
            return list(self._counts), self._sum, self._count

    def render_samples(self, name: str, label_names, label_values) -> list[str]:
        counts, total, count = self.snapshot()
        lines: list[str] = []
        cumulative = 0
        for bound, bucket_count in zip(self._bounds, counts):
            cumulative += bucket_count
            labels = _render_labels(label_names, label_values, f'le="{_format_value(bound)}"')
            lines.append(f"{name}_bucket{labels} {cumulative}")
        labels = _render_labels(label_names, label_values, 'le="+Inf"')
        lines.append(f"{name}_bucket{labels} {count}")
        plain = _render_labels(label_names, label_values)
        lines.append(f"{name}_sum{plain} {repr(float(total))}")
        lines.append(f"{name}_count{plain} {count}")
        return lines


class Histogram(_Family):
    """Latency histogram family with fixed (log-spaced) bucket bounds."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        buckets: Sequence[float] | None = None,
        label_names: Sequence[str] = (),
    ):
        super().__init__(name, help_text, label_names)
        bounds = tuple(float(b) for b in (buckets if buckets is not None else log_buckets()))
        if not bounds or any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ValueError("histogram buckets must be non-empty and strictly increasing")
        self.bounds = bounds

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self.bounds)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    @property
    def count(self) -> int:
        return self._default_child().snapshot()[2]

    @property
    def sum(self) -> float:
        return self._default_child().snapshot()[1]


class MetricsRegistry:
    """Named instruments plus the Prometheus text renderer.

    ``counter``/``gauge``/``histogram`` are get-or-create: registering an
    existing name returns the existing family (and raises if the kind or
    labels disagree), so instrumentation sites can declare their
    instruments idempotently.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}

    def _register(self, family: _Family) -> _Family:
        with self._lock:
            existing = self._families.get(family.name)
            if existing is not None:
                if type(existing) is not type(family) or existing.label_names != family.label_names:
                    raise ValueError(
                        f"metric {family.name!r} already registered with a different "
                        f"kind or label set"
                    )
                return existing
            self._families[family.name] = family
            return family

    def counter(self, name: str, help_text: str, label_names: Sequence[str] = ()) -> Counter:
        return self._register(Counter(name, help_text, label_names))  # type: ignore[return-value]

    def gauge(self, name: str, help_text: str, label_names: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge(name, help_text, label_names))  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help_text: str,
        buckets: Sequence[float] | None = None,
        label_names: Sequence[str] = (),
    ) -> Histogram:
        return self._register(Histogram(name, help_text, buckets, label_names))  # type: ignore[return-value]

    def get(self, name: str) -> _Family | None:
        with self._lock:
            return self._families.get(name)

    def families(self) -> list[_Family]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def render_prometheus(self) -> str:
        """The registry as Prometheus text exposition format 0.0.4."""
        lines: list[str] = []
        for family in self.families():
            lines.extend(family.render())
        return "\n".join(lines) + ("\n" if lines else "")


class MemoMetrics:
    """Memo efficiency series of one exposition, sampled at scrape time.

    ``sample`` takes :func:`repro.obs.memo.memo_stats` rows (``{memo:
    {"hits", "misses", "entries"}}``) -- one process's, or a sum over
    processes -- and mirrors them into ``repro_memo_hits_total``,
    ``repro_memo_misses_total`` and ``repro_memo_entries``, labelled by
    memo name.
    """

    FAMILIES = ("repro_memo_hits_total", "repro_memo_misses_total", "repro_memo_entries")

    def __init__(self, registry: "MetricsRegistry"):
        self._hits = registry.counter(
            "repro_memo_hits_total", "Memo lookups answered from the memo.",
            label_names=("memo",),
        )
        self._misses = registry.counter(
            "repro_memo_misses_total", "Memo lookups that missed.", label_names=("memo",)
        )
        self._entries = registry.gauge(
            "repro_memo_entries", "Entries held by a memo.", label_names=("memo",)
        )

    def sample(self, stats: Mapping[str, Mapping[str, float]]) -> None:
        for memo, row in stats.items():
            self._hits.labels(memo=memo).mirror(row["hits"])
            self._misses.labels(memo=memo).mirror(row["misses"])
            self._entries.labels(memo=memo).set(row["entries"])


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?\s+"
    r"(?P<value>[^\s]+)(?:\s+\d+)?$"
)
_LE_RE = re.compile(r'le="([^"]*)"')


def _parse_sample_value(raw: str) -> float:
    if raw == "+Inf":
        return math.inf
    if raw == "-Inf":
        return -math.inf
    return float(raw)


def _label_signature(labels: str | None) -> str:
    """Canonical label key for a sample, ignoring the histogram ``le``."""
    if not labels:
        return ""
    body = labels.strip("{}")
    parts = [part for part in body.split(",") if part and not part.startswith("le=")]
    return ",".join(sorted(parts))


def validate_prometheus_text(text: str) -> list[str]:
    """Check Prometheus text exposition; returns a list of problems.

    Validates what dashboards actually depend on: every sample belongs to
    a family announced by ``# HELP`` + ``# TYPE`` lines (in that order),
    TYPE values are legal, histogram ``le`` bounds ascend with cumulative
    non-decreasing bucket counts, the ``+Inf`` bucket exists and equals
    ``_count``.  An empty return value means the exposition is valid.
    """
    problems: list[str] = []
    helped: set[str] = set()
    typed: dict[str, str] = {}
    # histogram family -> base-label-signature -> [(le, cumulative count)]
    buckets: dict[str, dict[str, list[tuple[float, float]]]] = {}
    counts: dict[str, dict[str, float]] = {}

    for line_number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            parts = line.split(None, 3)
            if len(parts) < 3:
                problems.append(f"line {line_number}: malformed HELP line")
                continue
            helped.add(parts[2])
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                problems.append(f"line {line_number}: malformed TYPE line")
                continue
            _, _, name, kind = parts
            if kind not in ("counter", "gauge", "histogram", "summary", "untyped"):
                problems.append(f"line {line_number}: unknown metric type {kind!r}")
            if name in typed:
                problems.append(f"line {line_number}: duplicate TYPE for {name}")
            if name not in helped:
                problems.append(f"line {line_number}: TYPE for {name} precedes its HELP")
            typed[name] = kind
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            problems.append(f"line {line_number}: unparsable sample {line!r}")
            continue
        name, labels, raw_value = match.group("name", "labels", "value")
        try:
            value = _parse_sample_value(raw_value)
        except ValueError:
            problems.append(f"line {line_number}: bad sample value {raw_value!r}")
            continue
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            stripped = name[: -len(suffix)] if name.endswith(suffix) else None
            if stripped and typed.get(stripped) == "histogram":
                base = stripped
                break
        if base not in typed:
            problems.append(f"line {line_number}: sample {name} has no TYPE line")
            continue
        if typed[base] == "histogram" and name.endswith("_bucket"):
            le_match = _LE_RE.search(labels or "")
            if not le_match:
                problems.append(f"line {line_number}: histogram bucket without le label")
                continue
            signature = _label_signature(labels)
            try:
                bound = _parse_sample_value(le_match.group(1))
            except ValueError:
                problems.append(f"line {line_number}: bad le bound {le_match.group(1)!r}")
                continue
            buckets.setdefault(base, {}).setdefault(signature, []).append((bound, value))
        elif typed[base] == "histogram" and name.endswith("_count"):
            counts.setdefault(base, {})[_label_signature(labels)] = value

    for family, by_signature in buckets.items():
        for signature, series in by_signature.items():
            bounds = [bound for bound, _ in series]
            values = [count for _, count in series]
            if bounds != sorted(bounds):
                problems.append(f"{family}: bucket le bounds not ascending")
            if any(b < a for a, b in zip(values, values[1:])):
                problems.append(f"{family}: bucket counts not cumulative (decrease)")
            if not bounds or bounds[-1] != math.inf:
                problems.append(f"{family}: missing +Inf bucket")
            elif family in counts and counts[family].get(signature) not in (None, values[-1]):
                problems.append(f"{family}: _count disagrees with +Inf bucket")

    for name in typed:
        if name not in helped:
            problems.append(f"{name}: TYPE without HELP")
    return problems
