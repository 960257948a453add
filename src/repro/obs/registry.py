"""In-process metrics registry: counters, gauges, histograms.

The paper's central claim is that a failure detector should *observe its
own output quality* and react; this module is the infrastructure half of
that idea for the whole stack.  It is deliberately dependency-free and
hot-path cheap:

* everything runs on the asyncio event loop thread, so there are **no
  locks** anywhere — an ``inc()`` is one float add on a ``__slots__``
  instance;
* histograms use **fixed log-spaced buckets** whose index is computed in
  O(1) from a logarithm (no per-observation scan), because heartbeat
  inter-arrivals and safety margins span four orders of magnitude;
* labeled families cache their children in a dict, so the per-event cost
  of ``family.labels(node).inc()`` is one dict hit.

A :class:`NullRegistry` hands out no-op instruments with the same API, so
instrumented code paths need no conditionals and benchmarks can measure
the overhead of real accounting against a true baseline (the
``bench_replay_throughput`` <5 % budget).
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramValue",
    "MetricFamily",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NullRegistry",
    "log_buckets",
    "DEFAULT_LATENCY_BUCKETS",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def log_buckets(lo: float, hi: float, *, per_decade: int = 3) -> tuple[float, ...]:
    """Geometric bucket bounds from ``lo`` to at least ``hi``.

    ``per_decade`` bounds per factor-of-ten, e.g. ``log_buckets(1e-3, 10.0,
    per_decade=3)`` yields 1 ms, ~2.2 ms, ~4.6 ms, 10 ms, … 10 s.  The
    fixed ratio is what makes :meth:`Histogram.observe` O(1).
    """
    if lo <= 0 or hi <= lo:
        raise ConfigurationError(f"need 0 < lo < hi, got lo={lo!r}, hi={hi!r}")
    if per_decade < 1:
        raise ConfigurationError(f"per_decade must be >= 1, got {per_decade!r}")
    n = math.ceil(per_decade * math.log10(hi / lo) + 1e-9)
    return tuple(lo * 10.0 ** (i / per_decade) for i in range(n + 1))


#: 100 µs .. 100 s, 3 buckets per decade — covers LAN inter-arrivals up to
#: WAN loss-burst gaps with 19 buckets.
DEFAULT_LATENCY_BUCKETS = log_buckets(1e-4, 100.0, per_decade=3)


class Counter:
    """Monotonically increasing value (one labeled child)."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError(f"counter increment must be >= 0, got {amount!r}")
        self.value += amount

    def get(self) -> float:
        return self.value


class Gauge:
    """Set-to-current value (one labeled child)."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def get(self) -> float:
        return self.value


@dataclass(frozen=True, slots=True)
class HistogramValue:
    """Point-in-time histogram state (per-bucket, *not* cumulative)."""

    bounds: tuple[float, ...]
    counts: tuple[int, ...]
    sum: float
    count: int

    def cumulative(self) -> tuple[int, ...]:
        """Prometheus-style cumulative bucket counts (`le` semantics,
        excluding the +Inf bucket which equals :attr:`count`)."""
        out, total = [], 0
        for c in self.counts[:-1]:
            total += c
            out.append(total)
        return tuple(out)


class Histogram:
    """Fixed-bucket histogram with O(1) observation.

    Bucket ``i`` counts values in ``(bounds[i-1], bounds[i]]`` (bucket 0 is
    ``(-inf, bounds[0]]``); one extra overflow bucket catches values above
    the last bound.  When the bounds are geometric (the
    :func:`log_buckets` shape) the index is computed directly from a log;
    arbitrary ascending bounds fall back to bisection.
    """

    __slots__ = ("bounds", "counts", "sum", "count", "_log_lo", "_inv_step", "_hot")
    kind = "histogram"

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS) -> None:
        bounds = tuple(float(b) for b in bounds)
        if len(bounds) < 1:
            raise ConfigurationError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ConfigurationError(f"bounds must be strictly ascending: {bounds!r}")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self._log_lo = math.nan
        self._inv_step = math.nan
        self._hot = 0
        if len(bounds) >= 2 and bounds[0] > 0:
            ratios = [b2 / b1 for b1, b2 in zip(bounds, bounds[1:])]
            if max(ratios) / min(ratios) < 1.0 + 1e-9:
                self._log_lo = math.log(bounds[0])
                self._inv_step = 1.0 / math.log(ratios[0])

    def observe(self, value: float) -> None:
        v = float(value)
        self.sum += v
        self.count += 1
        self.counts[self._index(v)] += 1

    def _index(self, v: float) -> int:
        """Bucket index for ``v``, maintaining the hot window.

        Stationary streams (heartbeat inter-arrivals) land in the same one
        or two buckets nearly every time, so the two buckets ``_hot`` and
        ``_hot + 1`` — the range ``(bounds[_hot-1], bounds[_hot+1]]`` —
        are checked before an index is computed.  Two, because a stream
        centred on a bound (a 1 s or 100 ms heartbeat interval against
        decade bounds) lands on both sides of it; a miss re-centres the
        window on the bound nearest ``v``.  ``_hot == 0`` means no window.
        """
        bounds = self.bounds
        k = self._hot
        if k and bounds[k - 1] < v <= bounds[k + 1]:
            return k if v <= bounds[k] else k + 1
        if v <= bounds[0]:
            return 0
        if v > bounds[-1]:
            return len(bounds)
        if self._inv_step == self._inv_step:  # geometric: O(1) index
            i = int((math.log(v) - self._log_lo) * self._inv_step) + 1
            # Float fix-up: the log estimate can be off by one at bucket
            # edges; each loop runs at most once.
            if i > 0 and v <= bounds[i - 1]:
                i -= 1
            elif v > bounds[i]:
                i += 1
        else:
            i = bisect_left(bounds, v)
        top = len(bounds) - 2  # highest window start with a real bucket above
        if top >= 1:
            k = i if v + v > bounds[i - 1] + bounds[i] else i - 1
            self._hot = min(max(k, 1), top)
        return i

    def get(self) -> HistogramValue:
        return HistogramValue(
            bounds=self.bounds,
            counts=tuple(self.counts),
            sum=self.sum,
            count=self.count,
        )


class _NullInstrument:
    """No-op stand-in for Counter/Gauge/Histogram *and* their families."""

    __slots__ = ()

    def labels(self, *values, **kw) -> "_NullInstrument":
        return self

    def remove(self, *values) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def get(self) -> float:
        return 0.0

    def children(self) -> dict:
        return {}


_NULL = _NullInstrument()


def heartbeat_fast_path(counter, histogram) -> "Callable[[float | None], None]":
    """Build the one-call-per-beat fast path for a single node: bump the
    heartbeat counter and, when an inter-arrival ``delta`` is known, feed
    the histogram.  Against concrete :class:`Counter`/:class:`Histogram`
    children the updates are inlined over captured locals (the heartbeat
    loop is the monitoring hot path and pays for every indirection);
    anything else — null or custom registries — falls back to the
    instruments' public methods.
    """
    if type(counter) is Counter and type(histogram) is Histogram:

        def beat(
            delta,
            c=counter,
            h=histogram,
            counts=histogram.counts,
            bounds=histogram.bounds,
        ):
            c.value += 1.0
            if delta is None:
                return
            h.sum += delta
            h.count += 1
            k = h._hot
            if k and bounds[k - 1] < delta <= bounds[k + 1]:
                counts[k if delta <= bounds[k] else k + 1] += 1
            else:
                counts[h._index(delta)] += 1

        return beat

    def beat(delta, inc=counter.inc, observe=histogram.observe):
        inc()
        if delta is not None:
            observe(delta)

    return beat


class MetricFamily:
    """A named metric with a fixed label schema and cached children.

    ``family.labels("node-a").inc()`` addresses one series; for an
    unlabeled family the convenience methods ``inc``/``dec``/``set``/
    ``observe``/``get`` delegate to the single implicit child.
    """

    __slots__ = ("name", "help", "label_names", "_cls", "_kwargs", "_children", "_default")

    def __init__(
        self,
        cls: type,
        name: str,
        help: str = "",
        label_names: tuple[str, ...] = (),
        **kwargs,
    ):
        if not _NAME_RE.match(name):
            raise ConfigurationError(f"invalid metric name {name!r}")
        for ln in label_names:
            if not _LABEL_RE.match(ln):
                raise ConfigurationError(f"invalid label name {ln!r}")
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._cls = cls
        self._kwargs = kwargs
        self._children: dict[tuple[str, ...], object] = {}
        self._default = None if self.label_names else self._child(())

    @property
    def kind(self) -> str:
        return self._cls.kind

    def _child(self, key: tuple[str, ...]):
        child = self._children.get(key)
        if child is None:
            child = self._cls(**self._kwargs)
            self._children[key] = child
        return child

    def labels(self, *values, **by_name):
        if by_name:
            values = values + tuple(str(by_name[n]) for n in self.label_names[len(values):])
        if len(values) != len(self.label_names):
            raise ConfigurationError(
                f"{self.name}: expected labels {self.label_names}, got {values!r}"
            )
        return self._child(tuple(str(v) for v in values))

    def remove(self, *values) -> None:
        """Drop one child series (e.g. after a node is evicted)."""
        self._children.pop(tuple(str(v) for v in values), None)

    def children(self) -> dict[tuple[str, ...], object]:
        return self._children

    # -- unlabeled convenience ------------------------------------------ #

    def inc(self, amount: float = 1.0) -> None:
        self._require_default().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._require_default().dec(amount)

    def set(self, value: float) -> None:
        self._require_default().set(value)

    def observe(self, value: float) -> None:
        self._require_default().observe(value)

    def get(self):
        return self._require_default().get()

    def _require_default(self):
        if self._default is None:
            raise ConfigurationError(
                f"{self.name} is labeled by {self.label_names}; use .labels(...)"
            )
        return self._default


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable point-in-time view of a registry.

    ``values[name][label_values]`` is a float (counter/gauge) or a
    :class:`HistogramValue`.  :meth:`delta` subtracts an earlier snapshot,
    giving per-interval rates for monotonic series.
    """

    kinds: dict[str, str]
    label_names: dict[str, tuple[str, ...]]
    values: dict[str, dict[tuple[str, ...], object]]

    def get(self, name: str, *labels, default=None):
        """One series' value, ``default`` if absent."""
        series = self.values.get(name)
        if series is None:
            return default
        return series.get(tuple(str(v) for v in labels), default)

    def delta(self, earlier: "MetricsSnapshot") -> "MetricsSnapshot":
        out: dict[str, dict[tuple[str, ...], object]] = {}
        for name, series in self.values.items():
            older = earlier.values.get(name, {})
            dd: dict[tuple[str, ...], object] = {}
            for key, val in series.items():
                prev = older.get(key)
                if isinstance(val, HistogramValue):
                    if isinstance(prev, HistogramValue) and prev.bounds == val.bounds:
                        dd[key] = HistogramValue(
                            bounds=val.bounds,
                            counts=tuple(
                                a - b for a, b in zip(val.counts, prev.counts)
                            ),
                            sum=val.sum - prev.sum,
                            count=val.count - prev.count,
                        )
                    else:
                        dd[key] = val
                else:
                    dd[key] = val - (prev if isinstance(prev, (int, float)) else 0.0)
            out[name] = dd
        return MetricsSnapshot(
            kinds=dict(self.kinds), label_names=dict(self.label_names), values=out
        )


class MetricsRegistry:
    """Registry of metric families plus scrape-time collectors.

    Families are created idempotently: asking twice for the same name with
    the same kind returns the same family (so independent components can
    share series), while a kind clash raises.  *Collectors* are zero-arg
    callables run before every snapshot/render — the place to refresh
    gauges that are views of live state (node statuses, safety margins)
    instead of paying for them on the heartbeat hot path.
    """

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}
        self._collectors: list = []

    # -- family constructors -------------------------------------------- #

    def _family(self, cls: type, name: str, help: str, labels: tuple[str, ...], **kw):
        fam = self._families.get(name)
        if fam is not None:
            if fam.kind != cls.kind or fam.label_names != tuple(labels):
                raise ConfigurationError(
                    f"metric {name!r} already registered as {fam.kind}"
                    f"{fam.label_names}, cannot re-register as {cls.kind}{tuple(labels)}"
                )
            return fam
        fam = MetricFamily(cls, name, help, tuple(labels), **kw)
        self._families[name] = fam
        return fam

    def counter(
        self, name: str, help: str = "", labels: tuple[str, ...] = ()
    ) -> MetricFamily:
        return self._family(Counter, name, help, tuple(labels))

    def gauge(
        self, name: str, help: str = "", labels: tuple[str, ...] = ()
    ) -> MetricFamily:
        return self._family(Gauge, name, help, tuple(labels))

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> MetricFamily:
        return self._family(Histogram, name, help, tuple(labels), bounds=buckets)

    # -- collection ------------------------------------------------------ #

    def add_collector(self, fn) -> None:
        """Register a zero-arg callable run before each snapshot/render."""
        self._collectors.append(fn)

    def collect(self) -> None:
        for fn in self._collectors:
            fn()

    def families(self) -> list[MetricFamily]:
        return [self._families[name] for name in sorted(self._families)]

    def snapshot(self, *, run_collectors: bool = True) -> MetricsSnapshot:
        if run_collectors:
            self.collect()
        kinds: dict[str, str] = {}
        label_names: dict[str, tuple[str, ...]] = {}
        values: dict[str, dict[tuple[str, ...], object]] = {}
        for fam in self.families():
            kinds[fam.name] = fam.kind
            label_names[fam.name] = fam.label_names
            values[fam.name] = {
                key: child.get() for key, child in fam.children().items()
            }
        return MetricsSnapshot(kinds=kinds, label_names=label_names, values=values)


class NullRegistry(MetricsRegistry):
    """A registry whose instruments are all no-ops.

    Instrumented code built against a null registry performs only the
    attribute lookups and calls, never any accounting — the baseline the
    <5 % instrumentation-overhead budget is measured against.
    """

    def _family(self, cls, name, help, labels, **kw):  # type: ignore[override]
        return _NULL

    def add_collector(self, fn) -> None:
        pass

    def families(self) -> list[MetricFamily]:
        return []
