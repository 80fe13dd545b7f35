"""Timing and tracing of calls into loglosslab, made from the benchmark's side.

A ``Recorder`` wraps every call the benchmark makes into a public function
of the library.  Untraced, it only sums the call time of each run of an op
and times a reference kernel before it.  Traced, it also keeps one span per
op run and one per call inside it, in memory, until the run ends.  Spans
inside the library are not recorded.
"""

from collections import defaultdict
from dataclasses import asdict, dataclass
from time import perf_counter

import numpy as np

# Typical time of one reference-kernel run between ops on a 2-core Xeon.
REFERENCE_KERNEL_S = 2.0e-3
_KERNEL_MATRIX = np.random.default_rng(0).random((5, 6))
_KERNEL_SOURCE = np.full(5, 0.2)


def _reference_kernel() -> float:
    """Time a fixed mix of small numpy calls and Python arithmetic.

    The mix resembles the library's inner loops but calls none of its code,
    so a change to the library cannot change this kernel's time.
    """
    start = perf_counter()
    q = np.full(6, 1.0 / 6.0)
    for _ in range(150):
        k = np.exp(-3.0 * _KERNEL_MATRIX) * q
        q = (_KERNEL_SOURCE / k.sum(axis=1)) @ k
        q /= q.sum()
    masses = [0.0] * 4
    for i in range(3000):
        masses[i & 3] += i * 0.25
    return perf_counter() - start


def machine_slowdown() -> float:
    """How much slower than reference the machine runs just now.

    The fastest of three kernel runs, so that caches the previous op left
    cold do not count.
    """
    return min(_reference_kernel() for _ in range(3)) / REFERENCE_KERNEL_S


@dataclass(slots=True)
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    op: int | None
    repeat: int


def layer_of(fn) -> str:
    """The loglosslab module a function lives in, e.g. ``ratedistortion``."""
    return fn.__module__.rsplit(".", 1)[-1]


class Recorder:
    """Op latencies, failures and counters of one run, plus spans when tracing.

    An op may run more than once; ``latencies[op]`` lists the call time of
    each of its runs, and ``wall_s`` sums the ops' whole runs, oracle checks
    included.  The machine's slowdown is measured before each run of an op
    and once after the last (``finish``).  Counters count an op's first run
    only, so they count one round of the workload's work.
    """

    def __init__(self, trace: bool):
        self.trace = trace
        self.spans: list[Span] = []
        self.latencies: dict[int, list[float]] = defaultdict(list)
        self.slowdowns: list[float] = []
        self._runs: list[tuple[int, float]] = []
        self.wall_s = 0.0
        self.failures: list[dict] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.overhead_s = 0.0
        self._op: int | None = None
        self._op_span: int | None = None
        self._repeat = 0
        self._op_time = 0.0

    def call(self, fn, *args, **kwargs):
        """Call ``fn`` and charge its duration to the current op."""
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._op_time += end - start
            if self.trace:
                self.spans.append(Span(fn.__name__, layer_of(fn), start, end,
                                       self._op_span, self._op, self._repeat))
                self.overhead_s += perf_counter() - end

    def run_op(self, op: int, name: str, body, repeat: int) -> None:
        """Run one op; an exception fails the op and the run goes on.

        The latency of the run is the time spent inside ``call``; the oracle
        checks ``body`` makes between calls are not part of it.
        """
        self.slowdowns.append(machine_slowdown())
        self._op, self._repeat, self._op_time = op, repeat, 0.0
        op_start = perf_counter()
        if self.trace:
            start = op_start
            self._op_span = len(self.spans)
            self.spans.append(Span(name, "benchmark", start, start, None, op, repeat))
            self.overhead_s += perf_counter() - start
        try:
            body(self, repeat)
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            self.failures.append({"op": name, "op_id": op, "repeat": repeat,
                                  "error": type(exc).__name__, "message": str(exc)})
        op_end = perf_counter()
        if self.trace:
            self.spans[self._op_span].end = op_end
        self.latencies[op].append(self._op_time)
        self._runs.append((op, self._op_time))
        self.wall_s += op_end - op_start
        self._op = self._op_span = None
        self._repeat = 0

    def finish(self) -> None:
        """Measure the slowdown after the last run of an op."""
        self.slowdowns.append(machine_slowdown())

    def corrected_latencies(self) -> dict[int, list[float]]:
        """Each run's call time divided by the slowdown around it.

        The slowdown around a run is the mean of the readings just before
        and just after it.  Call ``finish`` first.
        """
        corrected: dict[int, list[float]] = defaultdict(list)
        for i, (op, seconds) in enumerate(self._runs):
            corrected[op].append(2.0 * seconds / (self.slowdowns[i] + self.slowdowns[i + 1]))
        return corrected

    def add(self, counter: str, amount: float = 1) -> None:
        if self._repeat == 0:
            self.counters[counter] += amount

    def peak(self, counter: str, value: float) -> None:
        if self._repeat == 0:
            self.counters[counter] = max(self.counters[counter], value)

    def _first_runs(self):
        return (s for s in self.spans if s.repeat == 0)

    def seconds_in(self, *names: str) -> float:
        """Total time of the first-run call spans of the named functions."""
        return sum(s.end - s.start for s in self._first_runs()
                   if s.name in names and s.layer != "benchmark")

    def calls_to(self, name: str) -> int:
        return sum(1 for s in self._first_runs() if s.name == name and s.layer != "benchmark")

    def self_seconds(self) -> dict[str, float]:
        """Each layer's first-run span time minus the time its child spans cover."""
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        totals: dict[str, float] = defaultdict(float)
        for i, span in enumerate(self.spans):
            if span.repeat == 0:
                totals[span.layer] += span.end - span.start - covered[i]
        return totals

    def span_dicts(self) -> list[dict]:
        return [asdict(span) for span in self.spans]
