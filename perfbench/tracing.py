"""Spans and counters around the calls into each ngvi module.

The wrappers live here, in the benchmark, and are installed only for a
traced solve; ``installed`` puts every original back when the solve ends,
and ``wrap_phis`` touches only the problem loaded for that solve, so
untraced solves run the package exactly as ``ngvi run`` does.

A span records its name, start, end and parent. ``phi`` calls get no span
of their own: their time and count are added to the enclosing span, which
is the ``quadrature.expect_weighted`` call that sweeps the points. Self
time is a span's duration minus its child spans and its ``phi`` time.
"""

from __future__ import annotations

import contextlib
from collections import Counter
from time import perf_counter

from ngvi import cli, factors, gaussian, kronmat

# module attribute -> span name; each is looked up by name at call time
SPANNED = (
    (cli, "load_problem", "cli.load_problem"),
    (factors, "_assemble", "factors.assemble"),
    (factors, "extract_marginal", "factors.extract_marginal"),
    (factors, "expect_weighted", "quadrature.expect_weighted"),
    (factors, "pattern_violations", "factors.pattern_violations"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "phi_s", "phi_n")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = self.end = self.phi_s = 0.0
        self.phi_n = 0


class Tracer:
    """In-memory span list and construction counters for one traced call."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()

        return traced

    def wrap_phi(self, fn):
        spans, stack = self.spans, self.stack

        def traced(x):
            start = perf_counter()
            try:
                return fn(x)
            finally:
                span = spans[stack[-1]]
                span.phi_s += perf_counter() - start
                span.phi_n += 1

        return traced

    def count(self, key: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def self_times(self) -> dict[str, float]:
        """Per span name: summed self time, with ``phi`` time under its own key."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        out: Counter = Counter()
        for span, inner in zip(self.spans, child):
            out[span.name] += span.end - span.start - inner - span.phi_s
            out["quadrature.phi"] += span.phi_s
        return dict(out)

    def totals(self, name: str) -> tuple[int, float]:
        """(calls, summed duration) of the spans with this name."""
        durations = [s.end - s.start for s in self.spans if s.name == name]
        return len(durations), sum(durations)

    def phi_evals(self) -> int:
        return sum(s.phi_n for s in self.spans)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install the span wrappers and the construction counters; restore
    the originals on exit."""
    saved = []

    def patch(owner, attr, value):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    try:
        for module, attr, name in SPANNED:
            patch(module, attr, tracer.wrap(name, getattr(module, attr)))
        for cls in (gaussian.MeanCovariance, gaussian.MeanPrecision):
            patch(cls, "__post_init__", tracer.count("gaussian.constructions", cls.__post_init__))
        from_full = kronmat.SymmetricMatrix.__dict__["from_full"].__func__
        patch(kronmat.SymmetricMatrix, "from_full", classmethod(tracer.count("kronmat.from_full", from_full)))
        yield tracer
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def wrap_phis(tracer: Tracer, graph) -> None:
    """Time every factor's ``phi``; the graph is traced from then on."""
    for f in graph.factors:
        object.__setattr__(f, "local_phi", tracer.wrap_phi(f.local_phi))
