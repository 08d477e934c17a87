"""In-memory spans around calls into the program's layers.

The benchmark does not edit the program.  In a traced run it wraps the
public entry points of each layer (``run_program`` behind ``load_trace``,
the lazy ``Trace.register_deps``/``memory_deps``/``columns`` builds, and
the pair selectors the experiment framework calls), and the scenarios
open spans around the ``simulate`` calls they make themselves.  Every
span records its name, start, end and the span that was open when it
began, so a layer's self time is its spans' durations minus the time
their child spans cover: the columns a first ``simulate`` builds lazily
are charged to ``exec.columns``, not to ``cmt.simulate``.

Untraced runs use :data:`NULL_TRACER`, whose spans cost one attribute
lookup, and install no wrappers at all.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterator, List


class Tracer:
    """Collects spans and counts in memory until the run reports them."""

    enabled = True

    def __init__(self) -> None:
        #: [name, start, end, parent index] per span, in start order.
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time the block as one span of layer ``name``."""
        stack = self._stack()
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           stack[-1] if stack else -1])
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the counter ``name``."""
        self.counts[name] += value

    def self_seconds(self) -> Dict[str, float]:
        """Return each layer's total self time in seconds."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            totals[name] += (end - start) - covered[index]
        return dict(totals)


class _NullTracer:
    """Tracing off: spans and counts do nothing."""

    enabled = False
    _null = nullcontext()

    def span(self, name: str) -> "nullcontext[None]":
        del name
        return self._null

    def count(self, name: str, value: float = 1) -> None:
        del name, value


NULL_TRACER = _NullTracer()


@contextmanager
def instrumented(tracer: Tracer) -> Iterator[None]:
    """Wrap the program's layer entry points with spans of ``tracer``.

    The wrappers are removed again on exit, so a test can trace one run
    and then run untraced in the same process.
    """
    from repro.exec.trace import Trace
    from repro.experiments import framework
    from repro.workloads import suite

    saved = []

    def patch(owner: object, attr: str, value: object) -> None:
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    run_program = suite.run_program

    def traced_run_program(*args, **kwargs):
        with tracer.span("exec.run"):
            trace = run_program(*args, **kwargs)
        tracer.count("exec.dyn_insts", len(trace))
        return trace

    patch(suite, "run_program", traced_run_program)

    # Dependences and columns are memoised on the trace: only the access
    # that builds them is a span, later reads go straight through.
    def lazy(prop: property, memo: str, layer: str) -> property:
        def getter(trace: Trace):
            if getattr(trace, memo) is None:
                with tracer.span(layer):
                    return prop.fget(trace)
            return prop.fget(trace)

        return property(getter, doc=prop.__doc__)

    patch(Trace, "register_deps",
          lazy(Trace.register_deps, "_register_deps", "exec.deps"))
    patch(Trace, "memory_deps",
          lazy(Trace.memory_deps, "_memory_deps", "exec.deps"))
    patch(Trace, "columns", lazy(Trace.columns, "_columns", "exec.columns"))

    def timed(fn, layer: str):
        def wrapper(*args, **kwargs):
            with tracer.span(layer):
                pairs = fn(*args, **kwargs)
            tracer.count("spawning.pairs_selected", len(pairs))
            return pairs

        return wrapper

    patch(framework, "select_profile_pairs",
          timed(framework.select_profile_pairs, "spawning.profile"))
    patch(framework, "heuristic_pairs",
          timed(framework.heuristic_pairs, "spawning.heuristics"))
    try:
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
