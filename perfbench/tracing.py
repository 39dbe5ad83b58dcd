"""Timing spans for the benchmark.

`Tracer` keeps, per span name, the call count, the total time and the self
time (total minus the time of spans opened inside it), in memory.  The
benchmark always opens spans around its own calls into ctql; `installed` adds
spans inside the drivers by rebinding the names that `experiments.ergodic`
and `experiments.mv` import from `envsim`, `approx` and `baselines`, and
undoes that on exit.  ctql's files are not modified.
"""

from __future__ import annotations

import contextlib
import functools
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        # child time of each open span, above a bottom entry for top level
        self._child = [0.0]

    def _close(self, name: str, start: float) -> None:
        d = perf_counter() - start
        child = self._child.pop()
        self._child[-1] += d
        self.calls[name] += 1
        self.total[name] += d
        self.self_time[name] += d - child

    @contextlib.contextmanager
    def span(self, name: str):
        self._child.append(0.0)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(name, start)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._child.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, start)
        return traced

    def snapshot(self) -> dict:
        return {name: {"calls": self.calls[name], "total_s": self.total[name],
                       "self_s": self.self_time[name]}
                for name in sorted(self.calls)}


class _TracedGenerator:
    """Forwards to a numpy Generator, timing the draws the drivers make."""

    def __init__(self, gen, tracer: Tracer):
        self._gen = gen
        self.standard_normal = tracer.wrap("envsim.draw", gen.standard_normal)
        self.integers = tracer.wrap("envsim.draw", gen.integers)

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _traced_stream_class(base, tracer: Tracer):
    class TracedRngStream(base):
        def generator(self):
            with tracer.span("envsim.stream_open"):
                gen = base.generator(self)
            return _TracedGenerator(gen, tracer)

        def child(self, *ids):
            c = base.child(self, *ids)
            return TracedRngStream(c.master_seed, c.stream_id)

    return TracedRngStream


APPROX_NAMES = ("mv_value_eval", "mv_value_grad", "mv_q_eval", "mv_q_grad")
BASELINES_NAMES = ("qdt_mv_eval", "qdt_mv_grad", "pg_mv_logp", "pg_mv_score")


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Trace the envsim, approx and baselines names the drivers call."""
    from ctql import envsim
    from ctql.experiments import ergodic, mv

    saved = []

    def patch(module, name, value):
        saved.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    stream = _traced_stream_class(envsim.RngStream, tracer)
    try:
        for module in (ergodic, mv):
            patch(module, "RngStream", stream)
        for name in APPROX_NAMES:
            patch(mv, name, tracer.wrap("approx." + name, getattr(mv, name)))
        for name in BASELINES_NAMES:
            patch(mv, name, tracer.wrap("baselines." + name, getattr(mv, name)))
        yield
    finally:
        for module, name, value in reversed(saved):
            setattr(module, name, value)
