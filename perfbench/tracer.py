"""Outside-in tracer: wraps public gridrel names and keeps spans in memory.

Each wrapped call records a span (name, start, end, index of the enclosing
span). Nothing inside the program changes: the wrapper is installed on the
attribute the engine looks the name up through, and every wrapped name is
put back when the tracer exits, also when the traced code raises.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.values = defaultdict(list)  # observations taken from return values
        self._stack = []
        self._patches = []   # (owner, attribute, original object)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def wrap(self, owner, attr, name, on_return=None):
        """Replace `owner.attr` with a wrapper that records a span `name`.

        `on_return(tracer, args, result)` may read the returned object.
        Class attributes are read from the class dict so that restoring puts
        back exactly the object that was there.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                spans[index][2] = perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(self, args, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def observe(self, key, value):
        self.values[key].append(value)

    def layers(self) -> dict:
        """Per span name: call count, total seconds, self seconds, durations.

        Self time is a span's duration minus the durations of its direct
        children; calls on one thread nest, so the children never overlap.
        """
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out = {}
        for (name, start, end, _parent), inner in zip(self.spans, child_s):
            layer = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                          "durations": []})
            layer["calls"] += 1
            layer["total_s"] += end - start
            layer["self_s"] += end - start - inner
            layer["durations"].append(end - start)
        return out


def _lp_seen(tracer, args, result):
    problem = args[0]
    tracer.observe("lp_status", result.status)
    tracer.observe("lp_vars", len(problem.node_ids) + len(problem.generators)
                   + len(problem.lines))


def _fbs_seen(tracer, args, solution):
    tracer.observe("fbs_iterations", solution.iterations)
    tracer.observe("fbs_converged", solution.converged)
    if solution.voltage_pu:
        tracer.observe("fbs_min_voltage_pu", min(solution.voltage_pu.values()))


def _sectioning_seen(tracer, args, plan):
    tracer.observe("sectioning_automated", plan.automated)


def wrap_gridrel(tracer, engine, shedding):
    """Install the layer wrappers, each where the engine looks the name up."""
    sim = engine.SequentialSimulation
    tracer.wrap(engine, "run_iteration", "engine.iteration")
    tracer.wrap(sim, "__init__", "engine.init")
    tracer.wrap(sim, "run_increment", "engine.run_increment")
    tracer.wrap(engine, "connected_components", "network.components")
    tracer.wrap(engine, "plan_sectioning", "stochastic.sectioning", _sectioning_seen)
    tracer.wrap(engine, "draw_status", "stochastic.status_draw")
    tracer.wrap(engine, "solve_fbs", "loadflow.fbs", _fbs_seen)
    tracer.wrap(shedding, "build_shedding_problem", "shedding.build")
    tracer.wrap(shedding, "solve_shedding", "shedding.lp", _lp_seen)
