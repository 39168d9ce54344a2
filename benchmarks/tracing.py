"""Outside-in tracing of symbb's layers.

The tracer replaces the public layer functions with wrappers that record a
span per call (name, start, end, parent span, run id) and read counters from
the return values.  Nothing inside symbb changes.

A name imported with ``from .x import f`` is a separate binding in every
importing module, so each binding of a traced function, in every symbb
module, is replaced; calls made through the defining module's attribute
(``dnn.nb_bound`` in the CLI) reach the replaced attribute.  Each wrapper
also counts its calls per binding site, so that for example
``estimator.bound_calls`` is the number of ``nb_bound`` calls the estimator
made.  ``numpy.linalg.eigh`` is called about a thousand times per
``cone_distance`` call, so it gets a count and a summed time, not spans.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict

import numpy as np

MODULES = ("instance", "symmetry", "subproblem", "dnn", "bb", "estimator", "cli")

# Traced functions by defining module.
TRACED = {
    "instance": ("parse_qaplib", "qap_to_bqop"),
    "symmetry": ("automorphisms", "orbits"),
    "subproblem": ("reduce", "feasibility_status", "subgroup"),
    "dnn": ("assemble", "cone_distance", "nb_bound"),
    "bb": ("solve_target", "isomorphic", "choose_orbit"),
    "estimator": ("estimate",),
}
# Names of the spans: the traced functions, and ``cli`` around each in-process
# ``symbb`` call.
SPAN_NAMES = {f"{m}.{f}" for m, names in TRACED.items() for f in names} | {"cli"}


def _count_result(counts: Counter, name: str, result) -> None:
    if name == "dnn.cone_distance":
        counts["dnn.apg_iterations"] += result.iterations
        counts["dnn.apg_cap_hits"] += not result.converged
    elif name == "dnn.nb_bound":
        counts["dnn.newton_steps"] += result.iterations
        counts["dnn.nb_bound.pruned"] += result.status == "Pruned"
    elif name == "bb.isomorphic":
        counts["bb.iso_merges"] += result is not None
    elif name == "subproblem.feasibility_status":
        counts["subproblem.leaves_solved"] += type(result).__name__ == "SolvedLeaf"


class Tracer:
    """Spans and counters of one traced run.  Use as a context manager: the
    wrappers are installed on entry and the original bindings restored on
    exit."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []    # (id, parent, name, start_ns, end_ns)
        self.counts: Counter = Counter()
        self.site_calls: Counter = Counter()
        self.eigh_calls = 0
        self.eigh_ns = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._restore: list[tuple] = []

    def span(self, name: str):
        return _Span(self, name)

    def _wrap(self, name: str, site: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.site_calls[(site, name)] += 1
            with _Span(tracer, name):
                result = fn(*args, **kwargs)
            _count_result(tracer.counts, name, result)
            return result

        return wrapper

    def _wrap_eigh(self, fn):
        tracer = self

        def eigh(*args, **kwargs):
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.eigh_ns += time.perf_counter_ns() - t0
                tracer.eigh_calls += 1

        return eigh

    def __enter__(self):
        mods = {m: importlib.import_module(f"symbb.{m}") for m in MODULES}
        originals = {id(getattr(mods[m], f)): f"{m}.{f}"
                     for m, names in TRACED.items() for f in names}
        for site, mod in mods.items():
            for attr, value in list(vars(mod).items()):
                name = originals.get(id(value))
                if name is not None:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, self._wrap(name, site, value))
        self._restore.append((np.linalg, "eigh", np.linalg.eigh))
        np.linalg.eigh = self._wrap_eigh(np.linalg.eigh)
        return self

    def __exit__(self, *exc):
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()
        return False

    def calls(self, name: str) -> int:
        """Calls of a traced function through all of its bindings."""
        return sum(n for (_, fn), n in self.site_calls.items() if fn == name)

    def bindings(self) -> dict[str, int]:
        """Calls per binding site, ``site:function``."""
        return {f"{site}:{name}": n for (site, name), n in sorted(self.site_calls.items())}

    def layer_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Summed duration and summed self time per span name, in seconds.
        Self time is a span's duration minus the durations of its direct
        children; a caller runs one child at a time, so children never
        overlap."""
        child_ns: dict[int, int] = defaultdict(int)
        for sid, parent, _, start, end in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        for sid, _, name, start, end in self.spans:
            total[name] += (end - start) / 1e9
            self_time[name] += (end - start - child_ns[sid]) / 1e9
        return dict(total), dict(self_time)

    def write(self, fh, label: str) -> None:
        """Write the spans as JSON lines, start and end in nanoseconds."""
        for sid, parent, name, start, end in self.spans:
            fh.write(json.dumps({"run": self.run_id, "pass": label, "span": sid,
                                 "parent": parent, "name": name,
                                 "start_ns": start, "end_ns": end}) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "sid", "parent", "start")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        stack = self.tracer._stack
        self.parent = stack[-1] if stack else None
        self.sid = self.tracer._next_id
        self.tracer._next_id += 1
        stack.append(self.sid)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter_ns()
        self.tracer._stack.pop()
        self.tracer.spans.append((self.sid, self.parent, self.name, self.start, end))
        return False
