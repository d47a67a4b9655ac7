"""Spans and counters around the program's public calls, for traced runs only.

A :class:`Tracer` swaps chosen pathcomplex functions for thin wrappers while
it is installed and puts the originals back when it is removed.  The
program's files are never edited, and an untraced run installs nothing.

Every span has an id, its parent span and the operation it belongs to
("setup" or "op-<k>").  A function's self time is its span minus the part
covered by its child spans, so an index build triggered inside
``network.forward`` is charged to ``complexes``, not to ``network``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import weakref
from collections import Counter

# (module, attribute, metric).  Each metric is the function's summed self
# time, except bench.run_family_s, which is the whole span.  Helpers called
# per member inside a lift (canonical_path and the like) are left alone:
# wrapping them would time the tracer, not the program.
TRACED = (
    ("graphs", "read_graph6_file", "graphs.read_graph6_s"),
    ("bench", "load_family", "bench.load_family_s"),
    ("bench", "run_family", "bench.run_family_self_s"),
    ("complexes", "lift_path_complex", "complexes.lift_path_s"),
    ("complexes", "lift_clique_complex", "complexes.lift_clique_s"),
    ("complexes", "lift_ring_complex", "complexes.lift_ring_s"),
    ("complexes", "HigherOrderComplex.boundary_csr", "complexes.boundary_csr_s"),
    ("complexes", "HigherOrderComplex.upper_adjacency", "complexes.upper_adjacency_s"),
    ("complexes", "HigherOrderComplex.coboundary_csr", "complexes.coboundary_csr_s"),
    ("complexes", "HigherOrderComplex.lower_adjacency", "complexes.lower_adjacency_s"),
    ("refine", "refine_pair", "refine.refine_pair_s"),
    ("refine", "wl1_refine_pair", "refine.wl1_refine_pair_s"),
    ("network", "NetworkParams.create", "network.params_s"),
    ("network", "init_features", "network.init_features_s"),
    ("network", "forward", "network.forward_s"),
)

COUNTERS = (
    "complexes.members",
    "complexes.upper_triples",
    "complexes.lower_triples",
    "refine.pairs",
    "refine.rounds",
    "refine.member_rounds",
    "network.forwards",
    "network.member_layers",
    "bench.cache_hits",
)

# Every per-layer metric a traced run reports, in report order.
PER_LAYER = (
    "graphs.read_graph6_s",
    "bench.load_family_s",
    "complexes.lift_path_s",
    "complexes.members",
    "complexes.lift_clique_s",
    "complexes.lift_ring_s",
    "complexes.boundary_csr_s",
    "complexes.upper_adjacency_s",
    "complexes.upper_triples",
    "complexes.coboundary_csr_s",
    "complexes.lower_adjacency_s",
    "complexes.lower_triples",
    "refine.refine_pair_s",
    "refine.pairs",
    "refine.rounds",
    "refine.member_rounds",
    "refine.wl1_refine_pair_s",
    "network.params_s",
    "network.init_features_s",
    "network.forward_s",
    "network.forwards",
    "network.member_layers",
    "bench.run_family_s",
    "bench.run_family_self_s",
    "bench.cache_hits",
    "trace.overhead_s",
)

_LIFTS = ("complexes.lift_path_s", "complexes.lift_clique_s", "complexes.lift_ring_s")


class Tracer:
    """In-memory spans, per-metric self times and exact counters."""

    def __init__(self, package):
        self.package = package
        self.op = "setup"
        self.spans = []  # (id, parent, op, function, start, end)
        self.self_s = Counter()
        self.span_s = Counter()
        self.counts = Counter()
        self.calls = Counter()
        self._stack = []  # [span id, start, child seconds]
        self._seen = {}  # (metric, id(obj)) -> weakref, to count each index once
        self._undo = []
        self.t0 = time.perf_counter()

    # -- installing -------------------------------------------------------

    def install(self):
        for module_name, attr, metric in TRACED:
            module = getattr(self.package, module_name)
            owner_name, _, name = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[name]
                is_static = isinstance(raw, staticmethod)
                fn = raw.__func__ if is_static else raw
                wrapped = self._wrap(fn, metric, f"{module_name}.{attr}")
                setattr(owner, name, staticmethod(wrapped) if is_static else wrapped)
                self._undo.append((owner, name, raw))
                continue
            fn = getattr(module, name)
            wrapped = self._wrap(fn, metric, f"{module_name}.{attr}")
            # rebind every pathcomplex module that imported the function by name
            prefix = self.package.__name__
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == prefix or mod_name.startswith(prefix + ".")):
                    continue
                if vars(mod).get(name) is fn:
                    setattr(mod, name, wrapped)
                    self._undo.append((mod, name, fn))

    def uninstall(self):
        for owner, name, raw in reversed(self._undo):
            setattr(owner, name, raw)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- recording --------------------------------------------------------

    def _wrap(self, fn, metric, qualname):
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(tracer.spans) + len(tracer._stack)
            parent = tracer._stack[-1][0] if tracer._stack else None
            lifts_before = sum(tracer.calls[m] for m in _LIFTS)
            frame = [span_id, time.perf_counter(), 0.0]
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - frame[1]
                if tracer._stack:
                    tracer._stack[-1][2] += duration
                tracer.self_s[metric] += duration - frame[2]
                tracer.span_s[metric] += duration
                tracer.calls[metric] += 1
                tracer.spans.append((span_id, parent, tracer.op, qualname,
                                     frame[1] - tracer.t0, end - tracer.t0))
            bound = signature.bind(*args, **kwargs)
            tracer._count(metric, bound.arguments, result, lifts_before)
            return result

        return wrapper

    def _first_time(self, metric, obj) -> bool:
        key = (metric, id(obj))
        ref = self._seen.get(key)
        if ref is not None and ref() is obj:
            return False
        self._seen[key] = weakref.ref(obj)
        return True

    def _count(self, metric, args, result, lifts_before):
        c = self.counts
        if metric in _LIFTS:
            c["complexes.members"] += result.total
        elif metric == "complexes.upper_adjacency_s":
            if self._first_time(metric, args["self"]):
                c["complexes.upper_triples"] += len(result[0])
        elif metric == "complexes.lower_adjacency_s":
            if self._first_time(metric, args["self"]):
                c["complexes.lower_triples"] += len(result[0])
        elif metric == "refine.refine_pair_s":
            rounds = result[2]
            c["refine.pairs"] += 1
            c["refine.rounds"] += rounds
            c["refine.member_rounds"] += rounds * (args["x"].total + args["y"].total)
        elif metric == "network.forward_s":
            c["network.forwards"] += 1
            c["network.member_layers"] += args["c"].total * args["params"].layers
        elif metric == "bench.run_family_self_s":
            lifted = sum(self.calls[m] for m in _LIFTS) != lifts_before
            if not lifted and args["cfg"].method != "wl1":
                c["bench.cache_hits"] += 1

    # -- reporting --------------------------------------------------------

    def metrics(self, overhead_s: float) -> dict:
        out = {}
        for name in PER_LAYER:
            if name == "trace.overhead_s":
                out[name] = overhead_s
            elif name == "bench.run_family_s":
                out[name] = float(self.span_s["bench.run_family_self_s"])
            elif name in COUNTERS:
                out[name] = int(self.counts[name])
            else:
                out[name] = float(self.self_s[name])
        return out

    def wrapper_cost(self, calls=20000) -> float:
        """Seconds one wrapped call adds, measured on a function that does nothing.

        ``trace.overhead_s`` is a difference of two wall times and carries
        their noise; this estimate times the wrappers alone.
        """

        def noop(self=None):
            return None

        probe = Tracer(self.package)
        wrapped = probe._wrap(noop, "probe", "probe")
        t = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - t
        t = time.perf_counter()
        for _ in range(calls):
            wrapped()
        return max(time.perf_counter() - t - bare, 0.0) / calls

    def dump(self, path, metrics: dict):
        per_call = self.wrapper_cost()
        total_calls = sum(self.calls.values())
        doc = {
            "metrics": metrics,
            "wrapped_calls": total_calls,
            "wrapper_cost_per_call_s": per_call,
            "wrapper_cost_s": per_call * total_calls,
            "calls": dict(self.calls),
            "spans": [
                {"id": s[0], "parent": s[1], "op": s[2], "name": s[3],
                 "start_s": s[4], "end_s": s[5]}
                for s in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
