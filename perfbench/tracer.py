"""Spans around sldkit's public functions, recorded from outside the package.

``Tracer.install`` replaces each traced function by a wrapper in every sldkit
namespace that holds it, including names that one module imports from
another (``cli.compute_structure_constants``, ``cli.tangent_from_generator``
and the like), so the CLI path is traced too; ``uninstall`` puts the
originals back, leaving no cost in untraced rounds.  Spans stay in memory:
(id, parent id, name, start, end), with the parent being the span that was
open when the call began.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

MODULES = ("lie_basis", "state_space", "sld_solver", "fisher", "oracle", "cli")

#: (module, qualified name) of every traced function
TRACED = (
    ("lie_basis", "build_basis"),
    ("lie_basis", "compute_structure_constants"),
    ("state_space", "DensityState.from_matrix"),
    ("state_space", "base_point"),
    ("state_space", "tangent_from_generator"),
    ("state_space", "numeric_tangent"),
    ("state_space", "transversal_tangent"),
    ("sld_solver", "assemble"),
    ("sld_solver", "solve"),
    ("fisher", "qfi_index"),
    ("fisher", "fisher_tensor"),
    ("fisher", "chart_tangents_u3"),
    ("fisher", "closed_form_deviation"),
    ("oracle", "qfi_eigenbasis"),
    ("oracle", "sld_eigenbasis"),
    ("cli", "main"),
    ("cli", "family_state_and_tangent"),
)

#: per-call layer metrics: metric name -> traced functions it covers.  A call
#: is an outermost span of the group; nested calls within the same group add
#: their self time to it.
CALL_METRICS = {
    "state_space.state_s": {"state_space.DensityState.from_matrix",
                            "state_space.base_point"},
    "state_space.tangent_s": {"state_space.tangent_from_generator",
                              "state_space.numeric_tangent",
                              "state_space.transversal_tangent"},
    "sld_solver.assemble_s": {"sld_solver.assemble"},
    "sld_solver.solve_s": {"sld_solver.solve"},
    "fisher.qfi_index_s": {"fisher.qfi_index"},
    "fisher.fisher_tensor_s": {"fisher.fisher_tensor"},
    "oracle.qfi_s": {"oracle.qfi_eigenbasis"},
    "oracle.sld_s": {"oracle.sld_eigenbasis"},
    "cli.family_eval_s": {"cli.family_state_and_tangent"},
    "cli.self_s": {"cli.main"},
}


class Tracer:
    def __init__(self, sldkit):
        self._sldkit = sldkit
        self.spans = []
        self._stack = []
        self._next_id = 0
        self._saved = []

    @contextmanager
    def span(self, name: str):
        """A span of the benchmark's own, e.g. around one operation."""
        sid = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(sid, name, start)

    def _open(self) -> int:
        sid = self._next_id
        self._next_id += 1
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, name: str, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((sid, parent, name, start, end))

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid, name, start)
        return traced

    def install(self) -> None:
        if self._saved:
            return
        namespaces = [self._sldkit] + [getattr(self._sldkit, m) for m in MODULES]
        for module, qualname in TRACED:
            owner = getattr(self._sldkit, module)
            name = f"{module}.{qualname}"
            if "." in qualname:  # classmethod: patch the class attribute
                cls_name, attr = qualname.split(".")
                cls = getattr(owner, cls_name, None)
                if cls is None or attr not in vars(cls):
                    continue
                self._saved.append((cls, attr, vars(cls)[attr]))
                setattr(cls, attr, staticmethod(self._wrap(name, getattr(cls, attr))))
                continue
            fn = getattr(owner, qualname, None)
            if fn is None:
                continue
            wrapper = self._wrap(name, fn)
            for ns in namespaces:
                if getattr(ns, qualname, None) is fn:
                    self._saved.append((ns, qualname, fn))
                    setattr(ns, qualname, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []


def self_times(spans) -> dict:
    """Span id -> duration minus the durations of its direct children."""
    child_total = defaultdict(float)
    for _, parent, _, start, end in spans:
        child_total[parent] += end - start
    return {sid: (end - start) - child_total[sid]
            for sid, _, _, start, end in spans}


def call_times(spans, names) -> list:
    """Self time of each outermost call into ``names``, nested calls merged."""
    own = self_times(spans)
    by_id = {s[0]: s for s in spans}
    root = {}
    totals = defaultdict(float)
    for sid, parent, name, _, _ in sorted(spans):  # ids grow with call order
        if name not in names:
            continue
        up = by_id.get(parent)
        root[sid] = root[parent] if up is not None and up[2] in names else sid
        totals[root[sid]] += own[sid]
    return list(totals.values())


def total_self(spans, names) -> float:
    own = self_times(spans)
    return sum(own[s[0]] for s in spans if s[2] in names)


def count(spans, name: str) -> int:
    return sum(1 for s in spans if s[2] == name)
