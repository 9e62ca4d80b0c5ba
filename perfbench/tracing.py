"""Span tracing of the program's layers, from outside the program.

``Tracer.install`` wraps public functions and rebinds every name under which
a ``localchrom`` module (or the package) holds them, so callers inside the
program reach the wrapper.  Spans (name, start, end, parent) are kept in typed
arrays in memory and written out by ``write``; calls, busy time and self time
are aggregated from them.
"""

from __future__ import annotations

import gzip
import inspect
import sys
from array import array
from time import perf_counter

# (module, attribute) of every traced function, in report order.  The last
# element says whether the function is a hot layer, counted in the coverage
# share; the entry points that the workloads call directly are not.
TRACED = (
    ("homomorphism", "canonical_form", True),
    ("structure", "neighbourhood_is_bipartite", True),
    ("graphs", "Graph.with_vertex", True),
    ("structure", "is_locally_bipartite", True),
    ("homomorphism", "find_subgraph", True),
    ("homomorphism", "subgraph_embeddings", True),
    ("homomorphism", "find_homomorphism", True),
    ("colouring", "k_colourable", True),
    ("simplex", "solve_lp", True),
    ("weighting", "optimal_weighting", False),
    ("decompose", "verify_profile", False),
)

OUTER = 1  # no enclosing span of the same name
HOT_OUTER = 2  # a hot layer with no enclosing hot-layer span


def tableau_cells(objective, rows) -> int:
    """Cells of the two-phase tableau ``solve_lp`` builds for this LP.

    One column per variable, one slack per inequality and one artificial per
    row that is not "<=" once its right-hand side is made nonnegative.
    """
    flip = {"<=": ">=", ">=": "<=", "=": "="}
    cols = len(objective)
    for _, rel, rhs in rows:
        cols += rel != "="
        cols += (flip[rel] if rhs < 0 else rel) != "<="
    return len(rows) * cols


class Tracer:
    def __init__(self):
        self.names = [f"{mod}.{attr.split('.')[-1]}" for mod, attr, _ in TRACED]
        count = len(self.names)
        self.calls = [0] * count
        self.raised = [0] * count
        self.false_returns = [0] * count
        self.yields = [0] * count
        self.tableau_cells = 0
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.flags = array("B")
        self._stack: list[int] = []
        self._depth = [0] * count
        self._hot_depth = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, nid: int, hot: bool) -> int:
        idx = len(self.start)
        flags = (self._depth[nid] == 0) * OUTER
        if hot:
            flags |= (self._hot_depth == 0) * HOT_OUTER
            self._hot_depth += 1
        self._depth[nid] += 1
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.flags.append(flags)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int, nid: int, hot: bool) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()
        self._depth[nid] -= 1
        if hot:
            self._hot_depth -= 1

    def _wrap(self, nid: int, fn, hot: bool):
        tracer = self
        lp = tracer.names[nid] == "simplex.solve_lp"

        def traced(*args, **kwargs):
            tracer.calls[nid] += 1
            if lp:
                tracer.tableau_cells += tableau_cells(*args, **kwargs)
            idx = tracer._open(nid, hot)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(idx, nid, hot)
                tracer.raised[nid] += 1
                raise
            tracer._close(idx, nid, hot)
            if result is False:
                tracer.false_returns[nid] += 1
            return result

        return traced

    def _wrap_generator(self, nid: int, fn, hot: bool):
        """One span per resume, so busy time excludes the consumer's work."""
        tracer = self

        def traced(*args, **kwargs):
            tracer.calls[nid] += 1
            inner = fn(*args, **kwargs)
            try:
                while True:
                    idx = tracer._open(nid, hot)
                    try:
                        item = next(inner)
                    except StopIteration:
                        tracer._close(idx, nid, hot)
                        return
                    except BaseException:
                        tracer._close(idx, nid, hot)
                        tracer.raised[nid] += 1
                        raise
                    tracer._close(idx, nid, hot)
                    tracer.yields[nid] += 1
                    yield item
            finally:
                inner.close()

        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        modules = [
            m for key, m in list(sys.modules.items())
            if key == "localchrom" or key.startswith("localchrom.")
        ]
        for nid, (mod, attr, hot) in enumerate(TRACED):
            owner = sys.modules[f"localchrom.{mod}"]
            if "." in attr:  # a method: rebind it on its class
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                self._rebind(owner, attr, self._wrap(nid, original, hot))
                continue
            original = getattr(owner, attr)
            make = self._wrap_generator if inspect.isgeneratorfunction(original) else self._wrap
            wrapper = make(nid, original, hot)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapper)

    def _rebind(self, owner, key: str, wrapper) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- aggregation -----------------------------------------------------

    def summary(self, wall_s: float) -> dict:
        """Per function: calls, busy (outermost spans) and self time; and the
        share of ``wall_s`` covered by the hot layers."""
        count = len(self.names)
        busy = [0.0] * count
        self_s = [0.0] * count
        child = [0.0] * len(self.start)
        covered = 0.0
        name, parent, start, end, flags = self.name, self.parent, self.start, self.end, self.flags
        for i in range(len(start) - 1, -1, -1):  # children are recorded after parents
            dur = end[i] - start[i]
            nid = name[i]
            self_s[nid] += dur - child[i]
            if parent[i] >= 0:
                child[parent[i]] += dur
            if flags[i] & OUTER:
                busy[nid] += dur
            if flags[i] & HOT_OUTER:
                covered += dur
        per_function = {
            self.names[n]: {
                "calls": self.calls[n],
                "busy_s": busy[n],
                "self_s": self_s[n],
                "raised": self.raised[n],
                "false_returns": self.false_returns[n],
                "yields": self.yields[n],
            }
            for n in range(count)
        }
        return {
            "functions": per_function,
            "spans": len(start),
            "tableau_cells": self.tableau_cells,
            "coverage": covered / wall_s,
        }

    def write(self, path: str, origin: float) -> None:
        """Spans as gzip'd CSV: name,parent,start_s,end_s relative to ``origin``."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,parent,start_s,end_s\n")
            names = self.names
            for nid, par, s, e in zip(self.name, self.parent, self.start, self.end):
                fh.write(f"{names[nid]},{par},{s - origin:.9f},{e - origin:.9f}\n")
