"""Spans around the calls between isobench modules, recorded from the
benchmark's side without touching the package.

``Tracer.install`` replaces every public function that one module of the
package imported by name from another with a wrapper, in the namespace of
the module that looks it up (``search.count_isolating``,
``verify.count_isolating``, ``constructions.min_weight_edges``, ...).  A
span is named after the module that defines the function, so
``counting.count_isolating`` covers the scan whichever layer called it.
Calls inside one module and private helpers are not wrapped: they count
as the calling layer's own time.

Each span keeps its start, end, parent span and op id in flat arrays;
nothing is written until ``dump``.  Generators get one span per ``next``.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import json
import pkgutil
import time
from pathlib import Path

import numpy as np

PACKAGE = "isobench"


def _rows_full(args, result) -> dict:
    H, M = args[0], args[1]
    return {"counting.rows": M**H.n}


def _rows_layer1(args, result) -> dict:
    H, M = args[0], args[1]
    return {"counting.rows": M**H.n - (M - 1) ** H.n}


def _left_nodes(args, result) -> dict:
    return {"constructions.left_nodes": len(result.left)}


def _injection_domain(args, result) -> dict:
    return {"constructions.injection_domain": len(result)}


def _rejection_draws(args, result) -> dict:
    return {"search.draws": result.draws, "search.accepted": result.trials}


def _grid_summary(args, result) -> dict:
    return {"verify.instances": result.instances, "verify.checks": result.checks_run}


# Work counts read off a traced call's arguments or result, by span name.
COUNTERS = {
    "counting.count_isolating": _rows_full,
    "counting.count_layer1": _rows_layer1,
    "constructions.build_witness_graph_A": _left_nodes,
    "constructions.build_witness_graph_B": _left_nodes,
    "constructions.tashma_injection": _injection_domain,
    "search.sample_layer1": _rejection_draws,
    "verify.verify_grid": _grid_summary,
}
YIELD_COUNTERS = {"hypergraph.enumerate_hypergraphs": "hypergraph.yielded"}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array.array("d")
        self.end = array.array("d")
        self.name = array.array("i")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.current = -1
        self.op_id = -1
        self.counters: dict[str, int] = {}

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.name.append(nid)
        self.parent.append(self.current)
        self.op.append(self.op_id)
        self.current = sid
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self.current = self.parent[sid]

    def _count(self, deltas: dict) -> None:
        for key, value in deltas.items():
            self.counters[key] = self.counters.get(key, 0) + value

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        """``fn`` recording one span per call (per ``next`` for a generator)."""
        nid = self._intern(name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, nid, YIELD_COUNTERS.get(name))
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if counter is not None:
                self._count(counter(args, result))
            return result

        return traced

    def _wrap_generator(self, fn, nid: int, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            try:
                while True:
                    sid = self._open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(sid)
                    if counter is not None:
                        self._count({counter: 1})
                    yield item
            finally:
                it.close()

        return traced

    def install(self) -> None:
        """Wrap every cross-module lookup of a public package function."""
        package = importlib.import_module(PACKAGE)
        modules = [
            importlib.import_module(f"{PACKAGE}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__.startswith(PACKAGE + ".")
                    and obj.__module__ != module.__name__
                ):
                    span = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"
                    setattr(module, attr, self.wrap(obj, span))

    def dump(self, path: Path) -> None:
        """Write the spans: a .npz of the arrays plus the name table."""
        np.savez(
            path,
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            names=np.array(json.dumps(self.names)),
        )


def layer_times(path: Path) -> dict[str, dict[str, float]]:
    """Per layer (module): span count, busy time (spans with no ancestor
    of the same layer) and self time (span time not covered by child
    spans), plus per-span-name call counts under ``"spans"``."""
    with np.load(path) as data:
        start, end = data["start"], data["end"]
        name, parent = data["name"], data["parent"]
        names = json.loads(str(data["names"]))
    layers = sorted({n.split(".", 1)[0] for n in names})
    layer_of_name = np.array([layers.index(n.split(".", 1)[0]) for n in names])
    dur = end - start
    span_layer = layer_of_name[name]
    child_cover = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(child_cover, parent[has_parent], dur[has_parent])
    # Bitmask of the layers on each span's ancestor path; parents precede
    # children in the arrays, so one forward pass fills it.
    bits = (1 << span_layer).tolist()
    above = [0] * len(bits)
    par = parent.tolist()
    for sid, p in enumerate(par):
        if p >= 0:
            above[sid] = above[p] | bits[p]
    outermost = (np.array(above, dtype=np.int64) & np.array(bits, dtype=np.int64)) == 0
    out: dict[str, dict[str, float]] = {}
    for k, layer in enumerate(layers):
        mine = span_layer == k
        out[layer] = {
            "calls": int(mine.sum()),
            "busy_s": float(dur[mine & outermost].sum()),
            "self_s": float((dur[mine] - child_cover[mine]).sum()),
        }
    counts = np.bincount(name, minlength=len(names))
    out["spans"] = {n: int(c) for n, c in zip(names, counts)}
    return out
