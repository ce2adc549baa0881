"""Timing and counting wrappers around miselect's public functions.

`Tracer.install` replaces each wrapped function everywhere miselect holds
a reference to it (the defining module, modules that imported it by name,
and the package namespace), so calls are caught whichever way they are
made.  `uninstall` puts the originals back.  Each call records a span
(id, parent id, name, start, end, job) in memory; a call's self time is
its wall time minus the wall time of the wrapped calls it made.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

# Functions timed as spans, by layer.  The layers are the modules.
SPANNED = {
    "data": ("load_csv", "quantize_column", "composite_view", "empirical_distribution",
             "mutual_information", "conditional_mutual_information", "entropy"),
    "criteria": ("score", "score_all"),
    "search": ("forward_select", "backward_eliminate", "plus_l_take_away_r"),
    "structure": ("classify_relevance", "is_markov_blanket", "find_minimal_markov_blankets",
                  "dmi", "minimal_sufficient_subsets", "analyze"),
    "bounds": ("bayes_error_bounds", "feature_bounds_table"),
    "info": ("entropy", "conditional_entropy", "mutual_information",
             "conditional_mutual_information", "interaction_information",
             "total_correlation", "joint_mi_by_decomposition"),
    "cli": ("main",),
}
# Class methods timed as spans; "__init__" is named after the class.
SPANNED_METHODS = {
    ("distribution", "JointDistribution"): ("__init__", "marginal_mass", "marginal"),
}
# PairCache lookups are counted, not timed: a lookup that makes no data
# call was answered from the cache.
PAIR_CACHE_LOOKUPS = ("relevance", "pair_mi", "pair_mi_given_class", "class_mi_given")


class _Frame:
    __slots__ = ("sid", "layer", "child")

    def __init__(self, sid, layer):
        self.sid = sid
        self.layer = layer
        self.child = 0.0


class Tracer:
    def __init__(self, package):
        self.package = package
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.spans: list[tuple] = []
        self.job = None
        self._stack: list[_Frame] = []
        self._next_id = 0
        self._data_calls = 0
        self._patches: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, layer, name, fn):
        tracer = self
        on_call = _ON_CALL.get(name)
        on_return = _ON_RETURN.get(name)

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            if layer == "data":
                tracer._data_calls += 1
                if parent is not None and parent.layer == "structure":
                    tracer.counts["structure.subsets"] += 1
            if on_call is not None:
                args, kwargs = on_call(tracer, args, kwargs)
            frame = _Frame(tracer._next_id, layer)
            tracer._next_id += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                wall = end - start
                tracer.calls[name] += 1
                tracer.self_s[name] += wall - frame.child
                if parent is not None:
                    parent.child += wall
                tracer.spans.append((frame.sid, parent.sid if parent else None,
                                     name, start, end, tracer.job))
            if on_return is not None:
                on_return(tracer, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _lookup(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            before = tracer._data_calls
            result = fn(*args, **kwargs)
            tracer.counts["criteria.pair_cache.lookups"] += 1
            if tracer._data_calls != before:
                tracer.counts["criteria.pair_cache.misses"] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------

    def _modules(self):
        prefix = self.package.__name__
        return [mod for key, mod in list(sys.modules.items())
                if mod is not None and (key == prefix or key.startswith(prefix + "."))]

    def install(self):
        pkg = self.package.__name__
        for layer in SPANNED:
            importlib.import_module(f"{pkg}.{layer}")
        modules = self._modules()
        for layer, names in SPANNED.items():
            mod = sys.modules[f"{pkg}.{layer}"]
            for attr in names:
                orig = getattr(mod, attr)
                wrapped = self._spanned(layer, f"{layer}.{attr}", orig)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is orig:
                            self._patch(holder, key, wrapped)
        for (layer, cls_name), methods in SPANNED_METHODS.items():
            cls = getattr(sys.modules[f"{pkg}.{layer}"], cls_name)
            for attr in methods:
                label = cls_name if attr == "__init__" else attr
                self._patch(cls, attr, self._spanned(layer, f"{layer}.{label}",
                                                     vars(cls)[attr]))
        cache_cls = sys.modules[f"{pkg}.criteria"].PairCache
        for attr in PAIR_CACHE_LOOKUPS:
            self._patch(cache_cls, attr, self._lookup(vars(cache_cls)[attr]))

    def _patch(self, holder, key, value):
        self._patches.append((holder, key, getattr(holder, key)))
        setattr(holder, key, value)

    def uninstall(self):
        for holder, key, orig in reversed(self._patches):
            setattr(holder, key, orig)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(layer + "."))

    def snapshot(self) -> dict:
        """Totals so far, keyed by metric name."""
        out = {}
        for name in set(self.calls) | set(self.self_s):
            out[f"{name}.calls"] = float(self.calls[name])
            out[f"{name}.self_s"] = self.self_s[name]
        out.update(self.counts)
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, job in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, "job": job}) + "\n")


def _score_all_call(tracer, args, kwargs):
    # score_all(spec, candidates, S, ds, cache=None): count candidates,
    # keeping an iterator usable by the wrapped call
    args = list(args)
    if "candidates" in kwargs:
        kwargs["candidates"] = list(kwargs["candidates"])
        tracer.counts["criteria.score_all.candidates"] += len(kwargs["candidates"])
    else:
        args[1] = list(args[1])
        tracer.counts["criteria.score_all.candidates"] += len(args[1])
    return tuple(args), kwargs


def _composite_view_call(tracer, args, kwargs):
    # composite_view(ds, vars): cells recoded = rows x columns
    ds, names = args[0], args[1]
    if not isinstance(names, str):
        names = list(names)
        args = (ds, names) + tuple(args[2:])
    width = 1 if isinstance(names, str) else len(names)
    tracer.counts["data.composite_view.cells"] += ds.n * width
    return args, kwargs


def _search_return(tracer, trace):
    tracer.counts["search.steps"] += len(trace.steps)


_ON_CALL = {
    "criteria.score_all": _score_all_call,
    "data.composite_view": _composite_view_call,
}
_ON_RETURN = {
    "search.forward_select": _search_return,
    "search.backward_eliminate": _search_return,
    "search.plus_l_take_away_r": _search_return,
}
