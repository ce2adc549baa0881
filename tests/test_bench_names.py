"""The benchmark's tracer wraps miselect's functions by name, so a rename in
the library would silently drop spans from a traced benchmark run.  Load
bench/tracer.py as it is and check that every name it wraps exists."""

import importlib
import types
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer():
    # executed from its source, so that no bytecode cache is written under bench/
    module = types.ModuleType("bench_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), vars(module))
    return module


tracer = _tracer()


@pytest.mark.parametrize("layer,name", [
    (layer, name) for layer, names in tracer.SPANNED.items() for name in names])
def test_spanned_function_exists(layer, name):
    assert callable(getattr(importlib.import_module(f"miselect.{layer}"), name))


@pytest.mark.parametrize("layer,cls,method", [
    (layer, cls, method)
    for (layer, cls), methods in tracer.SPANNED_METHODS.items() for method in methods])
def test_spanned_method_exists(layer, cls, method):
    # the tracer patches vars(cls)[method], so the class must define it itself
    assert callable(vars(getattr(importlib.import_module(f"miselect.{layer}"), cls))[method])


@pytest.mark.parametrize("name", tracer.PAIR_CACHE_LOOKUPS)
def test_pair_cache_lookup_exists(name):
    from miselect.criteria import PairCache
    assert callable(vars(PairCache)[name])
