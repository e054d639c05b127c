"""The names the benchmark's tracer reads from the package.

``bench/tracing.py`` rebinds the callables it lists and reads two
``lru_cache`` infos; a name that a refactor removes makes its per-layer
metrics read "absent" while every answer stays right.  These tests read the
tracer's own tables, so they follow any rename made there.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve(tracing):
    for name, module_name, attr in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), name


def test_traced_methods_are_defined_on_their_class(tracing):
    for name, module_name, cls_name, attr in tracing.METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        assert attr in cls.__dict__, name


def test_cache_infos_read_by_the_tracer():
    partitions = importlib.import_module("wreathchar.partitions")
    for attr in ("_strip_removals", "multipartitions_of"):
        assert hasattr(getattr(partitions, attr), "cache_info"), attr


def test_cli_holds_json():
    assert hasattr(importlib.import_module("wreathchar.cli"), "json")
