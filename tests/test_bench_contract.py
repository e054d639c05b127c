"""What the benchmark reads from the package.

``bench/tracing.py`` rebinds the callables it lists and reads two
``lru_cache`` infos; a name that a refactor removes makes its per-layer
metrics read "absent" while every answer stays right.  These tests read the
tracer's own tables, so they follow any rename made there.  The table CSV's
toy digest in ``bench/workloads.py`` is checked here too, so that a change of
the CSV bytes fails the unit tests and not only the benchmark's gate, and so
is the toy exact census's pinned answer.
"""

import hashlib
import importlib
import json
import importlib.util
import sys
from pathlib import Path

import pytest

from wreathchar.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


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


def test_table_csv_matches_the_toy_digest(capsys):
    workload = _load("workloads").TOY_WORKLOADS["table-csv"]
    assert main(workload.command(1)) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == workload.csv_sha256


def test_exact_census_matches_the_toy_answer(capsys):
    workload = _load("workloads").TOY_WORKLOADS["exact-census"]
    assert main(workload.command(1)) == 0
    report = json.loads(capsys.readouterr().out)
    assert {key: report.get(key) for key in workload.answer} == workload.answer
