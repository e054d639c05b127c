"""Property tests for the counting and drawing layer and the CLI label parser."""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from wreathchar.cli import _parse_label
from wreathchar.partitions import (
    count_multipartitions,
    count_partitions,
    rank_multipartition,
    unrank_multipartition,
)
from wreathchar.stats import CounterStream, random_multipartition

SIZES = st.integers(min_value=0, max_value=30)
KS = st.integers(min_value=1, max_value=3)
SEEDS = st.integers(min_value=0, max_value=(1 << 64) - 1)
# tables are rebuilt whenever (n, k) changes, so no per-example deadline
SETTINGS = settings(deadline=None, max_examples=150)


@st.composite
def ranked(draw):
    n, k = draw(SIZES), draw(KS)
    return n, k, draw(st.integers(min_value=0, max_value=count_multipartitions(n, k) - 1))


@SETTINGS
@given(ranked())
def test_rank_inverts_unrank(nki):
    n, k, i = nki
    assert rank_multipartition(unrank_multipartition(n, k, i)) == i


def _lower(m, k):
    # p_{k-1}(m), with p_0 the delta at 0
    return count_multipartitions(m, k - 1) if k > 1 else int(m == 0)


@SETTINGS
@given(SIZES, KS)
def test_count_is_convolution(n, k):
    assert count_multipartitions(n, k) == sum(count_partitions(a) * _lower(n - a, k) for a in range(n + 1))


@SETTINGS
@given(SIZES, KS, SEEDS, SEEDS)
def test_random_multipartition_is_a_uniform_rank_unranked(n, k, seed, index):
    want = unrank_multipartition(n, k, CounterStream(seed, index).below(count_multipartitions(n, k)))
    assert random_multipartition(n, k, CounterStream(seed, index)) == want


@st.composite
def labels(draw):
    parts = st.lists(st.integers(min_value=1, max_value=12), max_size=6)
    comps = draw(st.lists(parts, min_size=1, max_size=4))
    return [sorted(comp, reverse=True) for comp in comps]


@SETTINGS
@given(labels(), st.sampled_from([None, 0, 2]))
def test_parse_label_round_trip(label, indent):
    mp = _parse_label(json.dumps(label, indent=indent))
    assert [list(comp.parts) for comp in mp.components] == label
