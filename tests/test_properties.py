"""Property tests for the counting and drawing layer, border-strip removal,
the bit-set Murnaghan-Nakayama kernel, mashing and the CLI label parser."""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from wreathchar.base_group import BUILTIN_NAMES, builtin
from wreathchar.cli import _parse_label
from wreathchar.congruence import mash_canonical, sim_p_equivalent
from wreathchar.partitions import (
    MultiPartition,
    Partition,
    _beta_mask,
    _strip_removals,
    count_multipartitions,
    count_partitions,
    enumerate_multipartitions,
    enumerate_partitions,
    rank_multipartition,
    unrank_multipartition,
)
from wreathchar.stats import CounterStream, random_multipartition
from wreathchar.wreath_chars import _mn_beads, mn_character

import oracles

SIZES = st.integers(min_value=0, max_value=30)
KS = st.integers(min_value=1, max_value=3)
SEEDS = st.integers(min_value=0, max_value=(1 << 64) - 1)
# tables are rebuilt whenever (n, k) changes, so no per-example deadline
SETTINGS = settings(deadline=None, max_examples=150)


@st.composite
def ranked(draw, sizes=SIZES):
    n, k = draw(sizes), draw(KS)
    return n, k, draw(st.integers(min_value=0, max_value=count_multipartitions(n, k) - 1))


@SETTINGS
@given(ranked())
def test_rank_inverts_unrank(nki):
    n, k, i = nki
    assert rank_multipartition(unrank_multipartition(n, k, i)) == i


@settings(deadline=None, max_examples=40)
@given(ranked(st.integers(min_value=0, max_value=200)))
def test_unrank_matches_oracle_walk(nki):
    n, k, i = nki
    drawn = unrank_multipartition(n, k, i)
    assert drawn.as_tuples() == oracles.unrank_multipartition(n, k, i)
    assert rank_multipartition(drawn) == i


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


@st.composite
def shapes(draw):
    return tuple(sorted(draw(st.lists(st.integers(min_value=1, max_value=7), max_size=6)), reverse=True))


def _subshapes(parts, size, cap=None):
    """Partitions of ``size`` whose diagram lies inside that of ``parts``."""
    if size == 0:
        yield ()
        return
    if not parts:
        return
    top = parts[0] if cap is None else min(parts[0], cap)
    for first in range(min(top, size), 0, -1):
        for rest in _subshapes(parts[1:], size - first, first):
            yield (first,) + rest


def _strips_by_cells(parts, length):
    """(remainder, height) for every border strip of ``length`` cells, found
    as a skew shape lambda/nu that is connected and holds no 2x2 block."""
    cells = {(i, j) for i, p in enumerate(parts) for j in range(p)}
    out = []
    for sub in _subshapes(parts, sum(parts) - length) if length <= sum(parts) else ():
        strip = cells - {(i, j) for i, s in enumerate(sub) for j in range(s)}
        if any({(i + 1, j), (i, j + 1), (i + 1, j + 1)} <= strip for i, j in strip):
            continue
        seen, todo = set(), [min(strip)]
        while todo:
            i, j = todo.pop()
            if (i, j) in strip and (i, j) not in seen:
                seen.add((i, j))
                todo += [(i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)]
        if seen == strip:
            out.append((sub, len({i for i, _ in strip}) - 1))
    return out


@st.composite
def shapes_and_lengths(draw):
    parts = draw(shapes())
    return parts, draw(st.integers(min_value=1, max_value=sum(parts) + 1))


@SETTINGS
@given(shapes_and_lengths())
def test_strip_removals_match_cell_sets(shape_length):
    parts, length = shape_length
    assert sorted(_strip_removals(parts, length)) == sorted(_strips_by_cells(parts, length))


class _SeededMemo(dict):
    """A kernel memo that answers every lookup below the top from its seeds
    and records it; a remainder it was not seeded with raises KeyError."""

    def __init__(self, seeds):
        super().__init__(seeds)
        self.looked_up = []

    def get(self, key):
        if key[1] == 0:
            return None
        self.looked_up.append(key)
        return self[key]


@st.composite
def partitions_and_lengths(draw):
    n = draw(SIZES)
    parts = unrank_multipartition(n, 1, draw(st.integers(0, count_partitions(n) - 1))).as_tuples()[0]
    return parts, draw(st.integers(min_value=1, max_value=n + 1))


@SETTINGS
@given(partitions_and_lengths())
def test_bead_strips_match_strip_removals(parts_length):
    # Each remainder the tuple path finds is seeded with its own weight 3^i,
    # so the kernel's one-step total is the signed sum of the weights of the
    # strips it removed, and every remainder it reaches must be a seeded one.
    parts, length = parts_length
    rows = len(parts)
    want = _strip_removals(parts, length)
    keys = [((_beta_mask(rem + (0,) * (rows - len(rem))),), 1) for rem, _ in want]
    memo = _SeededMemo({key: 3**i for i, key in enumerate(keys)})
    total = _mn_beads((_beta_mask(parts),), 0, ((length, 0), (1, 0)), ((1,),), memo)
    assert sorted(memo.looked_up) == sorted(keys)
    assert total == sum(-(3**i) if height & 1 else 3**i for i, (_, height) in enumerate(want))


@st.composite
def small_cells(draw):
    group = builtin(draw(st.sampled_from(BUILTIN_NAMES)))
    n = draw(st.integers(min_value=0, max_value=6 if group.k <= 2 else 4))
    size = count_multipartitions(n, group.k)
    lam, mu = (unrank_multipartition(n, group.k, draw(st.integers(0, size - 1))) for _ in range(2))
    return group, lam, mu


@SETTINGS
@given(small_cells())
def test_mn_character_matches_brute_peeling(cell):
    group, lam, mu = cell
    seq = oracles.component_major_sequence(mu.as_tuples())
    want = oracles.brute_mn_value(group.table, lam.as_tuples(), seq)
    assert mn_character(group, lam, mu) == want


PRIMES = st.sampled_from([2, 3, 5, 7])


def _same_as_validated(mp):
    # rebuilt from plain part tuples, so that every component is checked again
    checked = MultiPartition([tuple(c) for c in mp])
    assert type(mp) is MultiPartition and all(type(c) is Partition for c in mp)
    assert mp == checked
    assert mp.total == checked.total
    assert [c.size for c in mp.components] == [c.size for c in checked.components]


@SETTINGS
@given(ranked(), st.sampled_from([2, 3, 5]))
def test_unchecked_labels_equal_validated_ones(nki, p):
    n, k, i = nki
    drawn = unrank_multipartition(n, k, i)
    _same_as_validated(drawn)
    _same_as_validated(mash_canonical(drawn, p).canonical)


@pytest.mark.parametrize("n", range(9))
def test_enumerated_labels_equal_validated_ones(n):
    for part in enumerate_partitions(n):
        assert type(part) is Partition and part == Partition(tuple(part))
    for k in (1, 2, 3):
        for mp in enumerate_multipartitions(n, k):
            _same_as_validated(mp)


@SETTINGS
@given(labels(), PRIMES)
def test_mashing_is_idempotent(label, p):
    mu = MultiPartition.from_tuples(label)
    canonical = mash_canonical(mu, p).canonical
    assert mash_canonical(canonical, p).canonical == canonical
    assert sim_p_equivalent(mu, canonical, p)


@SETTINGS
@given(labels(), PRIMES, st.integers(min_value=1, max_value=6), st.data())
def test_one_mashing_step_keeps_the_canonical_form(label, p, m, data):
    # trading one part m*p for p parts m stays inside the class
    c = data.draw(st.integers(min_value=0, max_value=len(label) - 1))
    merged = [sorted(comp + [m * p], reverse=True) if i == c else comp for i, comp in enumerate(label)]
    split = [sorted(comp + [m] * p, reverse=True) if i == c else comp for i, comp in enumerate(label)]
    assert sim_p_equivalent(MultiPartition.from_tuples(merged), MultiPartition.from_tuples(split), p)
