"""Module state stays bounded over a long mixed sequence of engine calls.

The column path keeps its levels (one ``_Level`` per level: index, orbits
and peel steps) in a dict that belongs to the call that builds it, so no
level outlives the column, table or census that asked for it, except level
n of an unread table, which its rows need; ``multipartitions_of`` holds the
latest (n, k), ``kostka`` keeps its memo for one call, nothing on the
engine's paths fills the ``_strip_removals`` cache of ``remove_rimhooks``,
and that cache has a fixed bound.
"""

import gc
import tracemalloc

import pytest

from wreathchar import wreath_chars
from wreathchar.base_group import builtin
from wreathchar.partitions import (
    MultiPartition,
    _strip_removals,
    enumerate_partitions,
    multipartitions_of,
    remove_rimhooks,
)
from wreathchar.stats import exact_census
from wreathchar.weyl_d import dn_restricted_census
from wreathchar.wreath_chars import (
    CharTable,
    _kostka_rec,
    _Level,
    character_column,
    character_table,
    kostka,
    mn_character,
)


def test_mixed_calls_leave_bounded_caches():
    # misses, not currsize: a full cache evicts and would hide a new entry
    strips_before = _strip_removals.cache_info().misses
    for name, n in (("Z2", 5), ("S3", 3), ("trivial", 7), ("Z2xZ2", 3), ("Z2", 4), ("D8", 2)):
        g = builtin(name)
        character_table(g, n)
        exact_census(g, n, 3)
        dn_restricted_census(n + 1, 2, mode="exact")
        labels = [MultiPartition(t) for t in multipartitions_of(n, g.k)]
        for lam, mu in zip(labels, reversed(labels)):
            mn_character(g, lam, mu)
        shapes = enumerate_partitions(n)
        for beta in shapes:
            for gamma in shapes:
                kostka(beta, gamma)
        assert _live_levels() == []
    assert multipartitions_of.cache_info().currsize <= 1
    assert _strip_removals.cache_info().misses == strips_before
    assert not hasattr(_kostka_rec, "cache_info")


def test_one_level_state_for_every_total():
    # a level never depends on the n of the column that asks for it, so
    # columns of n = 6 and then n = 3 on one table fill one dict
    g = builtin("Z2")
    levels = {}
    character_column(g, 6, ((3, 1), (2,)), levels=levels)
    character_column(g, 3, ((1,), (2,)), levels=levels)
    assert 6 in levels and 3 in levels and set(levels) <= set(range(7))
    assert all(isinstance(level, _Level) for level in levels.values())


def _live_levels(before=()):
    """Every _Level the garbage collector reaches, other than those of before."""
    gc.collect()
    return [o for o in gc.get_objects() if type(o) is _Level and not any(o is b for b in before)]


Z2 = builtin("Z2")
RUNS = {
    "character_column": lambda: character_column(Z2, 8, ((2, 1), (3, 1, 1))),
    "character_table": lambda: character_table(Z2, 8),
    "character_table-pool": lambda: character_table(Z2, 8, workers=2),
    "exact_census": lambda: exact_census(Z2, 8, 2),
    "dn_restricted_census": lambda: dn_restricted_census(8, 3, mode="exact"),
}
# a standalone column is one call, and the pool's columns run in other
# processes, so neither has a second column to fail in this one
CASES = [(run, fails) for fails in (None, "top step") for run in RUNS] + [
    (run, "column") for run in RUNS if run not in ("character_column", "character_table-pool")
]


@pytest.mark.parametrize("run, fails", CASES)
def test_no_level_outlives_its_call(monkeypatch, run, fails):
    # the levels are the call's own: once it returns or raises, none is
    # left but level n of an unread table, and reading the table frees it
    before = _live_levels()
    if fails == "column":
        real_column, calls = wreath_chars.character_column, []

        def column(*args, **kw):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("column failed")
            return real_column(*args, **kw)

        monkeypatch.setattr(wreath_chars, "character_column", column)
    elif fails == "top step":
        real_step = wreath_chars._peel_step

        def step(levels, remaining, length, group):
            # only the last step of a column of n = 8, a table's top step,
            # peels from level 8: a table's sub-columns stop below it
            if remaining == 8:
                raise RuntimeError("top step failed")
            return real_step(levels, remaining, length, group)

        monkeypatch.setattr(wreath_chars, "_peel_step", step)
    if fails:
        with pytest.raises(RuntimeError, match=f"{fails} failed"):
            RUNS[run]()
        assert _live_levels(before) == []
        return
    result = RUNS[run]()
    if isinstance(result, CharTable):
        assert _live_levels(before) == [result._level]
        result.values  # the rows are built on first read
    assert _live_levels(before) == []


def test_standalone_column_keeps_no_memory():
    # the 1.8 MiB of levels that Z2 n = 14 builds are freed on return
    g = builtin("Z2")
    character_column(g, 2, ((1,), (1,)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        character_column(g, 14, ((), (1,) * 14))
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept <= 16 * 2**10


def test_exact_census_peak_memory():
    # the census counts on the table's block, the representative rows on
    # the least column of each centre orbit, and never builds the rows:
    # 0.94 MiB here, 1.04 when every computed column ran whole through
    # character_column, 2.44 when it built every row and 4.2 when the table
    # held every full column and every row at once
    multipartitions_of(10, 2)
    tracemalloc.start()
    try:
        exact_census(builtin("Z2"), 10, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * 2**20


def test_table_drops_level_n_steps_and_getters(monkeypatch):
    # level n's fill getters index every row, and nothing reads them once
    # the columns are in
    seen = []
    rows = wreath_chars._rows

    def spy(level, *args):
        seen.append(level)
        return rows(level, *args)

    monkeypatch.setattr(wreath_chars, "_rows", spy)
    character_table(builtin("Z2"), 6).values  # the rows are built on first read
    [level] = seen
    assert level.m == 6 and level.steps == {} and level.getters == {}


def test_rimhook_removals_stay_within_the_cache_bound():
    for n in range(26):
        for p in enumerate_partitions(n):
            for length in range(1, n + 1):
                remove_rimhooks(p, length)
    info = _strip_removals.cache_info()
    assert info.maxsize is not None
    assert info.misses > info.maxsize  # the bound was reached, not just respected
    assert info.currsize <= info.maxsize
