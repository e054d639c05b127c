"""Module state stays bounded over a long mixed sequence of engine calls.

The column path keeps one ``_Level`` per level (index, orbits and peel
steps) in ``_step_tables`` only while its columns run, and for the latest
table only, one state for columns of every total; ``multipartitions_of``
holds the latest (n, k),
``kostka`` keeps its memo for one call, nothing on the engine's paths
fills the ``_strip_removals`` cache of ``remove_rimhooks``, and that cache
has a fixed bound.
"""

import tracemalloc

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
    _columns,
    _kostka_rec,
    _Level,
    _step_tables,
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
        assert _step_tables.cache_info().currsize == 0
    assert multipartitions_of.cache_info().currsize <= 1
    assert _strip_removals.cache_info().misses == strips_before
    assert not hasattr(_kostka_rec, "cache_info")


def test_orbits_of_the_latest_table_only():
    # S4, D8 and Q8 all have k = 5: the same multipartitions of n = 3, three tables
    n = 3
    labels = multipartitions_of(n, 5)
    for name in ("S4", "D8", "Q8", "S4"):
        g = builtin(name)
        for mu in labels[::7]:
            character_column(g, n, mu)
        assert _step_tables.cache_info().currsize == 1
        levels = _step_tables(g.table)  # the columns' own levels, not a new dict
        assert _step_tables.cache_info().currsize == 1
        assert n in levels and set(levels) <= set(range(n + 1))
        assert all(isinstance(level, _Level) for level in levels.values())
    assert len(list(_columns(g, labels[:5]))) == 5
    assert _step_tables.cache_info().currsize == 0


def test_one_level_state_for_every_total():
    # a level never depends on the n of the column that asks for it, so
    # columns of n = 6 and then n = 3 on one table fill one dict; the full
    # table and both exact censuses empty it, as well as forget it
    g = builtin("Z2")
    for run in (
        lambda: character_table(g, 6),
        lambda: exact_census(g, 6, 2),
        lambda: dn_restricted_census(6, 3, mode="exact"),
    ):
        character_column(g, 6, ((3, 1), (2,)))
        levels = _step_tables(g.table)
        character_column(g, 3, ((1,), (2,)))
        assert _step_tables(g.table) is levels and _step_tables.cache_info().currsize == 1
        assert 6 in levels and 3 in levels and set(levels) <= set(range(7))
        run()
        assert levels == {} and _step_tables.cache_info().currsize == 0


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
