import copy
import pickle
import random
import re
import tracemalloc
from enum import IntEnum

import pytest

from wreathchar.base_group import builtin
from wreathchar.congruence import mash_canonical, predicted_divisible, sim_p_equivalent, zero_certificate
from wreathchar.partitions import (
    MultiPartition,
    Partition,
    count_multipartitions,
    count_partitions,
    dominates,
    enumerate_multipartitions,
    enumerate_partitions,
    hook_lengths,
    is_t_core,
    multipartitions_of,
    rank_multipartition,
    remove_rimhooks,
    syt_count,
    unrank_multipartition,
    _check_int,
    _completion_tables,
    _count_array,
    _partition_tuples,
)
from wreathchar.weyl_d import bn_class_in_dn, nonsplit_rows
from wreathchar.wreath_chars import (
    character_table,
    class_size,
    dimension,
    kostka,
    mn_character,
    perm_character,
    perm_multiplicity,
)

import oracles


def _assert_label(mp):
    # a label equals its plain part tuples, so only its type tells them apart
    assert type(mp) is MultiPartition, mp
    assert all(type(c) is Partition for c in mp), mp


# a cell of Z2 wr S_4 and a partition, as plain part tuples; each call
# takes the identity (plain) or MultiPartition and Partition (labels)
Z2 = builtin("Z2")
LAM, MU, NU, SHAPE = ((2, 1), (1,)), ((1, 1), (2,)), ((2, 2), ()), (4, 2, 1)
LABEL_CALLS = {
    "mn_character": lambda L, P: mn_character(Z2, L(LAM), L(MU)),
    "perm_character": lambda L, P: perm_character(Z2, L(LAM), L(MU)),
    "predicted_divisible": lambda L, P: predicted_divisible(Z2, L(LAM), L(NU), 2),
    "class_size": lambda L, P: class_size(Z2, L(MU)),
    "dimension": lambda L, P: dimension(Z2, L(LAM)),
    "dominates": lambda L, P: dominates(L(NU), L(MU)),
    "sim_p_equivalent": lambda L, P: sim_p_equivalent(L(NU), L(((2, 1, 1), ())), 2),
    "zero_certificate": lambda L, P: zero_certificate(L(LAM), mash_canonical(L(NU), 2)),
    "mash_canonical": lambda L, P: mash_canonical(L(((2, 1, 1), (1, 1))), 2),
    "perm_multiplicity": lambda L, P: perm_multiplicity(L(((1, 1), (1, 1))), L(((2,), (2,)))),
    "bn_class_in_dn": lambda L, P: bn_class_in_dn(L(MU)),
    "hook_lengths": lambda L, P: hook_lengths(P(SHAPE)),
    "syt_count": lambda L, P: syt_count(P(SHAPE)),
    "kostka": lambda L, P: kostka(P((2, 1, 1)), P((3, 1))),
}


class TestTypes:
    def test_partition_validates(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, 0))
        assert Partition(()).size == 0
        assert Partition((4, 2, 1)).size == 7

    @pytest.mark.parametrize("parts, bad", [([2.7, 1], "2.7"), (["3"], "'3'"), ([True], "True")])
    def test_partition_rejects_non_int_parts(self, parts, bad):
        # int() would have coerced each of these to a valid part
        with pytest.raises(ValueError, match=f"got {bad} at index 0"):
            Partition(parts)
        with pytest.raises(ValueError, match=f"got {bad} at index 0"):
            MultiPartition([parts, []])

    def test_multipartition_total(self):
        mp = MultiPartition([[3, 1], [2]])
        assert mp.total == 6
        assert mp.k == 2
        assert mp == ((3, 1), (2,))

    def test_conjugate(self):
        assert Partition((4, 2, 1)).conjugate() == (3, 2, 1, 1)
        assert Partition(()).conjugate() == ()


class TestLabelsAreTuples:
    def test_label_equals_its_part_tuples(self):
        mp = MultiPartition([[3, 1], [], [2]])
        plain = ((3, 1), (), (2,))
        assert mp == plain and plain == mp
        assert hash(mp) == hash(plain)
        assert mp[0] == (3, 1) and hash(mp[0]) == hash((3, 1))
        assert len(mp) == mp.k == 3
        assert {plain: "found"}[mp] == "found"

    @pytest.mark.parametrize("name", list(LABEL_CALLS))
    def test_plain_tuples_give_the_label_answer(self, name):
        call = LABEL_CALLS[name]
        assert call(lambda x: x, lambda x: x) == call(MultiPartition, Partition)

    def test_the_tuple_aliases_are_gone(self):
        # a label is its part tuples, so it has no accessor that returns itself
        for name in ("components", "as_tuples", "from_tuples"):
            assert not hasattr(MultiPartition, name)
        assert not hasattr(Partition, "parts")

    @pytest.mark.parametrize(
        "round_trip", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy], ids=["pickle", "deepcopy"]
    )
    def test_round_trip_keeps_the_types(self, round_trip):
        mp = MultiPartition([[3, 1], [], [2]])
        back = round_trip(mp)
        assert back == mp
        _assert_label(back)
        part = round_trip(Partition((4, 2, 2)))
        assert part == (4, 2, 2) and type(part) is Partition

    def test_every_producer_builds_labels(self):
        for p in enumerate_partitions(6):
            assert type(p) is Partition
            assert type(p.conjugate()) is Partition
        assert type(Partition(()).conjugate()) is Partition
        for mp in enumerate_multipartitions(4, 3):
            _assert_label(mp)
        for i in range(count_multipartitions(6, 2)):
            _assert_label(unrank_multipartition(6, 2, i))
            _assert_label(mash_canonical(unrank_multipartition(6, 2, i), 2).canonical)
        table = character_table(builtin("S3"), 3)
        for mp in table.row_labels + table.col_labels + multipartitions_of(4, 2) + tuple(nonsplit_rows(4)):
            _assert_label(mp)
        removals = remove_rimhooks(Partition((4, 3, 1)), 3) + remove_rimhooks(Partition((3,)), 3)
        assert removals and all(type(r.remainder) is Partition for r in removals)


class TestEnumeration:
    def test_empty(self):
        assert enumerate_partitions(0) == [()]

    def test_four(self):
        assert enumerate_partitions(4) == [
            (4,),
            (3, 1),
            (2, 2),
            (2, 1, 1),
            (1, 1, 1, 1),
        ]

    def test_five_has_seven(self):
        assert len(enumerate_partitions(5)) == 7

    def test_descending_lex(self):
        for n in range(9):
            seq = enumerate_partitions(n)
            assert seq == sorted(seq, reverse=True)
            assert len(seq) == len(set(seq)) == count_partitions(n)

    def test_multipartitions_2_2(self):
        got = list(enumerate_multipartitions(2, 2))
        assert got == [
            ((2,), ()),
            ((1, 1), ()),
            ((1,), (1,)),
            ((), (2,)),
            ((), (1, 1)),
        ]

    def test_multipartitions_zero(self):
        for k in (1, 2, 4):
            got = list(enumerate_multipartitions(0, k))
            assert got == [MultiPartition(((),) * k)]

    def test_multipartitions_k1_match_partitions(self):
        got = [m[0] for m in enumerate_multipartitions(3, 1)]
        assert got == enumerate_partitions(3)

    def test_count_matches_enumeration(self):
        for n in range(9):
            for k in (1, 2, 3):
                mps = list(enumerate_multipartitions(n, k))
                assert len(mps) == len(set(mps)) == count_multipartitions(n, k)
                assert mps == sorted(mps, reverse=True)


class TestCounting:
    def test_small_values(self):
        assert count_partitions(0) == 1
        assert count_partitions(5) == 7
        assert count_partitions(100) == 190569292

    def test_two_recurrences_agree(self):
        # pentagonal route vs the parts-bounded DP
        for n in (17, 60, 100):
            assert count_partitions(n) == oracles.partition_count_bounded(n)

    def test_convolution_identity(self):
        # the p_k array (pentagonal recurrence on p_{k-1}) against the
        # convolution p_k(n) = sum_a p(a) p_{k-1}(n-a)
        for k in (2, 3, 4):
            for n in range(0, 41):
                conv = sum(
                    count_partitions(a) * count_multipartitions(n - a, k - 1)
                    for a in range(n + 1)
                )
                assert count_multipartitions(n, k) == conv

    def test_k1_reduces(self):
        for n in (0, 7, 23):
            assert count_multipartitions(n, 1) == count_partitions(n)

    def test_2_2_is_5(self):
        assert count_multipartitions(2, 2) == 5

    def test_6_3_matches_enumeration(self):
        assert count_multipartitions(6, 3) == len(list(enumerate_multipartitions(6, 3)))

    def test_arrays_extend_consistently(self):
        first = list(_count_array(25, 2))[: 11]
        again = _count_array(10, 2)[: 11]
        assert first == again

    def test_large_n_convolution_agrees(self):
        n = 10_000
        conv = sum(count_partitions(a) * count_partitions(n - a) for a in range(n + 1))
        assert count_multipartitions(n, 2) == conv

    def test_p_1e4_needs_bignums(self):
        assert count_partitions(10_000) > 10**100

    @pytest.mark.parametrize(
        "args, want",
        [
            ((4.0, 2), "n must be an integer, got 4.0"),
            ((True, 2), "n must be an integer, got True"),
            ((4, 2.0), "k must be an integer, got 2.0"),
        ],
    )
    def test_rejects_non_integer_sizes(self, args, want):
        with pytest.raises(ValueError, match=f"^{want}$"):
            count_multipartitions(*args)

    @pytest.mark.parametrize("n", [5.0, True])
    def test_rejects_non_integer_partition_size(self, n):
        with pytest.raises(ValueError, match=f"^n must be an integer, got {n!r}$"):
            count_partitions(n)


class _Size(IntEnum):
    FOUR = 4


class TestIntegerArguments:
    @pytest.mark.parametrize("value", [0, -3, 10**30, _Size.FOUR])
    def test_check_accepts_ints_and_int_subclasses(self, value):
        _check_int("n", value)

    @pytest.mark.parametrize("value", [True, False, 4.0, "4"])
    def test_check_refuses_bool_float_and_str(self, value):
        with pytest.raises(ValueError, match=rf"^n must be an integer, got {re.escape(repr(value))}$"):
            _check_int("n", value)

    CALLS = {
        "enumerate_partitions n": (enumerate_partitions, "n"),
        "enumerate_multipartitions n": (lambda v: enumerate_multipartitions(v, 2), "n"),
        "enumerate_multipartitions k": (lambda v: enumerate_multipartitions(2, v), "k"),
        "remove_rimhooks length": (lambda v: remove_rimhooks(Partition((2, 1)), v), "length"),
        "is_t_core t": (lambda v: is_t_core(Partition((2, 1)), v), "t"),
    }

    @pytest.mark.parametrize("value", [True, 2.0, 1.5])
    @pytest.mark.parametrize("case", CALLS)
    def test_rejects_non_integer_argument(self, case, value):
        call, name = self.CALLS[case]
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {re.escape(repr(value))}$"):
            call(value)

    def test_int_subclass_is_its_value(self):
        assert enumerate_partitions(_Size.FOUR) == enumerate_partitions(4)
        assert list(enumerate_multipartitions(2, _Size.FOUR)) == list(enumerate_multipartitions(2, 4))
        assert remove_rimhooks(Partition((4, 2)), _Size.FOUR) == remove_rimhooks(Partition((4, 2)), 4)
        assert is_t_core(Partition((2, 1)), _Size.FOUR) is is_t_core(Partition((2, 1)), 4)


class TestHooks:
    def test_hook_table_4_2_1(self):
        assert hook_lengths(Partition((4, 2, 1))) == [[6, 4, 2, 1], [3, 1], [1]]

    def test_single_cell(self):
        assert hook_lengths(Partition((1,))) == [[1]]

    def test_square(self):
        assert hook_lengths(Partition((2, 2))) == [[3, 2], [2, 1]]

    def test_syt_single_row(self):
        for n in (1, 4, 9):
            assert syt_count(Partition((n,))) == 1

    def test_syt_2_1(self):
        assert syt_count(Partition((2, 1))) == 2
        assert oracles.standard_tableaux_count((2, 1)) == 2

    def test_syt_4_2_1(self):
        assert syt_count(Partition((4, 2, 1))) == 35

    def test_syt_matches_backtracking(self):
        for parts in [(3, 2), (2, 2, 1), (4, 1), (3, 1, 1)]:
            assert syt_count(Partition(parts)) == oracles.standard_tableaux_count(parts)


class TestTCores:
    def test_4_2_1_is_5_core(self):
        assert is_t_core(Partition((4, 2, 1)), 5)

    def test_4_2_1_not_2_core(self):
        assert not is_t_core(Partition((4, 2, 1)), 2)

    def test_empty_always(self):
        for t in range(1, 9):
            assert is_t_core(Partition(()), t)

    def test_matches_hook_definition(self):
        # the definition: no hook length divisible by t
        for n in range(0, 13):
            for parts in _partition_tuples(n):
                p = Partition(parts)
                hooks = [h for row in hook_lengths(p) for h in row]
                for t in range(1, 13):
                    assert is_t_core(p, t) == all(h % t for h in hooks)

    def test_matches_rimhook_emptiness(self):
        for n in range(0, 13):
            for parts in _partition_tuples(n):
                p = Partition(parts)
                for t in range(1, 13):
                    assert is_t_core(p, t) == (not remove_rimhooks(p, t))

    def test_counts_match_generating_function(self):
        for t in range(2, 8):
            series = oracles.tcore_count_series(20, t)
            for n in range(21):
                cores = sum(
                    1 for parts in _partition_tuples(n) if is_t_core(Partition(parts), t)
                )
                assert cores == series[n], (n, t)


class TestRimhooks:
    def test_single_removal_from_3_2(self):
        got = remove_rimhooks(Partition((3, 2)), 3)
        assert len(got) == 1
        assert got[0].remainder == (1, 1)
        assert got[0].height == 1
        assert got[0].length == 3

    def test_order_is_pinned(self):
        # strips come in the order of the moved bead, highest first
        want = {
            (4, 2, 1): {
                1: [((3, 2, 1), 0), ((4, 1, 1), 0), ((4, 2), 0)],
                2: [((2, 2, 1), 0)],
                3: [((4,), 1)],
                4: [((1, 1, 1), 1)],
            },
            (5, 3, 3, 1): {
                2: [((3, 3, 3, 1), 0), ((5, 2, 2, 1), 1), ((5, 3, 1, 1), 0)],
                5: [((2, 2, 2, 1), 2), ((5, 2), 2)],
            },
        }
        for parts, by_length in want.items():
            for length, removals in by_length.items():
                got = remove_rimhooks(Partition(parts), length)
                assert [(r.remainder, r.height) for r in got] == removals, (parts, length)
                assert all(r.length == length for r in got)

    def test_single_row(self):
        for n in (1, 3, 6):
            got = remove_rimhooks(Partition((n,)), n)
            assert len(got) == 1
            assert got[0].remainder == ()
            assert got[0].height == 0

    def test_exhaustive_against_cell_sets(self):
        for n in range(0, 11):
            for parts in _partition_tuples(n):
                for length in range(1, n + 1):
                    fast = {
                        (r.remainder, r.height)
                        for r in remove_rimhooks(Partition(parts), length)
                    }
                    assert fast == oracles.brute_strip_removals(parts, length)

    def test_removal_invariants(self):
        for parts in [(5, 3, 3, 1), (4, 4, 2), (6, 1)]:
            p = Partition(parts)
            for length in range(1, p.size + 1):
                for r in remove_rimhooks(p, length):
                    assert r.remainder.size + r.length == p.size
                    assert 0 <= r.height < r.length


class TestDominance:
    def test_reflexive(self):
        m = MultiPartition([[3, 1], [2, 2]])
        assert dominates(m, m)

    def test_examples(self):
        assert dominates(MultiPartition([[2], []]), MultiPartition([[1, 1], []]))
        a = MultiPartition([[2], [1]])
        b = MultiPartition([[1, 1], [1]])
        assert dominates(a, b)
        assert not dominates(b, a)

    def test_rejects_mismatch(self):
        with pytest.raises(ValueError):
            dominates(MultiPartition([[2]]), MultiPartition([[2], []]))
        with pytest.raises(ValueError):
            dominates(MultiPartition([[2], []]), MultiPartition([[1], []]))

    def test_antisymmetric_on_enumeration(self):
        mps = list(enumerate_multipartitions(4, 2))
        for a in mps:
            for b in mps:
                if a != b and dominates(a, b):
                    assert not dominates(b, a)


def _full_rows(table, n):
    """The full rows T_t[m][0..m] of one completion table: the stored
    entries for b <= w(m) and, from b = w(m) on, Euler's sum
    T_t[m][b] = sum_r (-1)^r A_r[m - r*b - r(r+1)/2] over the eight arrays
    A_r, terms with a negative index left out.  At b = w(m), where the two
    meet, both must give the same entry."""
    rows, sums = table.rows, table.sums
    assert len(sums) == 8
    full = []
    for m in range(n + 1):
        row = rows[m]
        w = len(row) - 1
        summed = [
            sum((-1) ** r * a[m - r * b - r * (r + 1) // 2]
                for r, a in enumerate(sums) if m - r * b - r * (r + 1) // 2 >= 0)
            for b in range(w, m + 1)
        ]
        assert summed[0] == row[w], m
        full.append(row[:w] + summed)
    return full


class TestUnranking:
    def test_2_2_order(self):
        want = [
            ((2,), ()),
            ((1, 1), ()),
            ((1,), (1,)),
            ((), (2,)),
            ((), (1, 1)),
        ]
        got = [unrank_multipartition(2, 2, i) for i in range(5)]
        assert got == want

    def test_zero(self):
        assert unrank_multipartition(0, 3, 0) == ((), (), ())

    @pytest.mark.parametrize(
        "args, want",
        [
            ((4, 2, True), "index must be an integer, got True"),
            ((4, 2, 1.0), "index must be an integer, got 1.0"),
            ((4.0, 2, 0), "n must be an integer, got 4.0"),
            ((4, True, 0), "k must be an integer, got True"),
        ],
    )
    def test_rejects_non_integer_arguments(self, args, want):
        with pytest.raises(ValueError, match=f"^{want}$"):
            unrank_multipartition(*args)

    def test_bijection_small(self):
        for n in range(0, 9):
            for k in (1, 2, 3):
                mps = list(enumerate_multipartitions(n, k))
                for i, m in enumerate(mps):
                    assert unrank_multipartition(n, k, i) == m
                    assert rank_multipartition(m) == i

    def test_bijection_moderate(self):
        # the full n <= 30 sweep, sampled by k: exhaustive where cheap,
        # spot ranks at the top end
        for n in range(0, 31):
            mps = list(enumerate_multipartitions(n, 1))
            for i, m in enumerate(mps):
                assert unrank_multipartition(n, 1, i) == m
        for n in range(9, 15):
            for i, m in enumerate(enumerate_multipartitions(n, 2)):
                assert unrank_multipartition(n, 2, i) == m
                assert rank_multipartition(m) == i
        for i, m in enumerate(enumerate_multipartitions(10, 3)):
            assert unrank_multipartition(10, 3, i) == m
            assert rank_multipartition(m) == i
        for n, k in ((30, 2), (30, 3)):
            total = count_multipartitions(n, k)
            for i in (0, 1, total // 3, total // 2, total - 2, total - 1):
                assert rank_multipartition(unrank_multipartition(n, k, i)) == i

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            unrank_multipartition(2, 2, 5)
        with pytest.raises(IndexError):
            unrank_multipartition(2, 2, -1)
        with pytest.raises(ValueError):
            unrank_multipartition(-1, 2, 0)
        with pytest.raises(ValueError):
            unrank_multipartition(3, 0, 0)

    @pytest.mark.parametrize("label", [((1,), ()), [[1], []], MultiPartition([[1], []])])
    def test_rank_takes_any_label(self, label):
        assert rank_multipartition(label) == rank_multipartition(MultiPartition([[1], []]))
        assert unrank_multipartition(1, 2, rank_multipartition(label)) == ((1,), ())

    @pytest.mark.parametrize(
        "label, want",
        [
            (((1, 0), ()), "parts must be positive, got 0 at index 1"),
            (((1.0,), ()), "parts must be integers, got 1.0 at index 0"),
            (((True,), ()), "parts must be integers, got True at index 0"),
        ],
    )
    def test_rank_rejects_bad_parts(self, label, want):
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            rank_multipartition(label)

    def test_tables_corner_is_count(self):
        # unranking reads p_k(n) off the completion tables instead of
        # recounting; every table's corners T_t[n][0] = p_t(n) and
        # T_t[n][n] = p_{t+1}(n), stored or closed form, match the oracle
        for k in (1, 2, 3):
            for n in range(40):
                tables = _completion_tables(n, k)
                assert tables[-1].sums[0][n] == count_multipartitions(n, k)
                oracle = oracles.completion_tables(n, k)
                for t, table in enumerate(tables):
                    full = _full_rows(table, n)
                    assert full[n][0] == oracle[t][n][0] == (count_multipartitions(n, t) if t else int(n == 0))
                    assert full[n][n] == oracle[t][n][n] == count_multipartitions(n, t + 1)

    def test_tables_match_oracle(self):
        # every entry T_t[m][b], 0 <= b <= m, stored (b <= w(m)) or read
        # from Euler's sum (b >= w(m)), against the entry-at-a-time double
        # loop
        for k in (1, 2, 3):
            for n in range(61):
                got = [_full_rows(table, n) for table in _completion_tables(n, k)]
                assert got == oracles.completion_tables(n, k), (n, k)
        got = [_full_rows(table, 400) for table in _completion_tables(400, 2)]
        assert got == oracles.completion_tables(400, 2)

    def test_unrank_matches_oracle_walk(self):
        # rank counted from below against the top-down walk with its index
        # flips, at both ends and at seeded random ranks; rank inverts both
        rng = random.Random(20)
        for n, k in ((400, 2), (150, 3), (60, 4)):
            tables = oracles.completion_tables(n, k)
            total = count_multipartitions(n, k)
            for i in [0, total - 1] + [rng.randrange(total) for _ in range(300)]:
                got = unrank_multipartition(n, k, i)
                assert got == oracles.unrank_multipartition(n, k, i, tables), (n, k, i)
                assert rank_multipartition(got) == i
        # a first part s in (n // 8, n // 2], where the walk searches the sum
        # with up to eight terms, in either component; with the ranks on
        # both sides of each
        n = 400
        tables = oracles.completion_tables(n, 2)
        for s in range(n // 8 + 1, n // 2 + 1):
            ones = (s,) + (1,) * (n - s)
            for label in ((ones, ()), ((), ones)):
                i = rank_multipartition(label)
                assert unrank_multipartition(n, 2, i) == label
                for j in (i - 1, i, i + 1):
                    got = unrank_multipartition(n, 2, j)
                    assert got == oracles.unrank_multipartition(n, 2, j, tables), (s, j)
                    assert rank_multipartition(got) == j

    def test_unrank_matches_oracle_exhaustive(self):
        # every rank for n <= 14, k <= 3: covers the stored branch and both
        # searches of the sum in the walk (a next part between w(m) = m // 3
        # and m // 2, which spans up to three parts at m = 14, and one above
        # it), and rank reads the same entries back
        for k in (1, 2, 3):
            for n in range(15):
                tables = oracles.completion_tables(n, k)
                for i in range(count_multipartitions(n, k)):
                    got = unrank_multipartition(n, k, i)
                    assert got == oracles.unrank_multipartition(n, k, i, tables), (n, k, i)
                    assert rank_multipartition(got) == i

    def test_set_equality_8_2(self):
        total = count_multipartitions(8, 2)
        got = {unrank_multipartition(8, 2, i) for i in range(total)}
        want = set(enumerate_multipartitions(8, 2))
        assert got == want

    def test_cached_engine_enumeration_matches(self):
        assert multipartitions_of(5, 2) == tuple(enumerate_multipartitions(5, 2))

    def test_rows_store_an_eighth(self):
        # row m keeps T_t[m][0..w(m)], w(m) = max(m // 8, min(m // 3, 16)):
        # a third up to m = 50, an eighth from m = 128; the sum gives the rest
        for k in (1, 2, 3):
            for table in _completion_tables(300, k):
                widths = [len(row) - 1 for row in table.rows]
                assert widths == [max(m // 8, min(m // 3, 16)) for m in range(301)]
                assert widths[:51] == [m // 3 for m in range(51)]
                # the walk's first[s]: the first row that stores entry s - 1
                for s in range(1, 301):
                    m = next((m for m in range(301) if widths[m] >= s - 1), None)
                    if m is None:
                        assert table.first[s] > 300, s
                    else:
                        assert table.first[s] == m, s

    def test_tables_at_600_stay_under_3_mib(self):
        # 2.5 MiB by tracemalloc at n = 600, k = 2; rows stored up to
        # b = m // 3 took 5.7, and up to b = m // 2 took 8.4
        _count_array(600, 2)  # the count arrays are cached apart from the tables
        _completion_tables.cache_clear()
        tracemalloc.start()
        try:
            _completion_tables(600, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20, peak / 2**20

    def test_only_latest_tables_stay(self):
        first = unrank_multipartition(7, 2, 11)
        unrank_multipartition(9, 3, 5)
        assert _completion_tables.cache_info().currsize == 1
        assert unrank_multipartition(7, 2, 11) == first  # rebuilt, same draw
