from fractions import Fraction

import pytest

from wreathchar.base_group import builtin
from wreathchar.partitions import MultiPartition, count_partitions, multipartitions_of
from wreathchar import weyl_d, wreath_chars
from wreathchar.weyl_d import (
    _dn_column_count,
    bn_class_in_dn,
    dn_half_classes_property,
    dn_irrep_census,
    dn_restricted_census,
    nonsplit_rows,
    psi_value,
)
from wreathchar.wreath_chars import _step_tables, character_table

import oracles

Z2 = builtin("Z2")


class TestClassMembership:
    def test_membership_by_sign_count(self):
        assert bn_class_in_dn(MultiPartition([[2], []]))
        assert not bn_class_in_dn(MultiPartition([[1], [1]]))
        assert bn_class_in_dn(MultiPartition([[], [1, 1]]))
        assert bn_class_in_dn(MultiPartition([[3, 2, 1], []]))

    def test_matches_b2_element_enumeration(self):
        sizes, dn_members = oracles.z2_wr_s2_classes()
        for label, size in sizes.items():
            inside = dn_members.get(label, 0)
            assert inside in (0, size)  # classes never straddle D_N
            assert bn_class_in_dn(MultiPartition(label)) == (inside == size)

    def test_psi_matches_membership(self):
        for tuples in multipartitions_of(5, 2):
            mu = MultiPartition(tuples)
            assert (psi_value(mu) == 1) == bn_class_in_dn(mu)

    def test_rejects_wrong_k(self):
        with pytest.raises(ValueError):
            bn_class_in_dn(MultiPartition([[1]]))


class TestIrrepCensus:
    def test_klein_four(self):
        c = dn_irrep_census(2)
        assert (c.nonsplit, c.split_halves, c.total) == (2, 2, 4)

    def test_n3(self):
        assert dn_irrep_census(3).total == 5

    def test_n4(self):
        c = dn_irrep_census(4)
        assert (c.nonsplit, c.split_halves, c.total) == (9, 4, 13)

    def test_split_count_even_n(self):
        for n in (2, 4, 6, 8):
            assert dn_irrep_census(n).split_halves == 2 * count_partitions(n // 2)

    def test_odd_never_splits(self):
        for n in (1, 3, 5, 7):
            assert dn_irrep_census(n).split_halves == 0

    def test_nonsplit_matches_row_enumeration(self):
        for n in range(1, 9):
            assert len(nonsplit_rows(n)) == dn_irrep_census(n).nonsplit


class TestHalfClasses:
    def test_n1(self):
        assert dn_half_classes_property(1) == Fraction(1, 2)

    def test_n2(self):
        assert dn_half_classes_property(2) == Fraction(3, 5)

    def test_at_least_half_up_to_14(self):
        for n in range(1, 15):
            assert dn_half_classes_property(n) >= Fraction(1, 2)

    def test_matches_enumeration(self):
        for n in range(1, 9):
            labels = multipartitions_of(n, 2)
            inside = sum(1 for t in labels if len(t[1]) % 2 == 0)
            assert dn_half_classes_property(n) == Fraction(inside, len(labels))

    def test_column_count_matches_enumeration(self):
        for n in range(17):
            inside = sum(1 for t in multipartitions_of(n, 2) if len(t[1]) % 2 == 0)
            assert _dn_column_count(n) == inside, n


class TestPsiTwist:
    def test_twist_identity_small(self):
        for n in range(1, 5):
            table = character_table(Z2, n)
            index = {m: i for i, m in enumerate(table.row_labels)}
            for lam in table.row_labels:
                swapped = MultiPartition([lam[1], lam[0]])
                r1, r2 = index[lam], index[swapped]
                for c, nu in enumerate(table.col_labels):
                    assert table.values[r1][c] == table.values[r2][c] * psi_value(nu)

    def test_rows_agree_on_dn_columns(self):
        for n in range(1, 6):
            table = character_table(Z2, n)
            index = {m: i for i, m in enumerate(table.row_labels)}
            for lam in table.row_labels:
                swapped = MultiPartition([lam[1], lam[0]])
                r1, r2 = index[lam], index[swapped]
                for c, nu in enumerate(table.col_labels):
                    if bn_class_in_dn(nu):
                        assert table.values[r1][c] == table.values[r2][c]


class TestRepresentatives:
    def test_lex_smaller_and_distinct(self):
        for n in range(1, 8):
            rows = nonsplit_rows(n)
            for t in rows:
                assert t[0] != t[1]
                assert t < (t[1], t[0])
            assert len(set(rows)) == len(rows)


class TestRestrictedCensus:
    def test_exact_n2_subtable(self):
        r = dn_restricted_census(2, 2, mode="exact")
        assert r.cells_evaluated == 6  # 2 nonsplit rows x 3 classes
        assert r.divisible_count == 0  # all entries are +-1 in D_2
        assert r.coverage == Fraction(6, 16)

    def test_exact_matches_b2_values(self):
        table = character_table(Z2, 2)
        index = {m: i for i, m in enumerate(table.row_labels)}
        rows = nonsplit_rows(2)
        cols = [m for m in table.col_labels if bn_class_in_dn(m)]
        values = {
            (lam, mu): table.values[index[lam]][table.col_labels.index(mu)]
            for lam in rows
            for mu in cols
        }
        assert set(values.values()) <= {1, -1}

    def test_sampled_deterministic(self):
        a = dn_restricted_census(9, 2, mode="sampled", samples=200, seed=17)
        b = dn_restricted_census(9, 2, mode="sampled", samples=200, seed=17)
        assert a == b
        assert a.mode == "dn-sampled"

    def test_sampled_counts_columns_without_enumerating(self):
        # misses, not currsize: the cache holds one (n, k), so its size
        # would not move even if the census enumerated
        before = multipartitions_of.cache_info().misses
        r = dn_restricted_census(30, 3, mode="sampled", samples=20, seed=1)
        assert r.coverage == Fraction(5422996397, 5432721849)
        assert multipartitions_of.cache_info().misses == before

    def test_sampled_needs_seed_and_samples(self):
        with pytest.raises(ValueError):
            dn_restricted_census(6, 2, mode="sampled")

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_sampled_seed_out_of_range(self, seed):
        with pytest.raises(ValueError, match="seed"):
            dn_restricted_census(6, 2, mode="sampled", samples=10, seed=seed)

    def test_exact_matches_unreduced_census(self):
        primes = (2, 3, 5)
        for n in range(1, 13):
            hits, cells = oracles.unreduced_dn_census(n, primes)
            for p in primes:
                r = dn_restricted_census(n, p, mode="exact")
                assert (r.divisible_count, r.cells_evaluated) == (hits[p], cells), (n, p)

    def test_exact_drops_step_tables(self, monkeypatch):
        dn_restricted_census(10, 3, mode="exact")
        assert _step_tables.cache_info().currsize == 0
        real = wreath_chars.character_column
        calls = []

        def fail_second(*args):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("column failed")
            return real(*args)

        monkeypatch.setattr(wreath_chars, "character_column", fail_second)
        with pytest.raises(RuntimeError, match="column failed"):
            dn_restricted_census(10, 3, mode="exact")
        assert _step_tables.cache_info().currsize == 0

    @pytest.mark.parametrize("name", ["samples", "seed"])
    def test_exact_rejects_sampling_arguments(self, monkeypatch, name):
        # refused by name before anything is counted, not silently ignored
        def no_count(n):
            raise AssertionError("counted before the arguments were checked")

        monkeypatch.setattr(weyl_d, "dn_irrep_census", no_count)
        with pytest.raises(ValueError, match=rf"^{name} applies only to mode='sampled'$"):
            dn_restricted_census(6, 2, mode="exact", **{name: 5})

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            dn_restricted_census(6, 2, mode="bogus")

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"mode": "bogus"}, r"^mode must be 'exact' or 'sampled', got 'bogus'$"),
            ({"mode": "sampled"}, r"^sampled mode needs samples and seed$"),
            ({"mode": "sampled", "samples": 0, "seed": 1}, r"^samples must be >= 1, got 0$"),
            ({"mode": "sampled", "samples": 10, "seed": -1}, r"^seed must be an integer in \[0, 2\*\*64\)"),
            ({"mode": "sampled", "samples": 10, "seed": 1, "confidence": 1.5}, r"^confidence must be"),
        ],
        ids=["bad-mode", "no-samples", "zero-samples", "bad-seed", "bad-confidence"],
    )
    def test_arguments_checked_before_counting(self, monkeypatch, kwargs, message):
        # at n=3000 the counts take a quarter of a second; a bad argument
        # is refused before any of it
        def no_count(n):
            raise AssertionError("counted before the arguments were checked")

        monkeypatch.setattr(weyl_d, "dn_irrep_census", no_count)
        monkeypatch.setattr(weyl_d, "_dn_column_count", no_count)
        with pytest.raises(ValueError, match=message):
            dn_restricted_census(3000, 2, **kwargs)

    def test_exact_vs_sampled_consistency(self):
        exact = dn_restricted_census(8, 2, mode="exact")
        sampled = dn_restricted_census(8, 2, mode="sampled", samples=4000, seed=5)
        assert sampled.ci_low <= float(exact.proportion) <= sampled.ci_high
