import csv
import json
import random
from collections import Counter
from io import StringIO
from math import factorial

import pytest

from wreathchar import wreath_chars
from wreathchar.base_group import BUILTIN_NAMES, GroupData, builtin, load, store
from wreathchar.cli import _parse_label
from wreathchar.partitions import (
    MultiPartition,
    Partition,
    _beta_mask,
    count_multipartitions,
    enumerate_multipartitions,
    multipartitions_of,
)
from wreathchar.wreath_chars import (
    CellBudgetExceeded,
    character_column,
    character_table,
    class_size,
    dimension,
    flatten_class,
    kostka,
    mn_character,
    perm_character,
    perm_multiplicity,
    _Level,
    _divisible_cells,
    _level,
    _mn_beads,
    _orbit_columns,
    _peel_step,
)

import oracles

Z2 = builtin("Z2")
TRIVIAL = builtin("trivial")
S3 = builtin("S3")


def mps(n, k):
    return [MultiPartition(t) for t in multipartitions_of(n, k)]


def _zeros_mod(values, p):
    return sum(v % p == 0 for v in values)


def spy_columns(monkeypatch):
    """The (n, mu) of each character_column call, in order, as they come."""
    real = wreath_chars.character_column
    asked = []

    def spy(group, n, mu, **kw):
        asked.append((n, mu))
        return real(group, n, mu, **kw)

    monkeypatch.setattr(wreath_chars, "character_column", spy)
    return asked


class TestClassSizes:
    def test_z2_s2_against_enumeration(self):
        sizes, _ = oracles.z2_wr_s2_classes()
        for label, want in sizes.items():
            assert class_size(Z2, MultiPartition(label)) == want

    def test_z2_two_cycle_class(self):
        assert class_size(Z2, MultiPartition([[2], []])) == 2

    def test_trivial_identity_class(self):
        for n in (1, 4, 7):
            assert class_size(TRIVIAL, MultiPartition([(1,) * n])) == 1

    def test_sizes_sum_to_group_order(self):
        for g in (TRIVIAL, Z2, S3):
            for n in range(0, 5):
                total = sum(class_size(g, mu) for mu in mps(n, g.k))
                assert total == g.order**n * factorial(n)

    def test_inexact_division_raises(self):
        # unvalidated data: centralizer order 3 does not divide |G| = 2
        bad = GroupData(
            name="bad",
            class_labels=("1", "a"),
            centralizer_orders=(2, 3),
            identity_class=0,
            trivial_char=0,
            table=((1, 1), (1, -1)),
        )
        with pytest.raises(ValueError, match="non-integral"):
            class_size(bad, MultiPartition([[], [1]]))


class TestMnCharacter:
    def test_trivial_representation_is_one(self):
        for g in (Z2, S3):
            for n in range(1, 5):
                lam = MultiPartition(((n,),) + ((),) * (g.k - 1))
                for mu in mps(n, g.k):
                    assert mn_character(g, lam, mu) == 1

    def test_s3_natural_cell(self):
        got = mn_character(TRIVIAL, MultiPartition([[2, 1]]), MultiPartition([[1, 1, 1]]))
        assert got == 2
        assert got == oracles.brute_mn_value(
            TRIVIAL.table, ((2, 1),), ((1, 0), (1, 0), (1, 0))
        )

    def test_b2_dimension_cell(self):
        lam = MultiPartition([[1], [1]])
        assert mn_character(Z2, lam, MultiPartition([[1, 1], []])) == 2
        assert dimension(Z2, lam) == 2

    def test_matches_brute_force(self):
        for g, nmax in ((TRIVIAL, 4), (Z2, 3)):
            for n in range(1, nmax + 1):
                for lam in mps(n, g.k):
                    for mu in mps(n, g.k):
                        want = oracles.brute_mn_value(
                            g.table, lam, oracles.component_major_sequence(mu)
                        )
                        assert mn_character(g, lam, mu) == want

    def test_order_independence(self):
        for name in BUILTIN_NAMES:
            g = builtin(name)
            rng = random.Random(5)
            for n in range(2, COLUMN_ORACLE_N[name] + 1):
                labels = mps(n, g.k)
                for _ in range(6):
                    lam = rng.choice(labels)
                    mu = rng.choice(labels)
                    seq = list(flatten_class(mu))
                    rng.shuffle(seq)
                    masks = tuple(_beta_mask(comp) for comp in lam)
                    shuffled = _mn_beads(masks, 0, tuple(seq), g.table, {})
                    assert shuffled == mn_character(g, lam, mu)

    def test_flatten_class_is_longest_first(self):
        for g in (TRIVIAL, Z2, S3):
            for n in range(7):
                for mu in multipartitions_of(n, g.k):
                    seq = flatten_class(mu)
                    lengths = [length for length, _ in seq]
                    assert lengths == sorted(lengths, reverse=True)
                    assert sorted(seq) == sorted(oracles.component_major_sequence(mu))

    def test_rejects_mismatch(self):
        with pytest.raises(ValueError):
            mn_character(Z2, MultiPartition([[1]]), MultiPartition([[1], []]))
        with pytest.raises(ValueError):
            mn_character(Z2, MultiPartition([[2], []]), MultiPartition([[1], []]))


# n <= 5, and n <= 3 when k >= 4
TWIST_N = {name: 5 if builtin(name).k < 4 else 3 for name in BUILTIN_NAMES}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_linear_twists_match_mn_character(name):
    # chi^lambda* = Theta chi^lambda for every linear Theta = (theta wr 1) sgn^e
    g = builtin(name)
    linear = [theta for theta in g.table if theta[g.identity_class] == 1]
    for n in range(TWIST_N[name] + 1):
        labels = mps(n, g.k)
        for theta in linear:
            for e in (0, 1):
                for lam in labels:
                    star = MultiPartition(oracles.twisted_label(g.table, lam, theta, e))
                    for mu in labels:
                        sign = oracles.twist_sign(theta, e, mu)
                        assert mn_character(g, star, mu) == sign * mn_character(g, lam, mu)


class TestPermCharacter:
    def test_known_decomposition_count(self):
        decs, _, _ = oracles.brute_row_decompositions(((4, 1), (2,)), ((3, 1), (2, 1)))
        assert len(decs) == 2

    def test_known_decomposition_z2_value(self):
        lam = MultiPartition([[4, 1], [2]])
        mu = MultiPartition([[3, 1], [2, 1]])
        assert perm_character(Z2, lam, mu) == -2

    def test_single_row_product(self):
        for g in (Z2, S3):
            for n in (3, 4):
                lam = MultiPartition(((n,),) + ((),) * (g.k - 1))
                for mu in mps(n, g.k):
                    want = 1
                    for j, comp in enumerate(mu):
                        want *= g.table[0][j] ** len(comp)
                    assert perm_character(g, lam, mu) == want

    def test_matches_brute_force(self):
        for g, nmax in ((Z2, 3), (S3, 2)):
            for n in range(1, nmax + 1):
                for lam in mps(n, g.k):
                    for mu in mps(n, g.k):
                        want = oracles.brute_perm_value(g.table, lam, mu)
                        assert perm_character(g, lam, mu) == want


class TestKostka:
    def test_s3_oracle_pins(self):
        # M^(2,1) of S_3 = V^(3) + V^(2,1); rows of the classical table are
        # (trivial, sign, standard) and V^(3)=trivial, V^(2,1)=standard,
        # V^(1,1,1)=sign.
        assert oracles.s3_perm_multiplicity((2, 1), 0) == 1  # V^(3)
        assert oracles.s3_perm_multiplicity((2, 1), 2) == 1  # V^(2,1)
        assert oracles.s3_perm_multiplicity((2, 1), 1) == 0  # V^(1,1,1)
        assert kostka(Partition((2, 1)), Partition((3,))) == 1
        assert kostka(Partition((2, 1)), Partition((2, 1))) == 1
        assert kostka(Partition((2, 1)), Partition((1, 1, 1))) == 0

    def test_diagonal_is_one(self):
        from wreathchar.partitions import enumerate_partitions

        for n in range(0, 9):
            for p in enumerate_partitions(n):
                assert kostka(p, p) == 1

    def test_single_row_content(self):
        from wreathchar.partitions import enumerate_partitions

        for gamma in enumerate_partitions(5):
            want = 1 if gamma == (5,) else 0
            assert kostka(Partition((5,)), gamma) == want

    def test_matches_ssyt_backtracking(self):
        from wreathchar.partitions import enumerate_partitions

        for n in range(1, 7):
            parts = enumerate_partitions(n)
            for beta in parts:
                for gamma in parts:
                    assert kostka(beta, gamma) == oracles.brute_ssyt_count(
                        gamma, beta
                    )

    def test_positive_iff_gamma_dominates_beta(self):
        from wreathchar.partitions import _dominates_parts, enumerate_partitions

        for n in range(1, 7):
            parts = enumerate_partitions(n)
            for beta in parts:
                for gamma in parts:
                    positive = kostka(beta, gamma) > 0
                    assert positive == _dominates_parts(gamma, beta)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            kostka(Partition((2,)), Partition((3,)))


class TestPermMultiplicity:
    def test_diagonal(self):
        for n in range(0, 5):
            for lam in mps(n, 2):
                assert perm_multiplicity(lam, lam) == 1

    def test_vanishing_product(self):
        lam = MultiPartition([[2], [1]])
        eta = MultiPartition([[1, 1], [1]])
        assert perm_multiplicity(lam, eta) == 0

    def test_nonzero_implies_eta_dominates(self):
        from wreathchar.partitions import dominates

        for n in range(1, 6):
            labels = mps(n, 2)
            for lam in labels:
                for eta in labels:
                    if perm_multiplicity(lam, eta):
                        assert dominates(eta, lam)

    def test_component_size_mismatch_is_zero(self):
        assert perm_multiplicity(MultiPartition([[2], []]), MultiPartition([[1], [1]])) == 0


class TestBasisChange:
    def test_perm_decomposes_over_mn(self):
        for g, nmax in ((TRIVIAL, 4), (Z2, 4), (S3, 2)):
            for n in range(0, nmax + 1):
                labels = mps(n, g.k)
                chi = {
                    (lam, mu): mn_character(g, lam, mu)
                    for lam in labels
                    for mu in labels
                }
                for lam in labels:
                    for mu in labels:
                        want = sum(
                            perm_multiplicity(lam, eta) * chi[(eta, mu)]
                            for eta in labels
                        )
                        assert perm_character(g, lam, mu) == want


class TestDimension:
    def test_trivial_label(self):
        for g in (Z2, S3):
            lam = MultiPartition(((4,),) + ((),) * (g.k - 1))
            assert dimension(g, lam) == 1

    def test_b2(self):
        assert dimension(Z2, MultiPartition([[1], [1]])) == 2

    def test_sum_of_squares(self):
        for g in (TRIVIAL, Z2, S3):
            for n in range(0, 4):
                total = sum(dimension(g, lam) ** 2 for lam in mps(n, g.k))
                assert total == g.order**n * factorial(n)

    def test_equals_mn_at_identity(self):
        for g in (TRIVIAL, Z2, S3):
            for n in range(0, 5 if g.k < 3 else 4):
                ident = [()] * g.k
                ident[g.identity_class] = (1,) * n
                mu = MultiPartition(ident)
                for lam in mps(n, g.k):
                    assert dimension(g, lam) == mn_character(g, lam, mu)


class TestCharacterTable:
    def test_trivial_n3_is_classical_s3(self):
        t = character_table(TRIVIAL, 3)
        assert list(t.row_labels) == [((3,),), ((2, 1),), ((1, 1, 1),)]
        assert t.values == ((1, 1, 1), (-1, 0, 2), (1, -1, 1))
        assert t.class_sizes == (2, 3, 1)

    def test_z2_n0(self):
        t = character_table(Z2, 0)
        assert t.values == ((1,),)

    @pytest.mark.parametrize("n", [True, 3.0])
    def test_rejects_non_integer_n_before_the_budget(self, n):
        with pytest.raises(ValueError, match=rf"^n must be an integer, got {n!r}$"):
            character_table(Z2, n, cell_budget=0)

    @pytest.mark.parametrize("budget", [True, 2.5, "100"])
    def test_rejects_non_integer_budget(self, budget):
        with pytest.raises(ValueError, match=rf"^cell_budget must be an integer, got {budget!r}$"):
            character_table(Z2, 2, cell_budget=budget)

    def test_z2_n2_degrees(self):
        t = character_table(Z2, 2)
        identity = t.col_labels.index(MultiPartition([[1, 1], []]))
        assert tuple(row[identity] for row in t.values) == (1, 1, 2, 1, 1)

    def test_matches_per_cell_recursion(self):
        for g in (Z2, S3):
            n = 3 if g is Z2 else 2
            t = character_table(g, n)
            for r, lam in enumerate(t.row_labels):
                for c, mu in enumerate(t.col_labels):
                    assert t.values[r][c] == mn_character(g, lam, mu)

    def test_budget_guard(self):
        with pytest.raises(CellBudgetExceeded):
            character_table(Z2, 6, cell_budget=10)

    def test_budget_refused_before_counting(self):
        # n^2 <= p_k(n)^2, so n = 10**6 is refused without filling the p_k arrays
        want = r"^table needs at least 1000000\^2 = 1000000000000 cells, budget is 50000000$"
        with pytest.raises(CellBudgetExceeded, match=want):
            character_table(Z2, 10**6)

    def test_column_helper_matches(self):
        col = character_column(Z2, 3, ((2, 1), ()))
        t = character_table(Z2, 3)
        c = t.col_labels.index(MultiPartition([[2, 1], []]))
        for r, lam in enumerate(t.row_labels):
            assert col[multipartitions_of(3, 2).index(lam)] == t.values[r][c]

    def test_worker_determinism(self):
        a = character_table(Z2, 3, workers=1)
        b = character_table(Z2, 3, workers=2)
        assert a.values == b.values

    def test_pool_splits_columns(self):
        # 65 columns, so the pool hands them out in several chunks
        a = character_table(Z2, 6, workers=1)
        b = character_table(Z2, 6, workers=2)
        assert a.values == b.values

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_n0_and_n1(self, monkeypatch, name):
        # n = 0 has no top part to peel and computes no column; at n = 1
        # every sub-column is the one column of n = 0
        g = builtin(name)
        asked = spy_columns(monkeypatch)
        t = character_table(g, 0)
        assert asked == [] and t.values == ((1,),)
        t = character_table(g, 1)
        assert asked == [(0, ((),) * g.k)]
        want = tuple(tuple(mn_character(g, lam, mu) for mu in t.col_labels) for lam in t.row_labels)
        assert t.values == want

    @pytest.mark.parametrize("name, n", [("Z2", 8), ("S3", 5)])
    def test_pool_chunks_split_a_batch(self, name, n):
        # the pool's chunks of sub-columns do not follow the batches of
        # one longest part, so a chunk ends inside some batch
        g = builtin(name)
        labels = multipartitions_of(n, g.k)
        subs = oracles.top_sub_classes([labels[c] for c in centre_orbit_reps(g, n)])
        chunk = max(1, len(subs) // (4 * 2))
        assert any(subs[i - 1][0] == subs[i][0] for i in range(chunk, len(subs), chunk))
        assert character_table(g, n, workers=2).values == character_table(g, n, workers=1).values

    @pytest.mark.parametrize("workers", [1, 2])
    def test_columns_of_mixed_totals_in_input_order(self, workers):
        labels = [MultiPartition(mu) for mu in (((2, 1), (1,)), ((), ()), ((1,), ()), ((3, 3), (2,)), ((), (2,)))]
        want = [character_column(Z2, mu.total, mu) for mu in labels]
        assert list(wreath_chars._columns(Z2, labels, {}, workers)) == want

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_columns_match_character_column(self, name, workers):
        g = builtin(name)
        for n in range(COLUMN_ORACLE_N[name] + 1):
            t = character_table(g, n, workers=workers)
            assert type(t.values) is tuple and all(type(row) is tuple for row in t.values)
            for c, mu in enumerate(t.col_labels):
                assert [row[c] for row in t.values] == character_column(g, n, mu), (n, mu)

    def test_rows_and_class_sizes_built_on_first_read(self, monkeypatch):
        built = Counter()

        def spy(name):
            real = getattr(wreath_chars, name)
            monkeypatch.setattr(wreath_chars, name, lambda *args: built.update([name]) or real(*args))

        spy("_rows")
        spy("class_size")
        t = character_table(S3, 3)
        assert not built
        assert t.values is t.values and t.class_sizes is t.class_sizes
        assert built == Counter(_rows=1, class_size=len(t.col_labels))
        assert type(t.values) is tuple and all(type(row) is tuple for row in t.values)
        assert type(t.class_sizes) is tuple

    def test_orthogonality_small(self):
        # k = 3 goes up to n = 4; the k <= 2 sweep to n = 5 is in acceptance
        for g, n in ((Z2, 3), (S3, 2), (S3, 4)):
            t = character_table(g, n)
            order = g.order**n * factorial(n)
            size = len(t.row_labels)
            assert sum(t.class_sizes) == order
            assert size == count_multipartitions(n, g.k)
            for r in range(size):
                for s in range(size):
                    inner = sum(
                        t.class_sizes[j] * t.values[r][j] * t.values[s][j]
                        for j in range(size)
                    )
                    assert inner == (order if r == s else 0)
            for i in range(size):
                for j in range(size):
                    inner = sum(t.values[r][i] * t.values[r][j] for r in range(size))
                    want = order // t.class_sizes[i] if i == j else 0
                    assert inner == want

    def test_csv_export(self):
        t = character_table(Z2, 1)
        buf = StringIO()
        t.write_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "row_label,col_label,value"
        assert len(lines) == 1 + 4  # 2x2 cells
        assert '"[[1],[]]"' in lines[1]

    def test_csv_quotes_exactly_the_labels_with_a_comma(self):
        t = character_table(builtin("trivial"), 3)
        buf = StringIO()
        t.write_csv(buf)
        lines = buf.getvalue().split("\n")
        assert lines[0] == "row_label,col_label,value"
        assert lines[-1] == ""  # the last line ends in \n too
        assert lines[1] == "[[3]],[[3]],1"
        assert lines[2] == '[[3]],"[[2,1]]",1'
        assert lines[4] == '"[[2,1]]",[[3]],-1'
        assert len(lines) == 1 + 9 + 1

    def test_json_export(self):
        t = character_table(Z2, 1)
        doc = t.to_json_dict()
        assert doc["values"] == [["1", "1"], ["1", "-1"]]
        assert doc["row_labels"] == [[[1], []], [[], [1]]]
        json.dumps(doc)


# the largest n at which every column is checked cell by cell against mn_character
COLUMN_ORACLE_N = {"trivial": 8, "Z2": 6, "S3": 4, "Z2xZ2": 3, "D8": 3, "Q8": 3, "S4": 3}


def centre_orbit_reps(g, n):
    """The least label of each orbit of the centre on the classes of n, by
    the table-column oracle."""
    labels = multipartitions_of(n, g.k)
    zs = oracles.central_classes(g.centralizer_orders, g.identity_class)
    return sorted(
        {min([c] + [labels.index(oracles.central_image(g.table, g.identity_class, z, mu)) for z in zs])
         for c, mu in enumerate(labels)}
    )


class TestCentre:
    """The central (z, ..., z) multiplies column mu by omega_lambda(z) = +-1
    and takes it to column z mu; the table computes one column per orbit."""

    @pytest.mark.parametrize("name, top", [("Z2", 6), ("Z2xZ2", 4), ("D8", 3), ("Q8", 3)])
    def test_sign_law(self, name, top):
        g = builtin(name)
        zs = oracles.central_classes(g.centralizer_orders, g.identity_class)
        assert zs
        for n in range(top + 1):
            labels = mps(n, g.k)
            for z in zs:
                for mu in labels:
                    nu = oracles.central_image(g.table, g.identity_class, z, mu)
                    for lam in labels:
                        omega = oracles.central_character(g.table, g.identity_class, z, lam)
                        assert omega in (1, -1)
                        assert mn_character(g, lam, nu) == omega * mn_character(g, lam, mu), (z, lam, mu)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_centre_matches_the_oracle(self, name):
        g = builtin(name)
        centre = wreath_chars._centre(g)
        zs = oracles.central_classes(g.centralizer_orders, g.identity_class)
        assert len(centre) == 1 + len(zs)
        for n in range(5 if g.k < 4 else 4):
            labels = multipartitions_of(n, g.k)
            for mu in labels:
                images = {oracles.central_image(g.table, g.identity_class, z, mu) for z in zs} | {mu}
                assert {wreath_chars._central_image(mu, moves) for moves, _ in centre} == images

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_one_column_per_centre_orbit(self, monkeypatch, name):
        # the table computes the least column of each centre orbit, each
        # from the sub-column left when its longest part is peeled: every
        # distinct sub-class once, in order of that part
        g = builtin(name)
        asked = spy_columns(monkeypatch)
        n = 4 if g.k < 4 else 3
        t = character_table(g, n)
        labels = multipartitions_of(n, g.k)
        computed = [labels[c] for c in centre_orbit_reps(g, n)]
        assert asked == oracles.top_sub_classes(computed)
        assert len(asked) <= len(computed)  # equal at k = 1, where peeling the top part is one-to-one
        assert {len(row) for row in t._by_rep} == {len(computed)}
        if len(wreath_chars._centre(g)) == 1:  # no centre: every column is computed
            assert len(computed) == len(labels)

    def test_z2_n10_computes_282_of_481_columns(self, monkeypatch):
        # the 282 computed columns come from 200 sub-columns
        calls = spy_columns(monkeypatch)
        t = character_table(Z2, 10)
        computed = [t.col_labels[c] for c in centre_orbit_reps(Z2, 10)]
        assert (len(calls), len(computed), len(t.col_labels)) == (200, 282, 481)
        assert calls == oracles.top_sub_classes(computed)
        assert {len(row) for row in t._by_rep} == {282}


class TestDivisibleCells:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_matches_a_double_loop(self, p):
        # zero weights on either side, negative values, empty blocks, then
        # random blocks
        vectors = [(-p, 0, 1), (p * p, -1, -2 * p)]
        cases = [
            ([0, 0], [1, 1, 1], vectors),
            ([1, 1], [0, 0, 0], vectors),
            ([2, 0], [3, 5, 7], vectors),
            ([0, 4], [3, 0, 7], vectors),
            ([], [1], []),
            ([3], [], [()]),
        ]
        rng = random.Random(p)
        for _ in range(200):
            height, width = rng.randrange(5), rng.randrange(6)
            outer = [rng.randrange(4) for _ in range(height)]
            inner = [rng.randrange(4) for _ in range(width)]
            cases.append((outer, inner, [tuple(rng.randint(-3 * p, 3 * p) for _ in inner) for _ in outer]))
        for outer, inner, vectors in cases:
            want = 0
            for i in range(len(outer)):
                for j in range(len(inner)):
                    if vectors[i][j] % p == 0:
                        want += outer[i] * inner[j]
            # outer and vectors are read once, as the censuses stream them
            assert _divisible_cells(iter(outer), inner, iter(vectors), p) == want, (outer, inner, vectors)

    @pytest.mark.parametrize("name", ["Z2", "S3"])
    def test_orbit_columns_read_the_representatives(self, name):
        g = builtin(name)
        for n in range(7):
            labels = mps(n, g.k)
            rows = labels[::3]
            counts, columns = _orbit_columns(g, n, labels, rows)
            got = list(map(list, columns))
            level = _level({}, n, g)
            want = []
            for mu in labels:
                column = character_column(g, n, mu)
                want.append([column[rep] for rep in level.reps])
            assert got == want, n
            assert counts == [sum(labels[row] in rows for row in orbit) for orbit in level.orbits]
            assert sum(counts) == len(rows)


class TestCharacterColumn:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_matches_mn_character(self, name):
        g = builtin(name)
        for n in range(COLUMN_ORACLE_N[name] + 1):
            labels = mps(n, g.k)
            for mu in labels:
                col = character_column(g, n, mu)
                assert col == [mn_character(g, lam, mu) for lam in labels]

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_representative_steps_match_cell_sets(self, name):
        g = builtin(name)
        top = 6 if g.k < 4 else 4
        labels = [list(enumerate_multipartitions(m, g.k)) for m in range(top + 1)]
        levels = {}
        for remaining in range(1, top + 1):
            sources = [labels[remaining][i] for i in _level(levels, remaining, g).reps]
            for length in range(1, remaining + 1):
                got = [
                    Counter((m >> 1, target, -1 if m & 1 else 1) for m, target in moves)
                    for moves in _peel_step(levels, remaining, length, g)
                ]
                want = oracles.brute_peel_step(sources, labels[remaining - length], length)
                assert got == want, (remaining, length)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_orbits_match_twisted_labels(self, name):
        # every row is the twist of its representative by its map, and every
        # representative is the least row of its orbit
        g = builtin(name)
        for m in range((6 if g.k < 4 else 4) + 1):
            labels = multipartitions_of(m, g.k)
            level = _level({}, m, g)
            assert [level.index[tuple(map(_beta_mask, mp))] for mp in labels] == list(range(len(labels)))
            assert [sorted(orbit) for orbit in level.orbits] == [
                [row for row, slot in enumerate(level.slot) if slot == i] for i in range(len(level.reps))
            ]
            assert [orbit[0] for orbit in level.orbits] == list(level.reps)
            for row, (slot, s) in enumerate(zip(level.slot, level.sym)):
                rep = level.reps[slot]
                theta, e = level.symmetries[s]
                assert oracles.twisted_label(g.table, labels[rep], theta, e) == labels[row]
                orbit = {
                    labels.index(oracles.twisted_label(g.table, labels[row], t, f))
                    for t in g.table
                    if t[g.identity_class] == 1
                    for f in (0, 1)
                }
                assert rep == min(orbit)

    @pytest.mark.parametrize("name, top", [("Z2", 8), ("S3", 5)])
    def test_orbit_rows_have_their_representative_zeros(self, name, top):
        # a row of an orbit is +-1 times its representative, which lets
        # exact_census count each orbit on its representative alone
        g = builtin(name)
        for n in range(top + 1):
            level = _level({}, n, g)
            assert sum(map(len, level.orbits)) == count_multipartitions(n, g.k)
            values = character_table(g, n).values
            for rep, orbit in zip(level.reps, level.orbits):
                for p in (2, 3):
                    want = _zeros_mod(values[rep], p)
                    assert [_zeros_mod(values[row], p) for row in orbit] == [want] * len(orbit), (n, rep, p)

    def test_orbits_follow_the_table(self):
        # S4 and D8 both have k = 5, so their levels hold the same
        # multipartitions, but their linear characters and so their orbits
        # differ; the loaded group is D8 with its rows in reverse order
        doc = store(builtin("D8"))
        doc.update(name="D8-reversed", table=doc["table"][::-1], trivial_char=4)
        n = 3
        for g in (builtin("S4"), builtin("D8"), load(json.dumps(doc))):
            labels = mps(n, g.k)
            levels = {}  # one table's columns share its levels
            for mu in labels:
                assert character_column(g, n, mu, levels=levels) == [mn_character(g, lam, mu) for lam in labels]
            assert n in levels and all(isinstance(level, _Level) for level in levels.values())

    def test_rejects_wrong_total(self):
        with pytest.raises(ValueError):
            character_column(Z2, 5, ((2, 1), ()))

    def test_rejects_wrong_component_count(self):
        with pytest.raises(ValueError):
            character_column(Z2, 3, ((2, 1), (), ()))

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            character_column(Z2, -1, ((), ()))

    # the label's constructor refuses a bad part, as it does everywhere;
    # the last case has increasing parts
    BAD_PARTS = {
        ((3, -1), ()): r"parts must be positive, got -1 at index 1",
        ((0, 2), ()): r"parts must be positive, got 0 at index 0",
        ((2,), (0,)): r"parts must be positive, got 0 at index 0",
        ((1, 2), ()): r"parts must be weakly decreasing, got \(1, 2\)",
    }

    @pytest.mark.parametrize("mu", list(BAD_PARTS))
    def test_rejects_part_below_one(self, mu):
        with pytest.raises(ValueError, match=rf"^{self.BAD_PARTS[mu]}$"):
            character_column(Z2, 2, mu)

    @pytest.mark.parametrize(
        "mu, part", [(((True, True), ()), "True"), (((1.0, 1.0), ()), "1.0"), (((1,), ("1",)), "'1'")]
    )
    def test_rejects_non_integer_part(self, mu, part):
        with pytest.raises(ValueError, match=rf"^parts must be integers, got {part} at index 0$"):
            character_column(Z2, 2, mu)

    @pytest.mark.parametrize("n", [True, 2.0])
    def test_rejects_non_integer_n(self, n):
        with pytest.raises(ValueError, match=rf"^n must be an integer, got {n!r}$"):
            character_column(Z2, n, ((1, 1), ()))


class TestPoolMap:
    """The process counts and chunk sizes the pool is asked for."""

    @pytest.mark.parametrize(
        "workers, items, want",
        [
            (5000, 2, [2, 1]),  # one process per item
            (5000, 100, [8, 3]),  # one per CPU; chunks of 100 // (4 * 8)
            (3, 100, [3, 8]),
            (2, 2, [2, 1]),
            (1, 100, []),  # serial
            (5000, 1, []),
            (5000, 0, []),
        ],
    )
    def test_capped_by_items_and_cpus(self, pool_requests, workers, items, want):
        assert list(wreath_chars._pool_map(abs, range(-items, 0), workers)) == list(range(items, 0, -1))
        assert pool_requests == want

    def test_serial_without_a_cpu_count(self, pool_requests, monkeypatch):
        monkeypatch.setattr(wreath_chars.os, "cpu_count", lambda: None)
        assert list(wreath_chars._pool_map(abs, [-1, -2], 4)) == [1, 2]
        assert pool_requests == []


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_csv_matches_per_cell_encoding(name):
    g = builtin(name)
    for n in range(4):
        t = character_table(g, n)
        buf = StringIO()
        t.write_csv(buf)
        text = buf.getvalue()
        assert text == oracles.reference_csv(t)
        rows = list(csv.reader(StringIO(text)))[1:]
        cells = [(lam, mu, v) for lam, row in zip(t.row_labels, t.values) for mu, v in zip(t.col_labels, row)]
        assert len(rows) == len(cells)
        for (rl, cl, v), (lam, mu, want) in zip(rows, cells):
            assert (_parse_label(rl), _parse_label(cl), int(v)) == (lam, mu, want)
