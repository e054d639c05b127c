"""Type-D Weyl group census built on the B_N = Z/2Z wr S_N engine.

D_N (signed permutation matrices with an even number of -1 entries) is the
index-2 kernel of the sign-product character psi, so Clifford theory labels
its irreducibles by unordered pairs {lambda, mu} of partitions: pairs with
lambda != mu restrict irreducibly, diagonal pairs split in two.  The census
here covers the sub-table whose rows are the nonsplit restrictions and whose
columns are whole B_N classes inside D_N; values there equal B_N values.
Split-class corrections are out of scope, so every report carries a coverage
fraction (a lower bound: it treats each covered B_N class as one column of
the full D_N table, whose column count equals the total irrep count).
This module supplies only the rows, columns, draws and coverage of type D;
the sampled census's checks, hit count and report are in
``stats._sampled_census``."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import partial
from typing import NamedTuple

from .base_group import builtin
from .congruence import _canonical, require_prime
from .partitions import (
    MultiPartition,
    _check_int,
    _label_k,
    count_multipartitions,
    count_partitions,
    multipartitions_of,
)
from .stats import DEFAULT_CONFIDENCE, CensusReport, CounterStream, random_multipartition
from .stats import _divisible, _sampled_census, _zeros_mod
from .wreath_chars import DEFAULT_CELL_BUDGET, CellBudgetExceeded, _columns


def bn_class_in_dn(mu: MultiPartition) -> bool:
    """True iff the B_N class mu lies inside D_N: psi(mu) = (-1)^(#parts of
    mu_2) = 1, since each cycle with product -1 carries an odd sign count."""
    return psi_value(mu) == 1


def psi_value(mu: MultiPartition) -> int:
    """The sign-product character on the class mu of B_N."""
    mu = _label_k(mu, 2, "class label")
    return -1 if len(mu[1]) % 2 else 1


class DnIrrepCensus(NamedTuple):
    nonsplit: int
    split_halves: int

    @property
    def total(self) -> int:
        return self.nonsplit + self.split_halves


def dn_irrep_census(n: int) -> DnIrrepCensus:
    """Irreducible counts for D_N: (p_2(n) - p(n/2))/2 nonsplit pairs plus
    2 p(n/2) split halves for even n; p_2(n)/2 and 0 for odd n."""
    _check_int("n", n, 1)
    p2 = count_multipartitions(n, 2)
    if n % 2:
        if p2 % 2:  # swapping the two components pairs off every label
            raise ArithmeticError(f"p_2({n}) = {p2} is odd for odd n")
        return DnIrrepCensus(nonsplit=p2 // 2, split_halves=0)
    diag = count_partitions(n // 2)
    return DnIrrepCensus(nonsplit=(p2 - diag) // 2, split_halves=2 * diag)


def _dn_column_count(n: int) -> int:
    """Number of B_N classes inside D_N: labels (alpha, beta) with an even
    number of parts in beta, sum_a p(a) e(n - a).

    e(m) = (p(m) + (-1)^m sd(m)) / 2 counts the partitions of m with an even
    number of parts, where sd(m) counts the partitions of m into distinct odd
    parts: prod_j 1/(1 + q^j) = prod_j (1 - q^(2j-1)) signs each partition by
    (-1)^(#parts), and a partition into odd parts has #parts = m mod 2.
    """
    sd = [1] + [0] * n
    for part in range(1, n + 1, 2):
        for m in range(n, part - 1, -1):
            sd[m] += sd[m - part]
    p = [count_partitions(m) for m in range(n + 1)]
    return sum(p[a] * (p[n - a] + (-1) ** (n - a) * sd[n - a]) // 2 for a in range(n + 1))


def dn_half_classes_property(n: int) -> Fraction:
    """Exact fraction of B_N classes lying inside D_N; always >= 1/2."""
    _check_int("n", n, 1)
    return Fraction(_dn_column_count(n), count_multipartitions(n, 2))


def nonsplit_rows(n: int) -> list[MultiPartition]:
    """One representative per unordered pair {lambda, mu}, lambda != mu: the
    lexicographically smaller of the two orderings."""
    rows = []
    for mp in multipartitions_of(n, 2):
        swapped = (mp[1], mp[0])
        if mp < swapped:
            rows.append(mp)
    return rows


def _sub_table(n: int) -> tuple[int, Fraction]:
    """The cells of the determined sub-table, nonsplit rows times D_N
    columns, and the share of the full D_N table they cover."""
    census = dn_irrep_census(n)
    cells = census.nonsplit * _dn_column_count(n)
    return cells, Fraction(cells, census.total * census.total)


def _draw_dn_cell(n: int, seed: int, index: int):
    """Sample index of the sampled D_N census: a nonsplit row and a D_N column."""
    stream = CounterStream(seed, index)
    while True:  # ordered pair, diagonal rejected: uniform on unordered pairs
        lam = random_multipartition(n, 2, stream)
        if lam[0] != lam[1]:
            break
    while True:  # uniform over B_N classes inside D_N
        mu = random_multipartition(n, 2, stream)
        if bn_class_in_dn(mu):
            break
    return lam, mu


def dn_restricted_census(
    n: int,
    p: int,
    mode: str = "exact",
    samples: int | None = None,
    seed: int | None = None,
    cell_budget: int = DEFAULT_CELL_BUDGET,
    confidence: float = DEFAULT_CONFIDENCE,
) -> CensusReport:
    """Divisibility census over the determined D_N sub-table.

    exact: every (nonsplit row, D_N column) cell via the column recursion,
    one column per mod-p canonical label weighted by the D_N columns that
    mash to it.  sampled: uniform cells, rows by rejection on ordered pairs
    (reject the diagonal), columns by rejection on psi = 1, each cell
    decided at its canonical label; needs samples and seed, which exact mode
    refuses.  At p = 2 a canonical label can fall outside D_N; its B_N values
    are still congruent to those of the D_N column, which is all the census
    reads.
    """
    require_prime(p)
    _check_int("n", n, 1)
    _check_int("cell_budget", cell_budget)
    group = builtin("Z2")
    # every argument is checked before p_2(n) and the D_N columns are counted
    if mode == "sampled":
        if samples is None or seed is None:
            raise ValueError("sampled mode needs samples and seed")
        # _sampled_census checks the rest before its first draw
        report = _sampled_census(
            "dn-sampled", "D", 2, n, p,
            partial(_draw_dn_cell, n), partial(_divisible, group, p),
            samples, seed, confidence=confidence,
        )
        return report._replace(coverage=_sub_table(n)[1])
    if mode != "exact":
        raise ValueError(f"mode must be 'exact' or 'sampled', got {mode!r}")
    for name, value in (("samples", samples), ("seed", seed)):
        if value is not None:
            raise ValueError(f"{name} applies only to mode='sampled'")
    cells, coverage = _sub_table(n)
    # the budget is checked on the counts, before any label is enumerated
    if cells > cell_budget:
        raise CellBudgetExceeded(f"sub-table needs {cells} cells, budget is {cell_budget}")
    dn_cols = [mp for mp in multipartitions_of(n, 2) if len(mp[1]) % 2 == 0]
    rows = nonsplit_rows(n)
    # D_N columns with one canonical label are congruent mod p, so each
    # canonical column is computed once and its row hits counted once per
    # D_N column mapping to it
    weights = Counter(_canonical(mu, p) for mu in dn_cols)
    position = {lam: i for i, lam in enumerate(multipartitions_of(n, 2))}
    row_positions = [position[lam] for lam in rows]
    hits = 0
    for col, weight in zip(_columns(group, list(weights)), weights.values()):
        hits += weight * _zeros_mod(map(col.__getitem__, row_positions), p)
    return CensusReport(
        mode="dn-exact",
        group="D",
        n=n,
        p=p,
        cells_evaluated=cells,
        divisible_count=hits,
        coverage=coverage,
    )
